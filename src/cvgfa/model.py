"""Domain types for the grouped factor model and its variational state.

A dataset is M matrices sharing N sample rows. Factor k loads on group m
through a spike-and-slab column gated by binary inclusions z, whose
group-level probabilities are marginalized out; everything that remains
lives in VariationalState. Of the K factors of the truncation, the state
holds the rows of the active ones only (VariationalState.factors): the
warm start holds its signal components, and a factor the sweep prunes is
at its prior and leaves the state (_keep_rows), keeping only its q(beta)
and table counts. The slots the warm start leaves out get theirs from
the first two sweeps, as rows with no inclusion.
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .approx import _group_sums
from .errors import DataError, UsageError

__all__ = [
    "ACTIVE_MASS",
    "BETA_B_FLOOR",
    "GroupedDataset",
    "Hyperparameters",
    "FitOptions",
    "VariationalState",
    "SpectralStart",
    "spectral_start",
    "init_state",
    "active_factors",
]

# q(beta) rate floor; at K = 1 the prior rate kappa0 (K - 1) / K collapses
# to 0, which would make the posterior improper.
BETA_B_FLOOR = 1e-6

# The inclusion mass that makes a factor active (active_factors), the one
# rule behind the sweep's pruning, trace.csv, best.json and eval.
ACTIVE_MASS = 1e-2


@dataclass
class GroupedDataset:
    """M real matrices over the same N samples; group m has D_m columns."""

    groups: list
    group_names: list

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_samples(self) -> int:
        return int(self.groups[0].shape[0]) if self.groups else 0

    @property
    def dims(self):
        return [int(g.shape[1]) for g in self.groups]

    def validate(self):
        if len(self.groups) < 1:
            raise DataError("dataset must contain at least one group")
        if len(self.group_names) != len(self.groups):
            raise DataError("group_names and groups differ in length")
        if len(set(self.group_names)) != len(self.group_names):
            raise DataError("group names must be unique")
        n = int(self.groups[0].shape[0]) if self.groups[0].ndim == 2 else -1
        for name, g in zip(self.group_names, self.groups):
            if g.ndim != 2:
                raise DataError(f"group {name!r} is not a matrix")
            if g.shape[0] != n or n < 1:
                raise DataError(f"group {name!r} does not share the sample count")
            if g.shape[1] < 1:
                raise DataError(f"group {name!r} has no variables")
            if not np.all(np.isfinite(g)):
                raise DataError(f"group {name!r} contains non-finite entries")
        return self


@dataclass
class Hyperparameters:
    """Truncation level and prior constants.

    Priors: beta_k ~ Beta(kappa0/K, kappa0(K-1)/K), alpha ~ Gam(c0, d0),
    loading precisions lambda ~ Gam(e0, f0), noise precisions
    tau ~ Gam(g0, h0).
    """

    K: int
    kappa0: float = 1.0
    c0: float = 0.1
    d0: float = 0.1
    e0: float = 0.1
    f0: float = 0.1
    g0: float = 0.1
    h0: float = 0.1

    def validate(self):
        if not (_is_whole(self.K) and self.K >= 1):
            raise UsageError("truncation level K must be an integer of at least 1")
        for name in ("kappa0", "c0", "d0", "e0", "f0", "g0", "h0"):
            if not _is_positive_real(getattr(self, name)):
                raise UsageError(f"hyperparameter {name} must be positive and finite")
        return self

    @property
    def lambda_shape(self) -> float:
        """Shape of every q(lambda_kd), e0 + 1/2; no data moves it."""
        return self.e0 + 0.5

    def tau_shape(self, d_m) -> float:
        """Shape of every q(tau_n) of a group with d_m columns, g0 + d_m / 2."""
        return self.g0 + 0.5 * d_m


@dataclass
class FitOptions:
    """Knobs for a single fit run: engine.fit's stopping rule (rel_tolerance)
    and the most sweeps it waits for (max_sweeps)."""

    max_sweeps: int = 150
    rel_tolerance: float = 5e-7
    seed: int = 0

    def validate(self):
        if not (_is_whole(self.max_sweeps) and self.max_sweeps >= 1):
            raise UsageError("max_sweeps must be an integer of at least 1")
        if not _is_positive_real(self.rel_tolerance):
            raise UsageError("rel_tolerance must be positive and finite")
        if not (_is_whole(self.seed) and self.seed >= 0):
            raise UsageError("seed must be a non-negative integer")
        return self


def _is_positive_real(value):
    """Whether value is a positive real number a float holds: not a bool,
    NaN, infinity or an integer beyond the largest float (not converted)."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and 0 < value <= sys.float_info.max
    )


def _is_whole(value):
    """Whether value is a whole number: an integer, or a finite float with no
    fractional part. A bool is not one, though Python counts it an int."""
    if isinstance(value, bool):
        return False
    if isinstance(value, numbers.Integral):
        return True
    return (
        isinstance(value, numbers.Real)
        and math.isfinite(value)
        and float(value).is_integer()
    )


@dataclass
class VariationalState:
    """The free variational parameters of the mean-field posterior.

    The state holds the rows of the factors listed in factors, their ids
    among the K of the truncation in ascending order (K+ of them; every
    factor, arange(K), when not given). A factor the sweep prunes leaves
    the state: it is at the prior, whose expected loadings are zeros, and
    nothing but its q(beta) and table counts is kept of it.
    Arrays over every group's columns, the groups side by side in order,
    dims[m] columns for group m (spans[m] are its columns):
      rho             K+ x sum(D_m)  inclusion probabilities q(z = 1)
      w_mean          K+ x sum(D_m)  loading means
      w_var           K+ x sum(D_m)  loading variances
    They are C-ordered, so row i, held factor i of every group, is one
    contiguous row that a factor's step reads and writes back whole.
    Other arrays:
      tau_rate        M x N     q(tau) gamma rates, row m group m's samples
      f_mean, f_var   N x K+    factor score means / variances
      beta_a, beta_b  K         q(beta) parameters
      alpha_shape, alpha_rate   M    q(alpha) parameters
      aux_s_mean, aux_t_mean    M x K  expected table counts
    The scores are held in Fortran order, each factor's column contiguous,
    as a column gather such as f_mean[:, rows] returns them. The sweep and
    the objective multiply these arrays with BLAS and einsum, which add in
    an order that follows the layout, so the layout is part of every
    fitted value: in C order the first sweep's scores differ in the last
    bit.
    q(beta) and the table counts keep all K factors: the prior reads the
    truncation K (a0 = kappa0 / K), and q(alpha) reads the table counts of
    every slot: a pruned factor's kept values, and those the first two
    sweeps give the slots the warm start leaves out (engine.sweep). Row i
    of rho and column i of f_mean belong to factor factors[i], entry
    factors[i] of beta_a and column factors[i] of aux_s_mean.
    Nothing derived is stored: the q(lambda) and q(tau) shapes are
    Hyperparameters.lambda_shape and .tau_shape(D_m), the q(lambda) rates
    follow from q(w) (_lambda_rate) and E[log eta] from q(alpha), which
    engine.sweep takes with its other digammas.
    """

    rho: np.ndarray
    w_mean: np.ndarray
    w_var: np.ndarray
    dims: list
    f_mean: np.ndarray
    f_var: np.ndarray
    beta_a: np.ndarray
    beta_b: np.ndarray
    tau_rate: np.ndarray
    alpha_shape: np.ndarray
    alpha_rate: np.ndarray
    aux_s_mean: np.ndarray
    aux_t_mean: np.ndarray
    factors: np.ndarray = None

    def __post_init__(self):
        self.f_mean = np.asfortranarray(self.f_mean)
        self.f_var = np.asfortranarray(self.f_var)
        if self.factors is None:
            self.factors = np.arange(self.rho.shape[0])

    @property
    def n_groups(self) -> int:
        return len(self.dims)

    @property
    def n_factors(self) -> int:
        """K, the truncation; the state holds len(factors) of them."""
        return int(self.beta_a.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.f_mean.shape[0])

    @property
    def spans(self):
        """Each group's columns of rho, w_mean and w_var, one slice each."""
        return _spans(self.dims)

    def copy(self):
        return VariationalState(
            rho=self.rho.copy(),
            w_mean=self.w_mean.copy(),
            w_var=self.w_var.copy(),
            dims=list(self.dims),
            f_mean=self.f_mean.copy(order="F"),
            f_var=self.f_var.copy(order="F"),
            beta_a=self.beta_a.copy(),
            beta_b=self.beta_b.copy(),
            tau_rate=self.tau_rate.copy(),
            alpha_shape=self.alpha_shape.copy(),
            alpha_rate=self.alpha_rate.copy(),
            aux_s_mean=self.aux_s_mean.copy(),
            aux_t_mean=self.aux_t_mean.copy(),
            factors=self.factors.copy(),
        )

    def validate(self):
        dims = self.dims
        if not (
            isinstance(dims, list)
            and dims
            and all(isinstance(d, numbers.Integral) and d >= 1 for d in dims)
        ):
            raise DataError("dims must be a non-empty list of positive group widths")
        # n_factors and n_samples read these shapes; every array is checked
        # against an exact shape below
        if self.beta_a.ndim != 1 or self.f_mean.ndim != 2:
            raise DataError("beta_a must be a vector and f_mean a matrix")
        M = self.n_groups
        K = self.n_factors
        N = self.n_samples
        factors = self.factors
        if not (
            isinstance(factors, np.ndarray)
            and factors.ndim == 1
            and factors.dtype.kind in "iu"
        ):
            raise DataError("factors must be a vector of integers")
        if np.any(factors[1:] <= factors[:-1]) or not np.all(
            (factors >= 0) & (factors < K)
        ):
            raise DataError(f"factors must ascend strictly within [0, {K})")
        held = factors.shape[0]
        rows = ((held, sum(dims)), "K+ rows, one per held factor, by sum(D_m)")
        scores = ((N, held), "N x K+, one column per held factor")
        shapes = {
            "rho": rows,
            "w_mean": rows,
            "w_var": rows,
            "f_mean": scores,
            "f_var": scores,
            "tau_rate": ((M, N), "M x N"),
            "beta_a": ((K,), "length K"),
            "beta_b": ((K,), "length K"),
            "alpha_shape": ((M,), "length M"),
            "alpha_rate": ((M,), "length M"),
            "aux_s_mean": ((M, K), "M x K"),
            "aux_t_mean": ((M, K), "M x K"),
        }
        # every float field must be finite: the comparisons below pass inf
        # and NaN
        for name, (shape, what) in shapes.items():
            arr = getattr(self, name)
            if not isinstance(arr, np.ndarray) or arr.shape != shape:
                raise DataError(
                    f"{name} has shape {np.shape(arr)}, want {shape}: {what}"
                )
            if not np.isfinite(arr).all():
                raise DataError(f"{name} contains non-finite entries")
        if np.any(self.rho < 0) or np.any(self.rho > 1):
            raise DataError("rho outside [0, 1]")
        positive = "w_var f_var tau_rate beta_a beta_b alpha_shape alpha_rate"
        for name in positive.split():
            if not np.all(getattr(self, name) > 0):
                raise DataError(f"{name} must be strictly positive")
        widths = np.array(dims)[:, None]
        for name in ("aux_s_mean", "aux_t_mean"):
            arr = getattr(self, name)
            if np.any(arr < 0) or np.any(arr > widths):
                raise DataError(f"{name} outside [0, D_m]")
        return self


def _spans(widths):
    """The slices of consecutive runs of columns of the given widths, in
    order: each group's columns of an array that holds the groups side by
    side."""
    spans, end = [], 0
    for d in widths:
        spans.append(slice(end, end + d))
        end += d
    return spans


# Warm-start construction constants. Singular values above _INIT_EDGE_MULT
# times the median count as signal; rotated loadings at least _INIT_LOADING_CUT
# in magnitude seed confident inclusions.
_INIT_EDGE_MULT = 2.0
_INIT_LOADING_CUT = 0.5
_INIT_RHO_IN = 0.9
_INIT_RHO_OUT = 0.02
_INIT_W_VAR = 1e-2
_INIT_F_VAR = 1e-2
_INIT_F_JITTER = 0.1


def _varimax(loadings, max_iters=200, tol=1e-10):
    """Orthogonal rotation maximizing the squared-loading variance.

    Takes variables x components, returns the components x components
    rotation. Fewer than two components rotate trivially. The cube is two
    products and the column scaling a broadcast: x**3 calls libm pow for
    every entry, and a product with a diagonal matrix is a whole matmul.
    """
    p, r = loadings.shape
    rot = np.eye(r)
    if r < 2:
        return rot
    last = 0.0
    for _ in range(max_iters):
        rotated = loadings @ rot
        sq = rotated * rotated
        target = loadings.T @ (sq * rotated - rotated * sq.sum(axis=0) / p)
        u, s, vt = np.linalg.svd(target)
        rot = u @ vt
        total = float(s.sum())
        if last and total <= last * (1.0 + tol):
            break
        last = total
    return rot


@dataclass(frozen=True)
class SpectralStart:
    """The seed-free part of the warm start, shared by every restart.

    scores (N x k_use) are the leading principal-component scores, the
    signal components rotated and ordered as their loadings; loadings
    (r_sig x sum D_m) are the rotated loadings of the r_sig signal
    components, the groups' columns side by side; row_norms (M x N) are
    the groups' _row_norms, row m group m's. The components past the
    signal cut get no loadings, so no K x sum D_m array is kept. The arrays
    are read-only, also after pickling, which rebuilds the object through
    its constructor.
    """

    scores: np.ndarray
    loadings: np.ndarray
    row_norms: np.ndarray

    def __post_init__(self):
        for a in (self.scores, self.loadings, self.row_norms):
            a.setflags(write=False)

    def __reduce__(self):
        return SpectralStart, (self.scores, self.loadings, self.row_norms)


def spectral_start(data: GroupedDataset, hyper: Hyperparameters) -> SpectralStart:
    """The warm start's components, which do not depend on the seed.

    The principal components of the column-concatenated data come from the
    eigendecomposition of its N x N Gram matrix, without forming the
    concatenation (_principal_components); they are the SVD's, up to the
    sign of each component. Components whose singular value clears
    _INIT_EDGE_MULT (2) times the median are signal: they are rotated
    toward sparse loadings (varimax) and ordered by loading energy. The
    eigenvector signs can differ from an SVD's; the varimax rotation, the
    signal cut and init_state's inclusion cut treat a component and its
    negation alike, so rho does not depend on them. Depends on the data
    and on hyper.K only; run_restarts takes it once for all its restarts.
    """
    hyper.validate()
    data.validate()
    _, scores, signal = _principal_components(data.groups, int(hyper.K))
    r_sig = signal.shape[0]
    rot = _varimax(signal.T)
    signal = rot.T @ signal
    scores[:, :r_sig] = scores[:, :r_sig] @ rot
    order = np.argsort(-(signal**2).sum(axis=1))
    scores[:, :r_sig] = scores[:, :r_sig][:, order]
    return SpectralStart(
        scores=scores,
        loadings=signal[order],
        row_norms=_row_norms(data.groups),
    )


def _beta_prior(hyper):
    """q(beta) at the prior, (kappa0 / K, kappa0 (1 - 1/K)) with b floored
    at BETA_B_FLOOR: what engine.update_beta_params gives from table counts
    of 0, bit for bit."""
    K = int(hyper.K)
    return hyper.kappa0 / K, max(hyper.kappa0 * (1.0 - 1.0 / K), BETA_B_FLOOR)


def init_state(
    data: GroupedDataset, hyper: Hyperparameters, seed, start=None
) -> VariationalState:
    """The spectral warm start of one restart: a state, before any sweep.

    Lays out the seed-free components of spectral_start (start, taken here
    when None) and the seed. The state holds the r_sig signal components
    only (factors arange(r_sig)); every other slot of the K is at the
    prior, as a factor the sweep prunes is, with q(beta) at the prior
    (_beta_prior) and table counts of 0, which the first two sweeps update
    as those of a row with no inclusion (engine.sweep). Entries
    of the rotated signal loadings whose magnitude reaches 0.5 become
    confident inclusions (rho 0.9, the rest 0.02), so every held row has a
    mass of at least 0.02 D_m, above ACTIVE_MASS: every factor it holds is
    active. Loading and noise precision posteriors start at their one-step
    updates given those loadings, and the factor scores get a small
    seed-dependent jitter, the held columns of one N x K draw. A start
    given here must be spectral_start(data, hyper) of the same data and K;
    the result is then the same, bit for bit. Runs no sweep: engine.fit
    sweeps this state. Deterministic given (data, seed).
    """
    hyper.validate()
    data.validate()
    if not (_is_whole(seed) and seed >= 0):
        raise UsageError("seed must be a non-negative integer")
    if start is None:
        start = spectral_start(data, hyper)
    K = int(hyper.K)
    M = data.n_groups
    N = data.n_samples
    scores, signal = start.scores, start.loadings
    k_use = min(K, N, sum(data.dims))
    if scores.shape != (N, k_use) or signal.shape[1] != sum(data.dims):
        raise UsageError("the spectral start was taken on other data or another K")
    r_sig = signal.shape[0]
    prior_a, prior_b = _beta_prior(hyper)
    rng = np.random.default_rng(int(seed))

    f_mean = rng.standard_normal((N, K))[:, :r_sig] * _INIT_F_JITTER
    f_mean += scores[:, :r_sig]
    f_var = np.full((N, r_sig), _INIT_F_VAR)

    # every r_sig x sum(D_m) array is built in the state's layout, in place
    dims = data.dims
    keep = np.abs(signal) >= _INIT_LOADING_CUT
    w_mean = np.where(keep, signal, 0.0)
    rho = np.where(keep, _INIT_RHO_IN, _INIT_RHO_OUT)
    del keep
    w_var = np.full(w_mean.shape, _INIT_W_VAR)
    coef = rho * w_mean
    norms = _sq_norms(start.row_norms, f_mean, *_loading_products(data.groups, coef))
    second, square, _ = _loading_sums(rho, w_mean, w_var, coef, dims)
    sq = _expected_sq_residuals(norms, f_mean, f_var, second, square)
    tau_rate = hyper.h0 + 0.5 * sq

    return VariationalState(
        rho=rho,
        w_mean=w_mean,
        w_var=w_var,
        dims=dims,
        f_mean=f_mean,
        f_var=f_var,
        beta_a=np.full(K, prior_a),
        beta_b=np.full(K, prior_b),
        tau_rate=tau_rate,
        alpha_shape=np.full(M, hyper.c0),
        alpha_rate=np.full(M, hyper.d0),
        aux_s_mean=np.zeros((M, K)),
        aux_t_mean=np.zeros((M, K)),
        factors=np.arange(r_sig),
    )


def _principal_components(groups, k):
    """Singular values, scores and signal loadings of the column-stacked
    data.

    The stacked N x sum(D_m) matrix is never formed: its left singular
    vectors u and squared singular values are the eigenpairs of the N x N
    Gram matrix sum_m X_m X_m^T. Returns all min(N, sum D_m) singular values
    in descending order, the scores sqrt(N) u of the leading k_use =
    min(k, that count) components (N x k_use), and the loadings
    u^T X_m / sqrt(N) of the signal ones among them, one block of columns
    per group (r_sig x sum D_m), which equal the SVD's s v^T / sqrt(N).
    The signal components are the leading r_sig, those whose singular value
    clears _INIT_EDGE_MULT times the median, at least one and at most
    k_use; the others get no loadings. Signs are eigh's: a component and
    its negation are the same component.
    """
    n = groups[0].shape[0]
    gram = groups[0] @ groups[0].T
    for x in groups[1:]:
        gram += x @ x.T
    evals, evecs = np.linalg.eigh(gram)
    n_sv = min(n, sum(x.shape[1] for x in groups))
    # eigh sorts ascending; rounding can leave the zero eigenvalues of
    # rank-deficient data slightly negative
    sv = np.sqrt(np.maximum(evals[::-1][:n_sv], 0.0))
    u = np.ascontiguousarray(evecs[:, ::-1][:, : min(k, n_sv)])
    del evecs
    edge = _INIT_EDGE_MULT * float(np.median(sv))
    r_sig = max(1, min(u.shape[1], int((sv > edge).sum())))
    root_n = np.sqrt(n)
    widths = [x.shape[1] for x in groups]
    loads = np.empty((r_sig, sum(widths)))
    for x, cols in zip(groups, _spans(widths)):
        np.matmul(u.T[:r_sig], x, out=loads[:, cols])
    loads /= root_n
    return sv, root_n * u, loads


def active_factors(state: VariationalState):
    """Factors whose expected loading mass reaches ACTIVE_MASS in some group.

    Mass of factor k in group m is the sum of its row of rho over group
    m's columns (state.spans[m]); a factor counts as active when its best
    group mass is at least ACTIVE_MASS. Returns the ids (state.factors) of
    the active held rows; after a sweep, every held factor.
    """
    active = _active_rows(state.rho, state.dims)
    return {int(k) for k in state.factors[active]}


def _group_mass(rows, dims):
    """sum_d rho[k, d] of each row of rows (of the state's rho, dims the
    group widths) in each group, rows x M: each np.sum of that row's group alone
    (approx._group_sums), whichever rows are taken."""
    return _group_sums(lambda cols: rows[:, cols], rows.shape[0], dims)


def _active_rows(rows, dims):
    """active_factors' rule for each row of rows (of the state's rho): whether
    its best _group_mass reaches ACTIVE_MASS, the same answer from the whole
    array and from a block of its rows."""
    return _is_active(_group_mass(rows, dims))


def _is_active(mass):
    """active_factors' rule on group masses (rows x M, as _group_mass gives
    them, or the same sums taken in another pass): whether each row's best
    reaches ACTIVE_MASS."""
    return mass.max(axis=1) >= ACTIVE_MASS


def _keep_rows(state, keep):
    """Drop from state the held factors whose entry of the boolean mask keep
    (one per held row) is False: their rows of rho, w_mean and w_var, their
    columns of f_mean and f_var, and their ids. Their q(beta) and table
    counts stay, at all K factors, and the sweep keeps them from then on
    unless q(beta) is still at the prior (engine.sweep)."""
    if keep.all():
        return
    # a row gather is C-ordered, a column gather in Fortran order
    state.rho = state.rho[keep]
    state.w_mean = state.w_mean[keep]
    state.w_var = state.w_var[keep]
    state.f_mean = state.f_mean[:, keep]
    state.f_var = state.f_var[:, keep]
    state.factors = state.factors[keep]


def _prior_w_var(hyper):
    """f0 / e0, the loading variance of a factor at the prior. At rho = 0
    the loading mean is 0 and the variance update is 1 / E[lambda] =
    (f0 + w_var / 2) / (e0 + 1/2), with the rate derived from the variance
    it replaces, whose fixed point this is. A factor the state does not
    hold is at the prior: rho 0, q(w) mean 0 and this variance, q(f)
    N(0, 1)."""
    return hyper.f0 / hyper.e0


# The helpers below are shared with engine: the derived lambda rates, the
# data's row norms, and, stacked over the groups on a leading axis, the
# data and loading products, the residual's per-sample squared norms, the
# loading sums and the expected squared residuals, which the sweep's q(tau)
# update, init_state and the objective all read. They are
# steps of their callers, not entry points, hence private names;
# bench/tracer.py times public functions only, so their time stays with
# the caller. The sweeps' training MSE (the stopping rule and trace.csv's
# column) is estimated from these norms. metrics.train_mse is
# exact: cvgfa fit takes it once per restart, after the last sweep, and
# the checkpoint, best.json, aggregate.json and cvgfa eval all report it.


def _lambda_rate(w_mean, w_var, f0):
    """The q(lambda) gamma rates f0 + E[w^2] / 2 of loadings (w_mean, w_var),
    a new array, as ((w * w + var) * 0.5) + f0: in this order each rate
    equals the printed update's bit for bit, which TestLambdaRate checks
    against oracle.update_lambda, so the order must not change."""
    rate = w_mean * w_mean
    rate += w_var
    rate *= 0.5
    rate += f0
    return rate


def _row_norms(groups):
    """||x_n||^2 of every group m and sample n, M x N, each row one einsum
    of its group: what _sq_norms reads of the data alone. The data never
    change during a fit, so spectral_start takes them once
    (SpectralStart.row_norms), for init_state and every sweep."""
    return np.array([np.einsum("nd,nd->n", x, x) for x in groups])


def _loading_products(groups, coef):
    """X_m C_m^T and C_m C_m^T of every group m, stacked as M x N x K+ and
    M x K+ x K+ arrays: what _sq_norms and the sweep's score block read of
    the data and the loadings. coef holds the expected loadings rho * mu_w
    of every group (K+ x sum D_m, the groups' columns side by side, as the
    state's rho), and groups the data, whose widths mark the groups'
    columns. Each product is one matmul of the group's arrays, written into
    its slice of the stack: the same call, and so the same bits, as the
    product of that group alone."""
    n = groups[0].shape[0] if groups else 0
    k = coef.shape[0]
    xc = np.empty((len(groups), n, k))
    cc = np.empty((len(groups), k, k))
    spans = _spans([x.shape[1] for x in groups])
    for m, (x, cols) in enumerate(zip(groups, spans)):
        c = coef[:, cols]
        np.matmul(x, c.T, out=xc[m])
        np.matmul(c, c.T, out=cc[m])
    return xc, cc


def _sq_norms(x_norms, f_mean, xc, cc):
    """||x_n - C_m^T f_n||^2 of every group m and sample n, C_m = rho * mu_w
    of group m, as one M x N array.

    x_norms are the groups' ||x_n||^2 (_row_norms, M x N), and xc = X_m C_m^T
    and cc = C_m C_m^T the stacked _loading_products. Expands to
    ||x_n||^2 - 2 f_n^T (X C^T)_n + f_n^T (C C^T) f_n, which reads the data
    only through its row norms and xc, and forms no N x D temporary: one
    batched matmul f_mean @ cc, one subtraction and one einsum over the
    stack, whose every (m, n) entry equals the single group's value bit for
    bit (one group's arrays, without the leading axis, give its N vector).
    The terms cancel as the residual shrinks next to the data; on N = 100,
    400 columns, K = 6 and loadings of sd 2, the MSE's relative error is
    about 1e-15 at noise sd 1, 2e-7 at 1e-4 and 1e-3 at 1e-6 (9.4e-4 to
    3.2e-3 over the draws tried). Rounding can take a near-zero norm below
    0; it is clamped there.
    """
    cross = f_mean @ cc
    cross -= 2.0 * xc
    r = x_norms + np.einsum("nk,...nk->...n", f_mean, cross)
    return np.maximum(r, 0.0, out=r)


def _loading_sums(rho, w_mean, w_var, coef, widths):
    """sum_d rho E[w^2], sum_d (rho mu_w)^2 and sum_d rho of every factor,
    per group, stacked on a leading axis of three.

    The arrays are the state's rows (rho and its kin), the groups side by
    side along the rows, widths[m] columns for group m, and coef is the
    expected loadings rho * mu_w. The first sums are the loadings' share of
    the factor scores' precision (the sweep's score block) and the first
    two enter _expected_sq_residuals; the third are the group masses, bit
    for bit _group_mass, which the activity rule (_is_active) and the
    objective's collapsed term read. Each sum is an M x K+ array, row m
    group m's. The summands are taken over runs of whole groups
    (approx._group_sums), and each sum is np.sum of its factor's row in its
    group alone.
    """

    def terms(cols):
        w = w_mean[:, cols]
        kinds = np.empty((3,) + w.shape)
        np.multiply(w, w, out=kinds[0])
        kinds[0] += w_var[:, cols]
        kinds[0] *= rho[:, cols]
        np.multiply(coef[:, cols], coef[:, cols], out=kinds[1])
        kinds[2] = rho[:, cols]
        return kinds

    sums = _group_sums(terms, rho.shape[0], widths)
    return np.ascontiguousarray(sums.transpose(0, 2, 1))


def _expected_sq_residuals(norms, f_mean, f_var, second, square):
    """E[||x_n - G_m f_n||^2] of every group m and sample n, one M x N array.

    norms are the groups' residual squared rows at the expected loadings
    and scores (_sq_norms, M x N), second and square the M x K+
    _loading_sums, and f_mean and f_var the scores, which every group
    shares. The expectation adds to the norms the posterior-variance
    corrections sum_k (rho E[w^2] E[f^2] - (rho mu_w mu_f)^2), each group's
    from one batched matrix-vector product over the stack, E[f^2] times
    second[m], which gives the bits of the product of that group alone.
    """
    f2 = f_mean * f_mean
    ef2 = f2 + f_var
    sq = np.matmul(ef2, second[:, :, None])[..., 0]
    sq += norms
    sq -= np.matmul(f2, square[:, :, None])[..., 0]
    return sq
