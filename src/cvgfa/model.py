"""Domain types for the grouped factor model and its variational state.

A dataset is M matrices sharing N sample rows. Factor k loads on group m
through a spike-and-slab column gated by binary inclusions z, whose
group-level probabilities are marginalized out; everything that remains
lives in VariationalState.
"""

import math
from dataclasses import dataclass

import numpy as np

from .approx import digamma
from .errors import DataError, UsageError

__all__ = [
    "BETA_B_FLOOR",
    "GroupedDataset",
    "Hyperparameters",
    "FitOptions",
    "VariationalState",
    "init_state",
    "active_factors",
]

# q(beta) rate floor; at K = 1 the prior rate kappa0 (K - 1) / K collapses
# to 0, which would make the posterior improper.
BETA_B_FLOOR = 1e-6


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
        if int(self.K) < 1:
            raise UsageError("truncation level K must be at least 1")
        for name in ("kappa0", "c0", "d0", "e0", "f0", "g0", "h0"):
            value = getattr(self, name)
            # NaN fails the comparison; infinity fails isfinite
            if not (value > 0 and math.isfinite(value)):
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
    """Knobs for a single fit run."""

    max_sweeps: int = 200
    rel_tolerance: float = 1e-5
    seed: int = 0
    active_factor_threshold: float = 1e-2

    def validate(self):
        if int(self.max_sweeps) < 1:
            raise UsageError("max_sweeps must be at least 1")
        if not self.rel_tolerance > 0:
            raise UsageError("rel_tolerance must be positive")
        if int(self.seed) < 0:
            raise UsageError("seed must be a non-negative integer")
        if not self.active_factor_threshold > 0:
            raise UsageError("active_factor_threshold must be positive")
        return self


@dataclass
class VariationalState:
    """Every variational parameter of the mean-field posterior.

    Group-indexed lists hold one array per group m:
      rho[m]          K x D_m   inclusion probabilities q(z = 1)
      w_mean[m]       K x D_m   loading means
      w_var[m]        K x D_m   loading variances
      lambda_rate[m]  K x D_m   q(lambda) gamma rates
      tau_rate[m]     N         q(tau) gamma rates, one per sample
    Shared arrays:
      f_mean, f_var   N x K     factor score means / variances
      beta_a, beta_b  K         q(beta) parameters
      alpha_shape, alpha_rate   M    q(alpha) parameters
      aux_s_mean, aux_t_mean    M x K  expected table counts
      eta_log_mean    M         E[log eta_m], nonpositive
    The q(lambda) and q(tau) shapes are constants of the priors and the
    group widths, so only their rates are stored here; the shapes are
    Hyperparameters.lambda_shape and .tau_shape(D_m).
    """

    rho: list
    w_mean: list
    w_var: list
    f_mean: np.ndarray
    f_var: np.ndarray
    beta_a: np.ndarray
    beta_b: np.ndarray
    lambda_rate: list
    tau_rate: list
    alpha_shape: np.ndarray
    alpha_rate: np.ndarray
    aux_s_mean: np.ndarray
    aux_t_mean: np.ndarray
    eta_log_mean: np.ndarray

    @property
    def n_groups(self) -> int:
        return len(self.rho)

    @property
    def n_factors(self) -> int:
        return int(self.beta_a.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.f_mean.shape[0])

    @property
    def dims(self):
        return [int(r.shape[1]) for r in self.rho]

    def copy(self):
        return VariationalState(
            rho=[a.copy() for a in self.rho],
            w_mean=[a.copy() for a in self.w_mean],
            w_var=[a.copy() for a in self.w_var],
            f_mean=self.f_mean.copy(),
            f_var=self.f_var.copy(),
            beta_a=self.beta_a.copy(),
            beta_b=self.beta_b.copy(),
            lambda_rate=[a.copy() for a in self.lambda_rate],
            tau_rate=[a.copy() for a in self.tau_rate],
            alpha_shape=self.alpha_shape.copy(),
            alpha_rate=self.alpha_rate.copy(),
            aux_s_mean=self.aux_s_mean.copy(),
            aux_t_mean=self.aux_t_mean.copy(),
            eta_log_mean=self.eta_log_mean.copy(),
        )

    def validate(self):
        # n_factors, n_samples and dims read these shapes; every other array
        # is checked against an exact shape below
        if self.beta_a.ndim != 1 or self.f_mean.ndim != 2:
            raise DataError("beta_a must be a vector and f_mean a matrix")
        if any(r.ndim != 2 for r in self.rho):
            raise DataError("every rho[m] must be a K x D_m matrix")
        M = self.n_groups
        K = self.n_factors
        N = self.n_samples
        group_lists = {
            "w_mean": self.w_mean,
            "w_var": self.w_var,
            "lambda_rate": self.lambda_rate,
            "tau_rate": self.tau_rate,
        }
        for name, lst in group_lists.items():
            if len(lst) != M:
                raise DataError(f"{name} must have one array per group")
        for m in range(M):
            d_m = self.rho[m].shape[1]
            for name in ("rho", "w_mean", "w_var", "lambda_rate"):
                arr = getattr(self, name)[m]
                if arr.shape != (K, d_m):
                    raise DataError(f"{name}[{m}] has shape {arr.shape}, want {(K, d_m)}")
                if not np.all(np.isfinite(arr)):
                    raise DataError(f"{name}[{m}] contains non-finite entries")
            if self.tau_rate[m].shape != (N,):
                raise DataError(
                    f"tau_rate[{m}] has shape {self.tau_rate[m].shape}, want {(N,)}"
                )
            if np.any(self.rho[m] < 0) or np.any(self.rho[m] > 1):
                raise DataError(f"rho[{m}] outside [0, 1]")
            for name in ("w_var", "lambda_rate", "tau_rate"):
                if not np.all(getattr(self, name)[m] > 0):
                    raise DataError(f"{name}[{m}] must be strictly positive")
            if np.any(self.aux_s_mean[m] < 0) or np.any(self.aux_s_mean[m] > d_m):
                raise DataError(f"aux_s_mean[{m}] outside [0, D_m]")
            if np.any(self.aux_t_mean[m] < 0) or np.any(self.aux_t_mean[m] > d_m):
                raise DataError(f"aux_t_mean[{m}] outside [0, D_m]")
        if self.f_mean.shape != (N, K) or self.f_var.shape != (N, K):
            raise DataError("f_mean/f_var must be N x K")
        if not np.all(np.isfinite(self.f_mean)) or not np.all(self.f_var > 0):
            raise DataError("factor scores must be finite with positive variance")
        for name in ("beta_a", "beta_b"):
            arr = getattr(self, name)
            if arr.shape != (K,) or not np.all(arr > 0):
                raise DataError(f"{name} must be a positive length-K vector")
        for name in ("alpha_shape", "alpha_rate"):
            arr = getattr(self, name)
            if arr.shape != (M,) or not np.all(arr > 0):
                raise DataError(f"{name} must be a positive length-M vector")
        if self.aux_s_mean.shape != (M, K) or self.aux_t_mean.shape != (M, K):
            raise DataError("aux means must be M x K")
        if self.eta_log_mean.shape != (M,) or np.any(self.eta_log_mean > 0):
            raise DataError("eta_log_mean must be a nonpositive length-M vector")
        return self


# Warm-start construction constants. Singular values above _INIT_EDGE_MULT
# times the median count as signal; rotated loadings at least _INIT_LOADING_CUT
# in magnitude seed confident inclusions. The relaxation phase stops once the
# training reconstruction error is stationary to _INIT_RELAX_TOL on
# _INIT_RELAX_STREAK consecutive passes.
_INIT_EDGE_MULT = 2.0
_INIT_LOADING_CUT = 0.5
_INIT_RHO_IN = 0.9
_INIT_RHO_OUT = 0.02
_INIT_W_VAR = 1e-2
_INIT_F_VAR = 1e-2
_INIT_F_JITTER = 0.1
_INIT_RELAX_TOL = 5e-7
_INIT_RELAX_STREAK = 3
_INIT_RELAX_CAP = 150


def _varimax(loadings, max_iters=200, tol=1e-10):
    """Orthogonal rotation maximizing the squared-loading variance.

    Takes variables x components, returns the components x components
    rotation. Fewer than two components rotate trivially.
    """
    p, r = loadings.shape
    rot = np.eye(r)
    if r < 2:
        return rot
    last = 0.0
    for _ in range(max_iters):
        rotated = loadings @ rot
        target = loadings.T @ (
            rotated**3 - rotated @ np.diag((rotated**2).sum(axis=0)) / p
        )
        u, s, vt = np.linalg.svd(target)
        rot = u @ vt
        total = float(s.sum())
        if last and total <= last * (1.0 + tol):
            break
        last = total
    return rot


def init_state(
    data: GroupedDataset, hyper: Hyperparameters, seed, active_threshold=1e-2
) -> VariationalState:
    """Spectral warm start relaxed to a stationary point of the sweep cycle.

    Phase one factors the column-concatenated data by SVD. Components whose
    singular value clears twice the median are treated as signal, rotated
    toward sparse loadings (varimax), and ordered by loading energy; entries
    whose |loading| reaches 0.5 become confident inclusions (rho 0.9, the
    rest 0.02) and the remaining rows start masked. Loading and noise
    precision posteriors start at their one-step updates given those
    loadings, and the factor scores get a small seed-dependent jitter.

    Phase two runs full coordinate sweeps until the training reconstruction
    error is stationary (three consecutive relative changes below 5e-7,
    capped at 150 passes). Fresh warm starts spend their first dozens of
    sweeps renegotiating borderline inclusions, which is not monotone in
    reconstruction error; relaxing here hands the caller a state already
    settled inside its attraction basin. Its sweeps skip the factors below
    active_threshold, as fit's do (FitOptions.active_factor_threshold).
    Deterministic given (data, seed).
    """
    hyper.validate()
    data.validate()
    if int(seed) < 0:
        raise UsageError("seed must be a non-negative integer")
    # a separate function, so that the SVD's input and outputs and the
    # other warm-start temporaries are freed before the relaxation sweeps
    state = _spectral_start(data, hyper, seed)

    # engine imports this module at load time, hence the local import
    from . import engine

    total_cells = float(sum(g.size for g in data.groups))
    prev = None
    streak = 0
    for _ in range(_INIT_RELAX_CAP):
        # the previous residual goes first, so that two sets never coexist;
        # the one the sweep ends with serves this pass's error
        caches = None
        caches = engine.sweep(state, data, hyper, active_threshold=active_threshold)
        # a generator, so that no loop variable keeps a residual array alive
        # into the next sweep
        sq = sum(float((r * r).sum()) for r in caches.residual)
        cur = sq / total_cells
        if prev is not None and abs(cur - prev) < _INIT_RELAX_TOL * max(prev, 1e-12):
            streak += 1
            if streak >= _INIT_RELAX_STREAK:
                break
        elif prev is not None:
            streak = 0
        prev = cur
    return state


def _spectral_start(data: GroupedDataset, hyper: Hyperparameters, seed) -> VariationalState:
    """Phase one of init_state: the spectral warm start, before any sweep."""
    K = int(hyper.K)
    M = data.n_groups
    N = data.n_samples
    rng = np.random.default_rng(int(seed))

    stacked = np.hstack(data.groups)
    u, sv, vt = np.linalg.svd(stacked, full_matrices=False)
    k_use = min(K, u.shape[1])
    edge = _INIT_EDGE_MULT * float(np.median(sv))
    r_sig = max(1, min(k_use, int((sv > edge).sum())))

    loads = (sv[:k_use, None] * vt[:k_use]) / np.sqrt(N)
    loads[r_sig:] = 0.0
    rot = _varimax(loads[:r_sig].T)
    loads[:r_sig] = rot.T @ loads[:r_sig]
    scores = np.sqrt(N) * u[:, :k_use]
    scores[:, :r_sig] = scores[:, :r_sig] @ rot
    order = np.argsort(-(loads[:r_sig] ** 2).sum(axis=1))
    loads[:r_sig] = loads[:r_sig][order]
    scores[:, :r_sig] = scores[:, :r_sig][:, order]

    f_mean = _INIT_F_JITTER * rng.standard_normal((N, K))
    f_mean[:, :k_use] += scores
    f_var = np.full((N, K), _INIT_F_VAR)

    rho, w_mean, w_var = [], [], []
    lambda_rate, tau_rate = [], []
    offsets = np.cumsum([0] + data.dims)
    for m in range(M):
        d_m = data.dims[m]
        wm = np.zeros((K, d_m))
        wm[:k_use] = loads[:, offsets[m] : offsets[m + 1]]
        keep = np.abs(wm) >= _INIT_LOADING_CUT
        wm = np.where(keep, wm, 0.0)
        rm = np.where(keep, _INIT_RHO_IN, _INIT_RHO_OUT)
        vm = np.full((K, d_m), _INIT_W_VAR)
        rho.append(rm)
        w_mean.append(wm)
        w_var.append(vm)

        ew2 = wm * wm + vm
        lambda_rate.append(hyper.f0 + 0.5 * ew2)
        coef = rm * wm
        resid = data.groups[m] - f_mean @ coef
        svec = (rm * ew2).sum(axis=1)
        tvec = (coef * coef).sum(axis=1)
        ef2 = f_mean * f_mean + f_var
        sq = (resid * resid).sum(axis=1) + ef2 @ svec - (f_mean * f_mean) @ tvec
        tau_rate.append(hyper.h0 + 0.5 * sq)

    alpha_mean0 = hyper.c0 / hyper.d0
    eta_log_mean = np.array(
        [digamma(alpha_mean0) - digamma(alpha_mean0 + d_m) for d_m in data.dims]
    )
    return VariationalState(
        rho=rho,
        w_mean=w_mean,
        w_var=w_var,
        f_mean=f_mean,
        f_var=f_var,
        beta_a=np.full(K, hyper.kappa0 / K),
        beta_b=np.full(K, max(hyper.kappa0 * (K - 1) / K, BETA_B_FLOOR)),
        lambda_rate=lambda_rate,
        tau_rate=tau_rate,
        alpha_shape=np.full(M, hyper.c0),
        alpha_rate=np.full(M, hyper.d0),
        aux_s_mean=np.zeros((M, K)),
        aux_t_mean=np.zeros((M, K)),
        eta_log_mean=eta_log_mean,
    )


def active_factors(state: VariationalState, threshold):
    """Factors whose expected loading mass reaches threshold in some group.

    Mass of factor k in group m is sum_d rho[m][k, d]; a factor counts as
    active when its best group mass is at least threshold.
    """
    mass = np.zeros(state.n_factors)
    for r in state.rho:
        mass = np.maximum(mass, r.sum(axis=1))
    return {int(k) for k in np.flatnonzero(mass >= threshold)}
