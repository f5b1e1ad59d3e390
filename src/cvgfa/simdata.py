"""Synthetic benchmark generators with planted sparsity patterns."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .model import GroupedDataset, _is_whole

__all__ = [
    "SPARSE",
    "DENSE",
    "ABSENT",
    "SparsityPattern",
    "SimulationTruth",
    "simulation1_pattern",
    "simulation2_pattern",
    "generate",
    "empirical_check",
]

SPARSE = "sparse"
DENSE = "dense"
ABSENT = "absent"

# nonzero loading scale: variance 4, i.e. standard deviation 2
LOADING_STD = 2.0
SPARSE_ZERO_FRACTION = 0.9


@dataclass
class SparsityPattern:
    """M x K grid of cell kinds, one row per group, one column per factor."""

    entries: list  # list of M lists, each of K strings

    @property
    def n_groups(self) -> int:
        return len(self.entries)

    @property
    def n_factors(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def validate(self):
        if not self.entries:
            raise UsageError("pattern must have at least one group")
        k = len(self.entries[0])
        if k < 1:
            raise UsageError("pattern must have at least one factor")
        for row in self.entries:
            if len(row) != k:
                raise UsageError("pattern rows must have equal length")
            for cell in row:
                if cell not in (SPARSE, DENSE, ABSENT):
                    raise UsageError(f"unknown pattern cell {cell!r}")
        for j in range(k):
            if all(row[j] == ABSENT for row in self.entries):
                raise UsageError(f"factor {j} is absent from every group")


@dataclass
class SimulationTruth:
    loadings: list  # M matrices, K x D_m
    factors: np.ndarray  # N x K
    pattern: SparsityPattern
    sparse_mask: list  # M boolean matrices, True where an entry was zeroed


def simulation1_pattern() -> SparsityPattern:
    """Four groups, six sparse factors: three group-specific, three shared."""
    grid = [
        "s..s..",
        ".s.sss",
        "..s.ss",
        ".....s",
    ]
    return _from_grid(grid)


def simulation2_pattern() -> SparsityPattern:
    """Four groups, eight factors: four sparse plus one dense per group."""
    grid = [
        "s...d...",
        ".s.s.d..",
        "..ss..d.",
        "..s....d",
    ]
    return _from_grid(grid)


def _from_grid(grid) -> SparsityPattern:
    decode = {"s": SPARSE, "d": DENSE, ".": ABSENT}
    return SparsityPattern(entries=[[decode[c] for c in row] for row in grid])


def generate(pattern: SparsityPattern, n: int, d_per_group, seed: int):
    """Draw (dataset, truth) for a sparsity pattern.

    Sparse cells zero exactly ceil(0.9 D_m) entries chosen by a seeded
    shuffle (the zero proportion is stated as fixed, so no coin flips);
    remaining and dense entries are N(0, 4). Factors and noise are standard
    normal. Draw order: factors, then per group each factor row and its
    mask, then that group's noise, so outputs are reproducible by seed.
    """
    pattern.validate()
    if int(n) < 1:
        raise UsageError("sample count must be at least 1")
    dims = [int(d) for d in d_per_group]
    if len(dims) != pattern.n_groups:
        raise UsageError(
            f"d_per_group has {len(dims)} entries for {pattern.n_groups} groups"
        )
    if any(d < 1 for d in dims):
        raise UsageError("every group needs at least one column")
    if not (_is_whole(seed) and seed >= 0):
        raise UsageError("seed must be a non-negative integer")

    rng = np.random.default_rng(int(seed))
    n = int(n)
    k = pattern.n_factors
    factors = rng.standard_normal((n, k))
    loadings = []
    masks = []
    groups = []
    for m, d_m in enumerate(dims):
        g = np.zeros((k, d_m))
        mask = np.zeros((k, d_m), dtype=bool)
        for j in range(k):
            kind = pattern.entries[m][j]
            if kind == ABSENT:
                continue
            row = rng.normal(0.0, LOADING_STD, size=d_m)
            if kind == SPARSE:
                n_zero = math.ceil(SPARSE_ZERO_FRACTION * d_m)
                zero_idx = rng.permutation(d_m)[:n_zero]
                row[zero_idx] = 0.0
                mask[j, zero_idx] = True
            g[j] = row
        # the noise draw becomes the data: the signal is added in place
        x = rng.standard_normal((n, d_m))
        x += factors @ g
        loadings.append(g)
        masks.append(mask)
        groups.append(x)

    data = GroupedDataset(
        groups=groups, group_names=[f"group{m + 1}" for m in range(len(dims))]
    )
    truth = SimulationTruth(
        loadings=loadings,
        factors=factors,
        pattern=pattern,
        sparse_mask=masks,
    )
    return data, truth


def empirical_check(truth: SimulationTruth) -> dict:
    """Summary statistics of a generated truth, for generator validation."""
    cells = []
    pattern = truth.pattern
    for m, g in enumerate(truth.loadings):
        d_m = g.shape[1]
        for j in range(g.shape[0]):
            kind = pattern.entries[m][j]
            row = g[j]
            nonzero = row[row != 0.0]
            cells.append(
                {
                    "group": m,
                    "factor": j,
                    "kind": kind,
                    "zero_fraction": float((row == 0.0).mean()),
                    "nonzero_count": int(nonzero.size),
                    "nonzero_variance": float(np.var(nonzero)) if nonzero.size else 0.0,
                    "columns": d_m,
                }
            )
    return {
        "cells": cells,
        "factor_variance": float(np.var(truth.factors)),
        "n_samples": int(truth.factors.shape[0]),
        "n_factors": int(truth.factors.shape[1]),
    }
