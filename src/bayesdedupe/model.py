"""Likelihood model for comparison data under a coreference labeling.

Comparison levels for coreferent pairs follow a per-field sequential
parametrization: m[f][0] is the probability of level 0, and m[f][l] for
l >= 1 is the probability of level l given the level exceeds l-1, so a
field with levels 0..L carries L free parameters. The induced level
probabilities (star form) are m[0], m[l]*prod(1-m[:l]), and the top
level gets prod(1-m) - a proper multinomial. Noncoreferent pairs follow
the same construction with parameters u. Missing values simply drop out
of the likelihood (missingness is assumed ignorable).

Priors: each m[f][l] gets a Beta(alpha, beta) truncated to [lambda, 1),
encoding that coreferent records agree at least this often; each u[f][l]
gets an untruncated Beta. Defaults are uniform (alpha = beta = 1).

The prior over coreference structures is flat over the partitions the
candidate set permits. On labelings it appears as (r - n)!/r! for a
labeling with n cells, which marginalizes back to the flat partition
prior.

This module holds what the sampler evaluates: the parameter and prior
containers and the sufficient statistics. The star probabilities and the
exact densities that the sampler is tested against are in
tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .candidates import CandidateGraph
from .comparison import PairComparisons
from .errors import ConfigError


@dataclass
class ModelParams:
    """Sequential-conditional level parameters, one vector per field.

    m[f] and u[f] each have length L_f (one entry per level except the
    last, which is implied).
    """

    m: list
    u: list

    def __post_init__(self):
        self.m = [np.asarray(v, dtype=np.float64) for v in self.m]
        self.u = [np.asarray(v, dtype=np.float64) for v in self.u]
        if len(self.m) != len(self.u):
            raise ConfigError("m and u must cover the same fields")
        for mf, uf in zip(self.m, self.u):
            if mf.shape != uf.shape:
                raise ConfigError("m and u shapes differ for some field")


@dataclass
class PriorSpec:
    """Per-parameter truncation points and Beta hyperparameters."""

    lam: list
    alpha1: list
    beta1: list
    alpha0: list
    beta0: list

    def __post_init__(self):
        self.lam = [np.asarray(v, dtype=np.float64) for v in self.lam]
        self.alpha1 = [np.asarray(v, dtype=np.float64) for v in self.alpha1]
        self.beta1 = [np.asarray(v, dtype=np.float64) for v in self.beta1]
        self.alpha0 = [np.asarray(v, dtype=np.float64) for v in self.alpha0]
        self.beta0 = [np.asarray(v, dtype=np.float64) for v in self.beta0]
        for name in ("alpha1", "beta1", "alpha0", "beta0"):
            arrs = getattr(self, name)
            if len(arrs) != len(self.lam):
                raise ConfigError("prior hyperparameter field counts differ")
            for a, l in zip(arrs, self.lam):
                if a.shape != l.shape:
                    raise ConfigError("prior hyperparameter shapes differ")
                if not np.all(a > 0):  # NaN fails too
                    raise ConfigError("Beta hyperparameters must be positive")
        for l in self.lam:
            if not np.all((l >= 0) & (l <= 1 - 1e-6)):
                raise ConfigError("truncation points must lie in [0, 1 - 1e-6]")

    @property
    def n_fields(self) -> int:
        return len(self.lam)

    @staticmethod
    def from_lambdas(lambdas, alpha1=1.0, beta1=1.0,
                     alpha0=1.0, beta0=1.0) -> "PriorSpec":
        """Uniform-Beta priors with the given per-field truncation vectors."""
        lam = [np.asarray(v, dtype=np.float64) for v in lambdas]
        like = lambda c: [np.full(v.shape, float(c)) for v in lam]
        return PriorSpec(lam=lam, alpha1=like(alpha1), beta1=like(beta1),
                         alpha0=like(alpha0), beta0=like(beta0))

    @staticmethod
    def flat(n_levels, lam=0.0, **hyper) -> "PriorSpec":
        """One shared truncation value per field, given level counts."""
        lams = [np.full(n - 1, float(lam)) for n in n_levels]
        return PriorSpec.from_lambdas(lams, **hyper)


@dataclass
class SufficientStats:
    """Observed-level counts split by coreference status.

    a1[f][l] counts candidate pairs currently coreferent with observed
    level l in field f; a0[f][l] counts the rest of the compared pairs
    (noncoreferent candidates plus all fixed pairs) the same way. The
    fixed-pair share of a0 never depends on the labeling.
    """

    a1: list
    a0: list

    @staticmethod
    def zeros(n_levels) -> "SufficientStats":
        return SufficientStats(
            a1=[np.zeros(n, dtype=np.int64) for n in n_levels],
            a0=[np.zeros(n, dtype=np.int64) for n in n_levels])

    def as_counts(self) -> np.ndarray:
        """The counts as one (2, bins) array, a1 then a0, with every
        field's levels after the earlier fields' levels."""
        cat = lambda arrs: np.concatenate(arrs) if len(arrs) else np.empty(0)
        return np.array([cat(self.a1), cat(self.a0)])


def check_valid_labeling(z, graph: CandidateGraph) -> None:
    """Raise if the labeling merges any pair outside the candidate set."""
    cells: dict = {}
    for i, lab in enumerate(z):
        cells.setdefault(lab, []).append(i)
    cand = None
    for cell in cells.values():
        if len(cell) > 1:
            if cand is None:
                cand = graph.candidate_pair_set()
            for a in range(len(cell)):
                for b in range(a + 1, len(cell)):
                    if (cell[a], cell[b]) not in cand:
                        raise ValueError(
                            f"labeling merges non-candidate pair "
                            f"({cell[a]}, {cell[b]})")


def sufficient_stats(z, graph: CandidateGraph,
                     comps: PairComparisons) -> SufficientStats:
    """Count observed levels by coreference status under labeling z."""
    check_valid_labeling(z, graph)
    z_arr = np.asarray(z)
    i_arr, j_arr = comps.pairs[:, 0], comps.pairs[:, 1]
    coref = (z_arr[i_arr] == z_arr[j_arr]) & graph.candidate_mask
    stats = SufficientStats.zeros(comps.n_levels)
    for f in range(len(comps.fields)):
        col = comps.levels[:, f]
        obs = col >= 0
        stats.a1[f] = np.bincount(col[obs & coref],
                                  minlength=comps.n_levels[f]).astype(np.int64)
        stats.a0[f] = np.bincount(col[obs & ~coref],
                                  minlength=comps.n_levels[f]).astype(np.int64)
    return stats
