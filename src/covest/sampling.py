"""Bernoulli-mask observation model.

A sample x in R^n is seen through an independent binary mask delta, one
Bernoulli(p_i) coin per coordinate, yielding y = delta * x entrywise. The
second-moment matrix of the mask (observation probabilities on the diagonal,
pairwise products off it) is what downstream estimation divides out to undo
the masking.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MaskDistribution",
    "MaskedBatch",
    "child_rng",
    "derive_seed",
    "mask_second_moment",
    "hadamard_inverse",
    "draw_mask",
    "mask_batch",
]


def child_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the stream addressed by (master_seed, *key).

    Distinct key paths give statistically independent streams that share no
    state, so per-trial / per-batch generators can be created in any order, or
    in parallel workers, and still reproduce exactly.
    """
    spawn_key = tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(int(master_seed), spawn_key=spawn_key))


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic integer seed for the stream addressed by (master_seed, *key)."""
    spawn_key = tuple(int(k) for k in key)
    return int(np.random.SeedSequence(int(master_seed), spawn_key=spawn_key).generate_state(1)[0])


@dataclass(frozen=True)
class MaskDistribution:
    """Per-coordinate observation probabilities, each in (0, 1].

    The entries sum to the budget m: the expected number of coordinates
    observed per sample.
    """

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).copy()
        if p.ndim != 1 or p.size == 0:
            raise ValueError("observation probabilities must form a nonempty 1-D vector")
        # NaN fails both comparisons, so it is rejected here too
        if not np.all((p > 0.0) & (p <= 1.0)):
            raise ValueError("observation probabilities must lie in (0, 1]")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.p.size

    @property
    def m(self) -> float:
        """Budget: expected number of observed coordinates per sample."""
        return float(self.p.sum())

    @property
    def p_min(self) -> float:
        return float(self.p.min())

    @classmethod
    def uniform(cls, n: int, m: float) -> "MaskDistribution":
        """Spread a budget of m evenly: every coordinate observed w.p. m/n."""
        return cls(np.full(int(n), m / n))


@dataclass(frozen=True)
class MaskedBatch:
    """A stack of masked observations, one row per sample."""

    masks: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        masks = np.asarray(self.masks, dtype=float)
        observed = np.asarray(self.observed, dtype=float)
        if masks.shape != observed.shape or masks.ndim != 2:
            raise ValueError("masks and observed rows must be 2-D with equal shape")
        if not np.all((masks == 0.0) | (masks == 1.0)):
            raise ValueError("mask entries must be 0 or 1")
        if np.any(observed[masks == 0.0] != 0.0):
            raise ValueError("observed rows must vanish on unobserved coordinates")
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "observed", observed)

    def __len__(self) -> int:
        return self.masks.shape[0]

    @property
    def n(self) -> int:
        return self.masks.shape[1]

    @property
    def observed_count(self) -> int:
        """Total number of coordinates revealed across the batch."""
        return int(self.masks.sum())


def mask_second_moment(p: MaskDistribution) -> np.ndarray:
    """Second-moment matrix of the mask.

    Entry (i, i) is p_i (a coordinate co-occurs with itself whenever it is
    observed); entry (i, j) for i != j is p_i * p_j by independence. All
    entries are strictly positive because the probabilities are.
    """
    moment = np.outer(p.p, p.p)
    np.fill_diagonal(moment, p.p)
    return moment


def hadamard_inverse(matrix: np.ndarray) -> np.ndarray:
    """Entrywise reciprocal. Rejects any nonpositive entry."""
    matrix = np.asarray(matrix, dtype=float)
    if np.any(matrix <= 0.0):
        raise ValueError("entrywise inverse requires strictly positive entries")
    return 1.0 / matrix


def draw_mask(p: MaskDistribution, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw independent Bernoulli masks as 0.0/1.0 floats.

    Returns shape (n,) for size=None, else (size, n).
    """
    shape = p.n if size is None else (int(size), p.n)
    return (rng.random(shape) < p.p).astype(float)


def mask_batch(xs: np.ndarray, p: MaskDistribution, rng: np.random.Generator) -> MaskedBatch:
    """Observe a stack of vectors (rows) through independent masks."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != p.n:
        raise ValueError(f"batch has shape {xs.shape}, expected (count, {p.n})")
    masks = draw_mask(p, rng, size=xs.shape[0])
    return MaskedBatch(masks=masks, observed=masks * xs)
