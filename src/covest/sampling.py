"""Bernoulli-mask observation model.

A sample x in R^n is seen through an independent binary mask delta, one
Bernoulli(p_i) coin per coordinate, yielding y = delta * x entrywise. The
mask's second moment is p_i on the diagonal and p_i p_j off it; estimation
divides it out to undo the masking, by scaling each observed coordinate by
1/p_i before the Gram product and multiplying the Gram diagonal back by p_i.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _check_count, _check_finite

__all__ = [
    "MaskDistribution",
    "MaskedBatch",
    "child_rng",
    "derive_seed",
    "draw_mask",
    "mask_batch",
]


def child_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the stream addressed by (master_seed, *key).

    Distinct key paths give statistically independent streams that share no
    state, so per-trial / per-batch generators can be created in any order, or
    in parallel workers, and still reproduce exactly. The seed and the keys
    are nonnegative integers.
    """
    return np.random.default_rng(_seed_sequence(master_seed, key))


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic integer seed for the stream addressed by (master_seed, *key)."""
    return int(_seed_sequence(master_seed, key).generate_state(1)[0])


def _seed_sequence(master_seed: int, key: tuple) -> np.random.SeedSequence:
    # the stream address (master_seed, *key), each part a checked count
    spawn_key = tuple(_check_count("key", k, ge=0) for k in key)
    return np.random.SeedSequence(_check_count("master_seed", master_seed, ge=0), spawn_key=spawn_key)


@dataclass(frozen=True)
class MaskDistribution:
    """Per-coordinate observation probabilities, each in (0, 1].

    The entries sum to the budget m: the expected number of coordinates
    observed per sample.
    """

    p: np.ndarray

    def __post_init__(self):
        p = _check_finite("p", self.p, gt=0, le=1).copy()
        if p.ndim != 1 or p.size == 0:
            raise ValueError("observation probabilities must form a nonempty 1-D vector")
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
        n = _check_count("n", n, ge=1)
        return cls(np.full(n, _check_finite("m", m, gt=0) / n))


@dataclass(frozen=True)
class MaskedBatch:
    """A stack of masked observations, one row per sample."""

    masks: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        masks = np.asarray(self.masks, dtype=float)
        observed = _check_finite("observed", self.observed)
        if masks.shape != observed.shape or masks.ndim != 2:
            raise ValueError("masks and observed rows must be 2-D with equal shape")
        if not np.all((masks == 0.0) | (masks == 1.0)):
            raise ValueError("masks must hold only 0 and 1 entries")
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


def draw_mask(p: MaskDistribution, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw independent Bernoulli masks as 0.0/1.0 floats.

    Returns shape (n,) for size=None, else (size, n).
    """
    return _draw_mask(p.p, rng, p.n if size is None else (int(size), p.n))


def _draw_mask(p: np.ndarray, rng: np.random.Generator, shape) -> np.ndarray:
    # draw_mask on a bare array of probabilities, for masks of the given shape
    return (rng.random(shape) < p).astype(float)


def mask_batch(xs: np.ndarray, p: MaskDistribution, rng: np.random.Generator) -> MaskedBatch:
    """Observe a stack of vectors (rows) through independent masks."""
    xs = _check_finite("xs", xs)
    if xs.ndim != 2 or xs.shape[1] != p.n:
        raise ValueError(f"batch has shape {xs.shape}, expected (count, {p.n})")
    masks = draw_mask(p, rng, size=xs.shape[0])
    return MaskedBatch(masks=masks, observed=masks * xs)
