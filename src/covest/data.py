"""Data sources: synthetic Gaussian models and IDX-backed empirical vectors.

Both source kinds expose ``dim``, the true covariance ``sigma``, and
``stream(rng)``, which returns a stateful drawer of sample rows. Sources are
immutable after construction; all randomness comes from caller-provided
generators, so two streams built from equal seeds draw identical data.
"""
from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

# psd_sqrt_factor stays importable from this module, where perfbench/spans.py
# instruments it
from .linalg import (  # noqa: F401
    _blas_threads,
    _check_count,
    _check_finite,
    check_symmetric,
    clamped_sqrt,
    psd_sqrt_factor,
    spectral_norm,
)

__all__ = [
    "SyntheticModel",
    "GaussianStream",
    "EmpiricalSource",
    "EpochStream",
    "make_spiked_model",
    "load_idx",
    "build_empirical_source",
]


class SyntheticModel:
    """Zero-mean Gaussian source with an isotropic noise floor.

    The sampling covariance is sigma = base + theta * ||base|| * I, where
    ||base|| is the spectral norm. The noise floor shifts every eigenvalue by
    the same amount, so the effective rank of sigma is
    (erank(base) + n * theta) / (1 + theta) exactly.

    sigma has base's eigenvectors with every eigenvalue shifted by
    theta * ||base||, so the build takes base's eigenpairs once: its diagonal
    and the coordinate axes when base is diagonal, else one eigh. ||base||,
    top_eigenvalue (base's largest eigenvalue plus the shift) and the root of
    sigma are read from them. top_eigenvalue is not (1 + theta) * ||base||
    when base is indefinite.
    """

    def __init__(self, base_cov: np.ndarray, theta: float = 0.0):
        base_cov = check_symmetric(base_cov, "base_cov")
        self.base_cov = base_cov
        self.theta = float(_check_finite("theta", theta, ge=0))
        # a diagonal base's eigenpairs are its diagonal entries and the
        # coordinate axes, written v = None, so it needs no eigh
        w, v = np.diagonal(base_cov), None
        if np.count_nonzero(base_cov) != np.count_nonzero(w):
            w, v = np.linalg.eigh(base_cov)
        self.base_spectral_norm = float(np.max(np.abs(w)))
        if self.base_spectral_norm == 0.0:
            raise ValueError("base_cov must be nonzero")
        shift = self.theta * self.base_spectral_norm
        self.sigma = base_cov + shift * np.eye(base_cov.shape[0])
        self.top_eigenvalue = float(np.max(w) + shift)
        root = clamped_sqrt(w + shift)
        self.factor = np.diag(root) if v is None else (v * root) @ v.T
        # _root is the diagonal of the factor when the factor is diagonal, else None
        self._root = root if v is None else None

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    def stream(self, rng: np.random.Generator) -> "GaussianStream":
        return GaussianStream(self, rng)


class GaussianStream:
    """Draws x = F g with standard normal g, so cov(x) is the model's sigma.

    When F is diagonal, the rows are g scaled entrywise by F's diagonal. That
    equals g @ F.T bit for bit: each entry of the product has one nonzero term.
    """

    def __init__(self, model: SyntheticModel, rng: np.random.Generator):
        self._factor = model.factor
        self._root = model._root
        self._rng = rng
        self.dim = model.dim

    def draw(self, count: int) -> np.ndarray:
        g = self._rng.standard_normal((_check_count("count", count, ge=0), self.dim))
        if self._root is not None:
            g *= self._root
            return g
        return g @ self._factor.T


def make_spiked_model(n: int, k: int, spike: float, theta: float = 0.0, seed: int = 0) -> SyntheticModel:
    """Spiked covariance: k eigenvalues equal to ``spike``, the rest equal to 1.

    The spikes sit on a seeded random subset of coordinates, giving a strongly
    heterogeneous variance profile (the regime where nonuniform observation
    budgets pay off) while keeping the spectrum exact.
    """
    n, k = _check_count("n", n), _check_count("k", k)
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n spikes")
    _check_finite("spike", spike, ge=1)  # so it is the top eigenvalue
    rng = np.random.default_rng(_check_count("seed", seed, ge=0))
    values = np.ones(n)
    values[rng.permutation(n)[:k]] = float(spike)
    return SyntheticModel(np.diag(values), theta=theta)


class EmpiricalSource:
    """Finite dataset sampled without replacement plus an isotropic noise floor.

    Rows are centered at construction; the base covariance is the second
    moment of the centered rows. Draws add Gaussian noise with variance
    theta * ||base||, so the sampling covariance is sigma = base +
    theta * ||base|| * I (up to the finite-population epoch structure).
    The base is a Gram matrix, so the largest eigenvalue of sigma,
    top_eigenvalue, is (1 + theta) * ||base||.
    """

    def __init__(self, records: np.ndarray, theta: float = 0.0):
        records = _check_finite("records", records)
        if not (records.ndim == 2 and records.shape[0] >= 2):
            raise ValueError("records must be a 2-D array with at least two rows")
        centered = records - records.mean(axis=0)
        centered.flags.writeable = False
        self.records = centered
        self.theta = float(_check_finite("theta", theta, ge=0))
        # at one BLAS thread, as the batch loop folds: the product and the
        # eigenvalues round differently on more threads
        with _blas_threads(1):
            self.base_cov = centered.T @ centered / centered.shape[0]
            self.base_spectral_norm = spectral_norm(self.base_cov)
        if self.base_spectral_norm == 0.0:
            raise ValueError("records must not be identical")
        self.noise_scale = float(np.sqrt(self.theta * self.base_spectral_norm))
        self.top_eigenvalue = (1.0 + self.theta) * self.base_spectral_norm
        self.sigma = self.base_cov + self.theta * self.base_spectral_norm * np.eye(centered.shape[1])

    @property
    def dim(self) -> int:
        return self.records.shape[1]

    @property
    def size(self) -> int:
        return self.records.shape[0]

    def stream(self, rng: np.random.Generator) -> "EpochStream":
        return EpochStream(self, rng)


class EpochStream:
    """Without-replacement sampler: a fresh permutation each pass over the data."""

    def __init__(self, source: EmpiricalSource, rng: np.random.Generator):
        self._source = source
        self._rng = rng
        self._order = rng.permutation(source.size)
        self._pos = 0
        self.dim = source.dim

    def draw(self, count: int) -> np.ndarray:
        count = _check_count("count", count, ge=0)
        picked = np.empty(count, dtype=int)
        filled = 0
        while filled < count:
            take = min(count - filled, self._source.size - self._pos)
            picked[filled : filled + take] = self._order[self._pos : self._pos + take]
            self._pos += take
            filled += take
            if self._pos == self._source.size:
                self._order = self._rng.permutation(self._source.size)
                self._pos = 0
        rows = self._source.records[picked]
        if self._source.noise_scale > 0.0:
            rows = rows + self._source.noise_scale * self._rng.standard_normal(rows.shape)
        return rows


def load_idx(path) -> np.ndarray:
    """Read an IDX tensor of unsigned bytes, transparently ungzipping.

    Layout: two zero magic bytes, a type code (0x08 = unsigned byte, the only
    supported one), a dimension count, then one big-endian uint32 size per
    dimension, then the row-major payload. The payload length must match the
    sizes exactly.
    """
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    if not len(raw) >= 4:
        raise ValueError(f"{path}: truncated IDX header")
    if raw[0] != 0 or raw[1] != 0:
        raise ValueError(f"{path}: bad IDX magic bytes {raw[0]:#04x} {raw[1]:#04x}")
    type_code, ndim = raw[2], raw[3]
    if type_code != 0x08:
        raise ValueError(f"{path}: unsupported IDX type code {type_code:#04x}")
    header_len = 4 + 4 * ndim
    if not len(raw) >= header_len:
        raise ValueError(f"{path}: truncated IDX dimension table")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    expected = int(np.prod(dims, dtype=np.int64)) if ndim else 1
    payload = raw[header_len:]
    if len(payload) != expected:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, sizes require {expected}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def build_empirical_source(images: np.ndarray, labels: np.ndarray, digit: int, theta: float = 0.0) -> EmpiricalSource:
    """Select one label class, flatten the images, and wrap them as a source."""
    images = np.asarray(images)
    labels = _check_finite("labels", labels)
    if images.ndim != 3:
        raise ValueError("images must be a 3-D tensor (count, rows, cols)")
    if labels.shape != (images.shape[0],):
        raise ValueError("labels must be one per image")
    keep = labels == digit
    if not np.any(keep):
        raise ValueError(f"no images labeled {digit}")
    # the integer pixels of an IDX file convert without a finiteness scan
    vectors = _check_finite("images", images[keep].reshape(int(keep.sum()), -1))
    return EmpiricalSource(vectors, theta=theta)
