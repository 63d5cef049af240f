"""Seeded generator of digit-like IDX files for the digits784 workload.

Each image is a 28x28 uint8 rendering of a seven-segment digit shape under a
random affine jitter (rotation, scale, shear, shift), a random stroke width,
per-segment endpoint jitter, a random ink level and clipped pixel noise. The
labels are one byte each. Every class gets the same number of images and the
order is shuffled, so the class sizes never depend on the seed. The same seed
writes byte-identical files.

    python3 perfbench/digits.py --seed 3 --out perfbench/generated/digits-3
"""
from __future__ import annotations

import argparse
import gzip
import os
import struct
from pathlib import Path

import numpy as np

SIDE = 28
PER_CLASS = 600
IMAGES_NAME = "train-images-idx3-ubyte.gz"
LABELS_NAME = "train-labels-idx1-ubyte.gz"

# seven-segment layout in template pixel coordinates (x right, y down)
_SEGMENTS = {
    "A": ((9.0, 5.0), (19.0, 5.0)),
    "B": ((19.0, 5.0), (19.0, 14.0)),
    "C": ((19.0, 14.0), (19.0, 23.0)),
    "D": ((9.0, 23.0), (19.0, 23.0)),
    "E": ((9.0, 14.0), (9.0, 23.0)),
    "F": ((9.0, 5.0), (9.0, 14.0)),
    "G": ((9.0, 14.0), (19.0, 14.0)),
}
_DIGITS = ("ABCDEF", "BC", "ABGED", "ABGCD", "FGBC", "AFGCD", "AFGEDC", "ABC", "ABCDEFG", "ABFGCD")


def _render_class(digit: int, count: int, rng: np.random.Generator) -> np.ndarray:
    segs = np.array([_SEGMENTS[s] for s in _DIGITS[digit]])  # (S, 2, 2)
    segs = segs[None] + rng.normal(scale=0.8, size=(count,) + segs.shape)
    angle = rng.uniform(-0.2, 0.2, count)
    scale = rng.uniform(0.85, 1.15, count)
    shear = rng.uniform(-0.3, 0.3, count)
    shift = rng.uniform(-2.0, 2.0, (count, 2))
    width = rng.uniform(0.6, 1.4, count)
    ink = rng.uniform(170.0, 255.0, count)

    ys, xs = np.mgrid[0:SIDE, 0:SIDE].astype(float)
    gx, gy = xs.ravel() - SIDE / 2, ys.ravel() - SIDE / 2  # (P,)
    cos, sin = np.cos(angle)[:, None], np.sin(angle)[:, None]
    scale, shear = scale[:, None], shear[:, None]
    # inverse map from image pixels back to the template frame, (C, P) each
    px = (cos * gx + (sin - shear * cos) * gy - shift[:, :1]) / scale + SIDE / 2
    py = (-sin * gx + (cos + shear * sin) * gy - shift[:, 1:]) / scale + SIDE / 2

    dist2 = np.full(px.shape, np.inf)
    for (ax, ay), (bx, by) in segs.transpose(1, 2, 3, 0)[..., None]:
        bx, by = bx - ax, by - ay
        dx, dy = px - ax, py - ay
        t = np.clip((dx * bx + dy * by) / (bx * bx + by * by), 0.0, 1.0)
        np.minimum(dist2, (dx - t * bx) ** 2 + (dy - t * by) ** 2, out=dist2)
    dist = np.sqrt(dist2)
    level = np.clip(width[:, None] + 0.5 - dist, 0.0, 1.0) * ink[:, None]
    level += rng.normal(scale=6.0, size=level.shape)
    return np.clip(np.rint(level), 0, 255).astype(np.uint8).reshape(count, SIDE, SIDE)


def make_digits(seed: int, per_class: int = PER_CLASS) -> tuple[np.ndarray, np.ndarray]:
    """Images (10 * per_class, 28, 28) and labels, both uint8, from one seed."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(784,)))
    images = np.concatenate([_render_class(d, per_class, rng) for d in range(10)])
    labels = np.repeat(np.arange(10, dtype=np.uint8), per_class)
    order = rng.permutation(labels.size)
    return images[order], labels[order]


def idx_bytes(arr: np.ndarray) -> bytes:
    """IDX layout: two zero bytes, type 0x08 (uint8), rank, big-endian sizes, payload."""
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    header = bytes([0, 0, 0x08, arr.ndim]) + b"".join(struct.pack(">I", s) for s in arr.shape)
    return header + arr.tobytes()


def _write_gzip(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    # mtime=0 keeps the gzip header, and so the file, identical across runs
    with open(tmp, "wb") as raw, gzip.GzipFile(filename="", fileobj=raw, mode="wb", compresslevel=6, mtime=0) as fh:
        fh.write(payload)
    os.replace(tmp, path)


def write_digits(seed: int, out_dir, per_class: int = PER_CLASS) -> tuple[Path, Path]:
    """Write the gzip'd IDX image and label files once; return their paths."""
    out_dir = Path(out_dir)
    images_path, labels_path = out_dir / IMAGES_NAME, out_dir / LABELS_NAME
    if images_path.exists() and labels_path.exists():
        return images_path, labels_path
    out_dir.mkdir(parents=True, exist_ok=True)
    images, labels = make_digits(seed, per_class)
    _write_gzip(images_path, idx_bytes(images))
    _write_gzip(labels_path, idx_bytes(labels))
    return images_path, labels_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the two .gz files")
    args = parser.parse_args()
    for path in write_digits(args.seed, args.out):
        print(path)


if __name__ == "__main__":
    main()
