"""Synthetic dynamic cardiac-like phantoms, the on-disk dataset format and
the one CSV writer.

Each volume is a [T, H, W] float64 array in [0, 1]: a handful of static
soft-edged ellipses plus one pulsating ellipse whose radii oscillate
sinusoidally over the frames. Every CSV table the package writes goes
through `write_csv`, which prints each float with 17 significant digits.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataError(ValueError):
    pass


@dataclass
class PhantomSpec:
    grid: tuple = (32, 32)
    frames: int = 8
    n_ellipses: int = 4
    amp_range: tuple = (0.15, 0.35)     # relative radius oscillation
    freq_range: tuple = (1, 2)          # integer cycles per period
    period: int | None = None           # motion period in frames; default T
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.grid) < 4 or self.frames < 1 or self.n_ellipses < 1:
            raise DataError("invalid phantom spec")
        # NaN and +-inf fail the noise test
        if self.amp_range[0] < 0 or self.freq_range[0] <= 0 or not 0 <= self.noise_sigma < np.inf:
            raise DataError("ranges must be positive and the noise level finite")


def _ellipse(h, w, cy, cx, ry, rx, angle, softness=1.0):
    ys, xs = np.mgrid[0:h, 0:w]
    dy, dx = ys - cy, xs - cx
    ca, sa = np.cos(angle), np.sin(angle)
    u = (ca * dy + sa * dx) / ry
    v = (-sa * dy + ca * dx) / rx
    q = np.sqrt(u * u + v * v)
    # soft edge about one pixel wide keeps the phantom band-limited-ish
    edge = softness / max(ry, rx)
    return 1.0 / (1.0 + np.exp((q - 1.0) / edge))


def gen_phantom(spec: PhantomSpec) -> np.ndarray:
    """Deterministic in `spec.seed`; returns frames [T, H, W] in [0, 1]."""
    rng = np.random.default_rng(spec.seed)
    h, w = spec.grid
    t_frames = spec.frames
    period = spec.period if spec.period is not None else t_frames

    static = np.zeros((h, w))
    for _ in range(spec.n_ellipses):
        cy = rng.uniform(0.2 * h, 0.8 * h)
        cx = rng.uniform(0.2 * w, 0.8 * w)
        ry = rng.uniform(0.08 * h, 0.25 * h)
        rx = rng.uniform(0.08 * w, 0.25 * w)
        angle = rng.uniform(0, np.pi)
        intensity = rng.uniform(0.2, 0.6)
        static += intensity * _ellipse(h, w, cy, cx, ry, rx, angle)

    # the pulsating "heart": radii oscillate with integer cycles per period
    cy = rng.uniform(0.4 * h, 0.6 * h)
    cx = rng.uniform(0.4 * w, 0.6 * w)
    ry0 = rng.uniform(0.12 * h, 0.2 * h)
    rx0 = rng.uniform(0.12 * w, 0.2 * w)
    angle = rng.uniform(0, np.pi)
    amp = rng.uniform(*spec.amp_range)
    freq = rng.integers(spec.freq_range[0], spec.freq_range[1] + 1)
    intensity = rng.uniform(0.5, 0.9)
    phase0 = rng.uniform(0, 2 * np.pi)

    vol = np.empty((t_frames, h, w))
    for t in range(t_frames):
        s = 1.0 + amp * np.sin(2.0 * np.pi * freq * t / period + phase0)
        vol[t] = static + intensity * _ellipse(h, w, cy, cx, ry0 * s, rx0 * s, angle)
    if spec.noise_sigma > 0:
        vol += rng.normal(0.0, spec.noise_sigma, size=vol.shape)
    return np.clip(vol, 0.0, 1.0)


def gen_dataset(count, grid=(32, 32), frames=8, seed=0, noise_sigma=0.0) -> list[np.ndarray]:
    if count < 1:
        raise DataError("a dataset needs at least one volume")
    return [gen_phantom(PhantomSpec(grid=grid, frames=frames, seed=seed + i,
                                    noise_sigma=noise_sigma)) for i in range(count)]


MANIFEST_NAME = "manifest.json"
DATASET_VERSION = 1


def save_dataset(path, volumes, provenance=None):
    """manifest.json + one raw little-endian float64 blob per volume; the
    manifest records `provenance` (the command that made the data) if given."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    volumes = [np.asarray(v, dtype=np.float64) for v in volumes]
    if not volumes:
        raise DataError("refusing to save an empty dataset")
    t, h, w = volumes[0].shape
    for v in volumes:
        if v.shape != (t, h, w):
            raise DataError("all volumes must share one shape")
    manifest = {"version": DATASET_VERSION, "count": len(volumes),
                "T": t, "H": h, "W": w, "dtype": "f64le"}
    if provenance is not None:
        manifest["provenance"] = provenance
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    for i, v in enumerate(volumes):
        (path / f"vol_{i}.f64").write_bytes(v.astype("<f8").tobytes())
    # a larger dataset saved here before leaves volumes `load_dataset` refuses
    i = len(volumes)
    while (path / f"vol_{i}.f64").exists():
        (path / f"vol_{i}.f64").unlink()
        i += 1


def load_dataset(path) -> tuple[list[np.ndarray], str]:
    """The volumes and the dataset's digest: SHA-256 over the bytes read, the
    manifest's, then each volume file's in order. A volume file beyond the
    manifest's count is an error, since the digest would not cover it."""
    path = Path(path)
    manifest_file = path / MANIFEST_NAME
    if not manifest_file.exists():
        raise DataError(f"no dataset manifest at {manifest_file}")
    manifest_bytes = manifest_file.read_bytes()
    digest = hashlib.sha256(manifest_bytes)
    manifest = json.loads(manifest_bytes)
    if manifest.get("dtype") != "f64le" or manifest.get("version") != DATASET_VERSION:
        raise DataError("unsupported dataset format")
    t, h, w = manifest["T"], manifest["H"], manifest["W"]
    volumes = []
    for i in range(manifest["count"]):
        blob = (path / f"vol_{i}.f64").read_bytes()
        digest.update(blob)
        if len(blob) != 8 * t * h * w:
            raise DataError(f"vol_{i}.f64 has {len(blob)} bytes, expected {8 * t * h * w}")
        v = np.frombuffer(blob, dtype="<f8").reshape(t, h, w).copy()
        if not np.all(np.isfinite(v)):
            raise DataError(f"vol_{i}.f64 contains non-finite values")
        volumes.append(v)
    if (path / f"vol_{manifest['count']}.f64").exists():
        raise DataError(f"vol_{manifest['count']}.f64 lies beyond the manifest's count")
    return volumes, digest.hexdigest()


def write_csv(path, header, rows):
    """Write a CSV table: the `header` row, then `rows`, each float printed
    with 17 significant digits, so a read-back reproduces the float64 value
    bit-exactly; other values are written as they are."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])


def partition_frames(volume, k, pad=True):
    """Split [T,H,W] into k-frame units; zero-pad the last unit if `pad`."""
    t = volume.shape[0]
    units = []
    for start in range(0, t, k):
        unit = volume[start:start + k]
        if unit.shape[0] < k:
            if not pad:
                break
            fill = np.zeros((k - unit.shape[0],) + volume.shape[1:])
            unit = np.concatenate([unit, fill], axis=0)
        units.append(unit)
    return units
