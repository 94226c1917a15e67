"""Per-frame multi-shot k-space trajectories: generators, kinematic
feasibility projection, stacking and serialization.

A trajectory is a real array [N_frames, N_shots, m, 2] of angular
frequencies in radians (see `nufft` for the transform convention). The
scanner's peak gradient and slew rate translate into per-sample bounds on
the first and second discrete differences of each shot curve.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# MRI golden angle, 111.246 degrees: pi * (sqrt(5) - 1) / 2 radians.
GOLDEN_ANGLE = np.pi * (np.sqrt(5.0) - 1.0) / 2.0


class TrajectoryError(ValueError):
    pass


class ProjectionError(RuntimeError):
    def __init__(self, max_violation):
        self.max_violation = max_violation
        super().__init__(
            f"kinematic projection did not converge (max violation {max_violation:.3e})")


@dataclass
class Trajectory:
    coords: np.ndarray  # [N_frames, N_shots, m, 2], radians
    learnable: bool = True

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 4 or self.coords.shape[-1] != 2:
            raise TrajectoryError(f"coords must be [T,S,m,2], got {self.coords.shape}")
        if min(self.coords.shape[:3]) < 1:
            raise TrajectoryError("N_frames, N_shots and m must all be >= 1")
        if not np.all(np.abs(self.coords) <= np.pi + 1e-12):  # NaN fails too
            raise TrajectoryError("coordinate outside [-pi, pi] or NaN")

    @property
    def n_frames(self):
        return self.coords.shape[0]

    @property
    def n_shots(self):
        return self.coords.shape[1]

    @property
    def n_points(self):
        return self.coords.shape[2]


@dataclass
class PhysicsConfig:
    g_max: float = 0.04       # T/m
    s_max: float = 200.0      # T/m/s
    dt: float = 1e-5          # s
    gamma: float = 42.576e6   # Hz/T
    fov: float = 0.2          # m
    grid: tuple = (32, 32)

    def __post_init__(self):
        if min(self.g_max, self.s_max, self.dt, self.gamma, self.fov) <= 0:
            raise TrajectoryError("all physical constants must be positive")
        if min(self.grid) <= 0:
            raise TrajectoryError("grid dimensions must be positive")


@dataclass
class KinematicBounds:
    alpha: float  # max per-sample step, radians
    beta: float   # max per-sample second difference, radians

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise TrajectoryError("kinematic bounds must be positive")


def kinematic_bounds(p: PhysicsConfig) -> KinematicBounds:
    """Translate scanner limits into discrete per-sample bounds.

    One k-space step per dwell time is dk = gamma * G * dt cycles/m; over a
    field of view `fov` mapped onto H pixels, one pixel spans a frequency
    increment of 2*pi/H radians, i.e. dk_pixel = dk * fov pixels and the
    radian step is 2*pi * gamma * G * dt * fov / H. The slew-rate bound acts
    on the second difference with an extra factor dt.
    """
    h = p.grid[0]
    alpha = 2.0 * np.pi * p.gamma * p.g_max * p.dt * p.fov / h
    beta = 2.0 * np.pi * p.gamma * p.s_max * p.dt ** 2 * p.fov / h
    return KinematicBounds(alpha=alpha, beta=beta)


def _spoke(angle, m, span):
    radii = np.linspace(-span, span, m)
    return np.stack([radii * np.cos(angle), radii * np.sin(angle)], axis=-1)


def init_radial(n_frames, n_shots, m, span=0.9 * np.pi) -> Trajectory:
    """Temporally constant radial spokes at angles pi*s/n_shots."""
    if m < 2:
        raise TrajectoryError("radial init needs m >= 2")
    if n_frames < 1 or n_shots < 1:
        raise TrajectoryError("invalid sizes")
    frame = np.stack([_spoke(np.pi * s / n_shots, m, span) for s in range(n_shots)])
    return Trajectory(np.broadcast_to(frame, (n_frames,) + frame.shape).copy())


def init_golden_angle(n_frames, n_shots, m, span=0.9 * np.pi) -> Trajectory:
    """Time-varying spokes advancing by the golden angle across shots and frames."""
    if m < 2:
        raise TrajectoryError("golden-angle init needs m >= 2")
    if n_frames < 1 or n_shots < 1:
        raise TrajectoryError("invalid sizes")
    coords = np.empty((n_frames, n_shots, m, 2))
    idx = 0
    for t in range(n_frames):
        for s in range(n_shots):
            coords[t, s] = _spoke(idx * GOLDEN_ANGLE, m, span)
            idx += 1
    return Trajectory(coords)


def _block_shrink(u, radius):
    norms = np.linalg.norm(u, axis=-1, keepdims=True)
    scale = np.maximum(0.0, 1.0 - radius / np.maximum(norms, 1e-300))
    return u * scale


def _kinematic_violations(c, b):
    """(max velocity violation, max acceleration violation) over a batch of
    curves [B, m, 2]; negative = slack, -alpha / -beta when a curve is too
    short to have that difference."""
    vel, acc = -b.alpha, -b.beta
    if c.shape[1] >= 2:
        vel = float((np.linalg.norm(c[:, 1:] - c[:, :-1], axis=-1) - b.alpha).max())
    if c.shape[1] >= 3:
        d2 = c[:, 2:] - 2.0 * c[:, 1:-1] + c[:, :-2]
        acc = float((np.linalg.norm(d2, axis=-1) - b.beta).max())
    return vel, acc


def _batch_violation(c, b):
    """Worst constraint violation over a batch of curves [B, m, 2]."""
    return max(*_kinematic_violations(c, b), float(np.max(np.abs(c)) - np.pi))


def _project_curves(c0, b, tol, max_iter):
    """Euclidean projection of a batch of curves [B, m, 2] onto the set
        { ||D1 c||_i <= alpha, ||D2 c||_i <= beta, |c| <= pi }.

    Accelerated (FISTA) ascent on the dual, with block soft-thresholding
    (and, for the box, the Moreau identity prox(u) = u - t*clip(u/t)) as
    the prox of the constraint support functions.
    """
    bsz, m, _ = c0.shape
    if m == 1:
        return np.clip(c0, -np.pi, np.pi)
    if _batch_violation(c0, b) <= tol:
        return c0.copy()  # already within tolerance: fixed point, exact idempotency
    has2 = m >= 3
    step = 1.0 / (4.0 + 1.0 + (16.0 if has2 else 0.0))

    def d1(c):
        return c[:, 1:] - c[:, :-1]

    def d2(c):
        return c[:, 2:] - 2.0 * c[:, 1:-1] + c[:, :-2]

    def primal(a1, a2, a3):
        c = c0 - a3
        c[:, :-1] += a1
        c[:, 1:] -= a1
        if has2:
            c[:, :-2] -= a2
            c[:, 1:-1] += 2.0 * a2
            c[:, 2:] -= a2
        return c

    q1 = np.zeros((bsz, m - 1, 2))
    q2 = np.zeros((bsz, m - 2, 2)) if has2 else None
    q3 = np.zeros((bsz, m, 2))
    y1, y2, y3 = q1, q2, q3
    tk = 1.0
    for it in range(max_iter):
        c = primal(y1, y2, y3)
        q1n = _block_shrink(y1 + step * d1(c), step * b.alpha)
        q2n = _block_shrink(y2 + step * d2(c), step * b.beta) if has2 else None
        u = y3 + step * c
        q3n = u - step * np.clip(u / step, -np.pi, np.pi)
        # Adaptive restart: drop momentum when it opposes the ascent step.
        osc = float(np.vdot(y1 - q1n, q1n - q1)) + float(np.vdot(y3 - q3n, q3n - q3))
        if has2:
            osc += float(np.vdot(y2 - q2n, q2n - q2))
        if osc > 0.0:
            tk = 1.0
        tk_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        w = (tk - 1.0) / tk_new
        y1 = q1n + w * (q1n - q1)
        y3 = q3n + w * (q3n - q3)
        if has2:
            y2 = q2n + w * (q2n - q2)
        q1, q2, q3, tk = q1n, q2n, q3n, tk_new
        if it % 25 == 24 or it == max_iter - 1:
            c = primal(q1, q2, q3)
            if _batch_violation(c, b) <= tol:
                return np.clip(c, -np.pi, np.pi)
    raise ProjectionError(_batch_violation(primal(q1, q2, q3), b))


def project_kinematic(k: Trajectory, b: KinematicBounds, tol=1e-8,
                      max_iter=20000) -> Trajectory:
    """Project every shot of every frame onto the kinematically feasible set."""
    if tol <= 0:
        raise TrajectoryError("tol must be positive")
    shape = k.coords.shape
    flat = k.coords.reshape(-1, shape[2], 2)
    out = _project_curves(flat, b, tol, max_iter).reshape(shape)
    return Trajectory(out, learnable=k.learnable)


def feasibility_report(k: Trajectory, b: KinematicBounds):
    """(max velocity violation, max acceleration violation); negative = slack."""
    return _kinematic_violations(k.coords.reshape(-1, k.n_points, 2), b)


def stack_trajectories(k: Trajectory, total_frames: int) -> Trajectory:
    """Tile the learned frames cyclically; the last partial tile is truncated."""
    if total_frames < 1:
        raise TrajectoryError("total_frames must be >= 1")
    reps = -(-total_frames // k.n_frames)
    tiled = np.tile(k.coords, (reps, 1, 1, 1))[:total_frames]
    return Trajectory(tiled, learnable=k.learnable)


def export_trajectory(k: Trajectory, path, bounds: KinematicBounds | None = None):
    """Write <path>.json metadata and <path>.csv coordinate table.

    Coordinates are printed with 17 significant digits, so a read-back
    reproduces the float64 values bit-exactly.
    """
    path = Path(path)
    meta = {
        "n_frames": k.n_frames,
        "n_shots": k.n_shots,
        "points_per_shot": k.n_points,
        "units": "radians",
        "learnable": k.learnable,
    }
    if bounds is not None:
        meta["bounds"] = {"alpha": bounds.alpha, "beta": bounds.beta}
    path.with_suffix(".json").write_text(json.dumps(meta, indent=2))
    with open(path.with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "shot", "index", "kx", "ky"])
        for t in range(k.n_frames):
            for s in range(k.n_shots):
                for i in range(k.n_points):
                    kx, ky = k.coords[t, s, i]
                    writer.writerow([t, s, i, format(kx, ".17g"), format(ky, ".17g")])


def load_trajectory(path) -> Trajectory:
    """Read back an `export_trajectory` pair; every (frame, shot, index) row
    must appear exactly once."""
    path = Path(path)
    meta = json.loads(path.with_suffix(".json").read_text())
    shape = (meta["n_frames"], meta["n_shots"], meta["points_per_shot"])
    coords = np.zeros(shape + (2,))
    seen = np.zeros(shape, dtype=bool)
    with open(path.with_suffix(".csv"), newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            idx = tuple(int(v) for v in row[:3])
            if not all(0 <= i < n for i, n in zip(idx, shape)):
                raise TrajectoryError(f"row (frame, shot, index) = {idx} outside {shape}")
            if seen[idx]:
                raise TrajectoryError(f"duplicate row (frame, shot, index) = {idx}")
            seen[idx] = True
            coords[idx] = (float(row[3]), float(row[4]))
    if not seen.all():
        first = tuple(int(i) for i in np.argwhere(~seen)[0])
        raise TrajectoryError(f"{int((~seen).sum())} rows missing, first "
                              f"(frame, shot, index) = {first}")
    return Trajectory(coords, learnable=meta.get("learnable", True))
