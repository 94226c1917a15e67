"""Per-frame multi-shot k-space trajectories: generators, kinematic
feasibility projection and serialization (the CSV table through
`data.write_csv`).

A trajectory is a real array [N_frames, N_shots, m, 2] of angular
frequencies in radians (see `nufft` for the transform convention). The
scanner's peak gradient and slew rate bound the first and second discrete
differences of each shot curve; `project_kinematic` enforces the bounds and
`feasibility_report` audits them on coordinate arrays [..., m, 2].
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .data import write_csv

# MRI golden angle, 111.246 degrees: pi * (sqrt(5) - 1) / 2 radians.
GOLDEN_ANGLE = np.pi * (np.sqrt(5.0) - 1.0) / 2.0
# Dual FISTA iterations before the kinematic projection gives up.
MAX_ITER = 20000
# Constraint violation the kinematic projection stops at.
PROJECTION_TOL = 1e-8


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
        if self.grid[0] != self.grid[1]:  # `kinematic_bounds` reads grid[0] alone
            raise TrajectoryError(f"the grid must be square, got {self.grid}")


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


def _spokes(n_frames, n_shots, m, span, angle):
    """Straight spokes through the origin: a [T, S, m, 2] trajectory of m
    points evenly spaced over [-span, span], at the angles that
    angle(frame, shot) gives on the broadcast index grids [T, 1] and [1, S]."""
    if m < 2:
        raise TrajectoryError(f"spoke initializers need m >= 2, got {m}")
    if n_frames < 1 or n_shots < 1:
        raise TrajectoryError(f"invalid sizes: {n_frames} frames, {n_shots} shots")
    frame, shot = np.ogrid[:n_frames, :n_shots]
    a = np.broadcast_to(angle(frame, shot), (n_frames, n_shots))[..., None]
    radii = np.linspace(-span, span, m)
    return Trajectory(np.stack([radii * np.cos(a), radii * np.sin(a)], axis=-1))


def init_radial(n_frames, n_shots, m, span=0.9 * np.pi) -> Trajectory:
    """Temporally constant radial spokes at angles pi*s/n_shots."""
    return _spokes(n_frames, n_shots, m, span, lambda t, s: np.pi * s / n_shots)


def init_golden_angle(n_frames, n_shots, m, span=0.9 * np.pi) -> Trajectory:
    """Time-varying spokes advancing by the golden angle across shots and frames."""
    return _spokes(n_frames, n_shots, m, span,
                   lambda t, s: (t * n_shots + s) * GOLDEN_ANGLE)


def _block_shrink(u, radius):
    norms = np.sqrt(u[..., :1] ** 2 + u[..., 1:] ** 2)
    scale = np.maximum(0.0, 1.0 - radius / np.maximum(norms, 1e-300))
    return u * scale


def feasibility_report(coords, b: KinematicBounds):
    """(max velocity violation, max acceleration violation) over the curves
    of coords [..., m, 2]; negative = slack, -alpha / -beta when a curve is
    too short to have that difference."""
    c = coords.reshape(-1, *coords.shape[-2:])
    vel, acc = -b.alpha, -b.beta
    if c.shape[1] >= 2:
        vel = float((np.linalg.norm(c[:, 1:] - c[:, :-1], axis=-1) - b.alpha).max())
    if c.shape[1] >= 3:
        d2 = c[:, 2:] - 2.0 * c[:, 1:-1] + c[:, :-2]
        acc = float((np.linalg.norm(d2, axis=-1) - b.beta).max())
    return vel, acc


def _project_curves(c0, b):
    """Euclidean projection of a batch of curves [B, m, 2] onto
        { ||D1 c||_i <= alpha, ||D2 c||_i <= beta, |c| <= pi }.

    The box stays in the primal, and the dual y [2m-3, B, 2] covers only the
    difference rows D = [D1; D2] (Beck & Teboulle, IEEE TIP 2009), a CSR
    matrix built once per call. The curves lie along its columns,
    x0 = [m, 2B], so D and D^T each act on the whole batch in one sparse
    product. The primal point of a dual point y is the clip
    c(y) = clip(x0 - D^T y, -pi, pi). FISTA ascends y + step * D c(y) with
    step = 1 / bound on ||D||^2; the prox of the support functions is block
    soft-thresholding of the velocity and acceleration rows. Every 25
    iterations, c(q) is returned once it is feasible to PROJECTION_TOL and
    the duality gap alpha * sum ||q_vel|| + beta * sum ||q_acc|| - <D c(q), q>,
    which then bounds 0.5 * ||c(q) - P(c0)||^2, is within PROJECTION_TOL too.
    A feasible clip c(0) is returned as it is: the map is exactly idempotent.
    """
    bsz, m, _ = c0.shape
    c = np.clip(c0, -np.pi, np.pi)
    if max(feasibility_report(c, b)) <= PROJECTION_TOL:
        return c
    d = sparse.vstack([sparse.diags([-1.0, 1.0], [0, 1], shape=(m - 1, m)),
                       sparse.diags([1.0, -2.0, 1.0], [0, 1, 2], shape=(m - 2, m))],
                      format="csr")
    dt = d.T.tocsr()  # a product with the CSC view d.T is ~2.5x slower
    step = 1.0 / (4.0 + (16.0 if m >= 3 else 0.0))  # 1 / bound on ||D||^2
    x0 = c0.transpose(1, 0, 2).reshape(m, 2 * bsz)

    def primal(y):
        return np.clip(x0 - dt @ y.reshape(2 * m - 3, -1), -np.pi, np.pi)

    def curves(x):
        return x.reshape(m, bsz, 2).transpose(1, 0, 2)

    q = np.zeros((2 * m - 3, bsz, 2))
    y = q
    tk = 1.0
    for it in range(MAX_ITER):
        qn = y + step * (d @ primal(y)).reshape(q.shape)
        qn[:m - 1] = _block_shrink(qn[:m - 1], step * b.alpha)
        qn[m - 1:] = _block_shrink(qn[m - 1:], step * b.beta)
        # Adaptive restart: drop momentum when it opposes the ascent step.
        if float(np.vdot(y - qn, qn - q)) > 0.0:
            tk = 1.0
        tk_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        y = qn + (tk - 1.0) / tk_new * (qn - q)
        q, tk = qn, tk_new
        if it % 25 == 24 or it == MAX_ITER - 1:
            x = primal(q)
            violation = max(feasibility_report(curves(x), b))
            if violation > PROJECTION_TOL:
                continue
            norms = np.sqrt(q[..., 0] ** 2 + q[..., 1] ** 2)
            gap = (b.alpha * norms[:m - 1].sum() + b.beta * norms[m - 1:].sum()
                   - float(np.vdot(d @ x, q)))
            if gap <= PROJECTION_TOL:
                return curves(x)
    raise ProjectionError(violation)


def project_kinematic(coords, b: KinematicBounds):
    """The Euclidean projection of each curve of coords [..., m, 2] onto the
    kinematically feasible part of the box [-pi, pi], to the accuracy of
    `_project_curves`. Returns an array of the same shape."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim < 2 or coords.shape[-1] != 2 or np.isnan(coords).any():
        raise TrajectoryError(f"coords must be [..., m, 2] without NaN, got {coords.shape}")
    return _project_curves(coords.reshape(-1, *coords.shape[-2:]), b).reshape(coords.shape)


def export_trajectory(k: Trajectory, path, bounds: KinematicBounds):
    """Write <path>.json metadata, with the kinematic `bounds` the trajectory
    is feasible under, and <path>.csv coordinate table, one row
    (frame, shot, index, kx, ky) per point through `data.write_csv`."""
    path = Path(path)
    meta = {
        "n_frames": k.coords.shape[0],
        "n_shots": k.coords.shape[1],
        "points_per_shot": k.coords.shape[2],
        "units": "radians",
        "learnable": k.learnable,
        "bounds": {"alpha": bounds.alpha, "beta": bounds.beta},
    }
    path.with_suffix(".json").write_text(json.dumps(meta, indent=2))
    write_csv(path.with_suffix(".csv"), ["frame", "shot", "index", "kx", "ky"],
              ([*idx, *k.coords[idx]] for idx in np.ndindex(k.coords.shape[:3])))


def load_trajectory(path) -> tuple[Trajectory, KinematicBounds]:
    """Read back an `export_trajectory` pair: the trajectory and the bounds it
    was exported under. Every (frame, shot, index) row must appear exactly
    once, with five fields, and the table must end in a line end, so a file
    cut inside its last row is an error."""
    path = Path(path)
    meta = json.loads(path.with_suffix(".json").read_text())
    if "bounds" not in meta:
        raise TrajectoryError(f"{path.with_suffix('.json')} records no kinematic bounds")
    bounds = KinematicBounds(**meta["bounds"])
    shape = (meta["n_frames"], meta["n_shots"], meta["points_per_shot"])
    coords = np.zeros(shape + (2,))
    seen = np.zeros(shape, dtype=bool)
    with open(path.with_suffix(".csv"), newline="") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise TrajectoryError(f"{path.with_suffix('.csv')} is cut inside its last row")
    for row in list(csv.reader(text.splitlines()))[1:]:
        if len(row) != 5:
            raise TrajectoryError(f"row {row} has {len(row)} fields, not 5")
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
    return Trajectory(coords, learnable=meta.get("learnable", True)), bounds
