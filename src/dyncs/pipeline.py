"""End-to-end acquisition/reconstruction pipeline and the two training
stages: joint main training and the stacked-trajectory refinement with the
temporal-derivative hinge penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import metrics as qm
from .autodiff import AdamState, AutodiffError, Tensor, adam_step
from .nufft import nudft_adjoint_op, nudft_forward_op
from .recon import ReconConfig, recon_forward
from .trajectory import (PhysicsConfig, Trajectory, feasibility_report,
                         init_golden_angle, init_radial, kinematic_bounds,
                         project_kinematic)


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs_main: int = 30
    epochs_refine: int = 10
    lr_traj: float = 0.05
    lr_net: float = 1e-4
    # the refinement stage restarts Adam on an already co-adapted model, so it
    # uses far smaller steps than main training to stay non-destructive
    lr_traj_refine: float = 7e-4
    lr_net_refine: float = 2e-6
    batch: int = 4
    lambda_ref: float = 5.0
    seed: int = 0
    frames_k: int = 4
    mu_mode: str = "abs"          # "abs" (default) or "signed"
    freeze_theta_refine: bool = False
    val_fraction: float = 0.1
    projection_tol: float = 1e-8

    def __post_init__(self):
        if self.lr_net <= 0 or self.lr_traj < 0:
            raise AutodiffError("learning rates must be positive (lr_traj may be 0)")
        if self.lr_net_refine <= 0 or self.lr_traj_refine < 0:
            raise AutodiffError(
                "refine learning rates must be positive (lr_traj_refine may be 0)")
        if self.lambda_ref < 0 or self.frames_k < 2:
            raise AutodiffError("lambda_ref >= 0 and frames_k >= 2 required")
        if self.mu_mode not in ("abs", "signed"):
            raise AutodiffError("mu_mode must be 'abs' or 'signed'")


@dataclass
class MuStats:
    mu_x: float

    def __post_init__(self):
        if not np.isfinite(self.mu_x):
            raise AutodiffError("mu_X must be finite")


@dataclass
class TrainResult:
    trajectory: Trajectory
    params: dict
    history: list


# -- core operators -----------------------------------------------------------

def acquire(z, coords: Tensor) -> Tensor:
    """Emulated acquisition: forward NUDFT then scaled adjoint regridding.

    Returns the 2-channel (real, imag) regridded volume [2,T,H,W].
    """
    z = np.asarray(z, dtype=np.float64)
    samples = nudft_forward_op(z, coords)
    return nudft_adjoint_op(samples, coords, z.shape)


def loss_main(z_hat: Tensor, z) -> Tensor:
    z = np.asarray(z, dtype=np.float64)
    if z_hat.shape != z.shape:
        raise AutodiffError(f"loss shape mismatch: {z_hat.shape} vs {z.shape}")
    diff = z_hat - Tensor(z)
    return (diff * diff).mean()


def mean_temporal_derivative(x, mode="abs"):
    """Spatial mean of frame-to-frame differences, one value per transition.

    mode="abs" returns the magnitude of each spatial-mean entry.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 2:
        raise AutodiffError("need at least two frames")
    mu = (x[1:] - x[:-1]).mean(axis=(1, 2))
    return np.abs(mu) if mode == "abs" else mu


def _mu_graph(x: Tensor, mode):
    """Graph version of mean_temporal_derivative on [T,H,W] tensors."""
    t = x.shape[0]
    mu = (x[1:t] - x[0:t - 1]).mean(axis=(1, 2))
    return mu.abs() if mode == "abs" else mu


def dataset_mu(volumes, mode="abs") -> MuStats:
    """Average of the per-sample mean of mu entries over the training set."""
    if not volumes:
        raise AutodiffError("empty dataset")
    per_sample = [float(mean_temporal_derivative(v, mode).mean()) for v in volumes]
    return MuStats(mu_x=float(np.mean(per_sample)))


def loss_refine(z_hat_stacked: Tensor, z, stats: MuStats, lambda_ref,
                mode="abs") -> Tensor:
    """MSE plus the hinge penalty on transitions exceeding the dataset mu_X."""
    base = loss_main(z_hat_stacked, z)
    mu = _mu_graph(z_hat_stacked, mode)
    hinge = (mu - Tensor(np.full(mu.shape, stats.mu_x))).relu().sum()
    return base + hinge * float(lambda_ref)


# -- training -----------------------------------------------------------------

def _split_train_val(n, val_fraction):
    n_val = max(1, int(round(n * val_fraction))) if n > 1 else 0
    return list(range(n - n_val)), list(range(n - n_val, n))


def init_trajectory(mode, n_frames, n_shots, m):
    if mode in ("learned", "radial"):
        traj = init_radial(n_frames, n_shots, m)
    elif mode == "gar":
        traj = init_golden_angle(n_frames, n_shots, m)
    else:
        raise AutodiffError(f"unknown trajectory mode '{mode}'")
    traj.learnable = mode == "learned"
    return traj


def _apply_constraints(coords, bounds, tol):
    """Clip into [-pi, pi] and project onto the kinematic set."""
    clipped = np.clip(coords, -np.pi, np.pi)
    return project_kinematic(Trajectory(clipped), bounds, tol=tol).coords


def _forward_loss(z, coords_t, params, rcfg):
    regrid = acquire(z, coords_t)
    z_hat, _ = recon_forward(regrid, rcfg, params)
    return loss_main(z_hat, z)


def _check_loss(value, context):
    if not np.isfinite(value):
        raise TrainingDiverged(f"loss became non-finite during {context}")


def _val_loss(volumes, idx, coords, params, rcfg):
    if not idx:
        return float("nan")
    frozen = Tensor(coords)
    return float(np.mean([_forward_loss(volumes[i], frozen, params, rcfg).item()
                          for i in idx]))


def _adam_states(params, lr):
    return {name: AdamState.init(p.shape, lr) for name, p in params.items()}


def _step_params(params, states, scale):
    for name in sorted(params):
        p = params[name]
        if p.grad is None:
            continue
        p.data, states[name] = adam_step(p.data, p.grad * scale, states[name])
        p.grad = None


def train_main(volumes, tcfg: TrainConfig, pcfg: PhysicsConfig,
               rcfg: ReconConfig, params: dict, trajectory: Trajectory,
               stage="main", epochs=None) -> TrainResult:
    """Joint Adam optimization of network parameters and trajectory coords.

    The trajectory is re-projected onto the feasible set after every update;
    history records one row per epoch. Deterministic given tcfg.seed.
    """
    rng = np.random.default_rng(tcfg.seed)
    bounds = kinematic_bounds(pcfg)
    epochs = tcfg.epochs_main if epochs is None else epochs

    coords = _apply_constraints(trajectory.coords, bounds, tcfg.projection_tol)
    train_idx, val_idx = _split_train_val(len(volumes), tcfg.val_fraction)
    if not train_idx:
        raise AutodiffError("dataset too small to train on")

    net_states = _adam_states(params, tcfg.lr_net)
    traj_state = AdamState.init(coords.shape, tcfg.lr_traj) if (
        trajectory.learnable and tcfg.lr_traj > 0) else None

    history = []
    for epoch in range(epochs):
        order = list(train_idx)
        rng.shuffle(order)
        epoch_losses = []
        max_violation = -np.inf
        for start in range(0, len(order), tcfg.batch):
            batch = order[start:start + tcfg.batch]
            coords_t = Tensor(coords, requires_grad=traj_state is not None)
            for name in sorted(params):
                params[name].grad = None
            for i in batch:
                loss = _forward_loss(volumes[i], coords_t, params, rcfg)
                _check_loss(loss.item(), f"epoch {epoch} (stage {stage})")
                epoch_losses.append(loss.item())
                loss.backward()
            scale = 1.0 / len(batch)
            _step_params(params, net_states, scale)
            if traj_state is not None:
                coords, traj_state = adam_step(coords, coords_t.grad * scale, traj_state)
                coords = _apply_constraints(coords, bounds, tcfg.projection_tol)
            vel, acc = feasibility_report(Trajectory(coords), bounds)
            max_violation = max(max_violation, vel, acc)
        val = _val_loss(volumes, val_idx, coords, params, rcfg)
        history.append({"epoch": epoch, "stage": stage,
                        "train_loss": float(np.mean(epoch_losses)),
                        "val_loss": val,
                        "max_violation": float(max_violation)})
    return TrainResult(Trajectory(coords, learnable=trajectory.learnable),
                       params, history)


def _stacked_recon(z2k, coords_t, params, rcfg, k):
    """Acquire a 2k sequence with the x2 tiled trajectory and reconstruct it
    as two independent k-frame windows, concatenated along time."""
    stacked = ad.concat([coords_t, coords_t], axis=0)
    regrid = acquire(z2k, stacked)
    halves = []
    for w in range(2):
        window = regrid[:, w * k:(w + 1) * k]
        z_hat, _ = recon_forward(window, rcfg, params)
        halves.append(z_hat)
    return ad.concat(halves, axis=0)


def train_refine(volumes_2k, tcfg: TrainConfig, stats: MuStats,
                 pcfg: PhysicsConfig, rcfg: ReconConfig, params: dict,
                 trajectory: Trajectory) -> TrainResult:
    """Post-training refinement on 2k-frame data with the hinge penalty.

    Both the network and the base k-frame trajectory are updated (the
    trajectory gradient sums over its two stacked copies) unless
    tcfg.freeze_theta_refine is set.
    """
    k = tcfg.frames_k
    for v in volumes_2k:
        if v.shape[0] != 2 * k:
            raise AutodiffError(f"refinement data must have {2 * k} frames")
    rng = np.random.default_rng(tcfg.seed + 1)
    bounds = kinematic_bounds(pcfg)

    coords = _apply_constraints(trajectory.coords, bounds, tcfg.projection_tol)
    train_idx, val_idx = _split_train_val(len(volumes_2k), tcfg.val_fraction)
    if not train_idx:
        raise AutodiffError("dataset too small to refine on")

    net_states = None if tcfg.freeze_theta_refine else _adam_states(
        params, tcfg.lr_net_refine)
    traj_state = AdamState.init(coords.shape, tcfg.lr_traj_refine) if (
        trajectory.learnable and tcfg.lr_traj_refine > 0) else None

    history = []
    for epoch in range(tcfg.epochs_refine):
        order = list(train_idx)
        rng.shuffle(order)
        epoch_losses = []
        max_violation = -np.inf
        for start in range(0, len(order), tcfg.batch):
            batch = order[start:start + tcfg.batch]
            coords_t = Tensor(coords, requires_grad=traj_state is not None)
            for name in sorted(params):
                params[name].grad = None
            for i in batch:
                z_hat = _stacked_recon(volumes_2k[i], coords_t, params, rcfg, k)
                loss = loss_refine(z_hat, volumes_2k[i], stats, tcfg.lambda_ref,
                                   mode=tcfg.mu_mode)
                _check_loss(loss.item(), f"refine epoch {epoch}")
                epoch_losses.append(loss.item())
                loss.backward()
            scale = 1.0 / len(batch)
            if net_states is not None:
                _step_params(params, net_states, scale)
            if traj_state is not None:
                coords, traj_state = adam_step(coords, coords_t.grad * scale, traj_state)
                coords = _apply_constraints(coords, bounds, tcfg.projection_tol)
            vel, acc = feasibility_report(Trajectory(coords), bounds)
            max_violation = max(max_violation, vel, acc)
        val = float("nan")
        if val_idx:
            frozen = Tensor(coords)
            vals = []
            for i in val_idx:
                z_hat = _stacked_recon(volumes_2k[i], frozen, params, rcfg, k)
                vals.append(loss_refine(z_hat, volumes_2k[i], stats,
                                        tcfg.lambda_ref, mode=tcfg.mu_mode).item())
            val = float(np.mean(vals))
        history.append({"epoch": epoch, "stage": "refine",
                        "train_loss": float(np.mean(epoch_losses)),
                        "val_loss": val,
                        "max_violation": float(max_violation)})
    return TrainResult(Trajectory(coords, learnable=trajectory.learnable),
                       params, history)


# -- evaluation ---------------------------------------------------------------

@dataclass
class EvalResult:
    reconstruction: np.ndarray
    mu: np.ndarray
    metrics: dict


def evaluate_stacked(trajectory: Trajectory, params: dict, rcfg: ReconConfig,
                     z_long, k, mu_mode="abs") -> EvalResult:
    """Reconstruct an arbitrary-length sequence with the k-frame trajectory.

    The sequence is split into ceil(T/k) windows, the last zero-padded to k
    frames; each window is acquired and reconstructed independently and the
    padding is cropped from the concatenation.
    """
    z_long = np.asarray(z_long, dtype=np.float64)
    t_total = z_long.shape[0]
    if trajectory.n_frames != k:
        raise AutodiffError("trajectory frame count must equal k")
    coords_t = Tensor(trajectory.coords)
    chunks = []
    for start in range(0, t_total, k):
        window = z_long[start:start + k]
        n_real = window.shape[0]
        if n_real < k:
            window = np.concatenate(
                [window, np.zeros((k - n_real,) + z_long.shape[1:])], axis=0)
        regrid = acquire(window, coords_t)
        z_hat, _ = recon_forward(regrid, rcfg, params)
        chunks.append(z_hat.data[:n_real])
    recon = np.concatenate(chunks, axis=0)
    mu = mean_temporal_derivative(recon, mu_mode) if t_total >= 2 else np.zeros(0)
    report = qm.metric_report(recon, z_long, peak=max(z_long.max(), 1e-12))
    return EvalResult(reconstruction=recon, mu=mu, metrics=report)
