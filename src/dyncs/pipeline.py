"""End-to-end acquisition/reconstruction pipeline and the two training
stages: joint main training and the stacked-trajectory refinement with the
temporal-derivative hinge penalty.

One training loop (`_fit`) serves both stages, and one windowed
reconstruction (`_recon_windows`: acquire and reconstruct each k-frame window
of a sequence with the k-frame trajectory) serves main training, refinement
and stacked evaluation alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import metrics as qm
from .autodiff import AdamState, AutodiffError, Tensor, adam_step
from .data import partition_frames
from .nufft import nudft_adjoint_op, nudft_forward_op
from .recon import ReconConfig, recon_forward
from .trajectory import (PhysicsConfig, Trajectory, feasibility_report,
                         init_golden_angle, init_radial, kinematic_bounds,
                         project_kinematic)

# tolerance of the kinematic projection after every trajectory update
PROJECTION_TOL = 1e-8


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


def _recon_windows(z, coords_t, params, rcfg):
    """Acquire and reconstruct each k-frame window of the sequence `z` with
    the k-frame trajectory `coords_t` (k = coords_t.shape[0]), the last
    window zero-padded to k frames; yields one [k,H,W] tensor per window."""
    for window in partition_frames(z, coords_t.shape[0]):
        z_hat, _ = recon_forward(acquire(window, coords_t), rcfg, params)
        yield z_hat


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


def _apply_constraints(coords, bounds):
    """Clip into [-pi, pi] and project onto the kinematic set."""
    clipped = np.clip(coords, -np.pi, np.pi)
    return project_kinematic(Trajectory(clipped), bounds, tol=PROJECTION_TOL).coords


def _fit(volumes, loss_fn, tcfg, pcfg, params, trajectory, stage, epochs,
         seed, lr_net, lr_traj) -> TrainResult:
    """Adam on the network parameters (held fixed when `lr_net` is None) and
    on the trajectory coords, which are re-projected onto the feasible set
    after every update. `loss_fn(z, coords_t)` is the per-sample loss; the
    validation loss is its mean over the held-out samples on frozen coords.
    History records one row per epoch. Deterministic given `seed`.
    """
    rng = np.random.default_rng(seed)
    bounds = kinematic_bounds(pcfg)
    coords = _apply_constraints(trajectory.coords, bounds)
    train_idx, val_idx = _split_train_val(len(volumes), tcfg.val_fraction)
    if not train_idx:
        raise AutodiffError(f"dataset too small for the {stage} stage")

    net_states = None if lr_net is None else {
        name: AdamState.init(p.shape, lr_net) for name, p in params.items()}
    traj_state = AdamState.init(coords.shape, lr_traj) if (
        trajectory.learnable and lr_traj > 0) else None

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
                loss = loss_fn(volumes[i], coords_t)
                if not np.isfinite(loss.item()):
                    raise TrainingDiverged(
                        f"loss became non-finite during {stage} epoch {epoch}")
                epoch_losses.append(loss.item())
                loss.backward()
            scale = 1.0 / len(batch)
            if net_states is not None:
                for name in sorted(params):
                    p = params[name]
                    if p.grad is not None:
                        p.data, net_states[name] = adam_step(
                            p.data, p.grad * scale, net_states[name])
                        p.grad = None
            if traj_state is not None:
                coords, traj_state = adam_step(coords, coords_t.grad * scale, traj_state)
                coords = _apply_constraints(coords, bounds)
            vel, acc = feasibility_report(Trajectory(coords), bounds)
            max_violation = max(max_violation, vel, acc)
        frozen = Tensor(coords)
        vals = [loss_fn(volumes[i], frozen).item() for i in val_idx]
        history.append({"epoch": epoch, "stage": stage,
                        "train_loss": float(np.mean(epoch_losses)),
                        "val_loss": float(np.mean(vals)) if vals else float("nan"),
                        "max_violation": float(max_violation)})
    return TrainResult(Trajectory(coords, learnable=trajectory.learnable),
                       params, history)


def train_main(volumes, tcfg: TrainConfig, pcfg: PhysicsConfig,
               rcfg: ReconConfig, params: dict, trajectory: Trajectory) -> TrainResult:
    """Joint Adam optimization of network parameters and trajectory coords
    on k-frame samples, with the MSE loss."""
    def loss_fn(z, coords_t):
        return loss_main(ad.concat(_recon_windows(z, coords_t, params, rcfg)), z)

    return _fit(volumes, loss_fn, tcfg, pcfg, params, trajectory, "main",
                tcfg.epochs_main, tcfg.seed, tcfg.lr_net, tcfg.lr_traj)


def train_refine(volumes_2k, tcfg: TrainConfig, stats: MuStats,
                 pcfg: PhysicsConfig, rcfg: ReconConfig, params: dict,
                 trajectory: Trajectory) -> TrainResult:
    """Post-training refinement on 2k-frame data with the hinge penalty.

    Each sample is reconstructed as two k-frame windows acquired with the
    same base trajectory, so its gradient sums over both copies. The network
    is updated too unless tcfg.freeze_theta_refine is set.
    """
    k = tcfg.frames_k
    for v in volumes_2k:
        if v.shape[0] != 2 * k:
            raise AutodiffError(f"refinement data must have {2 * k} frames")

    def loss_fn(z, coords_t):
        z_hat = ad.concat(_recon_windows(z, coords_t, params, rcfg))
        return loss_refine(z_hat, z, stats, tcfg.lambda_ref, mode=tcfg.mu_mode)

    lr_net = None if tcfg.freeze_theta_refine else tcfg.lr_net_refine
    return _fit(volumes_2k, loss_fn, tcfg, pcfg, params, trajectory, "refine",
                tcfg.epochs_refine, tcfg.seed + 1, lr_net, tcfg.lr_traj_refine)


# -- evaluation ---------------------------------------------------------------

@dataclass
class EvalResult:
    reconstruction: np.ndarray
    mu: np.ndarray
    metrics: dict


def evaluate_stacked(trajectory: Trajectory, params: dict, rcfg: ReconConfig,
                     z_long, k, mu_mode="abs") -> EvalResult:
    """Reconstruct an arbitrary-length sequence with the k-frame trajectory.

    Each k-frame window is acquired and reconstructed independently (the
    last one zero-padded) and the padding is cropped from the concatenation.
    """
    z_long = np.asarray(z_long, dtype=np.float64)
    t_total = z_long.shape[0]
    if trajectory.n_frames != k:
        raise AutodiffError("trajectory frame count must equal k")
    # keep only each window's array, so one window's graph is alive at a time
    windows = _recon_windows(z_long, Tensor(trajectory.coords), params, rcfg)
    recon = np.concatenate([w.data for w in windows], axis=0)[:t_total]
    mu = mean_temporal_derivative(recon, mu_mode) if t_total >= 2 else np.zeros(0)
    report = qm.metric_report(recon, z_long, peak=max(z_long.max(), 1e-12))
    return EvalResult(reconstruction=recon, mu=mu, metrics=report)
