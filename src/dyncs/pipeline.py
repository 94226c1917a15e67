"""End-to-end acquisition/reconstruction pipeline and the two training
stages: joint main training and the stacked-trajectory refinement with the
temporal-derivative hinge penalty above mu_X, one float from `dataset_mu`.

One training loop (`_fit`) serves both stages on the trajectory's coordinate
array, which `project_kinematic` projects onto the feasible set after every
update. One acquisition path serves main training, refinement, validation
and stacked evaluation alike: `_acquire_windows` acquires every k-frame
window of a list of sequences with the k-frame trajectory in one `acquire`
call, one leaf per window, and `_reconstruct` runs the network forward only
for validation and stacked evaluation. An optimizer step acquires its whole
mini-batch at once but differentiates the network one sample at a time. The
losses take numpy arrays and return their value and gradient in closed
form; the gradient's k-frame slices seed each window node's backward. The
network is the only graph node: `acquire`'s vjp maps the window leaves'
gradients to the coordinates'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics as qm
from .autodiff import AdamState, AutodiffError, Tensor, adam_step
from .data import partition_frames
from .nufft import acquire
from .recon import ReconConfig, recon_forward
from .trajectory import (PhysicsConfig, Trajectory, feasibility_report, kinematic_bounds,
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

    def __post_init__(self):
        if self.epochs_main < 0 or self.epochs_refine < 0:
            raise AutodiffError("epoch counts must be non-negative")
        # each test is written so that NaN fails it
        if not (0 < self.lr_net < np.inf and 0 <= self.lr_traj < np.inf):
            raise AutodiffError("learning rates must be finite and positive "
                                "(lr_traj may be 0)")
        if not (0 < self.lr_net_refine < np.inf and 0 <= self.lr_traj_refine < np.inf):
            raise AutodiffError("refine learning rates must be finite and positive "
                                "(lr_traj_refine may be 0)")
        if not 0 <= self.lambda_ref < np.inf or self.frames_k < 2 or self.batch < 1:
            raise AutodiffError("a finite lambda_ref >= 0, frames_k >= 2 and batch >= 1 "
                                "required")
        if self.mu_mode not in ("abs", "signed"):
            raise AutodiffError("mu_mode must be 'abs' or 'signed'")


@dataclass
class TrainResult:
    trajectory: Trajectory
    params: dict
    history: list


# -- core operators -----------------------------------------------------------

def loss_main(z_hat, z):
    """The MSE of the reconstruction z_hat against z: (value, dL/dz_hat)."""
    z = np.asarray(z, dtype=np.float64)
    if z_hat.shape != z.shape:
        raise AutodiffError(f"loss shape mismatch: {z_hat.shape} vs {z.shape}")
    diff = z_hat - z
    return float((diff * diff).sum() * (1.0 / diff.size)), diff * (2.0 / diff.size)


def mean_temporal_derivative(x, mode="abs"):
    """Spatial mean of frame-to-frame differences, one value per transition.

    mode="abs" returns the magnitude of each spatial-mean entry.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 2:
        raise AutodiffError("need at least two frames")
    mu = (x[1:] - x[:-1]).mean(axis=(1, 2))
    return np.abs(mu) if mode == "abs" else mu


def dataset_mu(volumes, mode="abs") -> float:
    """mu_X: the average of the per-sample mean of mu entries over the training set."""
    if not volumes:
        raise AutodiffError("empty dataset")
    per_sample = [float(mean_temporal_derivative(v, mode).mean()) for v in volumes]
    return float(np.mean(per_sample))


def loss_refine(z_hat, z, mu_x, lambda_ref, mode="abs"):
    """MSE plus lambda_ref times the hinge on the transitions whose mean
    temporal derivative mu exceeds the dataset mu_X: (value, dL/dz_hat).

    The hinge's gradient in mu is lambda_ref on each exceeding transition
    (times sign(mu) in "abs" mode), and mu_t is the spatial mean of
    z_hat[t+1] - z_hat[t], so it adds that over H*W to frame t+1 and takes
    it from frame t.
    """
    base, grad = loss_main(z_hat, z)
    delta = mean_temporal_derivative(z_hat, "signed")
    mu = np.abs(delta) if mode == "abs" else delta
    excess = mu - mu_x
    active = excess > 0
    hinge = float(lambda_ref) * active
    if mode == "abs":
        hinge = hinge * np.sign(delta)
    hinge = (hinge * (1.0 / (z_hat.shape[1] * z_hat.shape[2])))[:, None, None]
    grad[1:] += hinge
    grad[:-1] -= hinge
    return float(base + (excess * active).sum() * float(lambda_ref)), grad


def _acquire_windows(seqs, coords, learn=False):
    """Acquire every k-frame window of the sequences `seqs` with the k-frame
    coordinate array `coords` (k = coords.shape[0]), the last window of each
    zero-padded to k frames, in one `acquire` call, so the trajectory's phase
    tables are built once per pass. Returns `acquire`'s vjp, which takes the
    stacked window gradients [n_windows, 2,k,H,W], and each sequence's list
    of window leaves, which require grad exactly when `learn` is set."""
    windows = [partition_frames(z, coords.shape[0]) for z in seqs]
    regrid, vjp = acquire(np.stack([u for w in windows for u in w]), coords)
    leaves = iter(Tensor(u, requires_grad=learn) for u in regrid)
    return vjp, [[next(leaves) for _ in w] for w in windows]


def _reconstruct(seqs, coords, params, rcfg):
    """Reconstruct each sequence of `seqs` forward only, window by window,
    with the k-frame coordinate array `coords`: one array [n_windows*k, H,W]
    per sequence. Only each window's output is kept, so its network node is
    freed at once."""
    _, leaves = _acquire_windows(seqs, coords)
    return [np.concatenate([recon_forward(w, rcfg, params)[0].data for w in windows])
            for windows in leaves]


# -- training -----------------------------------------------------------------

def _split_train_val(n, val_fraction):
    n_val = max(1, int(round(n * val_fraction))) if n > 1 else 0
    return list(range(n - n_val)), list(range(n - n_val, n))


def _fit(volumes, loss_fn, tcfg, pcfg, rcfg, params, trajectory, stage, epochs,
         seed, lr_net, lr_traj) -> TrainResult:
    """Adam on the network parameters (held fixed when `lr_net` is None) and
    on the trajectory coords, which are re-projected onto the feasible set
    after every update. `loss_fn(z_hat, z)` returns the per-sample loss of
    the reconstruction array `z_hat` of the sample z and its gradient in
    `z_hat`. The validation loss is its mean over the held-out samples,
    reconstructed forward only. History records one row per epoch.
    Deterministic given `seed`.

    A step acquires its mini-batch in one `acquire` call. Each sample then
    reconstructs every window from its own leaf, and each window node's
    backward is seeded with its frames of the loss gradient, so only one
    sample's network graph is alive at a time and the parameter gradients
    accumulate in sample and window order. The acquisition's vjp of the
    stacked leaf gradients then gives the coordinate gradient.
    """
    if trajectory.coords.shape[0] != tcfg.frames_k:
        raise AutodiffError("the trajectory's frame count must equal frames_k")
    rng = np.random.default_rng(seed)
    bounds = kinematic_bounds(pcfg)
    coords = project_kinematic(trajectory.coords, bounds)
    train_idx, val_idx = _split_train_val(len(volumes), tcfg.val_fraction)
    if not train_idx:
        raise AutodiffError(f"dataset too small for the {stage} stage")

    net_states = None if lr_net is None else {
        name: AdamState.init(p.shape, lr_net) for name, p in params.items()}
    net = params if net_states is not None else {
        name: Tensor(p.data) for name, p in params.items()}
    traj_state = AdamState.init(coords.shape, lr_traj) if (
        trajectory.learnable and lr_traj > 0) else None
    if epochs > 0 and net_states is None and traj_state is None:
        raise AutodiffError(f"nothing to train in the {stage} stage: the network "
                            "and the trajectory are both frozen")

    for p in params.values():
        p.grad = None
    history = []
    for epoch in range(epochs):
        order = list(train_idx)
        rng.shuffle(order)
        epoch_losses = []
        max_violation = -np.inf
        for start in range(0, len(order), tcfg.batch):
            batch = order[start:start + tcfg.batch]
            vjp, leaves = _acquire_windows([volumes[i] for i in batch], coords,
                                           learn=traj_state is not None)
            for i, windows in zip(batch, leaves):
                nodes = [recon_forward(w, rcfg, net)[0] for w in windows]
                loss, grad = loss_fn(np.concatenate([node.data for node in nodes]),
                                     volumes[i])
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"loss became non-finite during {stage} epoch {epoch}")
                epoch_losses.append(loss)
                for node, g in zip(nodes, np.split(grad, len(nodes))):
                    node.backward(g)
            scale = 1.0 / len(batch)
            if net_states is not None:
                for name in sorted(params):
                    p = params[name]
                    p.data, net_states[name] = adam_step(p.data, p.grad * scale,
                                                         net_states[name])
                    p.grad = None
            if traj_state is not None:
                g_coords = vjp(np.stack([w.grad for ws in leaves for w in ws])) * scale
                coords, traj_state = adam_step(coords, g_coords, traj_state)
                coords = project_kinematic(coords, bounds)
            vel, acc = feasibility_report(coords, bounds)
            max_violation = max(max_violation, vel, acc)
        vals = []
        if val_idx:
            val = [volumes[i] for i in val_idx]
            vals = [loss_fn(z_hat, z)[0]
                    for z_hat, z in zip(_reconstruct(val, coords, params, rcfg), val)]
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
    return _fit(volumes, loss_main, tcfg, pcfg, rcfg, params, trajectory, "main",
                tcfg.epochs_main, tcfg.seed, tcfg.lr_net, tcfg.lr_traj)


def train_refine(volumes_2k, tcfg: TrainConfig, mu_x: float,
                 pcfg: PhysicsConfig, rcfg: ReconConfig, params: dict,
                 trajectory: Trajectory) -> TrainResult:
    """Post-training refinement on 2k-frame data with the hinge above mu_X.

    Each sample is reconstructed as two k-frame windows acquired with the
    same base trajectory, so its gradient sums over both copies. The network
    is updated too unless tcfg.freeze_theta_refine is set.
    """
    if not np.isfinite(mu_x):
        raise AutodiffError("mu_X must be finite")
    k = tcfg.frames_k
    for v in volumes_2k:
        if v.shape[0] != 2 * k:
            raise AutodiffError(f"refinement data must have {2 * k} frames")

    def loss_fn(z_hat, z):
        return loss_refine(z_hat, z, mu_x, tcfg.lambda_ref, mode=tcfg.mu_mode)

    lr_net = None if tcfg.freeze_theta_refine else tcfg.lr_net_refine
    return _fit(volumes_2k, loss_fn, tcfg, pcfg, rcfg, params, trajectory, "refine",
                tcfg.epochs_refine, tcfg.seed + 1, lr_net, tcfg.lr_traj_refine)


# -- evaluation ---------------------------------------------------------------

@dataclass
class EvalResult:
    reconstruction: np.ndarray
    mu: np.ndarray
    metrics: dict


def evaluate_stacked(trajectory: Trajectory, params: dict, rcfg: ReconConfig,
                     z_long, k) -> EvalResult:
    """Reconstruct an arbitrary-length sequence with the k-frame trajectory.

    Each k-frame window is acquired and reconstructed independently (the
    last one zero-padded) and the padding is cropped from the concatenation.
    """
    z_long = np.asarray(z_long, dtype=np.float64)
    t_total = z_long.shape[0]
    if trajectory.coords.shape[0] != k:
        raise AutodiffError("trajectory frame count must equal k")
    recon = _reconstruct([z_long], trajectory.coords, params, rcfg)[0][:t_total]
    mu = mean_temporal_derivative(recon) if t_total >= 2 else np.zeros(0)
    report = qm.metric_report(recon, z_long, peak=max(z_long.max(), 1e-12))
    return EvalResult(reconstruction=recon, mu=mu, metrics=report)
