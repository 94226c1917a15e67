"""The benchmark's workloads, driven only through dyncs' library functions.

A workload has a set-up (generate the inputs, initialise the network, and for
extend-27 train the model to be extended), a round (the timed calls into the
program) and output checks. A round is a training stage (pipeline.train_main,
or pipeline.train_refine for extend-27) followed by pipeline.evaluate_stacked
of the trained model on held-out volumes. Every round does the same
operations:

* round 0 is the process's warm-up. It runs on the reference inputs, which do
  not depend on the benchmark seed, and gives the quality metrics
  (final_val_loss, eval_psnr_db, eval_transition_peak). Two runs of the same
  code therefore report the same quality, whatever their seeds, and a change
  that alters the method shows as a change of these numbers.
* rounds 1, 2, ... are timed and run on the inputs drawn from the seed; round
  r starts from coordinates scaled by 1 - r*1e-9 (see `shrink`).

The held-out volumes (validation and eval) are a fixed test set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import checks
from dyncs import autodiff, data, nufft, pipeline, recon, trajectory

# Scanner limits passed to the program; the checks derive alpha and beta from
# these same constants with their own formula.
SCANNER = dict(g_max=0.04, s_max=200.0, dt=1e-5, gamma=42.576e6, fov=0.2)
K = 4
BATCH = 4
REFERENCE_SEED = 0
HELD_OUT_SEED = 10 ** 12  # first phantom seed of the fixed test set

FAILURES = (pipeline.TrainingDiverged, trajectory.ProjectionError,
            trajectory.TrajectoryError, autodiff.AutodiffError)


def train_seed(seed):
    """First phantom seed of the training volumes drawn for `seed`."""
    return 1_000_003 * (seed + 1)


def gen_volumes(first_seed, count, grid, frames):
    return [data.gen_phantom(data.PhantomSpec(grid=(grid, grid), frames=frames,
                                              seed=first_seed + i))
            for i in range(count)]


def shrink(coords, r):
    """Start coordinates of round r: scaled by 1 - r*1e-9.

    Scaling keeps a feasible trajectory feasible and changes its bytes, so no
    round starts from coordinates an earlier round of the process used:
    dyncs caches phase matrices by coordinate bytes, and a user's training
    never revisits a trajectory. Round 0 starts from the unscaled input.
    """
    return coords * (1.0 - r * 1e-9)


def copy_params(params):
    return {n: autodiff.Tensor(p.data.copy(), requires_grad=True)
            for n, p in params.items()}


def steps_per_epoch(n_train):
    return -(-n_train // BATCH)


def n_val(n, val_fraction):
    """Validation count of pipeline's split of n samples."""
    return max(1, int(round(n * val_fraction)))


@dataclass(frozen=True)
class Spec:
    grid: int
    shots: int
    points: int
    channels: int
    blocks: int
    heads: int
    n_train: int             # training samples per epoch
    n_val: int               # validation samples
    epochs: int              # epochs of the round's training stage
    n_eval: int              # held-out volumes evaluated per round
    eval_frames: int         # frames of each held-out volume
    learned: bool = True     # trajectory learned (or frozen) in the round


@dataclass
class Round:
    metrics: dict            # this round's end-to-end values
    outputs: dict            # what the checks look at


@dataclass
class State:
    reference: dict          # inputs of round 0
    drawn: dict              # inputs of the timed rounds, drawn from the seed
    shared: dict             # config, held-out volumes, set-up model


class Workload:
    rates = ("train_samples_per_s", "eval_frames_per_s")
    quality = ("final_val_loss", "eval_psnr_db", "eval_transition_peak")

    def __init__(self, spec: Spec):
        self.spec = spec
        self.samples = spec.n_train * spec.epochs
        self.steps = steps_per_epoch(spec.n_train) * spec.epochs
        # an operation is an optimizer step or an evaluated volume
        self.ops_per_round = self.steps + spec.n_eval

    def _shared(self):
        s = self.spec
        return dict(
            held_out=gen_volumes(HELD_OUT_SEED, s.n_eval, s.grid, s.eval_frames),
            pcfg=trajectory.PhysicsConfig(grid=(s.grid, s.grid), **SCANNER),
            rcfg=recon.ReconConfig(channels=s.channels, n_blocks=s.blocks, heads=s.heads))

    def run_round(self, state, r):
        s = self.spec
        inp = state.drawn if r else state.reference
        rcfg = state.shared["rcfg"]
        t0 = time.perf_counter()
        result, extra = self.train(state, inp, r)
        t1 = time.perf_counter()
        evals = [pipeline.evaluate_stacked(result.trajectory, result.params, rcfg, z, K)
                 for z in state.shared["held_out"]]
        t2 = time.perf_counter()
        peaks = [checks.transition_peak(checks.mean_temporal_derivative(e.reconstruction), K)
                 for e in evals]
        return Round(
            metrics={"train_samples_per_s": self.samples / (t1 - t0),
                     "eval_frames_per_s": s.n_eval * s.eval_frames / (t2 - t1),
                     "final_val_loss": float(result.history[-1]["val_loss"]),
                     "eval_psnr_db": float(np.mean([e.metrics["psnr"] for e in evals])),
                     "eval_transition_peak": float(np.mean(peaks))},
            outputs=dict(extra, coords=result.trajectory.coords, evals=evals))

    def check_setups(self, states):
        return []

    def check(self, state, rounds, rng):
        """Outputs of every round; the direct-sum NUDFT on the last round's."""
        s = self.spec
        alpha, beta = checks.kinematic_limits(h=s.grid, **SCANNER)
        held_out = state.shared["held_out"]
        fails = []
        for i, r in enumerate(rounds):
            out = r.outputs
            fails += checks.check_feasible(out["coords"], alpha, beta,
                                           f"round {i} trained trajectory")
            if not 0.0 < r.metrics["final_val_loss"] < float("inf"):
                fails.append(f"round {i}: final_val_loss {r.metrics['final_val_loss']!r}")
            for j, (e, truth) in enumerate(zip(out["evals"], held_out)):
                what = f"round {i} eval volume {j}"
                fails += checks.check_stacked(e.reconstruction, truth, e.mu,
                                              s.eval_frames, what)
                fails += checks.check_psnr(e.metrics["psnr"], e.reconstruction,
                                           truth, what)
        z, coords = held_out[0][:K], rounds[-1].outputs["coords"]
        fails += checks.check_nudft(z, coords, nufft.nudft_forward(z, coords), rng)
        return fails


class TrainWorkload(Workload):
    """Training stage: pipeline.train_main of a fresh copy of one init, from
    the radial trajectory; eval at 2K frames."""

    n_setups = 9

    def _inputs(self, seed, val):
        s = self.spec
        rcfg = recon.ReconConfig(channels=s.channels, n_blocks=s.blocks, heads=s.heads)
        return dict(
            volumes=gen_volumes(train_seed(seed), s.n_train, s.grid, K) + val,
            tcfg=pipeline.TrainConfig(epochs_main=s.epochs, batch=BATCH, seed=seed,
                                      frames_k=K, lr_traj=0.05 if s.learned else 0.0,
                                      val_fraction=s.n_val / (s.n_train + s.n_val)),
            params=recon.init_recon_params(rcfg, np.random.default_rng(seed)))

    def setup(self, seed):
        s = self.spec
        shared = self._shared()
        shared["val"] = gen_volumes(HELD_OUT_SEED + s.n_eval, s.n_val, s.grid, K)
        reference = self._inputs(REFERENCE_SEED, shared["val"])
        drawn = self._inputs(seed, shared["val"])
        return State(reference, drawn, shared)

    def train(self, state, inp, r):
        s = self.spec
        radial = trajectory.init_radial(K, s.shots, s.points).coords
        init = trajectory.Trajectory(shrink(radial, r), learnable=s.learned)
        result = pipeline.train_main(inp["volumes"], inp["tcfg"], state.shared["pcfg"],
                                     state.shared["rcfg"], copy_params(inp["params"]), init)
        return result, {"init": init.coords}

    def check(self, state, rounds, rng):
        fails = super().check(state, rounds, rng)
        for i, r in enumerate(rounds):
            fails += checks.check_val_below_untrained(
                r.metrics["final_val_loss"], state.shared["val"], f"round {i} final_val_loss")
            if not self.spec.learned:
                fails += checks.check_identical(r.outputs["coords"], r.outputs["init"],
                                                f"round {i} frozen trajectory vs its init")
        if not self.spec.learned:
            s = self.spec
            radial = trajectory.init_radial(K, s.shots, s.points).coords
            fails += checks.check_identical(rounds[0].outputs["coords"], radial,
                                            "frozen trajectory vs radial init")
        return fails


class ExtendWorkload(Workload):
    """Set-up: brief main training of the reference model on K-frame units.
    Training stage: pipeline.train_refine of a copy of that model on 2K-frame
    volumes; eval stacked to `eval_frames` frames."""

    n_setups = 3

    def __init__(self, spec: Spec, setup_epochs: int):
        super().__init__(spec)
        self.setup_epochs = setup_epochs

    def _inputs(self, seed):
        s = self.spec
        volumes = gen_volumes(train_seed(seed), s.n_train + s.n_val, s.grid, 2 * K)
        units = [u for v in volumes for u in data.partition_frames(v, K, pad=False)]
        tcfg = pipeline.TrainConfig(epochs_main=self.setup_epochs,
                                    epochs_refine=s.epochs, batch=BATCH,
                                    seed=seed, frames_k=K,
                                    val_fraction=s.n_val / (s.n_train + s.n_val))
        return dict(volumes=volumes, units=units, tcfg=tcfg)

    def setup(self, seed):
        s = self.spec
        shared = self._shared()
        reference, drawn = self._inputs(REFERENCE_SEED), self._inputs(seed)
        for inp in (reference, drawn):
            inp["stats"] = pipeline.dataset_mu(inp["units"])
        params = recon.init_recon_params(shared["rcfg"],
                                         np.random.default_rng(REFERENCE_SEED))
        shared["trained"] = pipeline.train_main(
            reference["units"], reference["tcfg"], shared["pcfg"], shared["rcfg"],
            params, trajectory.init_radial(K, s.shots, s.points))
        return State(reference, drawn, shared)

    def train(self, state, inp, r):
        trained = state.shared["trained"]
        start = trajectory.Trajectory(shrink(trained.trajectory.coords, r))
        result = pipeline.train_refine(inp["volumes"], inp["tcfg"], inp["stats"],
                                       state.shared["pcfg"], state.shared["rcfg"],
                                       copy_params(trained.params), start)
        return result, {}

    def check_setups(self, states):
        """Set-ups repeat bit for bit, and the set-up training beat the zero map."""
        s = self.spec
        last = states[-1].shared["trained"]
        alpha, beta = checks.kinematic_limits(h=s.grid, **SCANNER)
        fails = checks.check_feasible(last.trajectory.coords, alpha, beta,
                                      "set-up trajectory")
        for i, st in enumerate(states[:-1]):
            tr = st.shared["trained"]
            fails += checks.check_identical(tr.trajectory.coords, last.trajectory.coords,
                                            f"set-up {i} trajectory vs last set-up")
            for name, p in tr.params.items():
                fails += checks.check_identical(p.data, last.params[name].data,
                                                f"set-up {i} param {name}")
        ref = states[-1].reference
        units = ref["units"]
        val = units[len(units) - n_val(len(units), ref["tcfg"].val_fraction):]
        fails += checks.check_val_below_untrained(last.history[-1]["val_loss"], val,
                                                  "set-up val loss")
        return fails


WORKLOADS = {
    "train-traj-64": TrainWorkload(Spec(
        grid=64, shots=8, points=128, channels=8, blocks=1, heads=2,
        n_train=8, n_val=4, epochs=1, n_eval=2, eval_frames=2 * K)),
    "train-fixed-32": TrainWorkload(Spec(
        grid=32, shots=8, points=64, channels=16, blocks=2, heads=4,
        n_train=8, n_val=4, epochs=1, n_eval=2, eval_frames=2 * K, learned=False)),
    "extend-27": ExtendWorkload(Spec(
        grid=32, shots=8, points=64, channels=8, blocks=1, heads=2,
        n_train=8, n_val=1, epochs=1, n_eval=4, eval_frames=27), setup_epochs=2),
}


def conv3d_backward_ms(reps=7, seed=0):
    """Median ms of one conv3d backward sweep at the train-fixed-32 shape
    (16 channels in and out, 3x3x3 kernel, K x 32 x 32 volume)."""
    rng = np.random.default_rng(seed)
    x = autodiff.Tensor(rng.normal(size=(16, K, 32, 32)), requires_grad=True)
    w = autodiff.Tensor(rng.normal(size=(16, 16, 3, 3, 3)) * 0.05, requires_grad=True)
    g = rng.normal(size=(16, K, 32, 32))
    times = []
    for _ in range(reps):
        x.grad = w.grad = None
        out = autodiff.conv3d(x, w)
        t0 = time.perf_counter()
        autodiff.backward(out, g)
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))
