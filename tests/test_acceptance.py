"""Acceptance suite: ten end-to-end criteria, one test each, run in order.

Each test prints a single PASS/FAIL line (visible even under output capture)
so the suite doubles as a checklist. The heavier criteria (learned-vs-fixed
comparison, refinement effect) train real models at desk scale and therefore
take minutes, not seconds.
"""

import time

import numpy as np
import pytest

from dyncs import pipeline as pl
from dyncs.autodiff import Tensor
from dyncs.cli import main as cli_main
from dyncs.data import PhantomSpec, gen_phantom
from dyncs.metrics import fsim, psnr, transition_report, vif_p
from dyncs.nufft import cartesian_grid_coords, nudft_adjoint, nudft_forward
from dyncs.recon import (ReconConfig, _attention, export_attention,
                         init_recon_params, recon_forward)
from dyncs.trajectory import (PhysicsConfig, feasibility_report,
                              init_radial, kinematic_bounds, project_kinematic)

from gradcheck import grad_check

GRID = 32
K = 4
SEEDS = (0, 1, 2)


def _report(capsys, number, label, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"\n[criterion {number:2d}] {status}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def _forward_oracle(z, coords):
    t_frames, h, w = z.shape
    xs = np.arange(h) - h // 2
    ys = np.arange(w) - w // 2
    out = np.zeros(coords.shape[:-1], dtype=np.complex128)
    for idx in np.ndindex(coords.shape[:-1]):
        kx, ky = coords[idx]
        acc = 0.0 + 0.0j
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                acc += z[idx[0], i, j] * np.exp(-1j * (kx * x + ky * y))
        out[idx] = acc
    return out


# -- shared trained models -----------------------------------------------------

def _rcfg():
    return ReconConfig(channels=8, n_blocks=1, heads=2, window=(2, 4, 4))


def _eval_volumes(trajectory, params, rcfg, volumes):
    peaks, psnrs = [], []
    for v in volumes:
        res = pl.evaluate_stacked(trajectory, params, rcfg, v, K)
        peaks.append(transition_report(res.mu, K)["transition_peak"])
        psnrs.append(res.metrics["psnr"])
    return float(np.mean(peaks)), float(np.mean(psnrs))


@pytest.fixture(scope="module")
def comparison_runs():
    """Learned versus frozen-radial training, three seeds each, 30 epochs."""
    volumes = [gen_phantom(PhantomSpec(grid=(GRID, GRID), frames=K, seed=100 + s))
               for s in range(10)]
    pcfg = PhysicsConfig(grid=(GRID, GRID))
    rcfg = _rcfg()
    t0 = time.monotonic()
    final_val = {"learned": [], "radial": []}
    for seed in SEEDS:
        for arm, lr_traj in (("learned", 0.05), ("radial", 0.0)):
            tcfg = pl.TrainConfig(epochs_main=30, seed=seed, batch=4,
                                  frames_k=K, lr_traj=lr_traj)
            params = init_recon_params(rcfg, np.random.default_rng(seed))
            traj = init_radial(K, 8, 64)
            result = pl.train_main(volumes, tcfg, pcfg, rcfg, params, traj)
            final_val[arm].append(result.history[-1]["val_loss"])
    return {"final_val": final_val, "elapsed": time.monotonic() - t0}


@pytest.fixture(scope="module")
def refine_runs():
    """Main training plus hinge refinement, three seeds, with pre/post
    stacked-evaluation statistics and the seed-0 model kept for reuse."""
    volumes = [gen_phantom(PhantomSpec(grid=(GRID, GRID), frames=2 * K, seed=s))
               for s in range(6)]
    units = [u for v in volumes
             for u in np.split(v, v.shape[0] // K, axis=0)]
    pcfg = PhysicsConfig(grid=(GRID, GRID))
    rcfg = _rcfg()
    mu_x = pl.dataset_mu(units)
    t0 = time.monotonic()
    runs = []
    keep = None
    for seed in SEEDS:
        tcfg = pl.TrainConfig(epochs_main=30, epochs_refine=10, seed=seed,
                              batch=4, frames_k=K)
        params = init_recon_params(rcfg, np.random.default_rng(seed))
        traj = init_radial(K, 8, 64)
        trained = pl.train_main(units, tcfg, pcfg, rcfg, params, traj)
        peak_pre, psnr_pre = _eval_volumes(trained.trajectory, trained.params,
                                           rcfg, volumes)
        refined = pl.train_refine(volumes, tcfg, mu_x, pcfg, rcfg,
                                  trained.params, trained.trajectory)
        peak_post, psnr_post = _eval_volumes(refined.trajectory, refined.params,
                                             rcfg, volumes)
        runs.append({"peak_pre": peak_pre, "peak_post": peak_post,
                     "psnr_pre": psnr_pre, "psnr_post": psnr_post})
        if seed == SEEDS[0]:
            keep = (refined.trajectory, refined.params, rcfg)
    return {"runs": runs, "model": keep, "elapsed": time.monotonic() - t0}


# -- the ten criteria ------------------------------------------------------------

def test_01_operator_correctness(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)

    z = rng.normal(size=(2, 5, 4))
    coords = rng.uniform(-np.pi, np.pi, size=(2, 3, 6, 2))
    oracle_err = float(np.max(np.abs(nudft_forward(z, coords)
                                     - _forward_oracle(z, coords))))

    zc = rng.normal(size=(2, 5, 4)) + 1j * rng.normal(size=(2, 5, 4))
    x = rng.normal(size=(2, 3, 6)) + 1j * rng.normal(size=(2, 3, 6))
    lhs = np.vdot(nudft_forward(zc, coords), x)
    rhs = np.vdot(zc, 5 * 4 * nudft_adjoint(x, coords, (2, 5, 4)))
    adjoint_err = abs(lhs - rhs)

    z8 = rng.normal(size=(2, 8, 8))
    grid = cartesian_grid_coords(2, 8, 8)
    full = nudft_forward(z8, grid).reshape(2, 8, 8)
    fft_err = max(float(np.max(np.abs(
        full[t] - np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(z8[t])))
    ))) for t in range(2))

    elapsed = time.monotonic() - t0
    ok = (oracle_err < 1e-12 and adjoint_err < 1e-10 and fft_err < 1e-9
          and elapsed < 10.0)
    _report(capsys, 1, "NUDFT matches oracle, adjoint and FFT", ok,
            f"oracle {oracle_err:.1e}, adjoint {adjoint_err:.1e}, "
            f"fft {fft_err:.1e}, {elapsed:.1f}s")


def test_02_end_to_end_differentiability(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(13)
    z = gen_phantom(PhantomSpec(grid=(8, 8), frames=2, seed=1))
    rcfg = ReconConfig(channels=4, n_blocks=1, heads=2, window=(2, 2, 2))
    params = init_recon_params(rcfg, rng)
    # the output layer initializes to zero, which would make every gradient
    # through the network identically zero; give it weight first
    params["conv_out.w"].data[:] = 0.1 * rng.normal(
        size=params["conv_out.w"].shape)
    coords0 = init_radial(2, 2, 6, span=0.7 * np.pi).coords

    def loss_and_grad(coords, probe=None):
        """The MSE and its gradient in the coordinates, or in the parameter
        Tensor `probe` if one is given: the network runs on a leaf holding
        the acquisition's output, and the acquisition's vjp maps that leaf's
        gradient to the coordinates', as `_fit` composes them."""
        regrid, vjp = pl.acquire(z, coords)
        leaf = Tensor(regrid, requires_grad=probe is None)
        z_hat, _ = recon_forward(leaf, rcfg, params)
        loss, grad = pl.loss_main(z_hat.data, z)
        z_hat.backward(grad)
        return loss, vjp(leaf.grad) if probe is None else probe.grad

    nonvanishing = float(np.abs(loss_and_grad(coords0.copy())[1]).max()) > 0.0
    coord_err = grad_check(loss_and_grad, coords0, h=1e-5)

    param_errs = []
    for name in ("conv_out.b", "block0.ln1.g", "block0.mlp.b1"):
        original = params[name]

        def loss_of_param(p, name=name, original=original):
            params[name] = probe = Tensor(p, requires_grad=True)
            try:
                return loss_and_grad(coords0, probe)
            finally:
                params[name] = original

        param_errs.append(grad_check(loss_of_param, original.data.copy(), h=1e-5))

    elapsed = time.monotonic() - t0
    worst = max([coord_err] + param_errs)
    ok = nonvanishing and worst < 1e-4 and elapsed < 60.0
    _report(capsys, 2, "loss gradients match finite differences", ok,
            f"coords {coord_err:.1e}, params {max(param_errs):.1e}, "
            f"{elapsed:.1f}s")


def test_03_feasibility_through_training(capsys):
    t0 = time.monotonic()
    volumes = [gen_phantom(PhantomSpec(grid=(12, 12), frames=K, seed=20 + s))
               for s in range(8)]  # 7 train / batch 4 -> 2 steps x 25 epochs
    pcfg = PhysicsConfig(grid=(12, 12))
    rcfg = ReconConfig(channels=4, n_blocks=1, heads=2, window=(2, 2, 2))
    tcfg = pl.TrainConfig(epochs_main=25, seed=0, batch=4, frames_k=K)
    params = init_recon_params(rcfg, np.random.default_rng(0))
    result = pl.train_main(volumes, tcfg, pcfg, rcfg, params,
                           init_radial(K, 2, 8))
    worst_violation = max(row["max_violation"] for row in result.history)

    rng = np.random.default_rng(1)
    rough = rng.uniform(-np.pi, np.pi, size=(2, 3, 32, 2))
    bounds = kinematic_bounds(pcfg)
    once = project_kinematic(rough, bounds)
    twice = project_kinematic(once, bounds)
    idem = float(np.max(np.abs(twice - once)))
    vel, acc = feasibility_report(once, bounds)

    elapsed = time.monotonic() - t0
    ok = (worst_violation <= 1e-6 and max(vel, acc) <= 1e-6
          and idem <= 1e-9 and elapsed < 120.0)
    _report(capsys, 3, "trajectories stay feasible; projection idempotent", ok,
            f"train violation {worst_violation:.1e}, idempotency {idem:.1e}, "
            f"{elapsed:.1f}s")


def test_04_learned_beats_frozen_radial(capsys, comparison_runs):
    learned = float(np.mean(comparison_runs["final_val"]["learned"]))
    radial = float(np.mean(comparison_runs["final_val"]["radial"]))
    elapsed = comparison_runs["elapsed"]
    ok = learned <= radial and elapsed < 30 * 60
    _report(capsys, 4, "learned trajectory val MSE <= frozen radial", ok,
            f"learned {learned:.3e} vs radial {radial:.3e} "
            f"over {len(SEEDS)} seeds, {elapsed:.0f}s")


def test_05_refinement_reduces_transition_peak(capsys, refine_runs):
    pre = float(np.mean([r["peak_pre"] for r in refine_runs["runs"]]))
    post = float(np.mean([r["peak_post"] for r in refine_runs["runs"]]))
    reduction = 100.0 * (pre - post) / pre if pre > 0 else 0.0
    elapsed = refine_runs["elapsed"]
    # the reduction direction is mandatory; the 15% magnitude is advisory
    ok = post < pre and elapsed < 20 * 60
    advisory = "meets" if reduction >= 15.0 else "below"
    _report(capsys, 5, "refinement lowers the transition peak of mu", ok,
            f"peak {pre:.4f} -> {post:.4f}, -{reduction:.1f}% "
            f"({advisory} the 15% advisory target), {elapsed:.0f}s")


def test_06_refinement_is_non_destructive(capsys, refine_runs):
    pre = float(np.mean([r["psnr_pre"] for r in refine_runs["runs"]]))
    post = float(np.mean([r["psnr_post"] for r in refine_runs["runs"]]))
    ok = post >= pre - 0.5
    _report(capsys, 6, "post-refinement PSNR within 0.5 dB of pre", ok,
            f"psnr {pre:.2f} -> {post:.2f} dB, delta {post - pre:+.2f}")


def test_07_temporal_extendability(capsys, refine_runs):
    trajectory, params, rcfg = refine_runs["model"]

    shapes_ok = True
    for total in (8, 12, 27):
        z = gen_phantom(PhantomSpec(grid=(GRID, GRID), frames=total, seed=50))
        res = pl.evaluate_stacked(trajectory, params, rcfg, z, K)
        shapes_ok &= (res.reconstruction.shape == (total, GRID, GRID)
                      and len(res.mu) == total - 1)

    z4 = gen_phantom(PhantomSpec(grid=(GRID, GRID), frames=K, seed=51))
    res4 = pl.evaluate_stacked(trajectory, params, rcfg, z4, K)
    regrid, _ = pl.acquire(z4, trajectory.coords)
    plain, _ = recon_forward(Tensor(regrid), rcfg, params)
    bit_equal = np.array_equal(res4.reconstruction, plain.data)

    z27 = gen_phantom(PhantomSpec(grid=(GRID, GRID), frames=27, seed=52))
    res27 = pl.evaluate_stacked(trajectory, params, rcfg, z27, K)
    padded = np.concatenate([z27[24:], np.zeros((1, GRID, GRID))], axis=0)
    regrid, _ = pl.acquire(padded, trajectory.coords)
    tail, _ = recon_forward(Tensor(regrid), rcfg, params)
    tail_ok = np.array_equal(res27.reconstruction[24:], tail.data[:3])

    ok = shapes_ok and bit_equal and tail_ok
    _report(capsys, 7, "k=4 model evaluates T in {8, 12, 27} without retraining",
            ok, f"T=k bit-equal {bit_equal}, padded tail {tail_ok}")


def test_08_metric_fidelity(capsys):
    rng = np.random.default_rng(3)
    x = rng.random((2, 24, 24))
    ref = rng.random((2, 24, 24))
    closed_form = 10.0 * np.log10(1.0 / np.mean((x - ref) ** 2))
    psnr_err = abs(psnr(x, ref, peak=1.0) - closed_form)

    phantom = gen_phantom(PhantomSpec(grid=(24, 24), frames=2, seed=4))
    vif_self = vif_p(phantom, phantom)[0]
    fsim_self = fsim(phantom, phantom)[0]

    noise = rng.normal(size=phantom.shape)
    ladder = [psnr(phantom + s * noise, phantom) for s in (0.01, 0.02, 0.05)]
    monotone = ladder[0] > ladder[1] > ladder[2]

    ok = (psnr_err < 1e-9 and abs(vif_self - 1.0) < 1e-9
          and abs(fsim_self - 1.0) < 1e-9 and monotone)
    _report(capsys, 8, "psnr/vif/fsim identities and monotonicity", ok,
            f"psnr err {psnr_err:.1e}, vif(x,x) {vif_self:.12f}, "
            f"fsim(x,x) {fsim_self:.12f}")


def test_09_attention_contracts(capsys, tmp_path):
    rng = np.random.default_rng(5)
    cfg = ReconConfig(channels=8, n_blocks=1, heads=4, window=(1, 4, 4))
    params = init_recon_params(cfg, rng)
    x = Tensor(rng.normal(size=(2, 2, 16, 16)))
    _, records = recon_forward(x, cfg, params, record_attention=True)
    weights = records[0].weights
    row_err = float(np.max(np.abs(weights.sum(axis=-1) - 1.0)))

    wqkv = rng.normal(size=(4, 12))
    wo = rng.normal(size=(4, 4))
    attn_params = (wqkv, np.zeros(12), wo, np.zeros(4))
    tokens = rng.normal(size=(3, 4, 4))
    out, _ = _attention(tokens, *attn_params, heads=2)
    poked = tokens.copy()
    poked[1] = 0.0
    out_poked, _ = _attention(poked, *attn_params, heads=2)
    no_leakage = (np.array_equal(out[0], out_poked[0])
                  and np.array_equal(out[2], out_poked[2]))

    geometry = export_attention(records[0], (0, 0, 0, 16), tmp_path / "attn")
    ok = row_err < 1e-9 and no_leakage and geometry["n_maps"] == 16
    _report(capsys, 9, "attention rows stochastic, windows isolated, 16 maps",
            ok, f"row err {row_err:.1e}, maps {geometry['n_maps']}")


def test_10_deterministic_reruns(capsys, tmp_path):
    data = tmp_path / "data"
    assert cli_main(["gen-data", "--out", str(data), "--count", "3",
                     "--grid", "16", "--frames", "4", "--seed", "7"]) == 0
    histories = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["train", "--data", str(data), "--out", str(out),
                       "--shots", "2", "--points-per-shot", "8",
                       "--epochs", "2", "--batch", "2", "--seed", "7",
                       "--frames-k", "4", "--channels", "4", "--blocks", "1",
                       "--heads", "2", "--window", "2,2,2"])
        assert rc == 0
        histories.append((out / "history.csv").read_bytes())
    capsys.readouterr()
    ok = histories[0] == histories[1]
    _report(capsys, 10, "identical manifests give byte-identical history", ok,
            f"{len(histories[0])} bytes")
