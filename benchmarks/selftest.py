"""Self-tests of the benchmark: every workload runs to its end at a tiny size,
and every output check rejects a deliberately broken output.

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wls  # noqa: E402
from dyncs import nufft, pipeline, trajectory  # noqa: E402

# 24 pixels is the smallest grid the 4-scale VIF pyramid of the eval accepts
TINY = {
    "train-traj-64": wls.TrainWorkload(wls.Spec(
        grid=24, shots=2, points=12, channels=4, blocks=1, heads=2,
        n_train=4, n_val=1, epochs=1, n_eval=1, eval_frames=2 * wls.K)),
    "train-fixed-32": wls.TrainWorkload(wls.Spec(
        grid=24, shots=2, points=12, channels=4, blocks=1, heads=2,
        n_train=4, n_val=1, epochs=1, n_eval=1, eval_frames=2 * wls.K, learned=False)),
    "extend-27": wls.ExtendWorkload(wls.Spec(
        grid=24, shots=2, points=12, channels=4, blocks=1, heads=2,
        n_train=2, n_val=1, epochs=1, n_eval=1, eval_frames=27), setup_epochs=1),
}
E2E = ("setup_s", "peak_rss_mb", "train_samples_per_s", "eval_frames_per_s",
       "final_val_loss", "eval_psnr_db", "eval_transition_peak")


def run_tiny(name, trace):
    saved = wls.WORKLOADS[name]
    wls.WORKLOADS[name] = TINY[name]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            run.run_workload(name, seed=3, seconds=0, trace=trace)
    finally:
        wls.WORKLOADS[name] = saved
    return json.loads(out.getvalue().strip().splitlines()[-1])


class TestWorkloadsRunToEnd(unittest.TestCase):
    def check_result(self, name, trace, want):
        res = run_tiny(name, trace)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(res["attempted"] % TINY[name].ops_per_round, 0)
        self.assertGreaterEqual(set(res["metrics"]), set(want))
        for key, m in res["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), key)
        return res["metrics"]

    def check_end_to_end(self, name):
        m = self.check_result(name, 0, E2E)
        self.assertEqual(set(m), set(E2E))
        for key in E2E:
            self.assertGreater(m[key]["value"], 0, key)

    def test_train_learned(self):
        self.check_end_to_end("train-traj-64")

    def test_train_fixed(self):
        self.check_end_to_end("train-fixed-32")

    def test_extend(self):
        self.check_end_to_end("extend-27")

    def test_traced_reports_every_layer(self):
        m = self.check_result("extend-27", 1, ("nufft.terms", "trajectory.fista_iters",
                                               "metrics.fsim_s", "trace.overhead_pct"))
        for key in ("nufft.calls", "nufft.terms", "recon.calls", "autodiff.conv3d_macs",
                    "trajectory.project_calls", "pipeline.steps", "metrics.fsim_s",
                    "data.gen_s"):
            self.assertGreater(m[key]["value"], 0, key)

    def test_command_lists_every_workload(self):
        self.assertEqual(run.WORKLOAD_NAMES, tuple(wls.WORKLOADS))
        self.assertEqual(set(TINY), set(wls.WORKLOADS))

    def test_bare_directory_fails(self):
        saved = run.SRC
        run.SRC = HERE / "no-such-src"
        try:
            with self.assertRaises(SystemExit) as cm:
                run.import_program()
            self.assertNotEqual(cm.exception.code, 0)
        finally:
            run.SRC = saved


class TestChecksRejectBrokenOutput(unittest.TestCase):
    def setUp(self):
        self.rng = np.random.default_rng(0)
        self.alpha, self.beta = checks.kinematic_limits(h=16, **wls.SCANNER)
        self.coords = trajectory.init_radial(2, 3, 16).coords

    def test_limits_match_the_program(self):
        b = trajectory.kinematic_bounds(trajectory.PhysicsConfig(grid=(16, 16), **wls.SCANNER))
        self.assertAlmostEqual(self.alpha, b.alpha, delta=1e-15 * b.alpha)
        self.assertAlmostEqual(self.beta, b.beta, delta=1e-15 * b.beta)

    def test_nudft(self):
        z = self.rng.uniform(size=(2, 16, 16))
        samples = nufft.nudft_forward(z, self.coords)
        self.assertEqual(checks.check_nudft(z, self.coords, samples, self.rng), [])
        self.assertNotEqual(checks.check_nudft(z, self.coords, samples + 1e-6, self.rng), [])

    def test_feasibility(self):
        c = self.coords.copy()
        self.assertEqual(checks.check_feasible(c, self.alpha, self.beta, "t"), [])
        step = c[0, 0, 1] - c[0, 0, 0]
        c[0, 0, :1] = c[0, 0, 1] - step * (self.alpha + 1e-6) / np.linalg.norm(step)
        fails = checks.check_feasible(c, self.alpha, self.beta, "t")
        self.assertTrue(any("alpha" in f for f in fails), fails)
        c = self.coords.copy()
        c[1, 2, 5] += 0.6 * (self.beta + 1e-6)  # second differences +-beta*1.2
        self.assertNotEqual(checks.check_feasible(c, self.alpha, self.beta, "t"), [])
        c = self.coords.copy()
        c[0, 0, 0, 0] = np.pi + 1e-9
        self.assertNotEqual(checks.check_feasible(c, 10.0, 10.0, "t"), [])

    def test_val_below_untrained(self):
        vols = [self.rng.uniform(size=(4, 8, 8)) for _ in range(2)]
        untrained = float(np.mean([np.mean(v * v) for v in vols]))
        self.assertEqual(checks.check_val_below_untrained(0.5 * untrained, vols, "v"), [])
        for bad in (untrained, float("nan"), -1.0):
            self.assertNotEqual(checks.check_val_below_untrained(bad, vols, "v"), [])

    def test_frozen_identical(self):
        self.assertEqual(checks.check_identical(self.coords, self.coords.copy(), "f"), [])
        moved = self.coords.copy()
        moved[0, 1, 3, 1] = np.nextafter(moved[0, 1, 3, 1], 4.0)
        self.assertNotEqual(checks.check_identical(moved, self.coords, "f"), [])

    def test_stacked_and_psnr(self):
        truth = self.rng.uniform(size=(27, 8, 8))
        recon = truth + 0.05 * self.rng.normal(size=truth.shape)
        mu = pipeline.mean_temporal_derivative(recon)
        psnr = checks.psnr_db(recon, truth)
        self.assertEqual(checks.check_stacked(recon, truth, mu, 27, "s"), [])
        self.assertEqual(checks.check_psnr(psnr, recon, truth, "s"), [])
        self.assertNotEqual(checks.check_stacked(recon[:26], truth, mu[:25], 27, "s"), [])
        self.assertNotEqual(checks.check_stacked(recon, truth, mu + 1e-6, 27, "s"), [])
        self.assertNotEqual(checks.check_psnr(psnr + 1e-6, recon, truth, "s"), [])


class TestTracer(unittest.TestCase):
    def test_patches_are_restored_and_self_time_excludes_children(self):
        mods = dict(autodiff=wls.autodiff, data=wls.data, nufft=nufft, trajectory=trajectory,
                    recon=wls.recon, pipeline=pipeline, metrics=sys.modules["dyncs.metrics"])
        before = {(m, a): getattr(mods[m], a) for m, a, *_ in tracing.PATCHES if "." not in a}
        tracer = tracing.Tracer(mods)
        z = np.ones((2, 8, 8))
        coords = trajectory.init_radial(2, 2, 8).coords
        with tracer.installed():
            self.assertIsNot(nufft.nudft_forward, before[("nufft", "nudft_forward")])
            pipeline.acquire(z, wls.autodiff.Tensor(coords))
        after = {(m, a): getattr(mods[m], a) for m, a, *_ in tracing.PATCHES if "." not in a}
        self.assertEqual(before, after)
        st = tracer.self_times()
        self.assertEqual(st["pipeline.acquire"][1], 1)
        self.assertEqual(st["nufft.forward"][1], 1)
        self.assertEqual(tracer.work["nufft.forward"], 2 * 2 * 8 * 64)
        span = tracer.spans[0]
        self.assertLess(st["pipeline.acquire"][0], span[2] - span[1])


if __name__ == "__main__":
    unittest.main()
