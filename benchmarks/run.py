"""dyncs benchmark: one workload per process.

    python3 benchmarks/run.py --workload train-traj-64 --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The full result (and, with --trace 1, the
spans) is also written under benchmarks/out/. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# The keys of workloads.WORKLOADS, which cannot be imported before the BLAS
# thread count is set and dyncs is found.
WORKLOAD_NAMES = ("train-traj-64", "train-fixed-32", "extend-27")
BLAS_THREADS = 1  # see README.md, "Threads"
MIN_TIMED_ROUNDS = 3

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "train_samples_per_s": "samples/s", "eval_frames_per_s": "frames/s",
    "final_val_loss": "loss", "eval_psnr_db": "dB",
    "eval_transition_peak": "intensity/frame",
}


def layer_unit(name):
    if name == "data.gen_s":
        return "s/setup"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s/round"
    return "count/round"


def set_blas_threads():
    """Set the BLAS/OpenMP thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import dyncs from this checkout's src/, never from anywhere else."""
    if not (SRC / "dyncs" / "__init__.py").is_file():
        sys.exit(f"benchmark: no dyncs sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import dyncs
    if Path(dyncs.__file__).resolve().parent != SRC / "dyncs":
        sys.exit(f"benchmark: imported dyncs from {dyncs.__file__}, not {SRC}")


def median(values):
    return float(statistics.median(values))


def run_workload(name, seed, seconds, trace):
    set_blas_threads()
    import_program()
    import numpy as np

    import tracing
    import workloads
    from dyncs import autodiff, data, metrics, nufft, pipeline, recon, trajectory

    modules = dict(autodiff=autodiff, data=data, nufft=nufft, trajectory=trajectory,
                   recon=recon, pipeline=pipeline, metrics=metrics)
    wl = workloads.WORKLOADS[name]
    # set-ups are traced only in a traced run, which reports no setup_s
    setup_tracer = tracing.Tracer(modules)
    setup_times, states = [], []
    for _ in range(wl.n_setups):
        with setup_tracer.installed() if trace else contextlib.nullcontext():
            t0 = time.perf_counter()
            states.append(wl.setup(seed))
            setup_times.append(time.perf_counter() - t0)
    fails = wl.check_setups(states)
    state = states[-1]

    tracer = tracing.Tracer(modules)
    attempted = failed = 0
    rounds, traced_rounds, untraced_s, traced_s = [], [], [], []

    def one_round(traced):
        nonlocal attempted, failed
        index = attempted // wl.ops_per_round
        attempted += wl.ops_per_round
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.round = index
                with tracer.installed():
                    r = wl.run_round(state, index)
            else:
                r = wl.run_round(state, index)
        except workloads.FAILURES as exc:
            failed += wl.ops_per_round
            print(f"benchmark: round failed: {exc!r}", file=sys.stderr)
            return None
        (traced_s if traced else untraced_s).append(time.perf_counter() - t0)
        (traced_rounds if traced else rounds).append(r)
        return r

    # Round 0 is the process's warm-up: counted, and the source of the
    # quality metrics (it starts from the unscaled inputs), but not timed.
    first = one_round(False)
    if first is None:
        sys.exit("benchmark: round 0 failed")
    untraced_s.clear()
    start = time.perf_counter()
    i = 0
    # whole rounds until the time is up, at least MIN_TIMED_ROUNDS; with
    # tracing, untraced and traced rounds alternate
    while i < MIN_TIMED_ROUNDS or time.perf_counter() - start < seconds:
        one_round(bool(trace) and i % 2 == 1)
        i += 1
        if i == MIN_TIMED_ROUNDS:
            # By now the phase cache is full and evicting, as in a long
            # training, and the heap has settled; later rounds add only
            # fragmentation, by an amount that depends on the run length.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = rounds[1:]
    if not timed or (trace and not traced_rounds):
        sys.exit("benchmark: no timed round succeeded")

    fails += wl.check(state, rounds + traced_rounds, np.random.default_rng(seed))
    for f in fails:
        print(f"benchmark: check failed: {f}", file=sys.stderr)

    if trace:
        metrics_out = tracer.layer_metrics(len(traced_s))
        metrics_out["pipeline.steps"] = wl.steps
        metrics_out["pipeline.samples"] = wl.samples
        metrics_out["data.gen_s"] = setup_tracer.self_times()["data.gen"][0] / wl.n_setups
        metrics_out["autodiff.conv3d_bwd_ms"] = workloads.conv3d_backward_ms()
        metrics_out["trace.overhead_pct"] = 100.0 * (median(traced_s) / median(untraced_s) - 1)
        values = {k: (v, layer_unit(k)) for k, v in metrics_out.items()}
    else:
        values = {"setup_s": (median(setup_times), "s"),
                  "peak_rss_mb": (peak_rss_mb, "MB")}
        for key in wl.rates:
            values[key] = (median([r.metrics[key] for r in timed]), UNITS[key])
        for key in wl.quality:
            values[key] = (first.metrics[key], UNITS[key])

    result = {"correct": not fails, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    detail = dict(result, workload=name, seed=seed, seconds=seconds, blas_threads=BLAS_THREADS,
                  setup_times_s=setup_times, untraced_round_s=untraced_s,
                  traced_round_s=traced_s, check_failures=fails,
                  rounds=[r.metrics for r in rounds])
    (OUT / f"BENCH-{tag}.json").write_text(json.dumps(detail, indent=1))
    if trace:
        tracer.dump(OUT / f"trace-{tag}.json")
    print(json.dumps(result))


def run_all(seed, seconds, trace):
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(name, json.dumps(res), flush=True)
        summary["correct"] = summary["correct"] and res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            summary["metrics"][f"{name}.{k}"] = v
    print(json.dumps(summary))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
