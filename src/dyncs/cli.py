"""Command-line entry point: dataset generation, the two training stages,
evaluation with trajectory stacking, and data export for plots.

Exit codes: 0 success, 2 usage error, 1 runtime failure (with a JSON error
object on stderr). A ValueError raised while a config, the phantoms, the
initial trajectory or an export region is built from flags, or the physics
config from the data's grid, is a usage error (`_flags`). Every run directory holds exactly one manifest.json and reruns
under an equal manifest reproduce outputs byte-identically.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import data as dz
from .autodiff import Tensor
from . import metrics as qm
from . import pipeline as pl
from .recon import (ReconConfig, export_attention, init_recon_params, load_checkpoint,
                    recon_forward, region_windows, save_checkpoint, window_grid)
from .trajectory import (PROJECTION_TOL, PhysicsConfig, export_trajectory, feasibility_report,
                         init_golden_angle, init_radial, kinematic_bounds, load_trajectory)


class UsageError(ValueError):
    pass


@contextlib.contextmanager
def _flags(what):
    """Report a ValueError raised while `what` (a config, the phantoms, the
    initial trajectory, an export region) is built as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"invalid {what}: {exc}") from exc


def _write_manifest(run_dir, command, config, input_hashes):
    manifest = {
        "command": command,
        "version": __version__,
        "seed": config.get("seed"),
        "config": config,
        "input_hashes": input_hashes,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))


def _write_history(path, history, keep_stage=None):
    """Write history.csv. With `keep_stage`, the rows of that stage already
    in the file come first and every other old row is dropped, so rerunning a
    later stage replaces its rows instead of appending a second block."""
    kept = []
    if keep_stage is not None and Path(path).exists():
        with open(path, newline="") as fh:
            kept = [row for row in list(csv.reader(fh))[1:] if row[1] == keep_stage]
    header = ["epoch", "stage", "train_loss", "val_loss", "max_constraint_violation"]
    rows = [[row["epoch"], row["stage"], row["train_loss"], row["val_loss"],
             row["max_violation"]] for row in history]
    dz.write_csv(path, header, kept + rows)


def _check_metric_frames(volumes):
    if volumes and min(volumes[0].shape[1:]) < qm.VIF_MIN_SIDE:
        raise UsageError(f"the metrics need frames of at least {qm.VIF_MIN_SIDE} px a side")


def _flag_config(args, parser):
    """The command's flag values in parser order, for its manifest: every
    flag but the paths (--data, --out, --run) and --config."""
    return {a.dest: getattr(args, a.dest) for a in parser._actions
            if a.dest not in ("help", "data", "out", "run", "config")}


def _open_run(run_dir, refined):
    """The run's manifest, recon config, parameters, trajectory and the
    kinematic bounds it was exported under: the refined checkpoint and
    trajectory if `refined` and the run has them, else the pre-refine ones.
    A trajectory that breaks its own bounds is a usage error."""
    run_dir = Path(run_dir)
    refined = refined and (run_dir / "checkpoint_refined.json").exists()
    suffix = "_refined" if refined else ""
    for name in ("manifest.json", f"checkpoint{suffix}.json"):
        if not (run_dir / name).exists():
            raise UsageError(f"no {name} in {run_dir}")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    rcfg, params = load_checkpoint(run_dir / f"checkpoint{suffix}")
    traj, bounds = load_trajectory(run_dir / f"traj{suffix}")
    violation = max(feasibility_report(traj.coords, bounds))
    if violation > PROJECTION_TOL:
        raise UsageError(f"traj{suffix} breaks its kinematic bounds by {violation:.3g} rad")
    return manifest, rcfg, params, traj, bounds


def _load_data(data_dir, frames, bounds=None):
    """The dataset's volumes, digest and `PhysicsConfig`. Volumes of fewer
    than `frames` frames, a grid that `PhysicsConfig` rejects or, given a
    run's `bounds`, a grid of other kinematic bounds are a usage error."""
    volumes, digest = dz.load_dataset(data_dir)
    if not volumes or volumes[0].shape[0] < frames:
        raise UsageError(f"the dataset needs at least one volume of {frames} or more frames")
    with _flags("dataset frames"):
        pcfg = PhysicsConfig(grid=volumes[0].shape[1:])
    if bounds is not None and kinematic_bounds(pcfg) != bounds:
        raise UsageError("the run's kinematic bounds are not those of a "
                         f"{pcfg.grid[0]} px grid")
    return volumes, digest, pcfg


# -- commands -----------------------------------------------------------------

def cmd_gen_data(args, parser):
    with _flags("dataset flags"):
        volumes = dz.gen_dataset(args.count, grid=(args.grid, args.grid),
                                 frames=args.frames, seed=args.seed,
                                 noise_sigma=args.noise)
    dz.save_dataset(args.out, volumes, provenance={
        "command": "gen-data", "version": __version__, "seed": args.seed,
        "config": _flag_config(args, parser)})
    print(f"wrote {args.count} volumes to {Path(args.out)}")


# JSON value types a `--config` override may hold, by the flag's argparse type
_CONFIG_TYPES = {int: (int,), float: (int, float), None: (str,)}


def _load_config_overrides(args, parser):
    """Copy `--config` JSON values onto `args`, checked against the flags."""
    if not args.config:
        return
    flags = {a.dest: a for a in parser._actions if a.dest != "help"}
    for key, value in json.loads(Path(args.config).read_text()).items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise UsageError(f"unknown config key '{key}'")
        if (isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[flag.type])
                or (flag.choices is not None and value not in flag.choices)):
            raise UsageError(f"config key '{key}' has an invalid value {value!r}")
        setattr(args, flag.dest, value)


def cmd_train(args, parser):
    _load_config_overrides(args, parser)
    with _flags("network flags"):
        rcfg = ReconConfig(channels=args.channels, n_blocks=args.blocks, heads=args.heads,
                           window=tuple(int(v) for v in args.window.split(",")))
    if args.epochs < 1:
        raise UsageError("--epochs must be at least 1")
    with _flags("training flags"):
        tcfg = pl.TrainConfig(epochs_main=args.epochs, lr_traj=args.lr_traj,
                              lr_net=args.lr_net, batch=args.batch, seed=args.seed,
                              frames_k=args.frames_k)
    k = args.frames_k
    init = init_golden_angle if args.traj == "gar" else init_radial
    with _flags("trajectory flags"):
        trajectory = init(k, args.shots, args.points_per_shot)
    trajectory.learnable = args.traj == "learned" and args.lr_traj > 0
    volumes, digest, pcfg = _load_data(args.data, k)
    samples = [u for v in volumes for u in dz.partition_frames(v, k, pad=False)]
    rng = np.random.default_rng(args.seed)
    params = init_recon_params(rcfg, rng)

    result = pl.train_main(samples, tcfg, pcfg, rcfg, params, trajectory)

    run_dir = Path(args.out)
    run_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(run_dir / "checkpoint", rcfg, result.params)
    export_trajectory(result.trajectory, run_dir / "traj", kinematic_bounds(pcfg))
    _write_history(run_dir / "history.csv", result.history)
    _write_manifest(run_dir, "train", _flag_config(args, parser),
                    {"dataset": digest})
    print(f"trained run written to {run_dir} "
          f"(final val loss {result.history[-1]['val_loss']:.6g})")


def cmd_refine(args, parser):
    run_dir = Path(args.run)
    manifest, rcfg, params, trajectory, bounds = _open_run(run_dir, refined=False)
    cfg, k = manifest["config"], trajectory.coords.shape[0]
    with _flags("refine flags"):
        tcfg = pl.TrainConfig(epochs_refine=args.epochs_refine,
                              lr_traj_refine=args.lr_traj_refine,
                              lr_net_refine=args.lr_net_refine,
                              batch=cfg["batch"], lambda_ref=args.lambda_ref,
                              seed=cfg["seed"], frames_k=k,
                              mu_mode="signed" if args.signed_mu else "abs",
                              freeze_theta_refine=args.freeze_theta)
    if args.epochs_refine > 0 and args.freeze_theta and (
            args.lr_traj_refine == 0 or not trajectory.learnable):
        raise UsageError("--freeze-theta with a frozen trajectory leaves nothing to "
                         "refine (--lr-traj-refine 0 or a run without a learned trajectory)")

    volumes, digest, pcfg = _load_data(args.data, 2 * k, bounds)
    if digest != manifest["input_hashes"]["dataset"]:
        raise UsageError("refinement needs the dataset the run was trained on")

    samples_k = [u for v in volumes for u in dz.partition_frames(v, k, pad=False)]
    mu_x = pl.dataset_mu(samples_k, mode=tcfg.mu_mode)
    samples_2k = [u for v in volumes
                  for u in dz.partition_frames(v, 2 * k, pad=False)]

    result = pl.train_refine(samples_2k, tcfg, mu_x, pcfg, rcfg, params, trajectory)

    save_checkpoint(run_dir / "checkpoint_refined", rcfg, result.params)
    export_trajectory(result.trajectory, run_dir / "traj_refined", bounds)
    _write_history(run_dir / "history.csv", result.history, keep_stage="main")
    (run_dir / "mu_stats.json").write_text(json.dumps({"mu_x": mu_x}))
    manifest["refine"] = _flag_config(args, parser)
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"refined run in {run_dir} (mu_X = {mu_x:.6g})")


def cmd_stack_eval(args, plain=False):
    if not plain and args.total_frames < 1:
        raise UsageError("--total-frames must be >= 1")
    _, rcfg, params, traj, bounds = _open_run(args.run, not args.use_pre_refine)
    k = traj.coords.shape[0]
    volumes, digest, _ = _load_data(args.data, 0, bounds)  # any length: tiled to `total`
    _check_metric_frames(volumes)
    total = k if plain else args.total_frames

    out_dir = Path(args.out) if args.out else Path(args.run) / f"eval_{total}"
    out_dir.mkdir(parents=True, exist_ok=True)

    reports, recons, mus = [], [], []
    for v in volumes:
        z = np.resize(v, (total,) + v.shape[1:])  # repeated or cut to total frames
        res = pl.evaluate_stacked(traj, params, rcfg, z, k)
        reports.append(res.metrics)
        recons.append(res.reconstruction)
        mus.append(res.mu)

    mu_mean = np.mean(mus, axis=0) if mus and len(mus[0]) else np.zeros(0)
    psnrs = [r["psnr"] for r in reports if r["psnr"] != "identical"]
    summary = {
        "total_frames": total,
        "k": k,
        "dataset": digest,
        "psnr": float(np.mean(psnrs)) if psnrs else "identical",
        "vif": float(np.mean([r["vif"] for r in reports])),
        "fsim": float(np.mean([r["fsim"] for r in reports])),
        "transition": qm.transition_report(mu_mean, k) if len(mu_mean) >= k else None,
    }
    (out_dir / "metrics.json").write_text(json.dumps(summary, indent=2))
    if len(mu_mean):
        qm.write_transition_csv(mu_mean, k, out_dir / "mu.csv")
    dz.save_dataset(out_dir / "reconstructions", recons)
    print(json.dumps(summary, indent=2))


def cmd_export(args):
    run_dir = Path(args.run)
    _, rcfg, params, traj, bounds = _open_run(run_dir, refined=True)
    out = Path(args.out) if args.out else run_dir / f"export_{args.what}"
    if args.what == "trajectory":
        export_trajectory(traj, out, bounds)
        print(f"trajectory exported to {out}.csv")
        return
    # attention: run one volume through the network and dump the maps
    if not args.data:
        raise UsageError("attention export needs --data")
    if not 0 <= args.block < rcfg.n_blocks:
        raise UsageError(f"--block must lie in [0, {rcfg.n_blocks})")
    k = traj.coords.shape[0]
    volumes, _, _ = _load_data(args.data, k, bounds)
    z = volumes[0][:k]
    region = (args.region_t, args.region_y, args.region_x, args.region_extent)
    # the padded window grid depends only on the volume shape
    with _flags("attention region"):
        region_windows(region, rcfg.window, window_grid(z.shape, rcfg.window))
    regrid, _ = pl.acquire(z, traj.coords)
    _, records = recon_forward(Tensor(regrid), rcfg, params, record_attention=True)
    geometry = export_attention(records[args.block], region, out)
    print(f"exported {geometry['n_maps']} attention maps to {out}.csv")


def cmd_metrics(args):
    a, _ = dz.load_dataset(args.a)
    b, _ = dz.load_dataset(args.b)
    if len(a) != len(b):
        raise UsageError("datasets differ in volume count")
    if a and a[0].shape != b[0].shape:
        raise UsageError(f"datasets differ in volume shape: {a[0].shape} vs {b[0].shape}")
    _check_metric_frames(a)
    reports = [qm.metric_report(x, ref, peak=max(ref.max(), 1e-12))
               for x, ref in zip(a, b)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(json.dumps(reports, indent=2))
    rows = []
    for i, rep in enumerate(reports):
        pf = rep["per_frame"]
        for t, values in enumerate(zip(pf["psnr"], pf["vif"], pf["fsim"])):
            rows.append([i, t, *values])
    dz.write_csv(out / "per_frame.csv", ["volume", "frame", "psnr", "vif", "fsim"], rows)
    print(f"metric report written to {out}")


# -- parser -------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="dyncs",
                                     description="learned dynamic-MRI compressed sensing")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen-data", help="generate a phantom dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.set_defaults(func=functools.partial(cmd_gen_data, parser=p))

    p = sub.add_parser("train", help="main joint training stage")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--shots", type=int, default=8)
    p.add_argument("--points-per-shot", type=int, default=64)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr-traj", type=float, default=0.05)
    p.add_argument("--lr-net", type=float, default=1e-4)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--traj", choices=("learned", "radial", "gar"), default="learned")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames-k", type=int, default=4)
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--window", default="2,4,4")
    p.add_argument("--config", help="JSON file overriding flags")
    p.set_defaults(func=functools.partial(cmd_train, parser=p))

    p = sub.add_parser("refine", help="post-training trajectory refinement")
    p.add_argument("--run", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--lambda-ref", type=float, default=5.0)
    p.add_argument("--epochs-refine", type=int, default=10)
    p.add_argument("--lr-traj-refine", type=float, default=7e-4)
    p.add_argument("--lr-net-refine", type=float, default=2e-6)
    p.add_argument("--signed-mu", action="store_true")
    p.add_argument("--freeze-theta", action="store_true")
    p.set_defaults(func=functools.partial(cmd_refine, parser=p))

    for name, plain in (("eval", True), ("stack-eval", False)):
        p = sub.add_parser(name, help="evaluate a trained run")
        p.add_argument("--run", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--out")
        p.add_argument("--use-pre-refine", action="store_true")
        if not plain:
            p.add_argument("--total-frames", type=int, required=True)
        p.set_defaults(func=functools.partial(cmd_stack_eval, plain=plain))

    p = sub.add_parser("export", help="export trajectory or attention data")
    p.add_argument("--run", required=True)
    p.add_argument("what", choices=("trajectory", "attention"))
    p.add_argument("--data", help="dataset (for attention export)")
    p.add_argument("--out")
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--region-t", type=int, default=0)
    p.add_argument("--region-y", type=int, default=0)
    p.add_argument("--region-x", type=int, default=0)
    p.add_argument("--region-extent", type=int, default=16)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("metrics", help="compare two dataset directories")
    p.add_argument("--a", required=True, help="distorted / reconstructed volumes")
    p.add_argument("--b", required=True, help="reference volumes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
