"""Command-line entry point: dataset generation, the two training stages,
evaluation with trajectory stacking, and data export for plots.

Exit codes: 0 success, 2 usage error, 1 runtime failure (with a JSON error
object on stderr). Every run directory holds exactly one manifest.json and
reruns under an equal manifest reproduce outputs byte-identically.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
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
from .recon import (ReconConfig, export_attention, init_recon_params,
                    load_checkpoint, recon_forward, save_checkpoint)
from .trajectory import (PhysicsConfig, export_trajectory, kinematic_bounds,
                         load_trajectory)


class UsageError(ValueError):
    pass


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "stage", "train_loss", "val_loss",
                         "max_constraint_violation"])
        writer.writerows(kept)
        for row in history:
            writer.writerow([row["epoch"], row["stage"],
                             format(row["train_loss"], ".17g"),
                             format(row["val_loss"], ".17g"),
                             format(row["max_violation"], ".17g")])


def _dataset_hash(data_dir):
    return _sha256(Path(data_dir) / dz.MANIFEST_NAME)


# -- commands -----------------------------------------------------------------

def cmd_gen_data(args):
    if args.grid < 4:
        raise UsageError("--grid must be at least 4")
    if args.count < 1 or args.frames < 1:
        raise UsageError("--count and --frames must be positive")
    volumes = dz.gen_dataset(args.count, grid=(args.grid, args.grid),
                             frames=args.frames, seed=args.seed,
                             noise_sigma=args.noise)
    out = Path(args.out)
    dz.save_dataset(out, volumes)
    config = {"count": args.count, "grid": args.grid, "frames": args.frames,
              "seed": args.seed, "noise": args.noise}
    # fold the run provenance into the dataset manifest (one manifest per dir)
    manifest = json.loads((out / dz.MANIFEST_NAME).read_text())
    manifest["provenance"] = {"command": "gen-data", "version": __version__,
                              "seed": args.seed, "config": config}
    (out / dz.MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    print(f"wrote {args.count} volumes to {out}")


def _recon_config(args):
    """The network of the train flags; a malformed one is a usage error."""
    try:
        window = tuple(int(v) for v in args.window.split(","))
        return ReconConfig(channels=args.channels, n_blocks=args.blocks,
                           heads=args.heads, window=window)
    except ValueError as exc:
        raise UsageError(f"invalid network flags: {exc}") from exc


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
    rcfg = _recon_config(args)
    volumes = dz.load_dataset(args.data)
    k = args.frames_k
    samples = [u for v in volumes for u in dz.partition_frames(v, k, pad=False)]
    if not samples:
        raise UsageError(f"dataset frames < --frames-k {k}")

    tcfg = pl.TrainConfig(epochs_main=args.epochs, lr_traj=args.lr_traj,
                          lr_net=args.lr_net, batch=args.batch, seed=args.seed,
                          frames_k=k)
    grid = volumes[0].shape[1]
    pcfg = PhysicsConfig(grid=(grid, grid))
    rng = np.random.default_rng(args.seed)
    params = init_recon_params(rcfg, rng)
    trajectory = pl.init_trajectory(args.traj, k, args.shots, args.points_per_shot)
    if args.lr_traj == 0:
        trajectory.learnable = False

    result = pl.train_main(samples, tcfg, pcfg, rcfg, params, trajectory)

    run_dir = Path(args.out)
    run_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(run_dir / "checkpoint", rcfg, result.params)
    export_trajectory(result.trajectory, run_dir / "traj", kinematic_bounds(pcfg))
    _write_history(run_dir / "history.csv", result.history)
    config = {k2: getattr(args, k2) for k2 in
              ("shots", "points_per_shot", "epochs", "lr_traj", "lr_net", "batch",
               "traj", "seed", "frames_k", "channels", "blocks", "heads", "window")}
    _write_manifest(run_dir, "train", config, {"dataset": _dataset_hash(args.data)})
    print(f"trained run written to {run_dir} "
          f"(final val loss {result.history[-1]['val_loss']:.6g})")


def _load_run(run_dir, refined):
    """The run's manifest, recon config, parameters and trajectory: the
    refined checkpoint and trajectory if `refined` and the run has them, else
    the pre-refine ones."""
    run_dir = Path(run_dir)
    refined = refined and (run_dir / "checkpoint_refined.json").exists()
    suffix = "_refined" if refined else ""
    for name in ("manifest.json", f"checkpoint{suffix}.json"):
        if not (run_dir / name).exists():
            raise UsageError(f"no {name} in {run_dir}")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    rcfg, params = load_checkpoint(run_dir / f"checkpoint{suffix}")
    traj = load_trajectory(run_dir / f"traj{suffix}")
    return manifest, rcfg, params, traj


def cmd_refine(args):
    run_dir = Path(args.run)
    manifest, rcfg, params, trajectory = _load_run(run_dir, refined=False)

    cfg = manifest["config"]
    k = cfg["frames_k"]
    volumes = dz.load_dataset(args.data)
    if volumes[0].shape[0] < 2 * k:
        raise UsageError(f"refinement needs volumes with at least {2 * k} frames")
    grid = volumes[0].shape[1]
    mu_mode = "signed" if args.signed_mu else "abs"

    samples_k = [u for v in volumes for u in dz.partition_frames(v, k, pad=False)]
    stats = pl.dataset_mu(samples_k, mode=mu_mode)
    samples_2k = [u for v in volumes
                  for u in dz.partition_frames(v, 2 * k, pad=False)]

    tcfg = pl.TrainConfig(epochs_refine=args.epochs_refine,
                          lr_traj_refine=args.lr_traj_refine,
                          lr_net_refine=args.lr_net_refine,
                          batch=cfg["batch"], lambda_ref=args.lambda_ref,
                          seed=cfg["seed"], frames_k=k, mu_mode=mu_mode,
                          freeze_theta_refine=args.freeze_theta)
    pcfg = PhysicsConfig(grid=(grid, grid))

    result = pl.train_refine(samples_2k, tcfg, stats, pcfg, rcfg, params, trajectory)

    save_checkpoint(run_dir / "checkpoint_refined", rcfg, result.params)
    export_trajectory(result.trajectory, run_dir / "traj_refined",
                      kinematic_bounds(pcfg))
    _write_history(run_dir / "history.csv", result.history, keep_stage="main")
    (run_dir / "mu_stats.json").write_text(json.dumps(
        {"mu_x": stats.mu_x, "mode": mu_mode, "lambda_ref": args.lambda_ref}))
    print(f"refined run in {run_dir} (mu_X = {stats.mu_x:.6g})")


def cmd_stack_eval(args, plain=False):
    manifest, rcfg, params, traj = _load_run(args.run, not args.use_pre_refine)
    k = manifest["config"]["frames_k"]
    volumes = dz.load_dataset(args.data)
    total = k if plain else args.total_frames
    if total < 1:
        raise UsageError("--total-frames must be >= 1")

    out_dir = Path(args.out) if args.out else Path(args.run) / f"eval_{total}"
    out_dir.mkdir(parents=True, exist_ok=True)

    reports, recons, mus = [], [], []
    for v in volumes:
        z = _tile_to_length(v, total)
        res = pl.evaluate_stacked(traj, params, rcfg, z, k)
        reports.append(res.metrics)
        recons.append(res.reconstruction)
        mus.append(res.mu)

    mu_mean = np.mean(mus, axis=0) if mus and len(mus[0]) else np.zeros(0)
    summary = {
        "total_frames": total,
        "k": k,
        "psnr": float(np.mean([r["psnr"] for r in reports
                               if r["psnr"] != "identical"] or [np.inf])),
        "vif": float(np.mean([r["vif"] for r in reports])),
        "fsim": float(np.mean([r["fsim"] for r in reports])),
        "transition": qm.transition_report(mu_mean, k) if len(mu_mean) >= k else None,
    }
    (out_dir / "metrics.json").write_text(json.dumps(summary, indent=2))
    if len(mu_mean):
        qm.write_transition_csv(mu_mean, k, out_dir / "mu.csv")
    dz.save_dataset(out_dir / "reconstructions", recons)
    print(json.dumps(summary, indent=2))


def _tile_to_length(volume, total):
    if volume.shape[0] >= total:
        return volume[:total]
    reps = -(-total // volume.shape[0])
    return np.tile(volume, (reps, 1, 1))[:total]


def cmd_eval(args):
    cmd_stack_eval(args, plain=True)


def cmd_export(args):
    run_dir = Path(args.run)
    manifest, rcfg, params, traj = _load_run(run_dir, refined=True)
    out = Path(args.out) if args.out else run_dir / f"export_{args.what}"
    if args.what == "trajectory":
        export_trajectory(traj, out)
        print(f"trajectory exported to {out}.csv")
        return
    # attention: run one volume through the network and dump the maps
    if not args.data:
        raise UsageError("attention export needs --data")
    if not 0 <= args.block < rcfg.n_blocks:
        raise UsageError(f"--block must lie in [0, {rcfg.n_blocks})")
    volumes = dz.load_dataset(args.data)
    k = manifest["config"]["frames_k"]
    z = volumes[0][:k]
    regrid = pl.acquire(z, Tensor(traj.coords))
    _, records = recon_forward(regrid, rcfg, params, record_attention=True)
    region = (args.region_t, args.region_y, args.region_x, args.region_extent)
    geometry = export_attention(records[args.block], region, out)
    print(f"exported {geometry['n_maps']} attention maps to {out}.csv")


def cmd_metrics(args):
    a = dz.load_dataset(args.a)
    b = dz.load_dataset(args.b)
    if len(a) != len(b):
        raise UsageError("datasets differ in volume count")
    reports = [qm.metric_report(x, ref, peak=max(ref.max(), 1e-12))
               for x, ref in zip(a, b)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(json.dumps(reports, indent=2))
    with open(out / "per_frame.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["volume", "frame", "psnr", "vif", "fsim"])
        for i, rep in enumerate(reports):
            pf = rep["per_frame"]
            for t in range(len(pf["vif"])):
                writer.writerow([i, t, pf["psnr"][t], pf["vif"][t], pf["fsim"][t]])
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
    p.set_defaults(func=cmd_gen_data)

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
    p.set_defaults(func=cmd_refine)

    for name, plain in (("eval", True), ("stack-eval", False)):
        p = sub.add_parser(name, help="evaluate a trained run")
        p.add_argument("--run", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--out")
        p.add_argument("--use-pre-refine", action="store_true")
        if not plain:
            p.add_argument("--total-frames", type=int, required=True)
        p.set_defaults(func=cmd_eval if plain else cmd_stack_eval)

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
