"""Tests for the command-line interface: exit codes, manifests, determinism."""

import argparse
import json
import shutil

import numpy as np
import pytest

from dyncs import cli
from dyncs import data as dz
from dyncs import metrics as qm
from dyncs import pipeline as pl
from dyncs.cli import main
from dyncs.data import load_dataset

GRID = 24  # the 4-scale VIF pyramid needs frames of at least 17 px a side


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds") / "data"
    rc = main(["gen-data", "--out", str(path), "--count", "3",
               "--grid", str(GRID), "--frames", "8", "--seed", "1"])
    assert rc == 0
    return path


def _train_args(data, out, seed=0):
    return ["train", "--data", str(data), "--out", str(out),
            "--shots", "2", "--points-per-shot", "8", "--epochs", "1",
            "--batch", "2", "--seed", str(seed), "--frames-k", "4",
            "--channels", "4", "--blocks", "1", "--heads", "2",
            "--window", "2,2,2"]


@pytest.fixture(scope="module")
def small_frames(tmp_path_factory):
    """Frames of 16 px a side, one short of what the VIF pyramid needs."""
    path = tmp_path_factory.mktemp("ds16") / "data"
    assert main(["gen-data", "--out", str(path), "--count", "3", "--grid", "16",
                 "--frames", "8", "--seed", "1"]) == 0
    return path


@pytest.fixture(scope="module")
def other_grid(tmp_path_factory):
    """Frames of 32 px a side: large enough for the metrics, but their
    kinematic bounds are not those of a run trained at GRID."""
    path = tmp_path_factory.mktemp("ds32") / "data"
    assert main(["gen-data", "--out", str(path), "--count", "3", "--grid", "32",
                 "--frames", "8", "--seed", "1"]) == 0
    return path


@pytest.fixture(scope="module")
def other_data(tmp_path_factory):
    """A dataset of the run's grid and shape, drawn from another seed."""
    path = tmp_path_factory.mktemp("ds-other") / "data"
    assert main(["gen-data", "--out", str(path), "--count", "3", "--grid", str(GRID),
                 "--frames", "8", "--seed", "2"]) == 0
    return path


@pytest.fixture(scope="module")
def run_dir(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "run"
    assert main(_train_args(dataset, out)) == 0
    return out


@pytest.fixture(scope="module")
def small_run(small_frames, tmp_path_factory):
    """A run trained on the 16 px frames of `small_frames`."""
    out = tmp_path_factory.mktemp("runs16") / "run"
    assert main(_train_args(small_frames, out)) == 0
    return out


def _strict_json(text):
    """`json.loads` that raises on NaN, Infinity and -Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def _no_compute(monkeypatch):
    """Make refinement, evaluation and the acquisition fail if they run."""
    def compute(*args, **kwargs):
        raise AssertionError("computed before the run and its data were checked")

    for name in ("train_refine", "evaluate_stacked", "acquire"):
        monkeypatch.setattr(pl, name, compute)


def _add_flag(monkeypatch, command):
    """Give the `command` subparser a --new-flag (an int, default 7)."""
    build = cli.build_parser

    def with_new_flag():
        parser = build()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        sub.choices[command].add_argument("--new-flag", type=int, default=7)
        return parser

    monkeypatch.setattr(cli, "build_parser", with_new_flag)


def test_gen_data_writes_volumes_and_manifest(dataset):
    vols, _ = load_dataset(dataset)
    assert len(vols) == 3 and vols[0].shape == (8, GRID, GRID)
    manifest = json.loads((dataset / "manifest.json").read_text())
    assert manifest["count"] == 3
    assert manifest["provenance"]["config"] == {"count": 3, "grid": GRID, "frames": 8,
                                                "seed": 1, "noise": 0.0}
    assert list(manifest["provenance"]["config"]) == ["count", "grid", "frames", "seed",
                                                      "noise"]


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for path in (a, b):
        assert main(["gen-data", "--out", str(path), "--count", "2",
                     "--grid", "8", "--frames", "2", "--seed", "3"]) == 0
    for i in range(2):
        assert (a / f"vol_{i}.f64").read_bytes() == (b / f"vol_{i}.f64").read_bytes()


@pytest.mark.parametrize("flags", [["--grid", "0"], ["--noise", "-1"], ["--noise", "nan"],
                                   ["--noise", "inf"], ["--count", "0"], ["--frames", "0"]],
                         ids=["zero-grid", "negative-noise", "nan-noise", "inf-noise",
                              "zero-count", "zero-frames"])
def test_gen_data_invalid_grid_is_usage_error(tmp_path, capsys, flags):
    rc = main(["gen-data", "--out", str(tmp_path / "x")] + flags)
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage"
    assert not (tmp_path / "x").exists()


def test_train_writes_run_directory(run_dir):
    for name in ("checkpoint.json", "checkpoint.bin", "traj.json", "traj.csv",
                 "history.csv", "manifest.json"):
        assert (run_dir / name).exists(), name


def test_train_rerun_reproduces_history_byte_identically(dataset, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_train_args(dataset, a, seed=4)) == 0
    assert main(_train_args(dataset, b, seed=4)) == 0
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
    assert (a / "traj.csv").read_bytes() == (b / "traj.csv").read_bytes()


def test_cli_chain_reruns_byte_identically(tmp_path, capsys):
    # every file of gen-data, train, refine, stack-eval and both exports;
    # manifest.json holds a timestamp
    trees = []
    for root in (tmp_path / "a", tmp_path / "b"):
        data, run = root / "data", root / "run"
        assert main(["gen-data", "--out", str(data), "--count", "3", "--grid", str(GRID),
                     "--frames", "8", "--seed", "1"]) == 0
        assert main(_train_args(data, run)) == 0
        assert main(["refine", "--run", str(run), "--data", str(data),
                     "--epochs-refine", "1"]) == 0
        assert main(["stack-eval", "--run", str(run), "--data", str(data),
                     "--total-frames", "11"]) == 0
        assert main(["export", "trajectory", "--run", str(run)]) == 0
        assert main(["export", "attention", "--run", str(run), "--data", str(data),
                     "--region-extent", "4"]) == 0
        for path in root.rglob("*.json"):
            _strict_json(path.read_text())
        trees.append({path.relative_to(root): path.read_bytes()
                      for path in root.rglob("*")
                      if path.is_file() and path.name != "manifest.json"})
    capsys.readouterr()
    assert sorted(trees[0]) == sorted(trees[1])
    assert {"run/traj_refined.csv", "run/eval_11/mu.csv", "run/export_trajectory.csv",
            "run/export_attention.csv"} <= {str(name) for name in trees[0]}
    for name, content in trees[0].items():
        assert trees[1][name] == content, name


def test_train_manifest_records_a_flag_added_to_the_parser(dataset, tmp_path, monkeypatch):
    # the manifest's config is every train flag but --data, --out and
    # --config, in parser order, so a new flag reaches it without more code
    _add_flag(monkeypatch, "train")
    out = tmp_path / "run"
    assert main(_train_args(dataset, out)) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert list(config) == ["shots", "points_per_shot", "epochs", "lr_traj", "lr_net",
                            "batch", "traj", "seed", "frames_k", "channels", "blocks",
                            "heads", "window", "new_flag"]
    assert config["new_flag"] == 7 and config["window"] == "2,2,2"


def test_train_missing_dataset_fails(tmp_path):
    rc = main(_train_args(tmp_path / "nope", tmp_path / "out"))
    assert rc == 1


@pytest.mark.parametrize("key", ["epochs-refine", "lambda_ref", "signed-mu"])
def test_train_config_naming_refine_flag_is_usage_error(dataset, tmp_path, capsys,
                                                        key):
    config = tmp_path / "overrides.json"
    config.write_text(json.dumps({key: 1}))
    rc = main(_train_args(dataset, tmp_path / "out") + ["--config", str(config)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", [{"epochs": "2"}, {"shots": True},
                                      {"traj": "spiral"}],
                         ids=["string-for-int", "bool-for-int", "not-a-choice"])
def test_train_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, override):
    config = tmp_path / "overrides.json"
    config.write_text(json.dumps(override))
    # the dataset does not exist: a usage error shows the check came first
    rc = main(_train_args(tmp_path / "no-data", tmp_path / "out")
              + ["--config", str(config)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--window", "2,4"], ["--window", "a,b,c"],
                                   ["--window", "0,2,2"], ["--channels", "6", "--heads", "4"]],
                         ids=["two-extents", "not-integers", "zero-extent",
                              "channels-not-divisible-by-heads"])
def test_train_malformed_network_is_usage_error(tmp_path, capsys, flags):
    # the dataset does not exist: a usage error shows the check came first
    rc = main(_train_args(tmp_path / "no-data", tmp_path / "out") + flags)
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--lr-net", "0"], ["--frames-k", "1"],
                                   ["--batch", "-1"], ["--epochs", "0"],
                                   ["--shots", "0"], ["--points-per-shot", "1"],
                                   ["--points-per-shot", "1", "--traj", "gar"],
                                   ["--lr-traj", "nan"], ["--lr-net", "nan"],
                                   ["--lr-net", "inf"]],
                         ids=["zero-net-learning-rate", "one-frame-window",
                              "negative-batch", "zero-epochs", "zero-shots",
                              "one-point-per-shot", "one-point-per-shot-gar",
                              "nan-trajectory-learning-rate", "nan-net-learning-rate",
                              "inf-net-learning-rate"])
def test_train_invalid_training_flag_is_usage_error(tmp_path, capsys, flags):
    # the dataset does not exist: a usage error shows the check came first
    rc = main(_train_args(tmp_path / "no-data", tmp_path / "out") + flags)
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert not (tmp_path / "out").exists()


def test_train_on_non_square_frames_is_usage_error(tmp_path, capsys, monkeypatch):
    # `kinematic_bounds` scales with one side of the grid: 32 px along x
    # would get the bounds of 24 px
    data = tmp_path / "data"
    dz.save_dataset(data, dz.gen_dataset(3, grid=(GRID, 32), frames=8, seed=1))

    def train_main(*args, **kwargs):
        raise AssertionError("trained before the grid was checked")

    monkeypatch.setattr(pl, "train_main", train_main)
    rc = main(_train_args(data, tmp_path / "out"))
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage" and "square" in err["message"]
    assert not (tmp_path / "out").exists()


def test_refine_without_prior_run_is_usage_error(dataset, tmp_path, capsys):
    rc = main(["refine", "--run", str(tmp_path / "none"), "--data", str(dataset)])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("frozen", ["zero-trajectory-learning-rate", "fixed-trajectory-run"])
def test_refine_with_nothing_to_train_is_usage_error(run_dir, tmp_path, capsys, frozen):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    flags = ["--epochs-refine", "1", "--freeze-theta"]
    if frozen == "zero-trajectory-learning-rate":
        flags += ["--lr-traj-refine", "0"]
    else:
        meta = json.loads((run / "traj.json").read_text())
        (run / "traj.json").write_text(json.dumps({**meta, "learnable": False}))
    # the dataset does not exist: a usage error shows the check came first
    rc = main(["refine", "--run", str(run), "--data", str(tmp_path / "no-data")] + flags)
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert not (run / "checkpoint_refined.json").exists()


@pytest.mark.parametrize("flags", [["--lambda-ref", "-1"], ["--lr-net-refine", "0"],
                                   ["--lr-traj-refine", "-1"], ["--epochs-refine", "-1"]],
                         ids=["negative-lambda", "zero-net-learning-rate",
                              "negative-trajectory-learning-rate", "negative-epochs"])
def test_refine_invalid_flag_is_usage_error(dataset, run_dir, tmp_path, capsys,
                                            monkeypatch, flags):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    history = (run / "history.csv").read_bytes()
    loads = []
    monkeypatch.setattr(dz, "load_dataset",
                        lambda path: loads.append(path) or load_dataset(path))
    rc = main(["refine", "--run", str(run), "--data", str(dataset)] + flags)
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert not loads  # rejected before the dataset loads
    assert not list(run.glob("*_refined.*")) and not (run / "mu_stats.json").exists()
    assert (run / "history.csv").read_bytes() == history


def test_refine_appends_history_and_writes_artifacts(dataset, run_dir, tmp_path):
    run = tmp_path / "run"  # a copy: later tests read the shared run unrefined
    shutil.copytree(run_dir, run)
    before = (run / "history.csv").read_text().count("\n")
    rc = main(["refine", "--run", str(run), "--data", str(dataset),
               "--epochs-refine", "1"])
    assert rc == 0
    after = (run / "history.csv").read_text()
    assert after.count("\n") == before + 1
    assert "refine" in after
    for name in ("checkpoint_refined.json", "traj_refined.csv", "mu_stats.json"):
        assert (run / name).exists()
    # the refine flags are recorded in manifest.json alone
    assert list(json.loads((run / "mu_stats.json").read_text())) == ["mu_x"]


def test_refine_manifest_records_a_flag_added_to_the_parser(dataset, run_dir, tmp_path,
                                                           monkeypatch, capsys):
    # refine's flags but --run and --data go under "refine" in the run's one
    # manifest, in parser order; the train record stays as it was
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    trained = json.loads((run / "manifest.json").read_text())
    _add_flag(monkeypatch, "refine")
    assert main(["refine", "--run", str(run), "--data", str(dataset),
                 "--epochs-refine", "1", "--freeze-theta"]) == 0
    capsys.readouterr()
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["refine"] == {"lambda_ref": 5.0, "epochs_refine": 1,
                                  "lr_traj_refine": 7e-4, "lr_net_refine": 2e-6,
                                  "signed_mu": False, "freeze_theta": True, "new_flag": 7}
    assert list(manifest["refine"]) == ["lambda_ref", "epochs_refine", "lr_traj_refine",
                                        "lr_net_refine", "signed_mu", "freeze_theta",
                                        "new_flag"]
    assert {key: manifest[key] for key in trained} == trained
    assert sorted(run.glob("manifest*")) == [run / "manifest.json"]


def test_refine_on_other_data_is_usage_error(other_data, run_dir, tmp_path, capsys,
                                             monkeypatch):
    # same grid and shape, other volumes: the dataset hash tells them apart
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    history = (run / "history.csv").read_bytes()
    _no_compute(monkeypatch)
    rc = main(["refine", "--run", str(run), "--data", str(other_data),
               "--epochs-refine", "1"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage" and "trained on" in err["message"]
    assert not list(run.glob("*_refined.*")) and not (run / "mu_stats.json").exists()
    assert (run / "history.csv").read_bytes() == history


def test_dataset_hash_covers_the_volume_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    dz.save_dataset(a, [np.zeros((2, 4, 4))])
    dz.save_dataset(b, [np.ones((2, 4, 4))])
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    assert load_dataset(a)[1] != load_dataset(b)[1]


@pytest.mark.parametrize("command", [["eval"], ["stack-eval", "--total-frames", "8"],
                                     ["refine"], ["export", "attention"]],
                         ids=["eval", "stack-eval", "refine", "export-attention"])
def test_run_on_data_of_another_grid_is_usage_error(other_grid, run_dir, tmp_path, capsys,
                                                    monkeypatch, command):
    # the kinematic bounds scale as 1/H: the run's trajectory was projected
    # under those of its own grid, not of this one
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    _no_compute(monkeypatch)
    out = [] if command == ["refine"] else ["--out", str(tmp_path / "out")]
    rc = main(command + ["--run", str(run), "--data", str(other_grid)] + out)
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage" and "grid" in err["message"]
    assert not list(tmp_path.glob("out*")) and not list(run.glob("*_refined.*"))


@pytest.mark.parametrize("command", [["eval"], ["refine"], ["export", "trajectory"]],
                         ids=["eval", "refine", "export-trajectory"])
def test_run_with_an_infeasible_trajectory_is_usage_error(dataset, run_dir, tmp_path,
                                                          capsys, monkeypatch, command):
    # one interior point of the first shot moves 0.5 rad, inside the box:
    # the file still parses, but its curve breaks the recorded bounds
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    rows = (run / "traj.csv").read_text().splitlines()
    frame, shot, index, kx, ky = rows[4].split(",")
    assert (frame, shot, index) == ("0", "0", "3")
    kx = float(kx) - 0.5 if float(kx) > 0 else float(kx) + 0.5
    rows[4] = ",".join([frame, shot, index, repr(kx), ky])
    (run / "traj.csv").write_text("\n".join(rows) + "\n")
    _no_compute(monkeypatch)
    out = [] if command == ["refine"] else ["--out", str(tmp_path / "out")]
    rc = main(command + ["--run", str(run), "--data", str(dataset)] + out)
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage" and "bounds" in err["message"]
    assert not list(tmp_path.glob("out*")) and not list(run.glob("*_refined.*"))


def test_second_refine_replaces_refine_rows(dataset, run_dir, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    for _ in range(2):
        assert main(["refine", "--run", str(run), "--data", str(dataset),
                     "--epochs-refine", "2"]) == 0
    rows = (run / "history.csv").read_text().splitlines()[1:]
    # epochs (1) main rows, then epochs_refine (2) rows of the last refine only
    assert [row.split(",")[1] for row in rows] == ["main", "refine", "refine"]


def test_eval_on_truncated_trajectory_fails(dataset, run_dir, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    for traj_csv in run.glob("traj*.csv"):
        lines = traj_csv.read_text().splitlines(keepends=True)
        traj_csv.write_text("".join(lines[:-1]))
    rc = main(["eval", "--run", str(run), "--data", str(dataset),
               "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "TrajectoryError"


@pytest.mark.parametrize("cut", ["inside-last-value", "before-fifth-field", "four-field-row"])
def test_eval_on_trajectory_cut_inside_a_row_fails(dataset, run_dir, tmp_path, capsys, cut):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    table = (run / "traj.csv").read_bytes()
    if cut == "inside-last-value":  # the line end and 3 digits go; the rest still parses
        table = table[:-5]
    elif cut == "before-fifth-field":
        table = table[:table.rindex(b",")]
    else:  # a row in the middle of the table loses its last field
        rows = table.split(b"\r\n")
        rows[2] = rows[2][:rows[2].rindex(b",")]
        table = b"\r\n".join(rows)
    (run / "traj.csv").write_bytes(table)
    rc = main(["eval", "--run", str(run), "--data", str(dataset),
               "--out", str(tmp_path / "eval")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "TrajectoryError"


def test_refine_on_nan_trajectory_fails(dataset, run_dir, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    traj_csv = run / "traj.csv"
    lines = traj_csv.read_text().splitlines(keepends=True)
    lines[1] = ",".join(lines[1].split(",")[:3] + ["nan", "0.0"]) + "\n"
    traj_csv.write_text("".join(lines))
    rc = main(["refine", "--run", str(run), "--data", str(dataset),
               "--epochs-refine", "1"])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "TrajectoryError"


def test_stack_eval_at_k_equals_plain_eval(dataset, run_dir, tmp_path, capsys):
    plain, stacked = tmp_path / "plain", tmp_path / "stacked"
    assert main(["eval", "--run", str(run_dir), "--data", str(dataset),
                 "--out", str(plain)]) == 0
    assert main(["stack-eval", "--run", str(run_dir), "--data", str(dataset),
                 "--out", str(stacked), "--total-frames", "4"]) == 0
    capsys.readouterr()
    for i in range(3):
        assert ((plain / "reconstructions" / f"vol_{i}.f64").read_bytes()
                == (stacked / "reconstructions" / f"vol_{i}.f64").read_bytes())


def test_stack_eval_use_pre_refine_ignores_the_refine(dataset, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(_train_args(dataset, run)) == 0
    stack_eval = ["stack-eval", "--run", str(run), "--data", str(dataset),
                  "--total-frames", "8", "--out"]
    assert main(stack_eval + [str(tmp_path / "before")]) == 0
    assert main(["refine", "--run", str(run), "--data", str(dataset),
                 "--epochs-refine", "1"]) == 0
    assert main(stack_eval + [str(tmp_path / "pre"), "--use-pre-refine"]) == 0
    assert main(stack_eval + [str(tmp_path / "after")]) == 0
    capsys.readouterr()
    before = (tmp_path / "before" / "metrics.json").read_bytes()
    assert (tmp_path / "pre" / "metrics.json").read_bytes() == before
    assert (tmp_path / "after" / "metrics.json").read_bytes() != before


def test_stack_eval_invalid_total_frames_is_usage_error(run_dir, tmp_path, capsys):
    # the dataset does not exist: a usage error shows the check came first
    out = tmp_path / "out"
    rc = main(["stack-eval", "--run", str(run_dir), "--data", str(tmp_path / "no-data"),
               "--out", str(out), "--total-frames", "0"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert not out.exists()


@pytest.mark.parametrize("command", [["eval"], ["stack-eval", "--total-frames", "8"]])
def test_eval_on_frames_too_small_for_the_metrics_is_usage_error(
        small_frames, small_run, tmp_path, capsys, monkeypatch, command):
    # the frame size is checked before any reconstruction; the run was
    # trained on these frames, so only the frame size stands in the way
    def evaluate_stacked(*args, **kwargs):
        raise AssertionError("reconstructed before the frame size was checked")

    monkeypatch.setattr(pl, "evaluate_stacked", evaluate_stacked)
    out = tmp_path / "eval"
    rc = main(command + ["--run", str(small_run), "--data", str(small_frames),
                         "--out", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert not out.exists()


def test_stack_eval_on_other_data_of_the_grid_records_its_hash(other_data, run_dir,
                                                                tmp_path, capsys):
    out = tmp_path / "other"
    assert main(["stack-eval", "--run", str(run_dir), "--data", str(other_data),
                 "--out", str(out), "--total-frames", "4"]) == 0
    capsys.readouterr()
    dataset_hash = json.loads((out / "metrics.json").read_text())["dataset"]
    trained_on = json.loads((run_dir / "manifest.json").read_text())["input_hashes"]
    assert dataset_hash == load_dataset(other_data)[1] != trained_on["dataset"]


def test_stack_eval_of_exact_reconstructions_writes_valid_json(tmp_path, capsys):
    # all-zero volumes: the run reconstructs each one exactly, so its PSNR is
    # infinite, which JSON cannot hold
    data, run, out = tmp_path / "data", tmp_path / "run", tmp_path / "eval"
    dz.save_dataset(data, [np.zeros((8, GRID, GRID))] * 3)
    assert main(_train_args(data, run)) == 0
    assert main(["stack-eval", "--run", str(run), "--data", str(data),
                 "--out", str(out), "--total-frames", "8"]) == 0
    capsys.readouterr()
    assert _strict_json((out / "metrics.json").read_text())["psnr"] == "identical"


def test_eval_takes_k_from_the_trajectory(dataset, run_dir, tmp_path, capsys):
    # the run's manifest records frames_k too; the trajectory's frame count
    # is the one that counts
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["config"]["frames_k"] = 3
    (run / "manifest.json").write_text(json.dumps(manifest))
    for source, out in ((run_dir, tmp_path / "a"), (run, tmp_path / "b")):
        assert main(["eval", "--run", str(source), "--data", str(dataset),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("metrics.json", "reconstructions/vol_0.f64"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_stack_eval_marks_transitions(dataset, run_dir, tmp_path, capsys):
    out = tmp_path / "t8"
    assert main(["stack-eval", "--run", str(run_dir), "--data", str(dataset),
                 "--out", str(out), "--total-frames", "8"]) == 0
    capsys.readouterr()
    summary = json.loads((out / "metrics.json").read_text())
    assert summary["transition"]["transition_indices"] == [3]
    assert (out / "mu.csv").exists()


def test_export_trajectory(run_dir, tmp_path, capsys):
    out = tmp_path / "traj_export"
    assert main(["export", "trajectory", "--run", str(run_dir),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.with_suffix(".csv").exists()
    exported = json.loads(out.with_suffix(".json").read_text())
    assert exported["bounds"] == json.loads((run_dir / "traj.json").read_text())["bounds"]


def test_export_attention_rows_sum_to_one(dataset, run_dir, tmp_path, capsys):
    import csv
    out = tmp_path / "attn"
    rc = main(["export", "attention", "--run", str(run_dir),
               "--data", str(dataset), "--out", str(out),
               "--region-extent", "4"])
    assert rc == 0
    capsys.readouterr()
    with open(out.with_suffix(".csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows
    for row in rows:
        assert sum(float(v) for v in row[5:]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("flags", [["--region-x", str(GRID * 4)], ["--region-extent", "0"],
                                   ["--region-extent", "-16"]],
                         ids=["x-outside", "zero-extent", "negative-extent"])
def test_export_attention_bad_region_fails(dataset, run_dir, tmp_path, capsys, monkeypatch,
                                           flags):
    # the region is checked against the window grid before any acquisition
    def acquire(*args, **kwargs):
        raise AssertionError("acquired before the region was checked")

    monkeypatch.setattr(pl, "acquire", acquire)
    rc = main(["export", "attention", "--run", str(run_dir),
               "--data", str(dataset), "--out", str(tmp_path / "bad")] + flags)
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("block", ["1", "-1"])
def test_export_attention_block_out_of_range_is_usage_error(dataset, run_dir, tmp_path,
                                                            capsys, block):
    # the run has one block
    rc = main(["export", "attention", "--run", str(run_dir), "--data", str(dataset),
               "--out", str(tmp_path / "attn"), "--block", block])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert not (tmp_path / "attn.csv").exists()


def test_export_attention_on_volumes_shorter_than_k_is_usage_error(run_dir, tmp_path,
                                                                  capsys, monkeypatch):
    short = tmp_path / "short"
    assert main(["gen-data", "--out", str(short), "--count", "1", "--grid", str(GRID),
                 "--frames", "2"]) == 0

    def acquire(*args, **kwargs):
        raise AssertionError("acquired before the frame count was checked")

    monkeypatch.setattr(pl, "acquire", acquire)
    rc = main(["export", "attention", "--run", str(run_dir), "--data", str(short),
               "--out", str(tmp_path / "attn"), "--region-extent", "4"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert not (tmp_path / "attn.csv").exists()


@pytest.mark.parametrize("pair", ["shape mismatch", "small frames"])
def test_metrics_on_mismatched_or_small_volumes_is_usage_error(
        dataset, small_frames, tmp_path, capsys, monkeypatch, pair):
    # 16 px frames against 24 px ones, or 16 px against 16 px; checked before
    # any metric is computed
    def metric_report(*args, **kwargs):
        raise AssertionError("computed a metric before the volumes were checked")

    monkeypatch.setattr(qm, "metric_report", metric_report)
    reference = dataset if pair == "shape mismatch" else small_frames
    rc = main(["metrics", "--a", str(small_frames), "--b", str(reference),
               "--out", str(tmp_path / "report")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert not (tmp_path / "report").exists()


def test_metrics_command(dataset, tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["metrics", "--a", str(dataset), "--b", str(dataset),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    reports = json.loads((out / "metrics.json").read_text())
    assert len(reports) == 3
    assert all(r["psnr"] == "identical" for r in reports)
    assert (out / "per_frame.csv").exists()
