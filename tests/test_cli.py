"""Tests for the command-line interface: exit codes, manifests, determinism."""

import json
import shutil

import pytest

from dyncs.cli import main
from dyncs.data import load_dataset

GRID = 24  # smallest grid that supports the 4-scale metric pyramid


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
def run_dir(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "run"
    assert main(_train_args(dataset, out)) == 0
    return out


def test_gen_data_writes_volumes_and_manifest(dataset):
    vols = load_dataset(dataset)
    assert len(vols) == 3 and vols[0].shape == (8, GRID, GRID)
    manifest = json.loads((dataset / "manifest.json").read_text())
    assert manifest["count"] == 3


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for path in (a, b):
        assert main(["gen-data", "--out", str(path), "--count", "2",
                     "--grid", "8", "--frames", "2", "--seed", "3"]) == 0
    for i in range(2):
        assert (a / f"vol_{i}.f64").read_bytes() == (b / f"vol_{i}.f64").read_bytes()


def test_gen_data_invalid_grid_is_usage_error(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path / "x"), "--grid", "0"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage"


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


def test_refine_without_prior_run_is_usage_error(dataset, tmp_path, capsys):
    rc = main(["refine", "--run", str(tmp_path / "none"), "--data", str(dataset)])
    assert rc == 2
    capsys.readouterr()


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


def test_export_attention_bad_region_fails(dataset, run_dir, tmp_path, capsys):
    rc = main(["export", "attention", "--run", str(run_dir),
               "--data", str(dataset), "--out", str(tmp_path / "bad"),
               "--region-x", str(GRID * 4)])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("block", ["1", "-1"])
def test_export_attention_block_out_of_range_is_usage_error(dataset, run_dir, tmp_path,
                                                            capsys, block):
    # the run has one block
    rc = main(["export", "attention", "--run", str(run_dir), "--data", str(dataset),
               "--out", str(tmp_path / "attn"), "--block", block])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert not (tmp_path / "attn.csv").exists()


def test_metrics_command(dataset, tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["metrics", "--a", str(dataset), "--b", str(dataset),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    reports = json.loads((out / "metrics.json").read_text())
    assert len(reports) == 3
    assert all(r["psnr"] == "identical" for r in reports)
    assert (out / "per_frame.csv").exists()
