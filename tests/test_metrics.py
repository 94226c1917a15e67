"""Tests for PSNR, pixel-domain VIF, FSIM and the transition report."""

import math

import numpy as np
import pytest
from scipy import ndimage

from dyncs.data import PhantomSpec, gen_phantom
from dyncs.metrics import (MetricError, fsim, metric_report, psnr,
                           transition_report, vif_p, write_transition_csv)


@pytest.fixture(scope="module")
def phantom():
    return gen_phantom(PhantomSpec(grid=(32, 32), frames=3, seed=0))


# -- PSNR ---------------------------------------------------------------------

def test_psnr_unit_mse_is_zero_db():
    x = np.zeros((1, 4, 4))
    ref = np.ones((1, 4, 4))
    assert psnr(x, ref, peak=1.0) == pytest.approx(0.0, abs=1e-12)


def test_psnr_identical_inputs_is_infinite():
    x = np.random.default_rng(0).random((2, 4, 4))
    assert math.isinf(psnr(x, x))


def test_psnr_matches_closed_form():
    rng = np.random.default_rng(1)
    x = rng.random((2, 8, 8))
    ref = rng.random((2, 8, 8))
    expected = 10.0 * math.log10(1.0 / np.mean((x - ref) ** 2))
    assert psnr(x, ref, peak=1.0) == pytest.approx(expected, abs=1e-9)


def test_psnr_monotone_in_noise_sigma(phantom):
    rng = np.random.default_rng(2)
    noise = rng.normal(size=phantom.shape)
    values = [psnr(phantom + s * noise, phantom) for s in (0.01, 0.02, 0.05)]
    assert values[0] > values[1] > values[2]


def test_psnr_shape_mismatch_rejected():
    with pytest.raises(MetricError):
        psnr(np.zeros((1, 4, 4)), np.zeros((1, 4, 5)))


# -- VIF ----------------------------------------------------------------------

def test_vif_identical_inputs_is_one(phantom):
    mean, per_frame = vif_p(phantom, phantom)
    assert mean == pytest.approx(1.0, abs=1e-9)
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in per_frame)


def test_vif_of_blank_image_is_near_zero(phantom):
    mean, _ = vif_p(np.zeros_like(phantom), phantom)
    assert mean < 0.1


def test_vif_blurred_scores_below_reference(phantom):
    blurred = np.stack([ndimage.gaussian_filter(f, 1.5) for f in phantom])
    blurred_score, _ = vif_p(blurred, phantom)
    exact_score, _ = vif_p(phantom, phantom)
    assert blurred_score < exact_score


# -- FSIM ---------------------------------------------------------------------

def test_fsim_identical_inputs_is_one(phantom):
    mean, per_frame = fsim(phantom, phantom)
    assert mean == pytest.approx(1.0, abs=1e-9)
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in per_frame)


def test_fsim_blur_scores_below_mild_noise(phantom):
    # note: global contrast inversion leaves phase congruency and gradient
    # magnitude unchanged, so it cannot serve as an ordering probe here;
    # a structural distortion (blur) is used instead
    rng = np.random.default_rng(3)
    blurred = np.stack([ndimage.gaussian_filter(f, 2.0) for f in phantom])
    noisy = np.clip(phantom + rng.normal(0, 0.01, phantom.shape), 0, 1)
    blur_score, _ = fsim(blurred, phantom)
    noisy_score, _ = fsim(noisy, phantom)
    assert blur_score < noisy_score


def test_fsim_flat_versus_flat_is_one():
    flat = np.full((1, 16, 16), 0.5)
    mean, _ = fsim(flat, flat)
    assert mean == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("metric", [fsim, vif_p])
def test_per_frame_values_match_single_frame_calls(metric, phantom):
    ref = phantom.copy()
    ref[:, 0, 0] = ref.max()  # every frame has the stack's peak
    x = np.stack([ndimage.gaussian_filter(f, 1.0) for f in ref])
    x[1] = ref[1]  # an identical frame among distorted ones
    _, per_frame = metric(x, ref)
    singles = [metric(x[t:t + 1], ref[t:t + 1])[1][0] for t in range(len(ref))]
    assert np.array_equal(per_frame, singles)


def test_fsim_per_frame_values_match_across_frame_chunks():
    # at 32x32 the filter bank runs over chunks of four frames, so this stack
    # is one chunk of four and one of a single frame
    ref = gen_phantom(PhantomSpec(grid=(32, 32), frames=5, seed=1))
    x = np.stack([ndimage.gaussian_filter(f, 1.0) for f in ref])
    ref[:, 0, 0] = x[:, 0, 0] = ref.max()
    _, per_frame = fsim(x, ref)
    singles = [fsim(x[t:t + 1], ref[t:t + 1])[1][0] for t in range(len(ref))]
    assert np.array_equal(per_frame, singles)


def test_metric_report_shape(phantom):
    rng = np.random.default_rng(4)
    noisy = np.clip(phantom + rng.normal(0, 0.05, phantom.shape), 0, 1)
    report = metric_report(noisy, phantom)
    assert set(report) == {"psnr", "vif", "fsim", "per_frame"}
    assert len(report["per_frame"]["vif"]) == phantom.shape[0]
    assert 0.0 < report["vif"] <= 1.0 + 1e-9
    assert 0.0 < report["fsim"] <= 1.0 + 1e-9


# -- transition report ----------------------------------------------------------

def test_flat_mu_reports_null_reduction():
    rep = transition_report(np.zeros(15), 8)
    assert rep == {"transition_indices": [7], "transition_peak": 0.0,
                   "mean_elsewhere": 0.0}


def test_transition_marks_for_k8_t24():
    mu = np.arange(23, dtype=float)  # a 24-frame sequence has 23 transitions
    rep = transition_report(mu, 8)
    assert rep["transition_indices"] == [7, 15]


def test_transition_csv_marks_rows(tmp_path):
    import csv
    mu = np.arange(7, dtype=float)
    write_transition_csv(mu, 4, tmp_path / "mu.csv")
    with open(tmp_path / "mu.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    marked = [int(r[0]) for r in rows if r[2] == "1"]
    assert marked == [3]


def test_transition_report_rejects_short_vector():
    with pytest.raises(MetricError):
        transition_report(np.zeros(3), 8)
