"""Tests for trajectory generators, the kinematic projection and I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from dyncs.trajectory import (GOLDEN_ANGLE, PROJECTION_TOL, KinematicBounds,
                              PhysicsConfig, ProjectionError, Trajectory,
                              TrajectoryError, export_trajectory,
                              feasibility_report, init_golden_angle,
                              init_radial, kinematic_bounds, load_trajectory,
                              project_kinematic)


def _loop_report(coords, b):
    """Independent per-shot audit of the difference-norm constraints:
    (max velocity violation, max acceleration violation)."""
    v1, v2 = -b.alpha, -b.beta
    for t in range(coords.shape[0]):
        for s in range(coords.shape[1]):
            c = coords[t, s]
            if len(c) >= 2:
                v1 = max(v1, float((np.linalg.norm(np.diff(c, axis=0), axis=-1) - b.alpha).max()))
            if len(c) >= 3:
                d2 = c[2:] - 2 * c[1:-1] + c[:-2]
                v2 = max(v2, float((np.linalg.norm(d2, axis=-1) - b.beta).max()))
    return v1, v2


def _violations(coords, b):
    return max(_loop_report(coords, b))


# -- bounds ---------------------------------------------------------------------

def test_kinematic_bounds_scanner_constants():
    p = PhysicsConfig(g_max=0.04, s_max=200.0, dt=1e-5, gamma=42.576e6,
                      fov=0.2, grid=(384, 384))
    b = kinematic_bounds(p)
    assert b.alpha == pytest.approx(5.573e-2, abs=1e-4)
    assert b.beta == pytest.approx(b.alpha * 0.05, rel=1e-12)


def test_kinematic_bounds_scaling_in_dt():
    p1 = PhysicsConfig(dt=1e-5)
    p2 = PhysicsConfig(dt=2e-5)
    b1, b2 = kinematic_bounds(p1), kinematic_bounds(p2)
    assert b2.alpha == pytest.approx(2.0 * b1.alpha, rel=1e-12)
    assert b2.beta == pytest.approx(4.0 * b1.beta, rel=1e-12)


def test_degenerate_physics_rejected():
    with pytest.raises(TrajectoryError):
        PhysicsConfig(gamma=0.0)


def test_non_square_grid_rejected():
    # `kinematic_bounds` reads grid[0] alone
    with pytest.raises(TrajectoryError, match="square"):
        PhysicsConfig(grid=(24, 32))


# -- generators -----------------------------------------------------------------

def test_radial_single_shot_is_horizontal_diameter():
    k = init_radial(1, 1, 5, span=1.0)
    np.testing.assert_allclose(k.coords[0, 0, :, 1], 0.0, atol=1e-12)
    np.testing.assert_allclose(k.coords[0, 0, :, 0], np.linspace(-1, 1, 5), atol=1e-12)


def test_radial_frames_identical():
    k = init_radial(3, 4, 8)
    for t in range(1, 3):
        np.testing.assert_array_equal(k.coords[t], k.coords[0])


def test_radial_spoke_angles():
    k = init_radial(1, 4, 3, span=1.0)
    for s, expected in enumerate([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4]):
        tip = k.coords[0, s, -1]
        angle = np.arctan2(tip[1], tip[0]) % np.pi
        assert angle % np.pi == pytest.approx(expected % np.pi, abs=1e-12)


def test_golden_angle_increment():
    assert GOLDEN_ANGLE == pytest.approx(1.94161, abs=1e-5)
    k = init_golden_angle(1, 2, 3, span=1.0)
    a0 = np.arctan2(k.coords[0, 0, -1, 1], k.coords[0, 0, -1, 0])
    a1 = np.arctan2(k.coords[0, 1, -1, 1], k.coords[0, 1, -1, 0])
    diff = (a1 - a0) % (2 * np.pi)
    assert diff == pytest.approx(GOLDEN_ANGLE, abs=1e-9)


def test_golden_angle_time_varying():
    k = init_golden_angle(2, 2, 4)
    assert not np.array_equal(k.coords[1], k.coords[0])


def test_golden_angle_spokes_symmetric_equispaced():
    k = init_golden_angle(1, 1, 6, span=0.8)
    radii = np.linalg.norm(k.coords[0, 0], axis=-1)
    mid = k.coords[0, 0, :3] + k.coords[0, 0, 3:][::-1]
    np.testing.assert_allclose(mid, 0.0, atol=1e-12)  # symmetric about origin
    np.testing.assert_allclose(np.diff(radii[3:]), radii[4] - radii[3], atol=1e-12)


def test_generators_emit_in_range_coordinates():
    for k in (init_radial(2, 4, 16), init_golden_angle(2, 4, 16)):
        assert np.all(np.abs(k.coords) <= np.pi)


# -- projection -----------------------------------------------------------------

def test_projection_leaves_feasible_input_unchanged():
    b = KinematicBounds(alpha=1.0, beta=1.0)
    k = init_radial(2, 3, 8, span=0.5)
    out = project_kinematic(k.coords, b)
    np.testing.assert_array_equal(out, k.coords)


def test_projection_shrinks_two_point_segment_about_midpoint():
    b = KinematicBounds(alpha=0.1, beta=1.0)
    seg = np.array([[[[-0.1, 0.0], [0.1, 0.0]]]])
    out = project_kinematic(seg, b)
    np.testing.assert_allclose(out[0, 0],
                               [[-0.05, 0.0], [0.05, 0.0]], atol=1e-7)


def test_projection_makes_random_curve_feasible_and_stays_close():
    rng = np.random.default_rng(0)
    b = KinematicBounds(alpha=0.1, beta=0.05)
    c0 = np.clip(np.cumsum(rng.normal(scale=0.25, size=(1, 2, 30, 2)), axis=2),
                 -np.pi, np.pi)
    out = project_kinematic(c0, b)
    assert _violations(out, b) <= PROJECTION_TOL
    # the projection is no farther from the input than any feasible witness
    witness = np.zeros_like(c0)  # the zero curve is trivially feasible
    assert np.linalg.norm(out - c0) <= np.linalg.norm(witness - c0) + 1e-9


def test_projection_is_idempotent():
    rng = np.random.default_rng(1)
    b = KinematicBounds(alpha=0.1, beta=0.05)
    c0 = np.clip(np.cumsum(rng.normal(scale=0.3, size=(2, 3, 24, 2)), axis=2),
                 -np.pi, np.pi)
    once = project_kinematic(c0, b)
    twice = project_kinematic(once, b)
    assert np.max(np.abs(twice - once)) <= 1e-9


def test_projection_does_not_move_away_from_feasible_witnesses():
    rng = np.random.default_rng(2)
    b = KinematicBounds(alpha=0.2, beta=0.1)
    c0 = np.clip(np.cumsum(rng.normal(scale=0.3, size=(1, 1, 20, 2)), axis=2),
                 -np.pi, np.pi)
    out = project_kinematic(c0, b)
    witnesses = [np.zeros_like(c0),
                 init_radial(1, 1, 20, span=0.5 * b.alpha * 19 / 2).coords]
    for w in witnesses:
        assert _violations(w, b) <= 0.0
        assert (np.linalg.norm(out - w)
                <= np.linalg.norm(c0 - w) + 1e-8)


def test_projection_output_respects_coordinate_box():
    b = KinematicBounds(alpha=2.0, beta=2.0)
    c0 = np.full((1, 1, 4, 2), np.pi)  # on the box boundary, feasible diffs
    out = project_kinematic(c0, b)
    assert np.all(np.abs(out) <= np.pi)
    # the box binds: without it the acceleration bound would move the first
    # point to pi + 0.08; KKT multipliers 0.08 (box) and 0.08 (D2)
    b = KinematicBounds(alpha=1.0, beta=0.1)
    c0 = np.array([[[[np.pi, 0.0], [np.pi, 0.0], [np.pi - 0.5, 0.0]]]])
    out = project_kinematic(c0, b)
    assert np.all(np.abs(out) <= np.pi)
    np.testing.assert_allclose(out[0, 0, :, 0],
                               [np.pi, np.pi - 0.16, np.pi - 0.42], atol=2e-3)
    np.testing.assert_allclose(out[0, 0, :, 1], 0.0, atol=2e-3)


def test_projection_clips_into_the_box_first():
    b = KinematicBounds(alpha=10.0, beta=10.0)  # only the box can bind
    c0 = np.array([[[[4.0, -5.0], [0.5, 0.0], [-4.0, 1.0]]]])
    np.testing.assert_array_equal(project_kinematic(c0, b), np.clip(c0, -np.pi, np.pi))


def test_projection_of_stacked_frames_equals_flattened_curves():
    rng = np.random.default_rng(4)
    b = KinematicBounds(alpha=0.1, beta=0.05)
    c0 = np.clip(np.cumsum(rng.normal(scale=0.3, size=(3, 2, 12, 2)), axis=2),
                 -np.pi, np.pi)
    stacked = project_kinematic(c0, b)
    flat = project_kinematic(c0.reshape(6, 12, 2), b)
    assert stacked.shape == c0.shape
    assert stacked.tobytes() == flat.tobytes()


def _slsqp_projection(c0, b):
    """Reference projection of one curve c0 [m, 2] by SLSQP on squared
    difference norms."""
    m = len(c0)
    d1 = np.diff(np.eye(m), axis=0)
    d2 = np.diff(np.eye(m), n=2, axis=0)

    def rows(dm, bound):
        def fun(x):
            u = dm @ x.reshape(m, 2)
            return bound ** 2 - np.sum(u * u, axis=1)

        def jac(x):
            u = dm @ x.reshape(m, 2)
            return -2.0 * (dm[:, :, None] * u[:, None, :]).reshape(len(dm), -1)

        return {"type": "ineq", "fun": fun, "jac": jac}

    res = minimize(lambda x: 0.5 * np.sum((x - c0.ravel()) ** 2),
                   np.clip(c0, -np.pi, np.pi).ravel(), jac=lambda x: x - c0.ravel(),
                   method="SLSQP", bounds=[(-np.pi, np.pi)] * (2 * m),
                   constraints=[rows(d1, b.alpha), rows(d2, b.beta)],
                   options={"ftol": 1e-13, "maxiter": 1000})
    assert res.success, res.message
    return res.x.reshape(m, 2)


def test_projection_matches_slsqp_reference():
    rng = np.random.default_rng(5)
    b = KinematicBounds(alpha=0.3, beta=0.1)
    worst = 0.0
    for _ in range(30):
        c0 = np.cumsum(rng.normal(scale=0.5, size=(8, 2)), axis=0)
        out = project_kinematic(c0[None], b)[0]
        worst = max(worst, float(np.max(np.abs(out - _slsqp_projection(c0, b)))))
    assert worst <= 1e-6


def test_projection_is_firmly_non_expansive():
    # one curve per call: a batch stops only once its slowest curve is
    # feasible, which would hide an early stop on a single curve
    rng = np.random.default_rng(1)
    b = KinematicBounds(alpha=0.3, beta=0.1)
    for _ in range(40):
        ca = np.cumsum(rng.normal(scale=0.5, size=(1, 8, 2)), axis=1)
        cb = ca + rng.normal(scale=0.05, size=ca.shape)
        pa, pb = project_kinematic(ca, b), project_kinematic(cb, b)
        assert np.sum((pa - pb) ** 2) <= np.vdot(pa - pb, ca - cb) + 1e-9


# random short curves [curves, m, 2] of random step size, under random bounds
_CURVES = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(3, 10),
                    st.floats(0.1, 1.0), st.floats(0.05, 0.5), st.floats(0.02, 0.3))


def _draw_curves(seed, curves, m, step, alpha, beta):
    rng = np.random.default_rng(seed)
    c0 = np.cumsum(rng.normal(scale=step, size=(curves, m, 2)), axis=1)
    return c0, KinematicBounds(alpha=alpha, beta=beta)


@settings(max_examples=40)
@given(_CURVES)
def test_projection_satisfies_the_variational_inequality(case):
    """<c0 - P(c0), f - P(c0)> <= 0 for every feasible f. Random feasible
    curves lie deep inside the set, where the inequality holds with room to
    spare, so the witnesses are the feasible points P(P(c0) + t (c0 - P(c0)))
    along the normal ray: for the true projection they are P(c0) itself, and
    for a feasible point that is not the projection they move along the set
    to where the inner product is positive."""
    c0, b = _draw_curves(*case)
    p = project_kinematic(c0, b)
    d = c0 - p
    for t in (1.0, 10.0):
        f = project_kinematic(p + t * d, b)
        assert _violations(f[None], b) <= PROJECTION_TOL and np.all(np.abs(f) <= np.pi)
        inner = np.sum(d * (f - p), axis=(1, 2))  # per curve: the set is a product
        assert np.all(inner <= 1e-6 * (1.0 + np.linalg.norm(d) * np.linalg.norm(f - p)))


@settings(max_examples=40)
@given(_CURVES)
def test_projection_is_exactly_idempotent(case):
    c0, b = _draw_curves(*case)
    once = project_kinematic(c0, b)
    assert np.array_equal(project_kinematic(once, b), once)


def test_projection_raises_when_it_runs_out_of_iterations(monkeypatch):
    import dyncs.trajectory as tr
    monkeypatch.setattr(tr, "MAX_ITER", 25)
    rng = np.random.default_rng(0)
    c0 = np.cumsum(rng.normal(scale=0.25, size=(1, 2, 30, 2)), axis=2)
    with pytest.raises(ProjectionError):
        project_kinematic(c0, KinematicBounds(alpha=0.1, beta=0.05))


def _one_nan():
    coords = init_radial(1, 2, 5).coords
    coords[0, 1, 3, 0] = np.nan
    return coords


@pytest.mark.parametrize("coords", [_one_nan(), np.zeros((1, 2, 5, 3)), np.zeros(2)],
                         ids=["one-nan", "three-components", "no-curve-axis"])
def test_projection_rejects_malformed_coords_before_iterating(monkeypatch, coords):
    # without the check, NaN would run MAX_ITER iterations before failing
    import dyncs.trajectory as tr
    monkeypatch.setattr(tr, "_project_curves", lambda *a: pytest.fail("projected"))
    with pytest.raises(TrajectoryError):
        project_kinematic(coords, KinematicBounds(alpha=0.1, beta=0.05))


# -- feasibility report ----------------------------------------------------------

def test_report_positive_for_wide_radial_with_tight_bound():
    b = KinematicBounds(alpha=1e-3, beta=1.0)
    vel, _ = feasibility_report(init_radial(1, 2, 8).coords, b)
    assert vel > 0.0


def test_report_vacuous_for_single_point_shots():
    b = KinematicBounds(alpha=0.3, beta=0.2)
    vel, acc = feasibility_report(np.zeros((2, 2, 1, 2)), b)
    assert vel == pytest.approx(-0.3) and acc == pytest.approx(-0.2)


@pytest.mark.parametrize("m", [1, 2, 3, 9])
def test_report_equals_per_shot_loop(m):
    rng = np.random.default_rng(m)
    coords = rng.uniform(-np.pi, np.pi, size=(3, 2, m, 2))
    b = KinematicBounds(alpha=0.4, beta=0.3)
    assert feasibility_report(coords, b) == _loop_report(coords, b)


def test_report_nonpositive_after_projection():
    rng = np.random.default_rng(3)
    b = KinematicBounds(alpha=0.1, beta=0.05)
    c0 = np.clip(np.cumsum(rng.normal(scale=0.2, size=(1, 2, 16, 2)), axis=2),
                 -np.pi, np.pi)
    out = project_kinematic(c0, b)
    vel, acc = feasibility_report(out, b)
    assert max(vel, acc) <= PROJECTION_TOL


# -- serialization ---------------------------------------------------------------

def test_export_round_trip_bit_exact(tmp_path):
    k = init_golden_angle(3, 2, 7)
    export_trajectory(k, tmp_path / "traj", KinematicBounds(0.1, 0.05))
    back, bounds = load_trajectory(tmp_path / "traj")
    np.testing.assert_array_equal(back.coords, k.coords)
    assert back.learnable == k.learnable
    assert bounds == KinematicBounds(0.1, 0.05)


def test_load_rejects_metadata_without_bounds(tmp_path):
    import json
    export_trajectory(init_radial(2, 2, 4), tmp_path / "traj", KinematicBounds(0.1, 0.05))
    meta = json.loads((tmp_path / "traj.json").read_text())
    del meta["bounds"]
    (tmp_path / "traj.json").write_text(json.dumps(meta))
    with pytest.raises(TrajectoryError, match="bounds"):
        load_trajectory(tmp_path / "traj")


def test_export_header_records_frame_count(tmp_path):
    import json
    k = init_radial(8, 2, 4)
    export_trajectory(k, tmp_path / "traj", kinematic_bounds(PhysicsConfig()))
    meta = json.loads((tmp_path / "traj.json").read_text())
    assert meta["n_frames"] == 8 and meta["units"] == "radians"


def test_export_contains_one_section_per_frame(tmp_path):
    import csv
    k = init_radial(8, 2, 4)
    export_trajectory(k, tmp_path / "traj", kinematic_bounds(PhysicsConfig()))
    with open(tmp_path / "traj.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    frames = {int(r[0]) for r in rows}
    assert frames == set(range(8))
    assert len(rows) == 8 * 2 * 4


def _export_rows(tmp_path):
    import csv
    export_trajectory(init_golden_angle(2, 2, 3), tmp_path / "traj",
                      kinematic_bounds(PhysicsConfig()))
    with open(tmp_path / "traj.csv", newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(tmp_path, rows):
    import csv
    with open(tmp_path / "traj.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_load_rejects_missing_rows(tmp_path):
    rows = _export_rows(tmp_path)
    _write_rows(tmp_path, rows[:-1])
    with pytest.raises(TrajectoryError, match="missing"):
        load_trajectory(tmp_path / "traj")


def test_load_rejects_duplicate_rows(tmp_path):
    rows = _export_rows(tmp_path)
    _write_rows(tmp_path, rows + [rows[1]])
    with pytest.raises(TrajectoryError, match="duplicate"):
        load_trajectory(tmp_path / "traj")


def test_load_rejects_negative_index(tmp_path):
    rows = _export_rows(tmp_path)
    last = rows[-1]
    rows[-1] = ["-1"] + last[1:]  # would alias the last frame
    _write_rows(tmp_path, rows)
    with pytest.raises(TrajectoryError, match="outside"):
        load_trajectory(tmp_path / "traj")


def test_trajectory_invariants_enforced():
    with pytest.raises(TrajectoryError):
        Trajectory(np.full((1, 1, 2, 2), 4.0))
    with pytest.raises(TrajectoryError):
        Trajectory(np.zeros((1, 1, 2, 3)))
    with pytest.raises(TrajectoryError):
        Trajectory(np.full((1, 1, 3, 2), np.nan))
    coords = init_radial(2, 2, 4).coords
    coords[1, 0, 2, 0] = np.nan
    with pytest.raises(TrajectoryError):
        Trajectory(coords)
