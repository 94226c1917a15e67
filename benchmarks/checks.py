"""Output checks made apart from the program.

Every check is plain numpy written from the definitions, not from dyncs, and
returns a list of failure messages (empty when the output is correct). None
of them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# Entries of nudft_forward compared with the direct sum in each check.
NUDFT_SUBSET = 64
# nudft_forward and this direct sum agree to ~1.4e-15 of sum|z| at grids 32
# and 64 (all samples of random coordinates); 1e-12 leaves three orders of
# margin and still rejects an error of 1e-6 in any sample it draws, since
# phantoms lie in [0, 1] and so sum|z| <= H*W.
NUDFT_RTOL = 1e-12
# The program projects every trajectory to within this violation (its
# TrainConfig.projection_tol); the extra 1e-12 absorbs the difference norms'
# own rounding.
FEASIBILITY_TOL = 1e-8 + 1e-12
PSNR_ATOL = 1e-9


def kinematic_limits(g_max, s_max, dt, gamma, fov, h):
    """Per-sample step (alpha) and second-difference (beta) bounds in radians.

    One dwell time advances k by gamma*G*dt cycles/m; one pixel of an H-pixel
    grid over `fov` is 1/fov cycles/m, i.e. 2*pi/H radians.
    """
    alpha = 2.0 * math.pi * gamma * g_max * dt * fov / h
    beta = 2.0 * math.pi * gamma * s_max * dt * dt * fov / h
    return alpha, beta


def direct_nudft(frame, kx, ky):
    """sum_{x,y} frame[x,y] exp(-i (kx x + ky y)) on centered pixel indices."""
    h, w = frame.shape
    xs = np.arange(h) - h // 2
    ys = np.arange(w) - w // 2
    ex = np.exp(-1j * np.outer(kx, xs))  # [n, H]
    ey = np.exp(-1j * np.outer(ky, ys))  # [n, W]
    return np.einsum("nx,xy,ny->n", ex, frame, ey)


def check_nudft(z, coords, samples, rng, n=NUDFT_SUBSET):
    """`samples` = nudft_forward(z, coords); recompute a random subset."""
    z = np.asarray(z, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    samples = np.asarray(samples)
    if samples.shape != coords.shape[:-1]:
        return [f"nudft: sample shape {samples.shape} != coords {coords.shape[:-1]}"]
    flat = coords.reshape(coords.shape[0], -1, 2)
    got_all = samples.reshape(coords.shape[0], -1)
    frames = rng.integers(0, flat.shape[0], size=n)
    points = rng.integers(0, flat.shape[1], size=n)
    worst = 0.0
    for t in np.unique(frames):
        sel = points[frames == t]
        want = direct_nudft(z[t], flat[t, sel, 0], flat[t, sel, 1])
        err = np.abs(got_all[t, sel] - want).max()
        worst = max(worst, float(err / max(np.abs(z[t]).sum(), 1e-300)))
    if not worst <= NUDFT_RTOL:
        return [f"nudft: direct sum differs by {worst:.3e} of sum|z| "
                f"(allowed {NUDFT_RTOL:.0e})"]
    return []


def check_feasible(coords, alpha, beta, what, tol=FEASIBILITY_TOL):
    """First/second differences within alpha/beta and |k| <= pi everywhere."""
    c = np.asarray(coords, dtype=np.float64)
    fails = []
    if not np.all(np.isfinite(c)):
        return [f"{what}: non-finite coordinates"]
    vel = float((np.linalg.norm(np.diff(c, axis=2), axis=-1) - alpha).max())
    acc = float((np.linalg.norm(np.diff(c, n=2, axis=2), axis=-1) - beta).max())
    box = float(np.abs(c).max() - math.pi)
    if vel > tol:
        fails.append(f"{what}: step exceeds alpha={alpha:.6g} by {vel:.3e}")
    if acc > tol:
        fails.append(f"{what}: second difference exceeds beta={beta:.6g} by {acc:.3e}")
    if box > 1e-12:
        fails.append(f"{what}: |k| exceeds pi by {box:.3e}")
    return fails


def check_val_below_untrained(val_loss, val_volumes, what):
    """The output conv starts at zero, so the untrained val loss is mean(z^2)."""
    untrained = float(np.mean([np.mean(np.square(v)) for v in val_volumes]))
    if not (math.isfinite(val_loss) and 0.0 <= val_loss < untrained):
        return [f"{what}: val loss {val_loss!r} not below untrained {untrained:.6g}"]
    return []


def check_identical(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or got.tobytes() != want.tobytes():
        return [f"{what}: not bit-identical"]
    return []


def psnr_db(x, ref):
    """PSNR with the peak dyncs' stacked eval documents: max(ref.max(), 1e-12)."""
    peak = max(float(np.max(ref)), 1e-12)
    mse = float(np.mean(np.square(np.asarray(x) - np.asarray(ref))))
    return 10.0 * math.log10(peak * peak / mse)


def check_psnr(reported, x, ref, what):
    own = psnr_db(x, ref)
    if not (isinstance(reported, float) and abs(reported - own) <= PSNR_ATOL):
        return [f"{what}: reported PSNR {reported!r} != recomputed {own!r}"]
    return []


def mean_temporal_derivative(x):
    """|spatial mean of frame-to-frame differences|, one value per transition."""
    x = np.asarray(x, dtype=np.float64)
    return np.abs((x[1:] - x[:-1]).mean(axis=(1, 2)))


def transition_peak(mu, k):
    """Largest |mu| at the seams between stacked k-frame windows."""
    seams = np.arange(k - 1, len(mu), k)
    return float(np.max(np.abs(np.asarray(mu)[seams])))


def check_stacked(recon, truth, mu, total_frames, what):
    recon, truth = np.asarray(recon), np.asarray(truth)
    if recon.shape != (total_frames,) + truth.shape[1:]:
        return [f"{what}: reconstruction shape {recon.shape}, "
                f"want {(total_frames,) + truth.shape[1:]}"]
    if not np.all(np.isfinite(recon)):
        return [f"{what}: non-finite reconstruction"]
    own = mean_temporal_derivative(recon)
    if np.shape(mu) != own.shape or not np.allclose(mu, own, rtol=1e-12, atol=1e-15):
        return [f"{what}: reported mu differs from the reconstruction's"]
    return []
