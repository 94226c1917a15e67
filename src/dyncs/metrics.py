"""Image-quality metrics: PSNR, pixel-domain VIF and FSIM, plus the
transition-artifact report for stacked reconstructions.

VIF and FSIM are computed per frame and averaged; all frames of a [T,H,W]
stack go through each filter, transform and sum together (FSIM's filter bank
in chunks of frames, on scipy.fft, whose batched transforms give each frame
the bits it gets alone), and every frame's value is the one it would get alone
under the same peak. `psnr` (and so `metric_report["psnr"]`) is the PSNR of
the whole volume, one MSE over every voxel, and `psnr_per_frame` gives it per
frame. Inputs are magnitude images; VIF and FSIM rescale them to a reference
peak of 255, where their published constants live.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft, ndimage

from .data import write_csv

EPS = 1e-8


class MetricError(ValueError):
    pass


def _check_pair(x, ref):
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise MetricError(f"shape mismatch: {x.shape} vs {ref.shape}")
    if x.ndim == 2:
        x, ref = x[None], ref[None]
    return x, ref


def psnr(x, ref, peak=1.0):
    """10*log10(peak^2 / MSE); +inf on identical inputs."""
    if peak <= 0:
        raise MetricError("peak must be positive")
    x, ref = _check_pair(x, ref)
    mse = float(np.mean((x - ref) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def psnr_per_frame(x, ref, peak=1.0):
    x, ref = _check_pair(x, ref)
    return [psnr(x[t], ref[t], peak) for t in range(x.shape[0])]


# -- VIF (pixel domain) -------------------------------------------------------

_VIF_SCALES = 4
# the smallest frame side: each halving of the pyramid by [::2] leaves >= 3 px
VIF_MIN_SIDE = 2 ** _VIF_SCALES + 1


def _vif_frames(ref, dist, sigma_nsq=2.0, eps=1e-10):
    """VIF of each frame of dist [T,H,W] against the same frame of ref."""
    if min(ref.shape[1:]) < VIF_MIN_SIDE:
        raise MetricError(f"frame too small for the {_VIF_SCALES}-scale VIF pyramid")
    num = np.zeros(ref.shape[0])
    den = np.zeros(ref.shape[0])
    for scale in range(1, _VIF_SCALES + 1):
        n = 2 ** (_VIF_SCALES - scale + 1) + 1
        sd = (0.0, n / 5.0, n / 5.0)  # a zero sigma leaves the frame axis alone
        if scale > 1:
            ref = ndimage.gaussian_filter(ref, sd)[:, ::2, ::2]
            dist = ndimage.gaussian_filter(dist, sd)[:, ::2, ::2]
        mu1 = ndimage.gaussian_filter(ref, sd)
        mu2 = ndimage.gaussian_filter(dist, sd)
        sigma1_sq = ndimage.gaussian_filter(ref * ref, sd) - mu1 * mu1
        sigma2_sq = ndimage.gaussian_filter(dist * dist, sd) - mu2 * mu2
        sigma12 = ndimage.gaussian_filter(ref * dist, sd) - mu1 * mu2
        sigma1_sq = np.maximum(sigma1_sq, 0.0)
        sigma2_sq = np.maximum(sigma2_sq, 0.0)

        g = sigma12 / (sigma1_sq + eps)
        sv_sq = sigma2_sq - g * sigma12
        g[sigma1_sq < eps] = 0.0
        sv_sq[sigma1_sq < eps] = sigma2_sq[sigma1_sq < eps]
        sv_sq[g < 0] = sigma2_sq[g < 0]
        g[g < 0] = 0.0
        sv_sq = np.maximum(sv_sq, eps)

        num += np.sum(np.log10(1.0 + g * g * sigma1_sq / (sv_sq + sigma_nsq)), axis=(1, 2))
        den += np.sum(np.log10(1.0 + sigma1_sq / sigma_nsq), axis=(1, 2))
    return np.divide(num, den, out=np.ones_like(num), where=den != 0.0)


def vif_p(x, ref):
    """Pixel-domain visual information fidelity, per frame then mean."""
    x, ref = _check_pair(x, ref)
    peak = ref.max()
    scale = 255.0 / peak if peak > 0 else 1.0
    vals = np.ones(x.shape[0])  # identical-signal property, exact by definition
    differ = np.any(x != ref, axis=(1, 2))
    if differ.any():
        vals[differ] = _vif_frames(ref[differ] * scale, x[differ] * scale)
    return float(np.mean(vals)), vals.tolist()


# -- FSIM ---------------------------------------------------------------------

def _filter_grid(h, w):
    fy = np.fft.fftfreq(h)
    fx = np.fft.fftfreq(w)
    gy, gx = np.meshgrid(fy, fx, indexing="ij")
    r = np.sqrt(gy * gy + gx * gx)
    theta = np.arctan2(-gy, gx)
    return r, theta


def _log_gabor_bank(h, w, scales=4, orientations=4, wavelength=6.0,
                    mult=2.0, sigma_f=0.5978, sigma_theta=0.6545):
    r, theta = _filter_grid(h, w)
    lowpass = 1.0 / (1.0 + (r / 0.45) ** 30)
    r_safe = r.copy()
    r_safe[0, 0] = 1.0

    radial = []
    for s in range(scales):
        f0 = 1.0 / (wavelength * mult ** s)
        lg = np.exp(-np.log(r_safe / f0) ** 2 / (2.0 * sigma_f ** 2))
        lg[0, 0] = 0.0
        radial.append(lg * lowpass)

    sin_t, cos_t = np.sin(theta), np.cos(theta)
    bank = []
    for o in range(orientations):
        phi = np.pi * o / orientations
        ds = sin_t * np.cos(phi) - cos_t * np.sin(phi)
        dc = cos_t * np.cos(phi) + sin_t * np.sin(phi)
        dtheta = np.arctan2(ds, dc)
        angular = np.exp(-dtheta ** 2 / (2.0 * sigma_theta ** 2))
        filters = np.stack([lg * angular for lg in radial])
        # noise-threshold moments, of the filters only; sum_ij <m_i, m_j> = |sum_i m_i|^2
        expect_m2 = np.mean(filters[0] ** 2)
        spatial = np.real(fft.ifft2(filters.sum(axis=0)))
        bank.append((filters, expect_m2, np.sum(spatial * spatial)))
    return bank


# frames per filter-bank pass, from the size of its complex [frames, scales,
# H, W] response. Under scipy.fft, one thread on a 2-vCPU x86-64 host
# (median of 25 FSIM calls), 256 kB ran 27x32x32 in 16.4 ms (4 frames a
# pass) against 17.4 ms at 512 kB and 19-20 ms from 1 MB up, and 8x64x64 in
# 20.0 ms (one frame a pass) against 20.6 ms at 512 kB and 25 ms from 2 MB up
_CHUNK_BYTES = 2 ** 18


def _phase_congruency(img, bank, k=2.0, rescale=1.7):
    """Kovesi-style phase congruency of each frame of img [T,H,W], with
    noise-threshold compensation; `bank` holds (filters [scales,H,W], E[m0^2],
    sum_ij <m_i, m_j>) per orientation. Runs over chunks of frames, each frame
    independent of the others."""
    step = max(1, _CHUNK_BYTES // (16 * bank[0][0].size))
    n = img[0].size  # pixels per frame
    pc = np.zeros(img.shape)
    for lo in range(0, len(img), step):
        frames = img[lo:lo + step]
        fimg = fft.fft2(frames)[:, None]
        eo = np.empty((len(frames),) + bank[0][0].shape, dtype=np.complex128)
        for orient_filters, expect_m2, expect_mimj in bank:
            np.multiply(fimg, orient_filters, out=eo)
            eo = fft.ifft2(eo, overwrite_x=True)  # [frames, scales, H, W]
            amps = np.abs(eo)
            sum_e = eo.sum(axis=1)
            sum_a = amps.sum(axis=1)

            # noise threshold estimated from each frame's smallest-scale
            # response: the median of its squared amplitudes
            a2 = np.partition((amps[:, 0] ** 2).reshape(len(frames), -1),
                              [(n - 1) // 2, n // 2], axis=-1)
            a2_median = (a2[:, (n - 1) // 2] + a2[:, n // 2]) / 2.0
            expect_a2 = a2_median / np.log(2.0)
            sigma_g = np.sqrt(np.maximum(expect_a2 * expect_mimj / max(expect_m2, 1e-300), 0.0))
            mu_r = sigma_g * np.sqrt(np.pi / 2.0)
            sigma_r = sigma_g * np.sqrt(2.0 - np.pi / 2.0)
            threshold = (mu_r + k * sigma_r) / rescale

            # the orientation's dot and cross terms against the unit vector
            # sum_e / |sum_e|: the real and imaginary parts of eo * conj(sum_e),
            # then one real scale per pixel
            proj = eo * sum_e.conj()[:, None]
            scale = 1.0 / (np.abs(sum_e) + EPS)
            dot = proj.real.sum(axis=1) * scale
            cross = np.abs(proj.imag).sum(axis=1) * scale
            energy = np.maximum(dot - cross - threshold[:, None, None], 0.0)
            pc[lo:lo + step] += energy / (sum_a + EPS)
    return pc


_SCHARR = np.array([[[3.0, 0.0, -3.0],
                     [10.0, 0.0, -10.0],
                     [3.0, 0.0, -3.0]]]) / 16.0  # [1,3,3]: within each frame


def _gradient_magnitude(img):
    gx = ndimage.convolve(img, _SCHARR, mode="reflect")
    gy = ndimage.convolve(img, _SCHARR.transpose(0, 2, 1), mode="reflect")
    return np.sqrt(gx * gx + gy * gy)


def _fsim_frames(x, ref, bank, t1=0.85, t2=160.0):
    """FSIM of each frame of x [T,H,W] against the same frame of ref."""
    pc_x = _phase_congruency(x, bank)
    pc_r = _phase_congruency(ref, bank)
    g_x = _gradient_magnitude(x)
    g_r = _gradient_magnitude(ref)

    s_pc = (2.0 * pc_x * pc_r + t1) / (pc_x ** 2 + pc_r ** 2 + t1)
    s_g = (2.0 * g_x * g_r + t2) / (g_x ** 2 + g_r ** 2 + t2)
    pc_m = np.maximum(pc_x, pc_r)
    # eps guards make the flat-vs-flat case well defined (similarities are 1)
    return ((np.sum(s_pc * s_g * pc_m, axis=(1, 2)) + EPS)
            / (np.sum(pc_m, axis=(1, 2)) + EPS))


def fsim(x, ref):
    """Feature-similarity index, per frame then mean."""
    x, ref = _check_pair(x, ref)
    peak = ref.max()
    scale = 255.0 / peak if peak > 0 else 1.0
    bank = _log_gabor_bank(*x.shape[1:])
    vals = _fsim_frames(x * scale, ref * scale, bank)
    return float(np.mean(vals)), vals.tolist()


# -- reports ------------------------------------------------------------------

def metric_report(x, ref, peak=1.0):
    """PSNR/VIF/FSIM with per-frame breakdowns, as one JSON-ready dict."""
    psnr_frames = psnr_per_frame(x, ref, peak)
    vif_mean, vif_frames = vif_p(x, ref)
    fsim_mean, fsim_frames = fsim(x, ref)
    mean_psnr = psnr(x, ref, peak)
    return {
        "psnr": mean_psnr if math.isfinite(mean_psnr) else "identical",
        "vif": vif_mean,
        "fsim": fsim_mean,
        "per_frame": {
            "psnr": [p if math.isfinite(p) else "identical" for p in psnr_frames],
            "vif": vif_frames,
            "fsim": fsim_frames,
        },
    }


def _seams(n, k):
    """The mask of the stacking seams among n mu entries: k-1, 2k-1, ..."""
    return np.arange(n) % k == k - 1


def transition_report(mu, k):
    """Summarize a mean-temporal-derivative vector around the stacking seams.

    Transition indices are the multiples of k minus one.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if len(mu) < k:
        raise MetricError("mu vector shorter than one partition")
    seams = _seams(len(mu), k)  # never empty: len(mu) >= k
    peak = float(np.max(np.abs(mu[seams])))
    elsewhere = float(np.mean(np.abs(mu[~seams]))) if not seams.all() else 0.0
    return {"transition_indices": np.flatnonzero(seams).tolist(), "transition_peak": peak,
            "mean_elsewhere": elsewhere}


def write_transition_csv(mu, k, path):
    mu = np.asarray(mu, dtype=np.float64)
    seams = _seams(len(mu), k).astype(int)
    write_csv(path, ["index", "mu", "is_transition"], zip(range(len(mu)), mu, seams))
