"""Image-quality metrics: PSNR, pixel-domain VIF and FSIM, plus the
transition-artifact report for stacked reconstructions.

VIF and FSIM are computed per frame and averaged; `psnr` (and so
`metric_report["psnr"]`) is the PSNR of the whole volume, one MSE over every
voxel, and `psnr_per_frame` gives it per frame. Inputs are magnitude images;
VIF and FSIM rescale them to a reference peak of 255, where their published
constants live.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import ndimage

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

def _vif_frame(ref, dist, sigma_nsq=2.0, eps=1e-10):
    num = 0.0
    den = 0.0
    for scale in range(1, 5):
        n = 2 ** (4 - scale + 1) + 1
        sd = n / 5.0
        if scale > 1:
            ref = ndimage.gaussian_filter(ref, sd)[::2, ::2]
            dist = ndimage.gaussian_filter(dist, sd)[::2, ::2]
        if min(ref.shape) < 3:
            raise MetricError("frame too small for the 4-scale VIF pyramid")
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

        num += np.sum(np.log10(1.0 + g * g * sigma1_sq / (sv_sq + sigma_nsq)))
        den += np.sum(np.log10(1.0 + sigma1_sq / sigma_nsq))
    if den == 0.0:
        return 1.0
    return float(num / den)


def vif_p(x, ref):
    """Pixel-domain visual information fidelity, per frame then mean."""
    x, ref = _check_pair(x, ref)
    peak = ref.max()
    scale = 255.0 / peak if peak > 0 else 1.0
    vals = []
    for t in range(x.shape[0]):
        if np.array_equal(x[t], ref[t]):
            vals.append(1.0)  # identical-signal property, exact by definition
        else:
            vals.append(_vif_frame(ref[t] * scale, x[t] * scale))
    return float(np.mean(vals)), vals


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
        filters = [lg * angular for lg in radial]
        # noise-threshold moments; they depend on the filters only
        expect_m2 = np.mean(filters[0] ** 2)
        spatial = [np.real(np.fft.ifft2(f)) for f in filters]
        expect_mimj = np.sum([np.sum(mi * mj) for mi in spatial for mj in spatial])
        bank.append((filters, expect_m2, expect_mimj))
    return bank


def _phase_congruency(img, bank, k=2.0, rescale=1.7):
    """Kovesi-style phase congruency with noise-threshold compensation; `bank`
    holds (filters by scale, E[m0^2], sum_ij <m_i, m_j>) per orientation."""
    h, w = img.shape
    fimg = np.fft.fft2(img)
    pc = np.zeros((h, w))
    for orient_filters, expect_m2, expect_mimj in bank:
        eo = [np.fft.ifft2(fimg * f) for f in orient_filters]
        amps = [np.abs(e) for e in eo]
        sum_e = np.sum(eo, axis=0)
        sum_a = np.sum(amps, axis=0)

        # noise threshold estimated from the smallest-scale response
        a2_median = np.median(amps[0] ** 2)
        expect_a2 = a2_median / np.log(2.0)
        sigma_g = np.sqrt(max(expect_a2 * expect_mimj / max(expect_m2, 1e-300), 0.0))
        mu_r = sigma_g * np.sqrt(np.pi / 2.0)
        sigma_r = sigma_g * np.sqrt(2.0 - np.pi / 2.0)
        threshold = (mu_r + k * sigma_r) / rescale

        fh = sum_e / (np.abs(sum_e) + EPS)
        dot = np.real(np.sum([e.real * fh.real + e.imag * fh.imag for e in eo], axis=0))
        cross = np.sum([np.abs(e.real * fh.imag - e.imag * fh.real) for e in eo], axis=0)
        energy = np.maximum(dot - cross - threshold, 0.0)
        pc += energy / (sum_a + EPS)
    return pc


_SCHARR = np.array([[3.0, 0.0, -3.0],
                    [10.0, 0.0, -10.0],
                    [3.0, 0.0, -3.0]]) / 16.0


def _gradient_magnitude(img):
    gx = ndimage.convolve(img, _SCHARR, mode="reflect")
    gy = ndimage.convolve(img, _SCHARR.T, mode="reflect")
    return np.sqrt(gx * gx + gy * gy)


def _fsim_frame(x, ref, bank, t1=0.85, t2=160.0):
    pc_x = _phase_congruency(x, bank)
    pc_r = _phase_congruency(ref, bank)
    g_x = _gradient_magnitude(x)
    g_r = _gradient_magnitude(ref)

    s_pc = (2.0 * pc_x * pc_r + t1) / (pc_x ** 2 + pc_r ** 2 + t1)
    s_g = (2.0 * g_x * g_r + t2) / (g_x ** 2 + g_r ** 2 + t2)
    pc_m = np.maximum(pc_x, pc_r)
    # eps guards make the flat-vs-flat case well defined (similarities are 1)
    return float((np.sum(s_pc * s_g * pc_m) + EPS) / (np.sum(pc_m) + EPS))


def fsim(x, ref):
    """Feature-similarity index, per frame then mean."""
    x, ref = _check_pair(x, ref)
    peak = ref.max()
    scale = 255.0 / peak if peak > 0 else 1.0
    bank = _log_gabor_bank(*x.shape[1:])
    vals = [_fsim_frame(x[t] * scale, ref[t] * scale, bank) for t in range(x.shape[0])]
    return float(np.mean(vals)), vals


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


def transition_report(mu, k):
    """Summarize a mean-temporal-derivative vector around the stacking seams.

    Transition indices are the multiples of k minus one.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if len(mu) < k:
        raise MetricError("mu vector shorter than one partition")
    marks = [i for i in range(k - 1, len(mu), k) if i < len(mu)]
    others = [i for i in range(len(mu)) if i not in marks]
    peak = float(np.max(np.abs(mu[marks]))) if marks else 0.0
    elsewhere = float(np.mean(np.abs(mu[others]))) if others else 0.0
    return {"transition_indices": marks, "transition_peak": peak,
            "mean_elsewhere": elsewhere}


def write_transition_csv(mu, k, path):
    mu = np.asarray(mu, dtype=np.float64)
    marks = set(range(k - 1, len(mu), k))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "mu", "is_transition"])
        for i, v in enumerate(mu):
            writer.writerow([i, format(v, ".17g"), int(i in marks)])
