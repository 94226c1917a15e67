"""Exact type-2 nonuniform DFT between image frames and arbitrary k-space
coords, and the emulated acquisition AᴴA as one autodiff graph node.

Each call builds per-axis phase tables [T, S*m, H] and [T, S*m, W] from its
coordinates, by the exact factorization exp(-i (kx*x + ky*y)) =
exp(-i kx*x) * exp(-i ky*y), and contracts the image against them, batched
over frames; no state is kept between calls. `acquire` also takes leading
batch axes: images [..., T, H, W] share one set of tables, built once per
forward and once per backward, and its coordinate gradient is summed over
those axes. Conventions:

  * coordinates are angular frequencies in radians, each component in [-pi, pi];
  * image indices are centered: x in {-H//2, ..., H - H//2 - 1}, y likewise;
  * forward:  X[t,j] = sum_{x,y} z[t,x,y] * exp(-i (kx*x + ky*y))
  * adjoint:  z~[t,x,y] = 1/(H*W) * sum_j X[t,j] * exp(+i (kx*x + ky*y))

The 1/(H*W) scaling makes adjoint(forward(.)) the identity on a full
Cartesian frequency grid.
"""

from __future__ import annotations

import numpy as np

from .autodiff import AutodiffError, Tensor


def _centered_axes(h, w):
    return np.arange(h) - h // 2, np.arange(w) - w // 2


def _validate_coords(coords, t_frames):
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim < 2 or coords.shape[-1] != 2:
        raise AutodiffError(f"coordinates must end in an (kx, ky) pair, got {coords.shape}")
    if not np.all(np.abs(coords) <= np.pi + 1e-12):  # NaN fails too
        raise AutodiffError("coordinate component outside [-pi, pi] or NaN")
    if coords.shape[0] != t_frames:
        raise AutodiffError(f"frame count mismatch: image {t_frames}, coords {coords.shape[0]}")
    return coords


def _phase_tables(coords, h, w):
    """exp(-i kx*x) [T, S*m, H] and exp(-i ky*y) [T, S*m, W]."""
    xs, ys = _centered_axes(h, w)
    flat = coords.reshape(coords.shape[0], -1, 2)
    ex = np.exp(-1j * (flat[..., 0, None] * xs))
    ey = np.exp(-1j * (flat[..., 1, None] * ys))
    return ex, ey


def _forward(ex, ey, z):
    """Unscaled forward transform of z [..., T,H,W] -> [..., T, S*m]."""
    return (ex @ z * ey).sum(-1)


def _adjoint(ex, ey, x):
    """Unscaled adjoint transform of x [..., T, S*m] -> [..., T,H,W]."""
    return ex.conj().swapaxes(1, 2) @ (x[..., None] * ey.conj())


def _coord_term(a, z, ez, ex, ey):
    """Re(conj(a) d(forward z)/dk) = Im(conj(a_j) sum_{x,y} (x, y) z[t,x,y]
    exp(-i phase_j)), [T, S*m, 2]: the coordinate gradient under upstream a,
    summed over the leading axes of z [..., T,H,W]. `ez` is ex @ z * ey, the
    forward transform of z before its sum over y."""
    xs, ys = _centered_axes(*z.shape[-2:])
    a = a.conj()
    fx = _forward(ex * xs, ey, z)
    term = np.stack([np.imag(a * fx), np.imag(a * (ez @ ys))], axis=-1)
    return term.reshape((-1,) + term.shape[-3:]).sum(0)


def nudft_forward(z, coords):
    """z: [T,H,W] (real or complex); coords: [T,S,m,2] -> complex [T,S,m]."""
    z = np.asarray(z)
    t_frames, h, w = z.shape
    coords = _validate_coords(coords, t_frames)
    ex, ey = _phase_tables(coords, h, w)
    return _forward(ex, ey, z).reshape(coords.shape[:-1])


def nudft_adjoint(x, coords, out_shape):
    """x: complex [T,S,m]; returns complex image [T,H,W], scaled by 1/(H*W)."""
    x = np.asarray(x, dtype=np.complex128)
    t_frames, h, w = out_shape
    coords = _validate_coords(coords, t_frames)
    if x.shape != coords.shape[:-1]:
        raise AutodiffError(f"sample shape {x.shape} does not match coords {coords.shape[:-1]}")
    ex, ey = _phase_tables(coords, h, w)
    return _adjoint(ex, ey, x.reshape(t_frames, -1)) / (h * w)


def acquire(z, coords: Tensor) -> Tensor:
    """Emulated acquisition AᴴA z / (H*W) of constant real images
    z [..., T,H,W] on the coords Tensor [T,S,m,2]: the regridded volumes as
    (real, imag) channels [..., 2,T,H,W]. Every image along the leading axes
    is acquired with the same coords, from one build of the phase tables.

    With X = A z and complex upstream G, U = A G / (H*W), the coordinate
    gradient is Im(conj(X) d(A G)/dk) / (H*W) + Im(conj(U) d(A z)/dk), each
    term summed over the leading axes.
    """
    z = np.asarray(z, dtype=np.float64)
    *_, t_frames, h, w = z.shape
    cd = _validate_coords(coords.data, t_frames)
    ex, ey = _phase_tables(cd, h, w)
    x = _forward(ex, ey, z)
    zt = _adjoint(ex, ey, x) / (h * w)

    def back(g):
        ex, ey = _phase_tables(cd, h, w)  # rebuilt, not kept alive by the graph
        gu = g[..., 0, :, :, :] + 1j * g[..., 1, :, :, :]
        egu = ex @ gu * ey
        u = egu.sum(-1) / (h * w)
        return (_coord_term(x, gu, egu, ex, ey).reshape(cd.shape) / (h * w),
                _coord_term(u, z, ex @ z * ey, ex, ey).reshape(cd.shape))

    # coords is a parent twice, once per transform, so the adjoint's and then
    # the forward's gradient term accumulate into coords.grad one at a time:
    # a batch sums them in the same order as two separate transform nodes.
    return Tensor.from_op(np.stack([zt.real, zt.imag], axis=-4), (coords, coords), back)


def cartesian_grid_coords(t_frames, h, w):
    """Full Cartesian frequency grid in radians, shaped [T, 1, H*W, 2]."""
    fx = 2.0 * np.pi * (np.arange(h) - h // 2) / h
    fy = 2.0 * np.pi * (np.arange(w) - w // 2) / w
    gx, gy = np.meshgrid(fx, fy, indexing="ij")
    frame = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    return np.broadcast_to(frame, (t_frames, 1) + frame.shape).copy()
