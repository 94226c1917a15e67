"""Exact type-2 nonuniform DFT between image frames and arbitrary k-space
coords, and the emulated acquisition AᴴA as one autodiff graph node.

Each call builds per-axis phase tables [T, S*m, H] and [T, S*m, W] from its
coordinates, by the exact factorization exp(-i (kx*x + ky*y)) =
exp(-i kx*x) * exp(-i ky*y), and contracts the image against them, batched
over frames; no state is kept between calls. A table takes cos and sin only
at x <= 0 and fills x > 0 by conjugation. `acquire` also takes leading batch
axes: images [..., T, H, W] share one set of tables, built once per forward
and once per backward, and are contracted against them one image at a time;
its one parent, coords, gets one gradient: the adjoint transform's term plus
the forward's, each summed over those axes. Conventions:

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


def _axis_table(k, n):
    """exp(-i k*x) [..., n] over the centered indices x of an axis of n,
    bit-identical to np.exp(-1j * (k*x)): cos and sin of k*x at x <= 0, and
    exp(-i k*x) = conj(exp(-i k*(-x))) at x > 0."""
    half = n // 2
    table = np.empty(k.shape + (n,), dtype=np.complex128)
    phase = k[..., None] * np.arange(-half, 1)
    np.cos(phase, out=table.real[..., :half + 1])
    np.sin(-phase, out=table.imag[..., :half + 1])
    table[..., half + 1:] = table[..., 2 * half + 1 - n:half][..., ::-1].conj()
    return table


def _phase_tables(coords, h, w):
    """exp(-i kx*x) [T, S*m, H] and exp(-i ky*y) [T, S*m, W]."""
    flat = coords.reshape(coords.shape[0], -1, 2)
    return _axis_table(flat[..., 0], h), _axis_table(flat[..., 1], w)


def _forward(ex, ey, z):
    """Unscaled forward transform of z [..., T,H,W] -> [..., T, S*m]."""
    return (ex @ z * ey).sum(-1)


def _adjoint(ex, ey, x):
    """Unscaled adjoint transform of x [..., T, S*m] -> [..., T,H,W], as
    conj(ex^T @ (conj(x) * ey)): one conjugate of x and one of the result,
    and none of the phase tables."""
    out = ex.swapaxes(-1, -2) @ (x.conj()[..., None] * ey)
    return np.conjugate(out, out=out)


def _coord_term(a, z, ez, exs, ey, ys):
    """Re(conj(a) d(forward z)/dk) = Im(conj(a_j) sum_{x,y} (x, y) z[t,x,y]
    exp(-i phase_j)), [T, S*m, 2]: the coordinate gradient of one image
    z [T,H,W] under upstream a. `ez` is ex @ z * ey, the forward transform of
    z before its sum over y, and `exs` is ex * x."""
    a = a.conj()
    return np.stack([np.imag(a * _forward(exs, ey, z)), np.imag(a * (ez @ ys))], axis=-1)


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
    is acquired with the same coords, from one build of the phase tables,
    and contracted against them on its own: a broadcast matmul over the
    leading axes is slower, and its backward's transients grow with them.

    With X = A z and complex upstream G, U = A G / (H*W), the coordinate
    gradient is Im(conj(X) d(A G)/dk) / (H*W) + Im(conj(U) d(A z)/dk), each
    term summed over the leading axes.
    """
    z = np.asarray(z, dtype=np.float64)
    *_, t_frames, h, w = z.shape
    images = z.reshape((-1,) + z.shape[-3:])
    cd = _validate_coords(coords.data, t_frames)
    ex, ey = _phase_tables(cd, h, w)
    x = [_forward(ex, ey, zb) for zb in images]
    zt = np.stack([_adjoint(ex, ey, xb) for xb in x]).reshape(z.shape) / (h * w)

    def back(g):
        ex, ey = _phase_tables(cd, h, w)  # rebuilt, not kept alive by the graph
        xs, ys = _centered_axes(h, w)
        exs = ex * xs
        gu = (g[..., 0, :, :, :] + 1j * g[..., 1, :, :, :]).reshape(images.shape)
        adj = fwd = 0.0
        for zb, xb, gb in zip(images, x, gu):
            egu = ex @ gb * ey
            u = egu.sum(-1) / (h * w)
            adj = adj + _coord_term(xb, gb, egu, exs, ey, ys)
            fwd = fwd + _coord_term(u, zb, ex @ zb * ey, exs, ey, ys)
        return (adj.reshape(cd.shape) / (h * w) + fwd.reshape(cd.shape),)

    return Tensor.from_op(np.stack([zt.real, zt.imag], axis=-4), (coords,), back)


def cartesian_grid_coords(t_frames, h, w):
    """Full Cartesian frequency grid in radians, shaped [T, 1, H*W, 2]."""
    fx = 2.0 * np.pi * (np.arange(h) - h // 2) / h
    fy = 2.0 * np.pi * (np.arange(w) - w // 2) / w
    gx, gy = np.meshgrid(fx, fy, indexing="ij")
    frame = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    return np.broadcast_to(frame, (t_frames, 1) + frame.shape).copy()
