"""Exact type-2 nonuniform DFT between image frames and arbitrary k-space
coords, and the emulated acquisition AᴴA as a (regrid, vjp) pair.

Each call works frame by frame: it builds frame t's per-axis phase tables
[S*m, H] and [S*m, W] from that frame's coordinates, by the exact
factorization exp(-i (kx*x + ky*y)) = exp(-i kx*x) * exp(-i ky*y), contracts
the frame against them and lets them go before the next frame; no state is
kept between calls. A table takes cos and sin only at x <= 0 and fills x > 0
by conjugation. `acquire` also takes leading batch axes: images
[..., T, H, W] share each frame's tables, built once per forward and once
per vjp call, and are contracted against them one image at a time; its vjp
gives the one coordinate gradient: the adjoint transform's term plus the
forward's, each summed over those axes. Conventions:

  * coordinates are angular frequencies in radians, each component in [-pi, pi];
  * image indices are centered: x in {-H//2, ..., H - H//2 - 1}, y likewise;
  * forward:  X[t,j] = sum_{x,y} z[t,x,y] * exp(-i (kx*x + ky*y))
  * adjoint:  z~[t,x,y] = 1/(H*W) * sum_j X[t,j] * exp(+i (kx*x + ky*y))

The 1/(H*W) scaling makes adjoint(forward(.)) the identity on a full
Cartesian frequency grid.
"""

from __future__ import annotations

import numpy as np

from .autodiff import AutodiffError


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


def _phase_tables(coords, t, h, w):
    """exp(-i kx*x) [S*m, H] and exp(-i ky*y) [S*m, W] of frame t."""
    flat = coords[t].reshape(-1, 2)
    return _axis_table(flat[:, 0], h), _axis_table(flat[:, 1], w)


def _product(ex, ey, z):
    """ex @ z * ey [S*m, W] of one frame z [H,W], formed in place: the
    forward transform before its sum over y."""
    p = ex @ z
    p *= ey
    return p


def _adjoint(ex, ey, x):
    """Unscaled adjoint transform of one frame's samples x [S*m] -> [H,W], as
    conj(ex^T @ (conj(x) * ey)): one conjugate of x and one of the result,
    and none of the phase tables."""
    out = ex.T @ (x.conj()[:, None] * ey)
    return np.conjugate(out, out=out)


def _coord_term(a, z, ez, exs, ey, ys):
    """Re(conj(a) d(forward z)/dk) = Im(conj(a_j) sum_{x,y} (x, y) z[x,y]
    exp(-i phase_j)), [S*m, 2]: the coordinate gradient of one frame z [H,W]
    under upstream a. `ez` is _product(ex, ey, z) and `exs` is ex * x."""
    a = a.conj()
    return np.stack([np.imag(a * _product(exs, ey, z).sum(-1)), np.imag(a * (ez @ ys))],
                    axis=-1)


def nudft_forward(z, coords):
    """z: [T,H,W] (real or complex); coords: [T,S,m,2] -> complex [T,S,m]."""
    z = np.asarray(z)
    t_frames, h, w = z.shape
    coords = _validate_coords(coords, t_frames)
    out = [_product(*_phase_tables(coords, t, h, w), z[t]).sum(-1) for t in range(t_frames)]
    return np.stack(out).reshape(coords.shape[:-1])


def nudft_adjoint(x, coords, out_shape):
    """x: complex [T,S,m]; returns complex image [T,H,W], scaled by 1/(H*W)."""
    x = np.asarray(x, dtype=np.complex128)
    t_frames, h, w = out_shape
    coords = _validate_coords(coords, t_frames)
    if x.shape != coords.shape[:-1]:
        raise AutodiffError(f"sample shape {x.shape} does not match coords {coords.shape[:-1]}")
    x = x.reshape(t_frames, -1)
    out = [_adjoint(*_phase_tables(coords, t, h, w), x[t]) for t in range(t_frames)]
    return np.stack(out) / (h * w)


def _acquire_frame(coords, t, frames, x, zt):
    """Frame t of every image (frames [B,H,W]): its samples into x [B,S*m]
    and its unscaled AᴴA into zt [B,H,W]. The tables are built here and go
    with the return."""
    ex, ey = _phase_tables(coords, t, *frames.shape[1:])
    for b, frame in enumerate(frames):
        x[b] = _product(ex, ey, frame).sum(-1)
        zt[b] = _adjoint(ex, ey, x[b])


def _frame_coord_grads(coords, t, frames, xt, gt):
    """Frame t's two coordinate-gradient terms [S*m, 2], each summed over the
    images (frames [B,H,W], samples xt [B,S*m], upstream gt [B,H,W]): the
    adjoint transform's, still unscaled by 1/(H*W), and the forward's. The
    tables are built here and go with the return."""
    h, w = frames.shape[1:]
    ex, ey = _phase_tables(coords, t, h, w)
    xs, ys = _centered_axes(h, w)
    exs = ex * xs
    adj = fwd = 0.0
    for zb, xb, gb in zip(frames, xt, gt):
        egu = _product(ex, ey, gb)
        u = egu.sum(-1) / (h * w)
        adj = adj + _coord_term(xb, gb, egu, exs, ey, ys)
        fwd = fwd + _coord_term(u, zb, _product(ex, ey, zb), exs, ey, ys)
    return adj, fwd


def acquire(z, coords):
    """Emulated acquisition AᴴA z / (H*W) of real images z [..., T,H,W] on the
    coordinate array [T,S,m,2]: (regrid, vjp). regrid holds the regridded
    volumes as (real, imag) channels [..., 2,T,H,W]; each pass builds each
    frame's phase tables once, serving every image along the leading axes.

    vjp(g), for a finite g of regrid's shape, is the coordinate gradient
    [T,S,m,2]: with X = A z, complex upstream G and U = A G / (H*W), it is
    Im(conj(X) d(A G)/dk) / (H*W) + Im(conj(U) d(A z)/dk), each term summed
    over the leading axes. It keeps no state, so each call is a fresh pass.
    """
    z = np.asarray(z, dtype=np.float64)
    *_, t_frames, h, w = z.shape
    images = z.reshape((-1,) + z.shape[-3:])
    coords = _validate_coords(coords, t_frames)
    x = np.empty(images.shape[:2] + (coords[0].size // 2,), dtype=np.complex128)
    zt = np.empty(images.shape, dtype=np.complex128)
    for t in range(t_frames):
        _acquire_frame(coords, t, images[:, t], x[:, t], zt[:, t])
    zt /= h * w
    regrid = np.stack([zt.real, zt.imag], axis=1).reshape(z.shape[:-3] + (2,) + z.shape[-3:])

    def vjp(g):
        if np.shape(g) != regrid.shape or not np.all(np.isfinite(g)):
            raise AutodiffError(f"a vjp seed must be finite and of shape {regrid.shape}")
        g = np.reshape(g, (-1, 2) + images.shape[1:])
        terms = [_frame_coord_grads(coords, t, images[:, t], x[:, t], g[:, 0, t] + 1j * g[:, 1, t])
                 for t in range(t_frames)]
        adj, fwd = (np.stack(part).reshape(coords.shape) for part in zip(*terms))
        return adj / (h * w) + fwd

    return regrid, vjp


def cartesian_grid_coords(t_frames, h, w):
    """Full Cartesian frequency grid in radians, shaped [T, 1, H*W, 2]."""
    fx = 2.0 * np.pi * (np.arange(h) - h // 2) / h
    fy = 2.0 * np.pi * (np.arange(w) - w // 2) / w
    gx, gy = np.meshgrid(fx, fy, indexing="ij")
    frame = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    return np.broadcast_to(frame, (t_frames, 1) + frame.shape).copy()
