"""Exact type-2 nonuniform DFT between image frames and arbitrary k-space coords.

The direct double sum is evaluated through the exact separable factorization

    exp(-i (kx*x + ky*y)) = exp(-i kx*x) * exp(-i ky*y),

so each call builds per-axis phase tables [T, S*m, H] and [T, S*m, W] from
its coordinates and contracts the image against them, batched over frames.
The result is exactly linear in the image and exactly differentiable in the
sample coordinates, and no state is kept between calls. Conventions:

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


def _validate_coords(coords):
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim < 2 or coords.shape[-1] != 2:
        raise AutodiffError(f"coordinates must end in an (kx, ky) pair, got {coords.shape}")
    if np.any(np.abs(coords) > np.pi + 1e-12):
        raise AutodiffError("coordinate component outside [-pi, pi]")
    return coords


def _phase_tables(coords, h, w):
    """exp(-i kx*x) [T, S*m, H] and exp(-i ky*y) [T, S*m, W]."""
    xs, ys = _centered_axes(h, w)
    flat = coords.reshape(coords.shape[0], -1, 2)
    ex = np.exp(-1j * (flat[..., 0, None] * xs))
    ey = np.exp(-1j * (flat[..., 1, None] * ys))
    return ex, ey


def _coord_grad(a, z, coords):
    """Im(conj(a_j) * sum_{x,y} (x, y) z[t,x,y] exp(-i phase_j)) per sample,
    shaped like coords: the coordinate gradient of both transforms, up to
    the adjoint's 1/(H*W)."""
    h, w = z.shape[1:]
    xs, ys = _centered_axes(h, w)
    ex, ey = _phase_tables(coords, h, w)
    a = np.asarray(a, dtype=np.complex128).reshape(ex.shape[:2]).conj()
    fx = ((ex * xs) @ z * ey).sum(-1)
    fy = (ex @ z * ey) @ ys
    return np.stack([np.imag(a * fx), np.imag(a * fy)], axis=-1).reshape(coords.shape)


def nudft_forward(z, coords):
    """z: [T,H,W] (real or complex); coords: [T,S,m,2] -> complex [T,S,m]."""
    z = np.asarray(z)
    coords = _validate_coords(coords)
    t_frames, h, w = z.shape
    if coords.shape[0] != t_frames:
        raise AutodiffError(f"frame count mismatch: image {t_frames}, coords {coords.shape[0]}")
    ex, ey = _phase_tables(coords, h, w)
    return (ex @ z * ey).sum(-1).reshape(coords.shape[:-1])


def nudft_adjoint(x, coords, out_shape):
    """x: complex [T,S,m]; returns complex image [T,H,W], scaled by 1/(H*W)."""
    x = np.asarray(x, dtype=np.complex128)
    coords = _validate_coords(coords)
    t_frames, h, w = out_shape
    if x.shape != coords.shape[:-1]:
        raise AutodiffError(f"sample shape {x.shape} does not match coords {coords.shape[:-1]}")
    if coords.shape[0] != t_frames:
        raise AutodiffError(f"frame count mismatch: image {t_frames}, coords {coords.shape[0]}")
    ex, ey = _phase_tables(coords, h, w)
    xf = x.reshape(t_frames, -1, 1)
    return (ex.conj().swapaxes(1, 2) @ (xf * ey.conj())) / (h * w)


def nudft_grad_coords(z, coords, upstream):
    """Gradient of a real loss through the forward transform w.r.t. coords.

    `upstream` is the complex adjoint sensitivity dL/dX (real and imaginary
    parts being the partials of the real loss). Uses
    dX_j/dkx = sum (-i*x) z exp(-i phase) and grad = Re(conj(U) * dX/dk),
    i.e. Im(conj(U) * sum x z exp(-i phase)).
    """
    z = np.asarray(z)
    coords = _validate_coords(coords)
    return _coord_grad(upstream, z, coords)


def _adjoint_grad_coords(x, coords, upstream, out_shape):
    """Coordinate gradient through the (scaled) adjoint transform.

    z~ = 1/(HW) sum_j X_j e^{+i phase_j}; with complex upstream image G,
    dL/dkx_j = 1/(HW) * Re( i X_j conj( forward(x*G)_j ) )
             = 1/(HW) * Im( conj(X_j) * forward(x*G)_j ).
    """
    h, w = out_shape[1:]
    return _coord_grad(x, np.asarray(upstream, dtype=np.complex128), coords) / (h * w)


# -- autodiff nodes -----------------------------------------------------------

def nudft_forward_op(z, coords):
    """Graph node: real image [T,H,W] x coords Tensor -> samples [2,T,S,m].

    `z` may be a plain array (constant ground truth) or a Tensor.
    """
    z_t = z if isinstance(z, Tensor) else Tensor(np.asarray(z, dtype=np.float64))
    zd = z_t.data
    cd = _validate_coords(coords.data)
    x = nudft_forward(zd, cd)
    data = np.stack([x.real, x.imag])
    t_frames, h, w = zd.shape

    def back(g):
        u = g[0] + 1j * g[1]
        gz = None
        if z_t.requires_grad:
            # forward is linear in z: grad_z = Re(unscaled adjoint of U)
            gz = np.real(nudft_adjoint(u, cd, zd.shape)) * (h * w)
        gc = nudft_grad_coords(zd, cd, u) if coords.requires_grad else None
        return (gz, gc)

    return Tensor.from_op(data, (z_t, coords), back)


def nudft_adjoint_op(xpair, coords, out_shape):
    """Graph node: samples Tensor [2,T,S,m] x coords Tensor -> image [2,T,H,W]."""
    cd = _validate_coords(coords.data)
    x = xpair.data[0] + 1j * xpair.data[1]
    zt = nudft_adjoint(x, cd, out_shape)
    data = np.stack([zt.real, zt.imag])
    h, w = out_shape[1], out_shape[2]

    def back(g):
        gu = g[0] + 1j * g[1]
        gx = None
        if xpair.requires_grad:
            fx = nudft_forward(gu, cd) / (h * w)
            gx = np.stack([fx.real, fx.imag])
        gc = _adjoint_grad_coords(x, cd, gu, out_shape) if coords.requires_grad else None
        return (gx, gc)

    return Tensor.from_op(data, (xpair, coords), back)


def cartesian_grid_coords(t_frames, h, w):
    """Full Cartesian frequency grid in radians, shaped [T, 1, H*W, 2]."""
    fx = 2.0 * np.pi * (np.arange(h) - h // 2) / h
    fy = 2.0 * np.pi * (np.arange(w) - w // 2) / w
    gx, gy = np.meshgrid(fx, fy, indexing="ij")
    frame = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    return np.broadcast_to(frame, (t_frames, 1) + frame.shape).copy()
