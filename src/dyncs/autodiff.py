"""Reverse mode over dense float64 tensors, in graphs one node deep.

A graph node is a `Tensor` built by ``Tensor.from_op`` over leaves, with a
hand-written backward closure: the network `recon.recon_forward`, and
`conv3d`, whose numpy helpers the network's convolutions call. The
acquisition `nufft.acquire` is no node: it returns its output and a vjp, and
`pipeline._fit` seeds that vjp with the gradients of the window leaves the
network ran on. The losses are not nodes either: `pipeline.loss_main` and
`pipeline.loss_refine` return their gradient in closed form, and `backward`
starts from a node seeded with it. Everything is float64; NaN or Inf
entering any node is an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AutodiffError(ValueError):
    """Raised on shape mismatches, non-finite values or misuse of a graph."""


def _check_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise AutodiffError(f"non-finite values in {what}")


class Tensor:
    """A dense float64 tensor: a leaf, or a graph node over leaves."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward", "_done")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, "tensor")
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._prev = ()
        self._backward = None
        self._done = False

    @staticmethod
    def from_op(data, parents, backward):
        """Build a graph node over leaf `parents`.

        `backward` is called with the upstream gradient and must return one
        gradient array (or None) per entry of `parents`. A parent that is
        itself a node is an error, so no gradient can stop at an inner node.
        """
        if any(p._backward is not None or p._done for p in parents):
            raise AutodiffError("a graph node's parents must be leaves, not nodes")
        out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
        if out.requires_grad:
            out._prev = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    def backward(self, seed=None):
        backward(self, seed)


def _columns(x, k):
    """The im2col matrix of x [C,T,H,W] under "same" zero padding for odd
    kernel extents k = (kt, kh, kw), as one [C*kh*kw, T*H*W] view per frame
    shift dt, rows (c, dh, dw). It is built over the two spatial axes only:
    the view of shift dt is the column range from dt*H*W of one
    [C*kh*kw, (T+kt-1)*H*W] matrix over the time-padded volume."""
    pad = [(0, 0)] + [(n // 2, n // 2) for n in k]
    view = np.lib.stride_tricks.sliding_window_view(np.pad(x, pad), k[1:], axis=(2, 3))
    hw, n = x[0, 0].size, x[0].size
    cols = view.transpose(0, 4, 5, 1, 2, 3).reshape(-1, n + (k[0] - 1) * hw)
    return [cols[:, dt * hw:dt * hw + n] for dt in range(k[0])]


def conv3d_forward(x, w):
    """3D cross-correlation with "same" zero padding of arrays x [C_in,T,H,W]
    and w [C_out, C_in, kt, kh, kw] with odd kernel extents: [C_out,T,H,W]."""
    if x.ndim != 4 or w.ndim != 5:
        raise AutodiffError("conv3d expects x rank 4 and w rank 5")
    cout, cin, *k = w.shape
    if x.shape[0] != cin:
        raise AutodiffError(f"conv3d channel mismatch: {x.shape[0]} vs {cin}")
    if any(n % 2 == 0 for n in k):
        raise AutodiffError("conv3d kernel extents must be odd")
    shifts = _columns(x, k)
    out = w[:, :, 0].reshape(cout, -1) @ shifts[0]
    for dt in range(1, k[0]):
        out += w[:, :, dt].reshape(cout, -1) @ shifts[dt]
    return out.reshape((cout,) + x.shape[1:])


def conv3d_grad_weight(g, x, w_shape):
    """The gradient of `conv3d_forward(x, w)` in w for upstream g."""
    cout, cin, _, kh, kw = w_shape
    gw, g = np.empty(w_shape), g.reshape(cout, -1)
    for dt, cols in enumerate(_columns(x, w_shape[2:])):
        gw[:, :, dt] = (g @ cols.T).reshape(cout, cin, kh, kw)
    return gw


def conv3d_grad_input(g, w):
    """The gradient of `conv3d_forward(x, w)` in x for upstream g: g correlated
    with the kernel flipped in space and transposed in channels."""
    return conv3d_forward(g, w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4))


def conv3d(x, w):
    """`conv3d_forward` as a graph node over the Tensors x and w. Each of the
    output and the two gradients is one matmul per frame shift against
    `_columns`, which the backward rebuilds; it skips the gradient of an
    operand without grad."""
    out = conv3d_forward(x.data, w.data)

    def back(g):
        return (conv3d_grad_input(g, w.data) if x.requires_grad else None,
                conv3d_grad_weight(g, x.data, w.data.shape) if w.requires_grad else None)

    return Tensor.from_op(out, (x, w), back)


# -- backward pass ----------------------------------------------------------

def backward(output, seed=None):
    """Sweep the one node `output`: call its backward closure once under
    `seed` (ones by default) and add each gradient it returns to `.grad` of
    its parent, if that parent requires grad. The node is consumed: it drops
    its closure and parents, freeing what they hold. Gradients accumulate, so
    nodes sharing leaves (e.g. batch elements) can be swept in turn."""
    if output._done:
        raise AutodiffError("node already consumed by a previous backward pass")
    if output._backward is None:
        raise AutodiffError("backward needs a graph node with a parent that requires grad")
    if seed is None:
        seed = np.ones_like(output.data)
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != output.data.shape:
        raise AutodiffError(f"seed shape {seed.shape} != output shape {output.data.shape}")
    _check_finite(seed, "seed")
    for parent, grad in zip(output._prev, output._backward(seed)):
        if grad is None or not parent.requires_grad:
            continue
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != parent.shape:
            raise AutodiffError(f"gradient shape {grad.shape} != tensor shape {parent.shape}")
        if parent.grad is None:
            parent.grad = grad.copy()
        else:
            parent.grad = parent.grad + grad
    output._done, output._backward, output._prev = True, None, ()


# -- Adam ---------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    lr: float = 1e-3

    @classmethod
    def init(cls, shape, lr):
        if lr <= 0:
            raise AutodiffError("Adam learning rate must be positive")
        return cls(m=np.zeros(shape), v=np.zeros(shape), step_count=0, lr=lr)


def adam_step(param, grad, state):
    """One Adam update with bias correction; returns (new_param, state)."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != param.shape or state.m.shape != param.shape:
        raise AutodiffError("adam_step shape mismatch")
    _check_finite(grad, "gradient")
    state.step_count += 1
    state.m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grad
    state.v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grad * grad
    mhat = state.m / (1 - ADAM_BETA1 ** state.step_count)
    vhat = state.v / (1 - ADAM_BETA2 ** state.step_count)
    new_param = param - state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return new_param, state
