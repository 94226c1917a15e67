"""Reverse mode over dense float64 tensors, in graphs one node deep.

A graph node is a `Tensor` built by ``Tensor.from_op`` over leaves, with a
hand-written backward closure: the network `recon.recon_forward`, and
`conv3d`, whose numpy helpers the network's convolutions call; they lower
each convolution to GEMMs against one `_shifts` matrix. The
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


def _shifts(x, k):
    """The [C*kw, n] GEMM operands of x [C,T,H,W] under "same" zero padding
    for odd kernel extents k = (kt, kh, kw), one per tap (dt, dh) in order,
    and (Hp, Wp). They are column ranges of one MEC matrix, lowered along kw
    only (Cho & Brand, arXiv 1706.06873): row (c, dw) is channel c of x,
    padded to [T+kt-1, Hp, Wp] and flattened, from offset dw, so the matrix
    is kw times the padded input. Output (t, i, j) is column
    t*Hp*Wp + i*Wp + j, and tap (dt, dh) starts at dt*Hp*Wp + dh*Wp."""
    kt, kh, kw = k
    c, t, h, w = x.shape
    hp, wp = h + kh - 1, w + kw - 1
    xp = np.pad(x, [(0, 0)] + [(e // 2, e // 2) for e in k]).reshape(c, -1)
    length = xp.shape[1] - kw + 1
    m = np.empty((c, kw, length))
    for dw in range(kw):
        m[:, dw] = xp[:, dw:dw + length]
    m, n = m.reshape(c * kw, length), (t - 1) * hp * wp + (h - 1) * wp + w
    return [m[:, o:o + n] for o in ((dt * hp + dh) * wp for dt in range(kt)
                                    for dh in range(kh))], (hp, wp)


def conv3d_forward(x, w):
    """3D cross-correlation with "same" zero padding of arrays x [C_in,T,H,W]
    and w [C_out, C_in, kt, kh, kw] with odd kernel extents: [C_out,T,H,W].
    One GEMM per tap (dt, dh) against its `_shifts` operand, summed on the
    padded [T, Hp, Wp] grid, then cropped."""
    if x.ndim != 4 or w.ndim != 5:
        raise AutodiffError("conv3d expects x rank 4 and w rank 5")
    cout, cin, *k = w.shape
    if x.shape[0] != cin:
        raise AutodiffError(f"conv3d channel mismatch: {x.shape[0]} vs {cin}")
    if any(n % 2 == 0 for n in k):
        raise AutodiffError("conv3d kernel extents must be odd")
    operands, (hp, wp) = _shifts(x, k)
    t, h, wd = x.shape[1:]
    taps = w.reshape(cout, cin, -1, k[2])
    out, prod = np.empty((cout, t * hp * wp)), np.empty((cout, operands[0].shape[1]))
    acc = out[:, :prod.shape[1]]
    for i, op in enumerate(operands):
        np.matmul(taps[:, :, i].reshape(cout, -1), op, out=prod if i else acc)
        if i:
            acc += prod
    return out.reshape(cout, t, hp, wp)[:, :, :h, :wd]


def conv3d_grad_weight(g, x, w_shape):
    """The gradient of `conv3d_forward(x, w)` in w for upstream g: g placed on
    the padded grid of `_shifts`, zeros elsewhere, times each tap's operand."""
    cout, cin, *k = w_shape
    operands, (hp, wp) = _shifts(x, k)
    t, h, wd = x.shape[1:]
    gp = np.zeros((cout, t, hp, wp))
    gp[:, :, :h, :wd] = g
    gp = gp.reshape(cout, -1)[:, :operands[0].shape[1]]
    gw = np.empty((cout, cin, len(operands), k[2]))
    for i, op in enumerate(operands):
        gw[:, :, i] = (gp @ op.T).reshape(cout, cin, k[2])
    return gw.reshape(w_shape)


def conv3d_grad_input(g, w):
    """The gradient of `conv3d_forward(x, w)` in x for upstream g: g correlated
    with the kernel flipped in space and transposed in channels."""
    return conv3d_forward(g, w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4))


def conv3d(x, w):
    """`conv3d_forward` as a graph node over the Tensors x and w. The output
    and each of the two gradients is one matmul per tap (dt, dh) against the
    `_shifts` operands, which the backward rebuilds; it skips the gradient of
    an operand without grad."""
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
