"""Reverse-mode automatic differentiation over dense float64 tensors.

The op set is deliberately small and closed: add/sub/mul, basic slicing,
concat, sum/mean, abs/relu and conv3d. Custom nodes (the acquisition
`nufft.acquire`, the network `recon.recon_forward`) attach their own backward
closures via ``Tensor.from_op``; the network's convolutions use conv3d's numpy
helpers. Everything is float64; NaN or Inf entering any op is an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AutodiffError(ValueError):
    """Raised on shape mismatches, non-finite values or misuse of a graph."""


def _check_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise AutodiffError(f"non-finite values in {what}")


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A dense float64 tensor node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward", "_done")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, "tensor")
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._prev = ()
        self._backward = None
        self._done = False

    # -- graph plumbing ----------------------------------------------------

    @staticmethod
    def from_op(data, parents, backward):
        """Build a non-leaf node.

        `backward` is called with the upstream gradient and must return one
        gradient array (or None) per entry of `parents`.
        """
        out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
        if out.requires_grad:
            out._prev = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def _accumulate(self, grad):
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise AutodiffError(
                f"gradient shape {grad.shape} != tensor shape {self.data.shape}")
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, seed=None):
        backward(self, seed)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=np.float64))

    def __add__(self, other):
        other = self._coerce(other)
        return Tensor.from_op(
            self.data + other.data, (self, other),
            lambda g: (_unbroadcast(g, self.data.shape),
                       _unbroadcast(g, other.data.shape)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Tensor.from_op(
            self.data - other.data, (self, other),
            lambda g: (_unbroadcast(g, self.data.shape),
                       _unbroadcast(-g, other.data.shape)))

    def __mul__(self, other):
        other = self._coerce(other)
        return Tensor.from_op(
            self.data * other.data, (self, other),
            lambda g: (_unbroadcast(g * other.data, self.data.shape),
                       _unbroadcast(g * self.data, other.data.shape)))

    __rmul__ = __mul__

    # -- indexing ----------------------------------------------------------

    def __getitem__(self, idx):
        # basic indices select distinct entries, so the backward assigns g
        parts = idx if isinstance(idx, tuple) else (idx,)
        if any(isinstance(p, bool) or not isinstance(
                p, (int, np.integer, slice, type(None), type(Ellipsis))) for p in parts):
            raise AutodiffError(f"only basic indices are supported, got {idx!r}")

        def back(g):
            full = np.zeros_like(self.data)
            full[idx] = g
            return (full,)

        return Tensor.from_op(self.data[idx], (self,), back)

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def back(g):
            g = np.asarray(g, dtype=np.float64)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.data.shape).copy(),)

        return Tensor.from_op(data, (self,), back)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- nonlinearities ----------------------------------------------------

    def abs(self):
        return Tensor.from_op(np.abs(self.data), (self,),
                              lambda g: (g * np.sign(self.data),))

    def relu(self):
        mask = self.data > 0
        return Tensor.from_op(self.data * mask, (self,), lambda g: (g * mask,))


def concat(tensors, axis=0):
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor.from_op(data, tuple(tensors), back)


def _columns(x, k):
    """The im2col matrix of x [C,T,H,W] under "same" zero padding for odd
    kernel extents k = (kt, kh, kw): [C*kt*kh*kw, T*H*W], rows (c, dt, dh, dw)."""
    pad = [(0, 0)] + [(n // 2, n // 2) for n in k]
    view = np.lib.stride_tricks.sliding_window_view(np.pad(x, pad), k, axis=(1, 2, 3))
    return view.transpose(0, 4, 5, 6, 1, 2, 3).reshape(-1, x[0].size)


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
    return (w.reshape(cout, -1) @ _columns(x, k)).reshape((cout,) + x.shape[1:])


def conv3d_grad_weight(g, x, w_shape):
    """The gradient of `conv3d_forward(x, w)` in w for upstream g."""
    return (g.reshape(w_shape[0], -1) @ _columns(x, w_shape[2:]).T).reshape(w_shape)


def conv3d_grad_input(g, w):
    """The gradient of `conv3d_forward(x, w)` in x for upstream g: g correlated
    with the kernel flipped in space and transposed in channels."""
    w_adj = w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4).reshape(w.shape[1], -1)
    return (w_adj @ _columns(g, w.shape[2:])).reshape((w.shape[1],) + g.shape[1:])


def conv3d(x, w):
    """`conv3d_forward` as a graph node over the Tensors x and w. Each of the
    output and the two gradients is one matmul against `_columns`, which the
    backward rebuilds; it skips the gradient of an operand without grad."""
    out = conv3d_forward(x.data, w.data)

    def back(g):
        return (conv3d_grad_input(g, w.data) if x.requires_grad else None,
                conv3d_grad_weight(g, x.data, w.data.shape) if w.requires_grad else None)

    return Tensor.from_op(out, (x, w), back)


# -- backward pass ----------------------------------------------------------

def _toposort(root):
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._prev:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(output, seed=None):
    """Reverse-mode sweep from `output`.

    The graph is consumed: a second sweep from the same output is an error.
    Gradients accumulate into `.grad` of every requires_grad leaf, so several
    graphs sharing leaves (e.g. batch elements) can be swept in turn.
    """
    if not output.requires_grad:
        raise AutodiffError("output does not require grad")
    if output._done:
        raise AutodiffError("graph already consumed by a previous backward pass")
    if seed is None:
        seed = np.ones_like(output.data)
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != output.data.shape:
        raise AutodiffError(f"seed shape {seed.shape} != output shape {output.data.shape}")

    order = _toposort(output)
    output._accumulate(seed)
    for node in reversed(order):
        node._done = True
        if node._backward is None or node.grad is None:
            continue
        _check_finite(node.grad, "intermediate gradient")
        contribs = node._backward(node.grad)
        for parent, contrib in zip(node._prev, contribs):
            if contrib is not None and parent.requires_grad:
                parent._accumulate(contrib)
        if node is not output:
            node.grad = None  # free intermediates


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
