"""Finite-difference gradient check shared by the test modules."""

import numpy as np

from dyncs.autodiff import AutodiffError, Tensor


def grad_check(f, x0, h=1e-5):
    """Max relative error between the analytic gradient of `f` at x0 and
    central differences of its value, probing every coordinate of x0.

    `f` maps an array x to (scalar value, gradient of the value in x).
    """
    if not (0.0 < h <= 1e-2):
        raise AutodiffError("step h must lie in (0, 1e-2]")
    x0 = np.asarray(x0, dtype=np.float64)
    analytic = np.asarray(f(x0.copy())[1], dtype=np.float64).ravel()

    flat = x0.ravel().copy()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (+1.0, -1.0):
            flat[i] += sign * h
            val = float(f(flat.reshape(x0.shape))[0])
            if not np.isfinite(val):
                raise AutodiffError("function non-finite at finite-difference probe")
            numeric[i] += sign * val
            flat[i] -= sign * h
        numeric[i] /= 2.0 * h
    return float(np.max(np.abs(analytic - numeric)
                        / (np.abs(analytic) + np.abs(numeric) + 1e-12)))


def seeded(node_of, seed):
    """An `f` for `grad_check` from a graph: x -> (sum(seed * out), its
    gradient in x), where out = node_of(Tensor(x)) and its backward is
    seeded with `seed`."""
    def f(x):
        probe = Tensor(x, requires_grad=True)
        out = node_of(probe)
        out.backward(seed)
        return float((out.data * seed).sum()), probe.grad
    return f
