"""Finite-difference gradient check shared by the test modules."""

import numpy as np

from dyncs.autodiff import AutodiffError, Tensor


def grad_check(f, x, h=1e-5):
    """Max relative error between analytic and central-difference gradients.

    `f` maps a Tensor to a scalar Tensor; probes every coordinate of `x`.
    """
    if not (0.0 < h <= 1e-2):
        raise AutodiffError("step h must lie in (0, 1e-2]")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.data.size != 1:
        raise AutodiffError("grad_check requires a scalar-valued function")
    out.backward()
    analytic = probe.grad.ravel() if probe.grad is not None else np.zeros(probe.size)

    flat = x.data.ravel().copy()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (+1.0, -1.0):
            flat[i] += sign * h
            val = f(Tensor(flat.reshape(x.data.shape))).item()
            if not np.isfinite(val):
                raise AutodiffError("function non-finite at finite-difference probe")
            numeric[i] += sign * val
            flat[i] -= sign * h
        numeric[i] /= 2.0 * h
    return float(np.max(np.abs(analytic - numeric)
                        / (np.abs(analytic) + np.abs(numeric) + 1e-12)))
