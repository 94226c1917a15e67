"""Spans recorded from outside the program, around calls into each layer.

`Tracer.installed()` swaps selected module attributes of dyncs for wrappers
that record a span (name, start, end, parent, round) in memory, plus computed
work counts, and restores the originals on exit. Attributes are patched where
the caller looks them up: `pipeline` imports several names directly, so those
are wrapped in `pipeline`'s namespace. An attribute that no longer exists is
skipped, and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

BACKWARD = "autodiff.backward"


def _tensor_shape(x):
    return np.shape(getattr(x, "data", x))


def _nudft_terms(coords_arg, pixels):
    shape = _tensor_shape(coords_arg)
    return int(np.prod(shape[:-1])) * pixels


def _forward_terms(z, coords, *_):
    return _nudft_terms(coords, int(np.prod(_tensor_shape(z)[1:])))


def _adjoint_terms(x, coords, *args):
    out_shape = args[-1]
    return _nudft_terms(coords, int(out_shape[1]) * int(out_shape[2]))


def _conv3d_macs(x, w, *_):
    return int(np.prod(_tensor_shape(w))) * int(np.prod(_tensor_shape(x)[1:]))


# (module name, attribute, span name, work counter or None). A "Class.method"
# attribute patches the method on the class.
PATCHES = (
    ("autodiff", "backward", BACKWARD, None),
    ("autodiff", "conv3d", "autodiff.conv3d", _conv3d_macs),
    ("autodiff", "softmax", "autodiff.softmax", None),
    ("autodiff", "layer_norm", "autodiff.layer_norm", None),
    ("pipeline", "adam_step", "autodiff.adam", None),
    ("nufft", "nudft_forward", "nufft.forward", _forward_terms),
    ("nufft", "nudft_adjoint", "nufft.adjoint", _adjoint_terms),
    ("nufft", "nudft_grad_coords", "nufft.grad_coords", _forward_terms),
    ("nufft", "_adjoint_grad_coords", "nufft.adjoint_grad_coords", _adjoint_terms),
    ("nufft", "_PhaseCache.get", "nufft.phase_cache", None),
    ("pipeline", "project_kinematic", "trajectory.project", None),
    ("pipeline", "feasibility_report", "trajectory.feasibility", None),
    ("pipeline", "recon_forward", "recon.forward", None),
    ("recon", "wmsa_forward", "recon.wmsa", None),
    ("pipeline", "acquire", "pipeline.acquire", None),
    ("pipeline", "train_main", "pipeline.train_main", None),
    ("pipeline", "train_refine", "pipeline.train_refine", None),
    ("pipeline", "evaluate_stacked", "pipeline.evaluate_stacked", None),
    ("metrics", "fsim", "metrics.fsim", None),
    ("metrics", "vif_p", "metrics.vif", None),
    ("metrics", "psnr", "metrics.psnr", None),
    ("data", "gen_phantom", "data.gen", None),
)
# Counted, not timed: the FISTA loop calls this once per dual block per
# iteration, i.e. twice per iteration for curves of three or more points.
COUNTS = (("trajectory", "_block_shrink", "trajectory.shrink"),)

NUFFT_FUNCS = ("forward", "adjoint", "grad_coords", "adjoint_grad_coords")
PIPELINE_SELF = ("pipeline.train_main", "pipeline.train_refine",
                 "pipeline.evaluate_stacked")


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # {"nufft": <module>, ...}
        self.spans = []         # [name, start, end, parent index, round]
        self.work = defaultdict(int)
        self.round = -1
        self._stack = []

    def _wrap(self, fn, name, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if work is not None:
                self.work[name] += work(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def _count(self, fn, key):
        def counted(*args, **kwargs):
            self.work[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        wrappers = [(m, a, lambda f, n=n, w=w: self._wrap(f, n, w)) for m, a, n, w in PATCHES]
        wrappers += [(m, a, lambda f, n=n: self._count(f, n)) for m, a, n in COUNTS]
        undo = []
        try:
            for mod_name, attr, wrap in wrappers:
                owner = self.modules[mod_name]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name, None)
                if owner is None or not hasattr(owner, attr):
                    continue
                orig = getattr(owner, attr)
                setattr(owner, attr, wrap(orig))
                undo.append((owner, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def self_times(self):
        """{name: [self seconds, calls, self seconds under autodiff.backward]}."""
        child = [0.0] * len(self.spans)
        under_bwd = [False] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                under_bwd[i] = under_bwd[parent] or self.spans[parent][0] == BACKWARD
        out = defaultdict(lambda: [0.0, 0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own = (end - start) - child[i]
            acc = out[name]
            acc[0] += own
            acc[1] += 1
            if under_bwd[i]:
                acc[2] += own
        return out

    def layer_metrics(self, n_rounds):
        """Per-round self times (s) and counts from the recorded spans."""
        st = self.self_times()

        def secs(name):
            return st[name][0] / n_rounds

        def calls(name):
            return st[name][1] / n_rounds

        m = {}
        for f in NUFFT_FUNCS:
            m[f"nufft.{f}_s"] = secs(f"nufft.{f}")
            m[f"nufft.{f}_from_backward_s"] = st[f"nufft.{f}"][2] / n_rounds
        m["nufft.phase_cache_s"] = secs("nufft.phase_cache")
        m["nufft.phase_cache_calls"] = calls("nufft.phase_cache")
        m["nufft.calls"] = sum(calls(f"nufft.{f}") for f in NUFFT_FUNCS)
        m["nufft.terms"] = sum(self.work[f"nufft.{f}"] for f in NUFFT_FUNCS) / n_rounds
        m["trajectory.project_s"] = secs("trajectory.project")
        m["trajectory.project_calls"] = calls("trajectory.project")
        m["trajectory.fista_iters"] = self.work["trajectory.shrink"] / 2 / n_rounds
        m["trajectory.feasibility_s"] = secs("trajectory.feasibility")
        m["recon.forward_s"] = secs("recon.forward")
        m["recon.wmsa_s"] = secs("recon.wmsa")
        m["recon.calls"] = calls("recon.forward")
        m["autodiff.backward_s"] = secs(BACKWARD)
        m["autodiff.conv3d_s"] = secs("autodiff.conv3d")
        m["autodiff.conv3d_macs"] = self.work["autodiff.conv3d"] / n_rounds
        m["autodiff.softmax_s"] = secs("autodiff.softmax")
        m["autodiff.layer_norm_s"] = secs("autodiff.layer_norm")
        m["autodiff.adam_s"] = secs("autodiff.adam")
        m["pipeline.acquire_s"] = secs("pipeline.acquire")
        m["pipeline.self_s"] = sum(secs(n) for n in PIPELINE_SELF)
        m["metrics.fsim_s"] = secs("metrics.fsim")
        m["metrics.vif_s"] = secs("metrics.vif")
        m["metrics.psnr_s"] = secs("metrics.psnr")
        return m

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent, rnd]
                for n, start, end, parent, rnd in self.spans]
        path.write_text(json.dumps({"names": names,
                                    "columns": ["name", "start", "end", "parent", "round"],
                                    "spans": rows}))
