"""Reconstruction network: 3D convolutions interleaved with unshifted
3D window multi-head self-attention.

Input is the 2-channel (real, imag) regridded volume [2,T,H,W]; output is a
single real channel [T,H,W]. Window attention mixes tokens only inside
non-overlapping (wt, wh, ww) windows; the convolutions provide cross-window
communication. No window shifting and no relative position bias.

The network is one graph node, `recon_forward`, over the input and every
parameter. `_net_forward` runs it in numpy (conv_in; per block pad, window
partition, transformer block `_block_forward`, unpartition, crop, residual
conv; conv_out) and `_net_backward` walks those stages in reverse. The node
keeps only the block and conv inputs; each block's backward recomputes its
attention and MLP activations. Pad tokens are masked as attention keys.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import AutodiffError, Tensor


@dataclass
class ReconConfig:
    channels: int = 16
    n_blocks: int = 2
    heads: int = 4
    window: tuple = (2, 4, 4)
    mlp_ratio: float = 2.0

    def __post_init__(self):
        self.window = tuple(int(v) for v in self.window)
        if self.channels < 1 or self.heads < 1 or self.n_blocks < 0:
            raise AutodiffError("channels and heads must be positive, n_blocks >= 0")
        if self.channels % self.heads != 0:
            raise AutodiffError("channels must be divisible by heads")
        if len(self.window) != 3 or min(self.window) < 1:
            raise AutodiffError("window must be three positive extents")

    def to_dict(self):
        return {"channels": self.channels, "n_blocks": self.n_blocks,
                "heads": self.heads, "window": list(self.window),
                "mlp_ratio": self.mlp_ratio}

    @classmethod
    def from_dict(cls, d):
        return cls(channels=d["channels"], n_blocks=d["n_blocks"], heads=d["heads"],
                   window=tuple(d["window"]), mlp_ratio=d["mlp_ratio"])


@dataclass
class AttentionRecord:
    """Per-window softmax matrices [n_windows, heads, tokens, tokens] plus
    the window-grid geometry needed to locate each window in the volume."""
    weights: np.ndarray
    window: tuple
    grid: tuple        # (n_t, n_h, n_w) windows along each axis
    block_index: int = 0


def window_partition(x, window):
    """[C,T,H,W] array -> [n_windows, tokens, C] by non-overlapping tiling."""
    c, t, h, w = x.shape
    wt, wh, ww = window
    if t % wt or h % wh or w % ww:
        raise AutodiffError(f"volume {t, h, w} not divisible by window {window}")
    nt, nh, nw = t // wt, h // wh, w // ww
    y = x.reshape(c, nt, wt, nh, wh, nw, ww).transpose(1, 3, 5, 2, 4, 6, 0)
    return y.reshape(nt * nh * nw, wt * wh * ww, c)


def window_unpartition(tokens, window, shape):
    """Inverse of window_partition; `shape` is the original (C,T,H,W)."""
    c, t, h, w = shape
    wt, wh, ww = window
    nt, nh, nw = t // wt, h // wh, w // ww
    y = tokens.reshape(nt, nh, nw, wt, wh, ww, c).transpose(6, 0, 3, 1, 4, 2, 5)
    return y.reshape(c, t, h, w)


def _softmax(x):
    """Softmax over the last axis."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize over the last axis, then apply the affine map; returns
    (out, xhat, 1/std), the last two for `_layer_norm_backward`."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return xhat * gamma + beta, xhat, inv


def _layer_norm_backward(g, gamma, xhat, inv):
    """Gradients (x, gamma, beta) of `_layer_norm` for upstream g."""
    gh = g * gamma
    gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    axes = tuple(range(g.ndim - 1))
    return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


def _flat(a):
    """[..., C] -> [tokens, C]."""
    return a.reshape(-1, a.shape[-1])


def _attention(x, wqkv, bqkv, wo, bo, heads, mask=None):
    """Multi-head self-attention within each window of x [n_windows, N, C];
    `mask`, if given, is added to the logits ([n_windows, 1, 1, N], -inf on
    the keys to ignore).

    Returns (out, (q, k, v, weights, heads_out)); `weights` is the softmax
    [n_windows, heads, N, N] and `heads_out` the attention output [n_windows,
    N, C] before the output projection.
    """
    nw, n, c = x.shape
    d = c // heads
    qkv = x @ wqkv + bqkv  # [nw,N,3C]
    q, k, v = (qkv[:, :, i * c:(i + 1) * c].reshape(nw, n, heads, d).transpose(0, 2, 1, 3)
               for i in range(3))  # [nw,h,N,d]
    logits = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(d))
    weights = _softmax(logits if mask is None else logits + mask)
    heads_out = (weights @ v).transpose(0, 2, 1, 3).reshape(nw, n, c)
    return heads_out @ wo + bo, (q, k, v, weights, heads_out)


def _attention_backward(g, x, wqkv, wo, acts, heads):
    """Gradients (x, wqkv, bqkv, wo, bo) of `_attention` for upstream g,
    from the activations `acts` of its forward."""
    q, k, v, weights, heads_out = acts
    nw, n, c = x.shape
    d = c // heads
    gwo, gbo = _flat(heads_out).T @ _flat(g), g.sum(axis=(0, 1))
    gh = (g @ wo.T).reshape(nw, n, heads, d).transpose(0, 2, 1, 3)
    gw = gh @ v.transpose(0, 1, 3, 2)
    gv = weights.transpose(0, 1, 3, 2) @ gh
    glogits = weights * (gw - (gw * weights).sum(axis=-1, keepdims=True)) * (1.0 / np.sqrt(d))
    gq = glogits @ k
    gk = glogits.transpose(0, 1, 3, 2) @ q
    gqkv = np.concatenate([t.transpose(0, 2, 1, 3).reshape(nw, n, c) for t in (gq, gk, gv)],
                          axis=-1)
    return (gqkv @ wqkv.T, _flat(x).T @ _flat(gqkv), gqkv.sum(axis=(0, 1)), gwo, gbo)


# the parameters of one transformer block, in the order of `_block_forward`'s P
BLOCK_PARAMS = ("ln1.g", "ln1.b", "attn.wqkv", "attn.bqkv", "attn.wo", "attn.bo",
                "ln2.g", "ln2.b", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")


def _block_forward(x, P, heads, mask=None):
    """One transformer block on window tokens x [n_windows, N, C]:
    LN1 -> window MHSA (logit `mask` as in `_attention`) -> residual -> LN2 ->
    MLP -> residual.

    P holds the BLOCK_PARAMS arrays in order. Returns (out, acts), where
    `acts` are the activations `_block_backward` needs; acts[2][3] are the
    softmax weights.
    """
    g1, b1, wqkv, bqkv, wo, bo, g2, b2, w1, c1, w2, c2 = P
    n1, xhat1, inv1 = _layer_norm(x, g1, b1)
    att, att_acts = _attention(n1, wqkv, bqkv, wo, bo, heads, mask)
    y1 = x + att
    n2, xhat2, inv2 = _layer_norm(y1, g2, b2)
    hid = n2 @ w1 + c1
    hid = hid * (hid > 0)
    return y1 + (hid @ w2 + c2), ((xhat1, inv1), n1, att_acts, (xhat2, inv2), n2, hid)


def _block_backward(g, x, P, heads, mask=None):
    """Gradients of `_block_forward` for upstream g: the input's, then each
    of P's. Recomputes the forward's activations from x and P."""
    g1, _, wqkv, _, wo, _, g2, _, w1, _, w2, _ = P
    _, (ln1, n1, att_acts, ln2, n2, hid) = _block_forward(x, P, heads, mask)
    # MLP and LN2; the residual adds g
    gw2, gc2 = _flat(hid).T @ _flat(g), g.sum(axis=(0, 1))
    ghid = (g @ w2.T) * (hid > 0)
    gw1, gc1 = _flat(n2).T @ _flat(ghid), ghid.sum(axis=(0, 1))
    gy1, gg2, gb2 = _layer_norm_backward(ghid @ w1.T, g2, *ln2)
    gy1 += g
    # attention and LN1; the residual adds gy1
    gn1, gwqkv, gbqkv, gwo, gbo = _attention_backward(gy1, n1, wqkv, wo, att_acts, heads)
    gx, gg1, gb1 = _layer_norm_backward(gn1, g1, *ln1)
    gx += gy1
    return gx, gg1, gb1, gwqkv, gbqkv, gwo, gbo, gg2, gb2, gw1, gc1, gw2, gc2


def wmsa_forward(tokens: Tensor, params: dict, heads: int, prefix: str,
                 record: bool = False):
    """Multi-head self-attention within each window, as constant values
    (training differentiates it inside the `recon_forward` node).

    tokens: [n_windows, N, C]. Returns (output [n_windows, N, C], softmax
    weights [n_windows, heads, N, N] if `record` else None).
    """
    if tokens.shape[-1] % heads:
        raise AutodiffError("channel dim not divisible by heads")
    out, acts = _attention(tokens.data, *(params[f"{prefix}.{name}"].data
                                          for name in ("wqkv", "bqkv", "wo", "bo")), heads)
    return Tensor(out), (acts[3] if record else None)


def init_recon_params(cfg: ReconConfig, rng: np.random.Generator) -> dict:
    """Scaled-normal initialization; biases start at zero."""
    c = cfg.channels
    hidden = int(round(c * cfg.mlp_ratio))

    def normal(shape, fan_in):
        return Tensor(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape),
                      requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def ones(shape):
        return Tensor(np.ones(shape), requires_grad=True)

    # output conv starts at zero so the untrained network is the zero map;
    # residual conv branches start small to keep early activations tame
    params = {
        "conv_in.w": normal((c, 2, 3, 3, 3), 2 * 27),
        "conv_in.b": zeros((c, 1, 1, 1)),
        "conv_out.w": zeros((1, c, 3, 3, 3)),
        "conv_out.b": zeros((1, 1, 1, 1)),
    }
    for i in range(cfg.n_blocks):
        p = f"block{i}"
        params.update({
            f"{p}.ln1.g": ones((c,)), f"{p}.ln1.b": zeros((c,)),
            f"{p}.ln2.g": ones((c,)), f"{p}.ln2.b": zeros((c,)),
            f"{p}.attn.wqkv": normal((c, 3 * c), c), f"{p}.attn.bqkv": zeros((3 * c,)),
            f"{p}.attn.wo": normal((c, c), c), f"{p}.attn.bo": zeros((c,)),
            f"{p}.mlp.w1": normal((c, hidden), c), f"{p}.mlp.b1": zeros((hidden,)),
            f"{p}.mlp.w2": normal((hidden, c), hidden), f"{p}.mlp.b2": zeros((c,)),
            f"{p}.conv.w": Tensor(
                rng.normal(0.0, 0.1 * np.sqrt(2.0 / (c * 27)), size=(c, c, 3, 3, 3)),
                requires_grad=True),
            f"{p}.conv.b": zeros((c, 1, 1, 1)),
        })
    return params


def _window_geometry(shape, window):
    """(np.pad widths, crop, pad-key logit mask or None) that pad a [C,T,H,W]
    volume symmetrically to the window grid. Each axis pads by less than its
    window extent, so every window keeps a real token."""
    pads = [(0, 0)]
    for size, win in zip(shape[1:], window):
        extra = (-size) % win
        pads.append((extra // 2, extra - extra // 2))
    crop = (slice(None),) + tuple(slice(a, a + n) for (a, _), n in zip(pads[1:], shape[1:]))
    if not any(a or b for a, b in pads):
        return pads, crop, None
    is_pad = window_partition(np.pad(np.zeros((1,) + shape[1:]), pads, constant_values=1.0),
                              window)[:, :, 0]
    return pads, crop, np.where(is_pad > 0, -np.inf, 0.0)[:, None, None, :]


def _block_params(P, i):
    return tuple(P[f"block{i}.{name}"] for name in BLOCK_PARAMS)


def _net_forward(x, P, cfg: ReconConfig, record):
    """The network on the input array x [2,T,H,W] with the parameter arrays
    P {name: array}. Returns (out [T,H,W], saved, records): `saved` holds the
    (block input, residual conv input) of each block, then conv_out's input;
    `records` the blocks' AttentionRecords if `record`."""
    h = ad.conv3d_forward(x, P["conv_in.w"]) + P["conv_in.b"]
    pads, crop, mask = _window_geometry(h.shape, cfg.window)
    saved, records = [], []
    for i in range(cfg.n_blocks):
        xp = np.pad(h, pads)
        win, acts = _block_forward(window_partition(xp, cfg.window), _block_params(P, i),
                                   cfg.heads, mask)
        if record:
            grid = tuple(n // e for n, e in zip(xp.shape[1:], cfg.window))
            records.append(AttentionRecord(acts[2][3], cfg.window, grid, block_index=i))
        del acts  # the backward recomputes the block's activations
        y = window_unpartition(win, cfg.window, xp.shape)[crop]
        saved.append((h, y))
        h = y + ad.conv3d_forward(y, P[f"block{i}.conv.w"]) + P[f"block{i}.conv.b"]
    saved.append(h)
    return (ad.conv3d_forward(h, P["conv_out.w"]) + P["conv_out.b"])[0], saved, records


def _net_backward(g, x, P, cfg: ReconConfig, saved, input_grad):
    """Gradients of `_net_forward` for upstream g [T,H,W] from its `saved`
    arrays: (the input's, None without `input_grad`; {name: gradient})."""
    pads, crop, mask = _window_geometry(x.shape, cfg.window)
    grads = {}

    def conv(name, g, inp, input_grad=True):
        grads[f"{name}.b"] = ad._unbroadcast(g, P[f"{name}.b"].shape)
        grads[f"{name}.w"] = ad.conv3d_grad_weight(g, inp, P[f"{name}.w"].shape)
        return ad.conv3d_grad_input(g, P[f"{name}.w"]) if input_grad else None

    gh = conv("conv_out", g[None], saved[-1])
    for i in reversed(range(cfg.n_blocks)):
        h, y = saved[i]
        gy = gh + conv(f"block{i}.conv", gh, y)
        xp = np.pad(h, pads)
        gwin, *gp = _block_backward(window_partition(np.pad(gy, pads), cfg.window),
                                    window_partition(xp, cfg.window),
                                    _block_params(P, i), cfg.heads, mask)
        grads.update((f"block{i}.{name}", gv) for name, gv in zip(BLOCK_PARAMS, gp))
        gh = window_unpartition(gwin, cfg.window, xp.shape)[crop]
    return conv("conv_in", gh, x, input_grad), grads


def recon_forward(z_regrid: Tensor, cfg: ReconConfig, params: dict,
                  record_attention: bool = False):
    """[2,T,H,W] regridded input -> ([T,H,W] reconstruction, attention records).

    One graph node whose parents are the input and every parameter, in
    sorted name order. With `record_attention` each block's softmax weights
    come from that same forward pass.
    """
    if z_regrid.shape[0] != 2:
        raise AutodiffError("expected a 2-channel (real, imag) input")
    names = sorted(params)
    x, P = z_regrid.data, {n: params[n].data for n in names}
    out, saved, records = _net_forward(x, P, cfg, record_attention)

    def back(g):
        gx, grads = _net_backward(g, x, P, cfg, saved, z_regrid.requires_grad)
        return (gx,) + tuple(grads[n] for n in names)

    return Tensor.from_op(out, (z_regrid,) + tuple(params[n] for n in names), back), records


# -- checkpoints --------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(path, cfg: ReconConfig, params: dict):
    """<path>.json manifest + <path>.bin little-endian float64 blob."""
    path = Path(path)
    names = sorted(params)
    manifest = {"version": CHECKPOINT_VERSION, "config": cfg.to_dict(),
                "params": [{"name": n, "shape": list(params[n].shape)} for n in names]}
    path.with_suffix(".json").write_text(json.dumps(manifest, indent=2))
    blob = b"".join(params[n].data.astype("<f8").tobytes() for n in names)
    path.with_suffix(".bin").write_bytes(blob)


def load_checkpoint(path):
    path = Path(path)
    manifest = json.loads(path.with_suffix(".json").read_text())
    if manifest["version"] != CHECKPOINT_VERSION:
        raise AutodiffError(f"unsupported checkpoint version {manifest['version']}")
    cfg = ReconConfig.from_dict(manifest["config"])
    blob = path.with_suffix(".bin").read_bytes()
    params, offset = {}, 0
    for entry in manifest["params"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        chunk = blob[offset:offset + 8 * count]
        if len(chunk) != 8 * count:
            raise AutodiffError("checkpoint blob truncated")
        params[entry["name"]] = Tensor(
            np.frombuffer(chunk, dtype="<f8").reshape(shape).copy(), requires_grad=True)
        offset += 8 * count
    if offset != len(blob):
        raise AutodiffError("checkpoint blob larger than manifest declares")
    return cfg, params


def export_attention(record: AttentionRecord, region, path):
    """Dump the attention maps of the windows covering a spatial region.

    region = (t, y, x, extent): all windows of the temporal slab containing
    frame t whose spatial tile lies inside the extent x extent square at
    (y, x). A 16x16 region with 4x4 spatial windows yields 16 maps.
    """
    t, y, x, extent = region
    wt, wh, ww = record.window
    nt, nh, nw = record.grid
    if (t < 0 or t >= nt * wt or y < 0 or x < 0
            or y + extent > nh * wh or x + extent > nw * ww):
        raise AutodiffError("attention export region out of bounds")
    if y % wh or x % ww or extent % wh or extent % ww:
        raise AutodiffError("region must align with the spatial window grid")

    ti = t // wt
    rows = range(y // wh, (y + extent) // wh)
    cols = range(x // ww, (x + extent) // ww)
    path = Path(path)
    n_maps = 0
    with open(path.with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_t", "window_y", "window_x", "head", "row"]
                        + [f"c{j}" for j in range(record.weights.shape[-1])])
        for r in rows:
            for cc in cols:
                widx = (ti * nh + r) * nw + cc
                n_maps += 1  # one map per window; heads are slices of the map
                for head in range(record.weights.shape[1]):
                    for row_i, row in enumerate(record.weights[widx, head]):
                        writer.writerow([ti, r, cc, head, row_i]
                                        + [format(v, ".17g") for v in row])
    geometry = {"window": list(record.window), "grid": list(record.grid),
                "region": list(region), "n_maps": n_maps,
                "tokens": int(record.weights.shape[-1]),
                "block_index": record.block_index}
    path.with_suffix(".json").write_text(json.dumps(geometry, indent=2))
    return geometry
