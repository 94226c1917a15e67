"""Reconstruction network: 3D convolutions interleaved with unshifted
3D window multi-head self-attention.

Input is the 2-channel (real, imag) regridded volume [2,T,H,W]; output is a
single real channel [T,H,W]. Window attention mixes tokens only inside
non-overlapping (wt, wh, ww) windows; the convolutions provide cross-window
communication. No window shifting and no relative position bias.
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


def window_partition(x: Tensor, window) -> Tensor:
    """[C,T,H,W] -> [n_windows, tokens, C] by non-overlapping tiling."""
    c, t, h, w = x.shape
    wt, wh, ww = window
    if t % wt or h % wh or w % ww:
        raise AutodiffError(f"volume {t, h, w} not divisible by window {window}")
    nt, nh, nw = t // wt, h // wh, w // ww
    y = x.reshape(c, nt, wt, nh, wh, nw, ww)
    y = y.transpose((1, 3, 5, 2, 4, 6, 0))  # [nt,nh,nw, wt,wh,ww, C]
    return y.reshape(nt * nh * nw, wt * wh * ww, c)


def window_unpartition(tokens: Tensor, window, shape) -> Tensor:
    """Inverse of window_partition; `shape` is the original (C,T,H,W)."""
    c, t, h, w = shape
    wt, wh, ww = window
    nt, nh, nw = t // wt, h // wh, w // ww
    y = tokens.reshape(nt, nh, nw, wt, wh, ww, c)
    y = y.transpose((6, 0, 3, 1, 4, 2, 5))
    return y.reshape(c, t, h, w)


def wmsa_forward(tokens: Tensor, params: dict, heads: int, prefix: str,
                 record: bool = False):
    """Multi-head self-attention within each window.

    tokens: [n_windows, N, C]. Returns (output [n_windows, N, C], record).
    """
    nw, n, c = tokens.shape
    if c % heads:
        raise AutodiffError("channel dim not divisible by heads")
    d = c // heads

    qkv = tokens @ params[f"{prefix}.wqkv"] + params[f"{prefix}.bqkv"]  # [nw,N,3C]

    def split_heads(t):
        return t.reshape(nw, n, heads, d).transpose((0, 2, 1, 3))  # [nw,h,N,d]

    q = split_heads(qkv[:, :, 0:c])
    k = split_heads(qkv[:, :, c:2 * c])
    v = split_heads(qkv[:, :, 2 * c:3 * c])

    logits = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(d))
    attn = ad.softmax(logits, axis=-1)  # [nw,h,N,N]
    out = attn @ v
    out = out.transpose((0, 2, 1, 3)).reshape(nw, n, c)
    out = out @ params[f"{prefix}.wo"] + params[f"{prefix}.bo"]
    weights = attn.data.copy() if record else None
    return out, weights


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


def _pad_to_window(x: Tensor, window):
    """Symmetric zero-pad [C,T,H,W] so every axis divides its window extent."""
    _, t, h, w = x.shape
    pads = [(0, 0)]
    for size, win in zip((t, h, w), window):
        extra = (-size) % win
        pads.append((extra // 2, extra - extra // 2))
    if any(a or b for a, b in pads):
        return x.pad(pads), pads
    return x, pads


def _crop(x: Tensor, pads, shape):
    if not any(a or b for a, b in pads):
        return x
    sl = tuple(slice(a, a + n) for (a, _), n in zip(pads, shape))
    return x[sl]


def recon_forward(z_regrid: Tensor, cfg: ReconConfig, params: dict,
                  record_attention: bool = False):
    """[2,T,H,W] regridded input -> ([T,H,W] reconstruction, attention records)."""
    if z_regrid.shape[0] != 2:
        raise AutodiffError("expected a 2-channel (real, imag) input")
    records = []

    x = ad.conv3d(z_regrid, params["conv_in.w"]) + params["conv_in.b"]
    for i in range(cfg.n_blocks):
        p = f"block{i}"
        shape = x.shape
        # windowed attention with residual
        xp, pads = _pad_to_window(x, cfg.window)
        win = window_partition(xp, cfg.window)
        normed = ad.layer_norm(win, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        att, weights = wmsa_forward(normed, params, cfg.heads, f"{p}.attn",
                                    record=record_attention)
        if record_attention:
            _, t, h, w = xp.shape
            wt, wh, ww = cfg.window
            records.append(AttentionRecord(
                weights=weights, window=cfg.window,
                grid=(t // wt, h // wh, w // ww), block_index=i))
        win = win + att
        # tokenwise MLP with residual, on the same window tokens; the pad
        # tokens it also transforms are cropped away below
        hmid = ad.layer_norm(win, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
        hmid = (hmid @ params[f"{p}.mlp.w1"] + params[f"{p}.mlp.b1"]).relu()
        win = win + (hmid @ params[f"{p}.mlp.w2"] + params[f"{p}.mlp.b2"])
        x = _crop(window_unpartition(win, cfg.window, xp.shape), pads, shape)
        # convolution with residual
        x = x + ad.conv3d(x, params[f"{p}.conv.w"]) + params[f"{p}.conv.b"]

    out = ad.conv3d(x, params["conv_out.w"]) + params["conv_out.b"]
    t, h, w = out.shape[1:]
    return out.reshape(t, h, w), records


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
