"""Reconstruction network: 3D convolutions interleaved with unshifted
3D window multi-head self-attention.

Input is the 2-channel (real, imag) regridded volume [2,T,H,W]; output is a
single real channel [T,H,W]. Window attention mixes tokens only inside
non-overlapping (wt, wh, ww) windows; the convolutions provide cross-window
communication. No window shifting and no relative position bias.

The network is one graph node, `recon_forward`, over the input and every
parameter. `_net_forward` runs it in numpy (conv_in; per block pad, window
partition, transformer block `_block_forward`, unpartition, crop, residual
conv; conv_out) and `_net_backward` walks those stages in reverse. Each
transformer block runs over chunks of the window axis, sized by
`_CHUNK_BYTES`, so its [windows, heads, N, N] attention arrays never exist
for all windows at once; windows are independent, so this is exact. Inside a
chunk the logits are key-major, [windows, heads, N_k, N_q], so the softmax
reduces over rows of the array rather than along its short last axis;
recorded attention is transposed back to one query per row. The node keeps
only the block and conv inputs; each block's backward recomputes its
attention and MLP activations one chunk at a time. Pad tokens are masked as
attention keys.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import AutodiffError, Tensor
from .data import write_csv


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


@dataclass
class AttentionRecord:
    """Per-window softmax matrices [n_windows, heads, N_q, N_k], one query's
    distribution over the keys per row, plus the window-grid geometry needed
    to locate each window in the volume."""
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
    """Softmax over axis -2, the key axis of [..., N_k, N_q] logits, in one
    new array; x is left unchanged. The max runs over rows of the array and
    the column sums are one BLAS product with a ones vector: numpy reduces a
    short contiguous last axis several times slower."""
    e = x - x.max(axis=-2, keepdims=True)
    np.exp(e, out=e)
    e *= (1.0 / (np.ones(e.shape[-2]) @ e))[..., None, :]
    return e


def _mean(x):
    """Mean over the last axis, kept as a length-1 axis: a product with a
    1/C vector, which BLAS does faster than numpy's reduction of short rows."""
    return (x @ np.full(x.shape[-1], 1.0 / x.shape[-1]))[..., None]


def _colsum(a):
    """Sum of a [..., C] over every axis but the last, as one BLAS product."""
    a = _flat(a)
    return np.ones(len(a)) @ a


def _layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize over the last axis, then apply the affine map; returns
    (out, xhat, 1/std), the last two for `_layer_norm_backward`."""
    xhat = x - _mean(x)
    inv = 1.0 / np.sqrt(_mean(xhat * xhat) + eps)
    xhat *= inv
    return xhat * gamma + beta, xhat, inv


def _layer_norm_backward(g, gamma, xhat, inv):
    """Gradients (x, gamma, beta) of `_layer_norm` for upstream g."""
    gh = g * gamma
    gx = xhat * _mean(gh * xhat)
    gx += _mean(gh)
    np.subtract(gh, gx, out=gx)
    gx *= inv
    return gx, _colsum(g * xhat), _colsum(g)


def _flat(a):
    """[..., C] -> [tokens, C]."""
    return a.reshape(-1, a.shape[-1])


def _attention(x, wqkv, bqkv, wo, bo, heads, mask=None):
    """Multi-head self-attention within each window of x [n_windows, N, C];
    `mask`, if given, is added to the logits ([n_windows, 1, N, 1], -inf on
    the keys to ignore).

    The logits are laid out key-major, k @ q^T [n_windows, heads, N_k, N_q],
    with 1/sqrt(d) folded into q, so the softmax runs over axis -2.
    Returns (out, (q/sqrt(d), k, v, weights, heads_out)); `weights` is the
    softmax in that [n_windows, heads, N_k, N_q] layout, so column j holds
    query j's distribution over the keys, and `heads_out` the attention
    output [n_windows, N, C] before the output projection.
    """
    nw, n, c = x.shape
    d = c // heads
    qkv = x @ wqkv + bqkv  # [nw,N,3C]
    q, k, v = (qkv[:, :, i * c:(i + 1) * c].reshape(nw, n, heads, d).transpose(0, 2, 1, 3)
               for i in range(3))  # [nw,h,N,d]
    q = q * (1.0 / np.sqrt(d))
    logits = k @ q.transpose(0, 1, 3, 2)
    if mask is not None:
        logits += mask
    weights = _softmax(logits)
    heads_out = (weights.transpose(0, 1, 3, 2) @ v).transpose(0, 2, 1, 3).reshape(nw, n, c)
    return heads_out @ wo + bo, (q, k, v, weights, heads_out)


def _attention_backward(g, x, wqkv, wo, acts, heads):
    """Gradients (x, wqkv, bqkv, wo, bo) of `_attention` for upstream g,
    from the activations `acts` of its forward."""
    q, k, v, weights, heads_out = acts
    nw, n, c = x.shape
    d = c // heads
    gh = (g @ wo.T).reshape(nw, n, heads, d).transpose(0, 2, 1, 3)
    gv = weights @ gh
    # softmax backward, key-major like the weights: the term sum_k gw_kq w_kq
    # of query q is gh_q . o_q, with o the per-head output (FlashAttention-2's
    # D), so no N x N product is built
    o = heads_out.reshape(nw, n, heads, d).transpose(0, 2, 1, 3)
    gw = v @ gh.transpose(0, 1, 3, 2)
    gw -= np.einsum("whqd,whqd->whq", gh, o)[:, :, None, :]
    gw *= weights  # the logits' gradient
    gq = (gw.transpose(0, 1, 3, 2) @ k) * (1.0 / np.sqrt(d))
    gk = gw @ q  # q carries the 1/sqrt(d) scale
    gqkv = np.empty((nw, n, 3, heads, d))
    for i, t in enumerate((gq, gk, gv)):
        gqkv[:, :, i] = t.transpose(0, 2, 1, 3)
    gqkv = gqkv.reshape(nw, n, 3 * c)
    return (gqkv @ wqkv.T, _flat(x).T @ _flat(gqkv), _colsum(gqkv),
            _flat(heads_out).T @ _flat(g), _colsum(g))


# the parameters of one transformer block, in the order of `_block_forward`'s P
BLOCK_PARAMS = ("ln1.g", "ln1.b", "attn.wqkv", "attn.bqkv", "attn.wo", "attn.bo",
                "ln2.g", "ln2.b", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")


def _block_forward(x, P, heads, mask=None):
    """One transformer block on window tokens x [n_windows, N, C]:
    LN1 -> window MHSA (logit `mask` as in `_attention`) -> residual -> LN2 ->
    MLP -> residual.

    P holds the BLOCK_PARAMS arrays in order. Returns (out, acts), where
    `acts` are the activations `_block_backward` needs; acts[2][3] are the
    softmax weights, key-major as in `_attention`.
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
    ghid = (g @ w2.T) * (hid > 0)
    gy1, gg2, gb2 = _layer_norm_backward(ghid @ w1.T, g2, *ln2)
    gy1 += g
    # attention and LN1; the residual adds gy1
    gn1, *gatt = _attention_backward(gy1, n1, wqkv, wo, att_acts, heads)
    gx, gg1, gb1 = _layer_norm_backward(gn1, g1, *ln1)
    gx += gy1
    return (gx, gg1, gb1, *gatt, gg2, gb2, _flat(n2).T @ _flat(ghid), _colsum(ghid),
            _flat(hid).T @ _flat(g), _colsum(g))


def init_recon_params(cfg: ReconConfig, rng: np.random.Generator) -> dict:
    """Scaled-normal initialization; biases start at zero."""
    c = cfg.channels
    hidden = int(round(c * cfg.mlp_ratio))

    def normal(shape, fan_in):
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)

    # output conv starts at zero so the untrained network is the zero map;
    # residual conv branches start small to keep early activations tame
    params = {
        "conv_in.w": normal((c, 2, 3, 3, 3), 2 * 27),
        "conv_in.b": np.zeros((c, 1, 1, 1)),
        "conv_out.w": np.zeros((1, c, 3, 3, 3)),
        "conv_out.b": np.zeros((1, 1, 1, 1)),
    }
    for i in range(cfg.n_blocks):
        p = f"block{i}"
        params.update({
            f"{p}.ln1.g": np.ones((c,)), f"{p}.ln1.b": np.zeros((c,)),
            f"{p}.ln2.g": np.ones((c,)), f"{p}.ln2.b": np.zeros((c,)),
            f"{p}.attn.wqkv": normal((c, 3 * c), c), f"{p}.attn.bqkv": np.zeros((3 * c,)),
            f"{p}.attn.wo": normal((c, c), c), f"{p}.attn.bo": np.zeros((c,)),
            f"{p}.mlp.w1": normal((c, hidden), c), f"{p}.mlp.b1": np.zeros((hidden,)),
            f"{p}.mlp.w2": normal((hidden, c), hidden), f"{p}.mlp.b2": np.zeros((c,)),
            f"{p}.conv.w": rng.normal(0.0, 0.1 * np.sqrt(2.0 / (c * 27)),
                                      size=(c, c, 3, 3, 3)),
            f"{p}.conv.b": np.zeros((c, 1, 1, 1)),
        })
    return {name: Tensor(a, requires_grad=True) for name, a in params.items()}


def window_grid(shape, window):
    """Windows along each axis of a (T, H, W) volume once it is padded to the
    window grid."""
    return tuple(-(-n // e) for n, e in zip(shape, window))


def _window_geometry(shape, window):
    """(np.pad widths, crop, pad-key logit mask or None) that pad a [C,T,H,W]
    volume symmetrically to the window grid. The mask is [n_windows, 1, N, 1],
    -inf on the pad keys, for `_attention`'s key-major logits. Each axis pads
    by less than its window extent, so every window keeps a real token."""
    pads = [(0, 0)]
    for size, win in zip(shape[1:], window):
        extra = (-size) % win
        pads.append((extra // 2, extra - extra // 2))
    crop = (slice(None),) + tuple(slice(a, a + n) for (a, _), n in zip(pads[1:], shape[1:]))
    if not any(a or b for a, b in pads):
        return pads, crop, None
    is_pad = window_partition(np.pad(np.zeros((1,) + shape[1:]), pads, constant_values=1.0),
                              window)[:, :, 0]
    return pads, crop, np.where(is_pad > 0, -np.inf, 0.0)[:, None, :, None]


def _block_params(P, i):
    return tuple(P[f"block{i}.{name}"] for name in BLOCK_PARAMS)


# windows per transformer-block call: one [windows, heads, N, N] float64
# array of the chunk stays near this size, so the attention temporaries are
# cache-sized rather than full-volume (cf. metrics._CHUNK_BYTES). 256 kB,
# not 1 MB: glibc trims its heap top beyond twice the largest mmapped block
# freed, now a conv's shift matrix (2.7 MB at c16, grid 32), and 1 MB
# temporaries were returned to the kernel and faulted back in every round
# (20 s runs: train-fixed-32 ~44k minor faults a round against ~14k at
# 256 kB, and 9-23% fewer eval frames/s on it and on extend-27)
_CHUNK_BYTES = 2 ** 18


def _chunks(tokens, heads, mask):
    """(window slice, pad-key mask of the slice or None) over the window
    axis of tokens [n_windows, N, C], in order."""
    nw, n, _ = tokens.shape
    step = max(1, _CHUNK_BYTES // (8 * heads * n * n))
    for lo in range(0, nw, step):
        s = slice(lo, lo + step)
        yield s, None if mask is None else mask[s]


def _net_forward(x, P, cfg: ReconConfig, record):
    """The network on the input array x [2,T,H,W] with the parameter arrays
    P {name: array}. Returns (out [T,H,W], saved, records): `saved` holds the
    (block input, residual conv input) of each block, then conv_out's input;
    `records` the blocks' AttentionRecords if `record`.

    Each block runs over `_chunks` of its windows, so its attention arrays
    exist one chunk at a time; only the softmax weights of a recorded block
    are kept whole, transposed to [windows, heads, N_q, N_k] so that each
    row is one query's distribution. The backward recomputes every other
    block activation."""
    h = ad.conv3d_forward(x, P["conv_in.w"]) + P["conv_in.b"]
    pads, crop, mask = _window_geometry(h.shape, cfg.window)
    saved, records = [], []
    for i in range(cfg.n_blocks):
        xp = np.pad(h, pads)
        tokens = window_partition(xp, cfg.window)
        win, weights = np.empty_like(tokens), []
        for s, m in _chunks(tokens, cfg.heads, mask):
            win[s], acts = _block_forward(tokens[s], _block_params(P, i), cfg.heads, m)
            if record:
                weights.append(acts[2][3].transpose(0, 1, 3, 2))
        if record:
            records.append(AttentionRecord(np.concatenate(weights), cfg.window,
                                           window_grid(h.shape[1:], cfg.window),
                                           block_index=i))
        y = window_unpartition(win, cfg.window, xp.shape)[crop]
        # free the block's arrays before the residual conv builds its shift
        # matrix; the backward recomputes the block's activations
        del xp, tokens, win, acts
        saved.append((h, y))
        h = y + ad.conv3d_forward(y, P[f"block{i}.conv.w"]) + P[f"block{i}.conv.b"]
    saved.append(h)
    return (ad.conv3d_forward(h, P["conv_out.w"]) + P["conv_out.b"])[0], saved, records


def _net_backward(g, x, P, cfg: ReconConfig, saved, input_grad, param_grads):
    """Gradients of `_net_forward` for upstream g [T,H,W] from its `saved`
    arrays: (the input's, None without `input_grad`; {name: gradient}).
    Without `param_grads` the convolutions' weight and bias gradients are
    skipped and missing from the dict; the blocks' are always taken."""
    pads, crop, mask = _window_geometry(x.shape, cfg.window)
    grads = {}

    def conv(name, g, inp, input_grad=True):
        if param_grads:
            # one axis at a time: summing over (1, 2, 3) at once rounds differently
            grads[f"{name}.b"] = (g.sum(axis=1, keepdims=True).sum(axis=2, keepdims=True)
                                  .sum(axis=3, keepdims=True))
            grads[f"{name}.w"] = ad.conv3d_grad_weight(g, inp, P[f"{name}.w"].shape)
        return ad.conv3d_grad_input(g, P[f"{name}.w"]) if input_grad else None

    gh = conv("conv_out", g[None], saved[-1])
    for i in reversed(range(cfg.n_blocks)):
        h, y = saved[i]
        gy = gh + conv(f"block{i}.conv", gh, y)
        xp = np.pad(h, pads)
        tokens, gtokens = (window_partition(a, cfg.window) for a in (xp, np.pad(gy, pads)))
        gwin, gp = np.empty_like(tokens), [0.0] * len(BLOCK_PARAMS)
        for s, m in _chunks(tokens, cfg.heads, mask):
            gwin[s], *gps = _block_backward(gtokens[s], tokens[s], _block_params(P, i),
                                            cfg.heads, m)
            gp = [a + b for a, b in zip(gp, gps)]  # summed in chunk order
        grads.update((f"block{i}.{name}", gv) for name, gv in zip(BLOCK_PARAMS, gp))
        gh = window_unpartition(gwin, cfg.window, xp.shape)[crop]
        del xp, tokens, gtokens, gwin, gps  # before the next conv's shift matrix
    return conv("conv_in", gh, x, input_grad), grads


def recon_forward(z_regrid: Tensor, cfg: ReconConfig, params: dict,
                  record_attention: bool = False):
    """[2,T,H,W] regridded input -> ([T,H,W] reconstruction, attention records).

    One graph node whose parents are the input and every parameter, in
    sorted name order. Its backward skips the input's gradient if the input
    is constant, and the convolutions' parameter gradients if the parameters
    are. With `record_attention` each block's softmax weights come from that
    same forward pass.
    """
    if z_regrid.shape[0] != 2:
        raise AutodiffError("expected a 2-channel (real, imag) input")
    names = sorted(params)
    x, P = z_regrid.data, {n: params[n].data for n in names}
    out, saved, records = _net_forward(x, P, cfg, record_attention)

    param_grads = any(params[n].requires_grad for n in names)

    def back(g):
        gx, grads = _net_backward(g, x, P, cfg, saved, z_regrid.requires_grad,
                                  param_grads)
        return (gx,) + tuple(grads.get(n) for n in names)

    return Tensor.from_op(out, (z_regrid,) + tuple(params[n] for n in names), back), records


# -- checkpoints --------------------------------------------------------------

CHECKPOINT_VERSION = 1


class CheckpointMismatch(AutodiffError):
    """A checkpoint whose parameters are not those its config builds."""


def save_checkpoint(path, cfg: ReconConfig, params: dict):
    """<path>.json manifest + <path>.bin little-endian float64 blob."""
    path = Path(path)
    names = sorted(params)
    manifest = {"version": CHECKPOINT_VERSION, "config": asdict(cfg),
                "params": [{"name": n, "shape": list(params[n].shape)} for n in names]}
    path.with_suffix(".json").write_text(json.dumps(manifest, indent=2))
    blob = b"".join(params[n].data.astype("<f8").tobytes() for n in names)
    path.with_suffix(".bin").write_bytes(blob)


def load_checkpoint(path):
    """(config, parameters) of a `save_checkpoint` pair. Parameters other
    than the names and shapes `init_recon_params` builds from the config, in
    the order `save_checkpoint` writes them, raise `CheckpointMismatch`."""
    path = Path(path)
    manifest = json.loads(path.with_suffix(".json").read_text())
    if manifest["version"] != CHECKPOINT_VERSION:
        raise AutodiffError(f"unsupported checkpoint version {manifest['version']}")
    cfg = ReconConfig(**manifest["config"])
    expected = init_recon_params(cfg, np.random.default_rng(0))
    names = sorted(expected)
    declared = [(e["name"], tuple(e["shape"])) for e in manifest["params"]]
    if declared != [(n, expected[n].shape) for n in names]:
        missing = sorted(set(expected) - {n for n, _ in declared})
        raise CheckpointMismatch(
            f"the parameters are not those its config builds, {cfg}"
            + (f" (missing {', '.join(missing)})" if missing else ""))
    sizes = [expected[n].data.size for n in names]
    blob = path.with_suffix(".bin").read_bytes()
    if len(blob) != 8 * sum(sizes):
        raise AutodiffError("checkpoint blob truncated" if len(blob) < 8 * sum(sizes)
                            else "checkpoint blob larger than manifest declares")
    values = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    return cfg, {n: Tensor(a.reshape(expected[n].shape), requires_grad=True)
                 for n, a in zip(names, np.split(values, np.cumsum(sizes)[:-1]))}


def region_windows(region, window, grid):
    """(temporal window index, window rows, window columns) covered by an
    attention export region = (t, y, x, extent) on a window grid of `grid`
    windows of extents `window`; raises AutodiffError if the region is
    empty, leaves the grid or does not align with it."""
    t, y, x, extent = region
    wt, wh, ww = window
    nt, nh, nw = grid
    if (extent < 1 or t < 0 or t >= nt * wt or y < 0 or x < 0
            or y + extent > nh * wh or x + extent > nw * ww):
        raise AutodiffError("attention export region empty or out of bounds")
    if y % wh or x % ww or extent % wh or extent % ww:
        raise AutodiffError("region must align with the spatial window grid")
    return t // wt, range(y // wh, (y + extent) // wh), range(x // ww, (x + extent) // ww)


def export_attention(record: AttentionRecord, region, path):
    """Dump the attention maps of the windows covering a spatial region.

    region = (t, y, x, extent): all windows of the temporal slab containing
    frame t whose spatial tile lies inside the extent x extent square at
    (y, x). A 16x16 region with 4x4 spatial windows yields 16 maps.
    """
    ti, rows, cols = region_windows(region, record.window, record.grid)
    nh, nw = record.grid[1:]
    path = Path(path)

    def table():
        for r in rows:
            for cc in cols:
                widx = (ti * nh + r) * nw + cc
                for head in range(record.weights.shape[1]):
                    for row_i, row in enumerate(record.weights[widx, head]):
                        yield [ti, r, cc, head, row_i, *row]

    write_csv(path.with_suffix(".csv"), ["window_t", "window_y", "window_x", "head", "row"]
              + [f"c{j}" for j in range(record.weights.shape[-1])], table())
    # n_maps: one map per window; the heads are slices of each map
    geometry = {"window": list(record.window), "grid": list(record.grid),
                "region": list(region), "n_maps": len(rows) * len(cols),
                "tokens": int(record.weights.shape[-1]),
                "block_index": record.block_index}
    path.with_suffix(".json").write_text(json.dumps(geometry, indent=2))
    return geometry
