"""One derivative contract for the hand-written adjoints.

Each entry of `PAIRS` is a forward, its vjp and a hypothesis strategy of
inputs. Every entry is checked the same way: for a random cotangent w and a
random direction v over all of its differentiated inputs, the central
difference of <w, forward> along v must equal <vjp(w), v>.
"""

from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncs.recon import (_attention, _attention_backward, _block_backward, _block_forward,
                         _layer_norm, _layer_norm_backward)

STEP = 1e-6


class Pair(NamedTuple):
    """`forward(*inputs, **consts)` -> array; `vjp(w, *inputs, **consts)` ->
    one gradient per input; `strategy` draws (inputs, consts)."""
    forward: Callable
    vjp: Callable
    strategy: st.SearchStrategy


@st.composite
def _rows(draw):
    """x [rows, C], gamma [C] and beta [C] of a layer norm; C >= 2, so no
    row is constant."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, c = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    return [rng.normal(size=(rows, c)), rng.normal(size=c), rng.normal(size=c)], {}


def _key_mask(rng, n_windows, n):
    """A logit mask [n_windows, 1, N, 1], -inf on random keys; each window
    keeps at least one key, as every window of the network keeps a real token."""
    keep = rng.random((n_windows, n)) < 0.6
    keep[np.arange(n_windows), rng.integers(0, n, n_windows)] = True
    return np.where(keep, 0.0, -np.inf)[:, None, :, None]


@st.composite
def _windows(draw, masked, block):
    """Window tokens x [n_windows, N, C] and the parameters of `_attention`,
    or with `block` those of `_block_forward`; `masked` is True, False or
    None (drawn)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_windows, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    heads = draw(st.integers(1, 2))
    c = heads * draw(st.integers(1, 3))
    if masked is None:
        masked = draw(st.booleans())
    consts = {"heads": heads, "mask": _key_mask(rng, n_windows, n) if masked else None}
    attn = [(c, 3 * c), (3 * c,), (c, c), (c,)]
    if block:
        hidden = draw(st.integers(1, 4))
        shapes = [(c,), (c,), *attn, (c,), (c,), (c, hidden), (hidden,), (hidden, c), (c,)]
    else:
        shapes = attn
    return [rng.normal(size=s) for s in [(n_windows, n, c)] + shapes], consts


def _attention_pair(masked):
    def vjp(w, x, wqkv, bqkv, wo, bo, heads, mask):
        acts = _attention(x, wqkv, bqkv, wo, bo, heads, mask)[1]
        return _attention_backward(w, x, wqkv, wo, acts, heads)

    return Pair(lambda x, *p, heads, mask: _attention(x, *p, heads, mask)[0], vjp,
                _windows(masked=masked, block=False))


PAIRS = {
    "layer_norm": Pair(
        lambda x, g, b: _layer_norm(x, g, b)[0],
        lambda w, x, g, b: _layer_norm_backward(w, g, *_layer_norm(x, g, b)[1:]),
        _rows()),
    "attention": _attention_pair(masked=False),
    "attention_pad_keys": _attention_pair(masked=True),
    "block": Pair(
        lambda x, *P, heads, mask: _block_forward(x, P, heads, mask)[0],
        lambda w, x, *P, heads, mask: _block_backward(w, x, P, heads, mask),
        _windows(masked=None, block=True)),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
@settings(max_examples=50)
@given(data=st.data())
def test_vjp_matches_central_difference(name, data):
    pair = PAIRS[name]
    inputs, consts = data.draw(pair.strategy)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.normal(size=pair.forward(*inputs, **consts).shape)
    v = [rng.normal(size=a.shape) for a in inputs]
    grads = pair.vjp(w, *inputs, **consts)
    assert [g.shape for g in grads] == [a.shape for a in inputs]

    def along(s):
        return np.vdot(w, pair.forward(*(a + s * d for a, d in zip(inputs, v)), **consts))

    numeric = (along(STEP) - along(-STEP)) / (2 * STEP)
    analytic = sum(np.vdot(g, d) for g, d in zip(grads, v))
    scale = sum(np.linalg.norm(g) * np.linalg.norm(d) for g, d in zip(grads, v))
    assert abs(numeric - analytic) <= 1e-6 * scale + 1e-12
