"""Building blocks: multi-head attention against an explicit composition,
and a key/value-cached transformer block against a full causal pass."""

import numpy as np
import pytest

from qst import tensor as T
from qst.errors import ConfigurationError
from qst.nn import MultiHeadAttention, TransformerBlock, causal_mask, named_params
from qst.tensor import Tensor


def reference_attention(attn, x, kv, mask, rng, training):
    """Split heads, widen to float64, scaled scores, masked softmax, dropout,
    @ v, back to float32, merge, wo."""
    source = x if kv is None else kv

    def split(t):
        b, n, _ = t.shape
        return t.reshape(b, n, attn.heads, attn.head_dim).transpose(0, 2, 1, 3)

    q, k, v = (
        T.cast(split(t), np.float64) for t in (attn.wq(x), attn.wk(source), attn.wv(source))
    )
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(attn.head_dim))
    probs = T.dropout(T.masked_softmax(scores, mask), attn.dropout, rng, training)
    out = T.cast(probs @ v, np.float32)
    b, _, n, _ = out.shape
    return attn.wo(out.transpose(0, 2, 1, 3).reshape(b, n, attn.heads * attn.head_dim))


@pytest.mark.parametrize("cross", [False, True], ids=["self-causal", "cross-unmasked"])
@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
def test_multi_head_attention_matches_reference_bitwise(cross, training):
    rng = np.random.default_rng(0)
    attn = MultiHeadAttention(rng, dim=12, heads=3, dropout=0.25)
    x = Tensor(rng.normal(size=(2, 5, 12)))
    kv = Tensor(rng.normal(size=(2, 4, 12))) if cross else None
    mask = None if cross else causal_mask(5)

    out = attn(x, kv=kv, mask=mask, rng=np.random.default_rng(7), training=training)
    ref = reference_attention(attn, x, kv, mask, np.random.default_rng(7), training)
    assert out.shape == (2, 5, 12)
    np.testing.assert_array_equal(out.data, ref.data)

    evaluated = attn(x, kv=kv, mask=mask).data
    assert np.array_equal(out.data, evaluated) != training  # dropout acts only in training


def test_cached_transformer_block_matches_full_causal_pass():
    rng = np.random.default_rng(1)
    block = TransformerBlock(rng, dim=12, heads=3, dropout=0.25)
    batch, prefill, total = 2, 3, 6
    x = Tensor(rng.normal(size=(batch, total, 12)))
    full = block(x, mask=causal_mask(total)).data

    cache = []
    parts = [block(T.narrow(x, 1, 0, prefill), mask=causal_mask(prefill), cache=cache).data]
    assert [c.shape for c in cache] == [(batch, 3, prefill, 4)] * 2
    for t in range(prefill, total):
        parts.append(block(T.narrow(x, 1, t, 1), cache=cache).data)
        assert [c.shape for c in cache] == [(batch, 3, t + 1, 4)] * 2
    np.testing.assert_array_equal(np.concatenate(parts, axis=1), full)
    fresh = TransformerBlock(np.random.default_rng(1), dim=12, heads=3, dropout=0.25)
    assert list(named_params(block)) == list(named_params(fresh))  # the cache stayed the caller's


def test_heads_that_do_not_divide_dim_are_a_configuration_error():
    with pytest.raises(ConfigurationError, match="not divisible"):
        MultiHeadAttention(np.random.default_rng(0), dim=10, heads=3, dropout=0.0)
