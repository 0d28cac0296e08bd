"""Building blocks: multi-head attention against an explicit composition."""

import numpy as np
import pytest

from qst import tensor as T
from qst.nn import MultiHeadAttention, causal_mask
from qst.tensor import Tensor


def reference_attention(attn, x, kv, mask, rng, training):
    """Split heads, scaled scores, masked softmax, dropout, @ v, merge, wo."""
    source = x if kv is None else kv

    def split(t):
        b, n, _ = t.shape
        return t.reshape(b, n, attn.heads, attn.head_dim).transpose(0, 2, 1, 3)

    q, k, v = split(attn.wq(x)), split(attn.wk(source)), split(attn.wv(source))
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(attn.head_dim))
    probs = T.dropout(T.masked_softmax(scores, mask), attn.dropout, rng, training)
    out = probs @ v
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
