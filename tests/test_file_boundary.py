"""The file boundary: every single-byte edit of a dataset's or checkpoint's
header either loads or raises a ``QstError``, and a NaN anywhere in the
payload is refused."""

import numpy as np
import pytest

from qst.checkpoint import Checkpoint
from qst.data import Episode, TrajectoryDataset, read_dataset, write_dataset
from qst.errors import DataFormatError, QstError

# Digits, separators, a sign, a letter and a non-ascii byte.
SUBSTITUTES = b"09 \t\n,-=x\xff"
NAN = b"\xff\xff\xff\xff"


def small_dataset_bytes(tmp_path) -> bytes:
    episodes = [
        Episode("line-across", np.arange(6.0).reshape(3, 2), np.ones((2, 1))),
        Episode("b", np.full((1, 2), 0.5), np.zeros((0, 1))),
    ]
    path = tmp_path / "small.qstd"
    write_dataset(TrajectoryDataset(episodes, seed=3), path)
    return path.read_bytes()


def small_checkpoint_bytes(tmp_path) -> bytes:
    params = {"w": np.arange(6.0).reshape(2, 3), "s": np.float32(1.5), "e": np.zeros(0)}
    params = {name: np.asarray(arr, dtype="<f4") for name, arr in params.items()}
    return Checkpoint(params, {"stage": "stage1"}, "T = 32\n").to_bytes()


def load_dataset(raw: bytes, tmp_path):
    path = tmp_path / "variant.qstd"
    path.write_bytes(raw)
    return read_dataset(path)


FORMATS = {
    "dataset": (small_dataset_bytes, load_dataset),
    "checkpoint": (small_checkpoint_bytes, lambda raw, _: Checkpoint.from_bytes(raw)),
}


def header_edits(raw: bytes):
    """Every deletion and substitution of one byte of the header, blank line
    included."""
    end = raw.index(b"\n\n") + 2
    for i in range(end):
        yield raw[:i] + raw[i + 1 :]
        for byte in SUBSTITUTES:
            if byte != raw[i]:
                yield raw[:i] + bytes([byte]) + raw[i + 1 :]


@pytest.mark.parametrize("kind", FORMATS)
def test_header_byte_edits_load_or_raise_qst_error(kind, tmp_path):
    make, load = FORMATS[kind]
    raw = make(tmp_path)
    load(raw, tmp_path)
    escaped, count = [], 0
    for variant in header_edits(raw):
        count += 1
        try:
            load(variant, tmp_path)
        except QstError:
            pass
        except Exception as exc:  # anything else escapes the boundary
            escaped.append(f"{variant[:80]!r}: {exc!r}")
    assert count > 500
    assert not escaped, "\n".join(escaped[:5])


@pytest.mark.parametrize("kind", FORMATS)
def test_payload_nan_is_refused_at_every_value(kind, tmp_path):
    make, load = FORMATS[kind]
    raw = make(tmp_path)
    start = raw.index(b"\n\n") + 2
    assert (len(raw) - start) % 4 == 0 and len(raw) > start
    for at in range(start, len(raw), 4):
        with pytest.raises(DataFormatError, match="holds a non-finite value"):
            load(raw[:at] + NAN + raw[at + 4 :], tmp_path)
