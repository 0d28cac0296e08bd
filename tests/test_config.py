"""Config parsing, snapshots, and checkpoint file format."""

import numpy as np
import pytest

from qst.checkpoint import Checkpoint
from qst.config import RunConfig
from qst.errors import (
    BadMagicError,
    ConfigurationError,
    DataFormatError,
    TruncatedFileError,
    VersionError,
)
from qst.tensor import Tensor


class TestRunConfig:
    def test_defaults_carry_published_values(self):
        cfg = RunConfig()
        assert cfg.T == 32
        assert cfg.fsq_levels == (8, 5, 5, 5)
        assert cfg.vocab_size == 1000
        assert cfg.n_tokens == 8
        assert cfg.downsampling == 4
        assert cfg.prior_dim == 384 and cfg.prior_layers == 6 and cfg.prior_heads == 6
        assert cfg.top_k == 5 and cfg.temperature == 1.0
        assert cfg.decoder_loss_scale == 10.0
        assert cfg.execution_horizon == 8
        assert cfg.observation_history == 1

    def test_snapshot_roundtrip(self):
        cfg = RunConfig(T=16, conv_strides=(2, 2, 1), fsq_levels=(4, 4), top_k=3)
        again = RunConfig.from_text(cfg.snapshot())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            RunConfig.from_text("warp_speed = 9\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError):
            RunConfig.from_text("just words\n")

    def test_type_coercion_and_comments(self):
        cfg = RunConfig.from_text(
            "# a comment\n"
            "T = 16\n"
            "conv_strides = 2,2\n"
            "conv_kernels = 3,3\n"
            "encoder_causal = off\n"
            "temperature = 0.5\n"
        )
        assert cfg.T == 16 and cfg.conv_strides == (2, 2)
        assert cfg.encoder_causal is False
        assert cfg.temperature == 0.5

    def test_inexact_token_count_rejected(self):
        with pytest.raises(ConfigurationError, match="divisible"):
            RunConfig(T=30)

    def test_every_key_is_documented(self):
        from dataclasses import fields

        from qst.config import _DOCS

        assert {f.name for f in fields(RunConfig)} == set(_DOCS)

    def test_structural_keys_detect_model_changes(self):
        a = RunConfig()
        b = RunConfig(prior_layers=5)
        assert a.structural_keys() != b.structural_keys()
        c = RunConfig(stage1_epochs=99)  # run-length keys are not structural
        assert a.structural_keys() == c.structural_keys()


class TestCheckpoint:
    def _make(self) -> Checkpoint:
        rng = np.random.default_rng(0)
        tensors = {
            "encoder.w": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
            "decoder.b": Tensor(rng.normal(size=7), requires_grad=True),
        }
        return Checkpoint.from_tensors(
            tensors, {"stage": "stage1"}, RunConfig().snapshot()
        )

    def test_bytes_roundtrip_bitwise(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "a.ckpt"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.to_bytes() == ckpt.to_bytes()
        assert loaded.meta == ckpt.meta
        assert loaded.source_sha256 == ckpt.content_sha256()
        for k in ckpt.params:
            np.testing.assert_array_equal(loaded.params[k], ckpt.params[k])

    def test_config_snapshot_embedded(self):
        ckpt = self._make()
        assert RunConfig.from_text(ckpt.config_text) == RunConfig()

    def test_header_is_tab_separated_with_offsets(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "a.ckpt"
        ckpt.save(path)
        text = path.read_bytes().split(b"\n\n")[0].decode()
        lines = text.splitlines()
        assert lines[0] == "QSTCKPT 1"
        param_lines = [l for l in lines if "\t" in l]
        assert param_lines[0].split("\t") == ["encoder.w", "f32", "3,4", "0"]
        assert param_lines[1].split("\t") == ["decoder.b", "f32", "7", "48"]

    def test_bad_magic_and_version(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(b"NOPE 1\n\n")
        with pytest.raises(BadMagicError):
            Checkpoint.load(path)
        path.write_bytes(b"QSTCKPT 2\n\n")
        with pytest.raises(VersionError):
            Checkpoint.load(path)

    def test_truncated_payload(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "a.ckpt"
        ckpt.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(TruncatedFileError):
            Checkpoint.load(path)

    def test_extra_payload_rejected(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "a.ckpt"
        path.write_bytes(ckpt.to_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(DataFormatError):
            Checkpoint.load(path)

    @pytest.mark.parametrize(
        "old,new,match",
        [
            (b"\t3,4\t0", b"\t3,a\t0", "integer"),
            (b"\t7\t48", b"\t7\tx", "integer"),
            (b"\t7\t48", b"\t7\t-48", "offset"),
            (b"decoder.b\t", b"encoder.w\t", "twice"),
        ],
        ids=["dims", "offset", "negative-offset", "repeated-name"],
    )
    def test_bad_parameter_line_rejected(self, old, new, match):
        raw = self._make().to_bytes()
        assert old in raw
        with pytest.raises(DataFormatError, match=match):
            Checkpoint.from_bytes(raw.replace(old, new, 1))

    def test_float32_storage(self):
        ckpt = self._make()
        assert all(arr.dtype == np.dtype("<f4") for arr in ckpt.params.values())
