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

from test_autoencoder import tiny_config

SMALL = tiny_config(T=32, conv_kernels=(5, 3, 3), conv_strides=(2, 2, 1))


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

        assert all(f.metadata["doc"].strip() for f in fields(RunConfig))

    def test_documented_defaults_parse_back_to_defaults(self):
        from dataclasses import fields

        text = RunConfig.documented_defaults()
        assert RunConfig.from_text(text) == RunConfig()
        lines = text.splitlines()
        for f in fields(RunConfig):
            at = next(i for i, line in enumerate(lines) if line.startswith(f"{f.name} = "))
            assert lines[at - 1] == f"# {f.metadata['doc']}"

    def test_structural_keys_detect_model_changes(self):
        a = RunConfig()
        b = RunConfig(prior_layers=5)
        assert a.structural_keys() != b.structural_keys()
        c = RunConfig(stage1_epochs=99)  # run-length keys are not structural
        assert a.structural_keys() == c.structural_keys()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("batch_size", "0"),
            ("encoder_heads", "3"),
            ("encoder_dim", "0"),
            ("conv_strides", "0,2,1"),
            ("conv_kernels", ""),
            ("learning_rate", "nan"),
            ("stage1_epochs", "-1"),
            ("T", "0"),
            ("observation_history", "0"),
            ("decoder_layers", "0"),
            ("prior_heads", "0"),
            ("prior_dim", "-8"),
            ("attention_dropout", "1.0"),
            ("prior_embedding_dropout", "-0.1"),
            ("temperature", "nan"),
            ("decoder_loss_scale", "inf"),
            ("fsq_levels", "1,1000"),
            ("fsq_levels", "2,500"),
            ("fsq_levels", ""),
            ("T", "abc"),
            ("encoder_causal", "maybe"),
            ("execution_horizon", "33"),
            ("optimizer", "sgd"),
        ],
    )
    def test_bad_value_refused_at_parse(self, key, value):
        text = SMALL.snapshot() + f"{key} = {value}\n"
        with pytest.raises(ConfigurationError, match=key) as err:
            RunConfig.from_text(text)
        assert "top_k" not in str(err.value)  # each refusal names the key at fault

    def test_top_k_above_vocabulary_refused_at_parse(self):
        text = SMALL.snapshot() + f"top_k = {SMALL.vocab_size + 1}\n"
        with pytest.raises(ConfigurationError, match=r"top_k must lie in \[1, vocab size\]"):
            RunConfig.from_text(text)

    def test_zero_epochs_and_window_caps_are_valid(self):
        text = SMALL.snapshot() + "".join(
            f"{key} = 0\n"
            for key in ("stage1_epochs", "stage2_epochs", "finetune_epochs",
                        "stage1_windows_per_epoch", "stage2_windows_per_epoch")
        )
        assert RunConfig.from_text(text).stage2_windows_per_epoch == 0


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
        assert loaded.content_sha256() == ckpt.content_sha256()
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
            (b"\t7\t48", b"\t7", "malformed"),
            (b"decoder.b\tf32", b"decoder.b\tf16", "dtype"),
        ],
        ids=["dims", "offset", "negative-offset", "repeated-name", "three-fields", "f16"],
    )
    def test_bad_parameter_line_rejected(self, old, new, match):
        raw = self._make().to_bytes()
        assert old in raw
        with pytest.raises(DataFormatError, match=match):
            Checkpoint.from_bytes(raw.replace(old, new, 1))

    @pytest.mark.parametrize(
        "raw,match", [(b"QSTCKPT 1\n", "blank line"), (b"QSTCKPT 1\n# meta a = \xff\n\n", "ascii")]
    )
    def test_header_without_blank_line_or_ascii_rejected(self, raw, match):
        with pytest.raises(DataFormatError, match=match):
            Checkpoint.from_bytes(raw)

    def test_float32_storage(self):
        ckpt = self._make()
        assert all(arr.dtype == np.dtype("<f4") for arr in ckpt.params.values())
