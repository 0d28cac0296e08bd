"""Config parsing, snapshots, and checkpoint file format."""

import numpy as np
import pytest

from qst.checkpoint import Checkpoint
from qst.config import RunConfig
from qst.errors import (
    ArgumentError,
    BadMagicError,
    ConfigurationError,
    DataFormatError,
    TruncatedFileError,
    VersionError,
)
from qst.tensor import Tensor

from test_autoencoder import tiny_config

SMALL = tiny_config(T=32, conv_kernels=(5, 3, 3), conv_strides=(2, 2, 1))


def overridden(cfg: RunConfig, **lines) -> str:
    """``cfg``'s snapshot with the line of each named key replaced by
    ``key = value``, appended at the end."""
    kept = [line for line in cfg.snapshot().splitlines() if line.partition(" = ")[0] not in lines]
    return "\n".join(kept + [f"{key} = {value}" for key, value in lines.items()]) + "\n"


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
            ("fsq_levels", "8,,5,5,5"),
            ("T", "abc"),
            ("encoder_causal", "maybe"),
            ("execution_horizon", "33"),
            ("optimizer", "sgd"),  # deleted keys: an older snapshot naming one is refused
            ("holdout_demos_per_task", "5"),
            pytest.param("learning_rate", "0.1\nlearning_rate = 0.001", id="learning_rate-twice"),
        ],
    )
    def test_bad_value_refused_at_parse(self, key, value):
        text = overridden(SMALL, **{key: value})
        with pytest.raises(ConfigurationError, match=key) as err:
            RunConfig.from_text(text)
        assert "top_k" not in str(err.value)  # each refusal names the key at fault

    def test_top_k_above_vocabulary_refused_at_parse(self):
        text = overridden(SMALL, top_k=SMALL.vocab_size + 1)
        with pytest.raises(ConfigurationError, match=r"top_k must lie in \[1, vocab size\]"):
            RunConfig.from_text(text)

    def test_zero_epochs_and_window_caps_are_valid(self):
        text = overridden(SMALL, **{
            key: 0
            for key in ("stage1_epochs", "stage2_epochs", "finetune_epochs",
                        "stage1_windows_per_epoch", "stage2_windows_per_epoch")
        })
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
        with pytest.raises(DataFormatError, match="holds 80 bytes, header requires 76") as err:
            Checkpoint.load(path)
        assert not isinstance(err.value, TruncatedFileError)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_payload_rejected(self, value):
        ckpt = self._make()
        bias = ckpt.params["decoder.b"].copy()
        bias[3] = value
        ckpt.params["decoder.b"] = bias
        with pytest.raises(DataFormatError, match="checkpoint parameter 'decoder.b' holds a non-finite"):
            Checkpoint.from_bytes(ckpt.to_bytes())

    def test_scalar_and_empty_parameters_roundtrip_bitwise(self):
        params = {"scalar": np.float32(-2.5), "empty": np.zeros((0, 3)), "w": np.ones((2, 2))}
        raw = Checkpoint({k: np.asarray(v, dtype="<f4") for k, v in params.items()}).to_bytes()
        assert b"scalar\tf32\t\t0\nempty\tf32\t0,3\t4\nw\tf32\t2,2\t4\n" in raw
        loaded = Checkpoint.from_bytes(raw)
        assert loaded.to_bytes() == raw
        assert {k: v.shape for k, v in loaded.params.items()} == {"scalar": (), "empty": (0, 3), "w": (2, 2)}
        assert loaded.params["scalar"] == np.float32(-2.5)

    @pytest.mark.parametrize(
        "old,new,match",
        [
            (b"\t3,4\t0", b"\t3,a\t0", "integer"),
            (b"\t3,4\t0", b"\t3,,4\t0", "integer"),
            (b"\t7\t48", b"\t7\tx", "integer"),
            (b"\t7\t48", b"\t7\t-48", "offset"),
            (b"decoder.b\t", b"encoder.w\t", "twice"),
            (b"\t7\t48", b"\t7", "malformed"),
            (b"decoder.b\tf32", b"decoder.b\tf16", "dtype"),
        ],
        ids=["dims", "empty-dim", "offset", "negative-offset", "repeated-name", "three-fields", "f16"],
    )
    def test_bad_parameter_line_rejected(self, old, new, match):
        raw = self._make().to_bytes()
        assert old in raw
        with pytest.raises(DataFormatError, match=match):
            Checkpoint.from_bytes(raw.replace(old, new, 1))

    def test_repeated_meta_key_rejected(self):
        raw = self._make().to_bytes()
        line = b"# meta stage = stage1\n"
        assert line in raw
        with pytest.raises(DataFormatError, match="'stage' is given twice"):
            Checkpoint.from_bytes(raw.replace(line, line + b"# meta stage = stage2\n", 1))

    @pytest.mark.parametrize(
        "offsets,payload",
        [((0, 0), 4), ((0, 8), 12), ((4, 0), 8)],
        ids=["overlap", "gap", "out-of-order"],
    )
    def test_blobs_not_back_to_back_rejected(self, offsets, payload):
        lines = "".join(f"{name}\tf32\t1\t{at}\n" for name, at in zip("ab", offsets))
        raw = f"QSTCKPT 1\n{lines}\n".encode("ascii") + bytes(payload)
        with pytest.raises(DataFormatError, match="back to back"):
            Checkpoint.from_bytes(raw)

    @pytest.mark.parametrize(
        "raw,match", [(b"QSTCKPT 1\n", "blank line"), (b"QSTCKPT 1\n# meta a = \xff\n\n", "ascii")]
    )
    def test_header_without_blank_line_or_ascii_rejected(self, raw, match):
        with pytest.raises(DataFormatError, match=match):
            Checkpoint.from_bytes(raw)

    def test_load_hands_back_read_only_views(self, tmp_path):
        path = tmp_path / "a.ckpt"
        self._make().save(path)
        assert not any(arr.flags.writeable for arr in Checkpoint.load(path).params.values())

    @pytest.mark.parametrize(
        "edit",
        [
            lambda ckpt: ckpt.meta.update(stage="caf\u00e9"),
            lambda ckpt: ckpt.meta.update(stage="a\nb"),
            lambda ckpt: ckpt.meta.update({"st\nage": "x"}),
            lambda ckpt: ckpt.params.update({"w\u00e9": np.zeros(1, "<f4")}),
            lambda ckpt: setattr(ckpt, "config_text", ckpt.config_text + "T = 3\u00e9\n"),
        ],
        ids=["meta-value", "meta-value-newline", "meta-key-newline", "parameter-name", "cfg-line"],
    )
    def test_header_that_cannot_be_written_refused_before_the_file_opens(self, edit, tmp_path):
        path = tmp_path / "a.ckpt"
        ckpt = self._make()
        ckpt.save(path)
        before = path.read_bytes()
        edit(ckpt)
        with pytest.raises(ArgumentError, match="not one non-empty line of ASCII"):
            ckpt.save(path)
        assert path.read_bytes() == before
        with pytest.raises(ArgumentError):
            ckpt.content_sha256()

    def test_float32_storage(self):
        ckpt = self._make()
        assert all(arr.dtype == np.dtype("<f4") for arr in ckpt.params.values())
