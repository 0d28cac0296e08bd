"""Checkpoint files: named float32 parameter blobs plus run metadata.

Format: the magic line ``QSTCKPT 1``, optional ``# meta key = value`` and
``# cfg key = value`` lines (the embedded config snapshot), one line per
parameter ``name<TAB>dtype<TAB>dim0,dim1,...<TAB>byte-offset``, a blank line,
and the concatenated little-endian float32 blobs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .data import header_int
from .errors import (
    BadMagicError,
    DataFormatError,
    TruncatedFileError,
    VersionError,
)

MAGIC = "QSTCKPT 1"


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=dict)
    config_text: str = ""
    source_sha256: str | None = None  # hash of the file this was loaded from

    @classmethod
    def from_tensors(cls, tensors, meta: dict[str, str], config_text: str) -> "Checkpoint":
        params = {name: t.data.astype("<f4") for name, t in tensors.items()}
        return cls(params=params, meta=dict(meta), config_text=config_text)

    def params_f64(self) -> dict[str, np.ndarray]:
        return {name: arr.astype(np.float64) for name, arr in self.params.items()}

    def to_bytes(self) -> bytes:
        lines = [MAGIC]
        for key, value in self.meta.items():
            lines.append(f"# meta {key} = {value}")
        for cfg_line in self.config_text.splitlines():
            if cfg_line.strip():
                lines.append(f"# cfg {cfg_line}")
        blobs = []
        offset = 0
        for name, arr in self.params.items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            dims = ",".join(str(d) for d in arr.shape)
            lines.append(f"{name}\tf32\t{dims}\t{offset}")
            blob = arr.tobytes()
            blobs.append(blob)
            offset += len(blob)
        header = "\n".join(lines) + "\n\n"
        return header.encode("ascii") + b"".join(blobs)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    def content_sha256(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()

    @classmethod
    def load(cls, path) -> "Checkpoint":
        with open(path, "rb") as fh:
            raw = fh.read()
        ckpt = cls.from_bytes(raw)
        ckpt.source_sha256 = hashlib.sha256(raw).hexdigest()
        return ckpt

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Checkpoint":
        split = raw.find(b"\n\n")
        if split < 0:
            raise DataFormatError("missing blank line after checkpoint header")
        try:
            header = raw[: split + 1].decode("ascii")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"checkpoint header is not ascii: {exc}") from None
        payload = raw[split + 2 :]

        lines = header.splitlines()
        if not lines or not lines[0].startswith("QSTCKPT"):
            raise BadMagicError(f"expected magic 'QSTCKPT <version>', got {lines[0]!r}")
        if lines[0] != MAGIC:
            raise VersionError(f"unsupported checkpoint version line {lines[0]!r}")

        meta: dict[str, str] = {}
        cfg_lines: list[str] = []
        entries: dict[str, tuple[tuple[int, ...], int]] = {}
        for line in lines[1:]:
            if line.startswith("# meta "):
                key, _, value = line[len("# meta ") :].partition(" = ")
                meta[key] = value
            elif line.startswith("# cfg "):
                cfg_lines.append(line[len("# cfg ") :])
            else:
                parts = line.split("\t")
                if len(parts) != 4:
                    raise DataFormatError(f"malformed parameter line {line!r}")
                name, dtype, dims_text, offset_text = parts
                if dtype != "f32":
                    raise DataFormatError(f"unsupported dtype {dtype!r} for '{name}'")
                if name in entries:
                    raise DataFormatError(f"parameter '{name}' is listed twice")
                dims = tuple(
                    header_int(d, f"dimension of '{name}'") for d in dims_text.split(",") if d
                )
                entries[name] = (dims, header_int(offset_text, f"offset of '{name}'"))

        params: dict[str, np.ndarray] = {}
        end = 0
        for name, (dims, offset) in entries.items():
            count = int(np.prod(dims)) if dims else 1
            nbytes = 4 * count
            if offset + nbytes > len(payload):
                raise TruncatedFileError(
                    f"parameter '{name}' needs bytes up to {offset + nbytes}, "
                    f"payload holds {len(payload)}"
                )
            arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
            params[name] = arr.reshape(dims)
            end = max(end, offset + nbytes)
        if end != len(payload):
            raise DataFormatError(
                f"payload holds {len(payload)} bytes but parameters cover {end}"
            )
        return cls(params=params, meta=meta, config_text="\n".join(cfg_lines) + ("\n" if cfg_lines else ""))
