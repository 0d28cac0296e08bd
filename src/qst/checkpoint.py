"""Checkpoint files: named float32 parameter blobs plus run metadata.

Format: the magic line ``QSTCKPT 1``, optional ``# meta key = value`` and
``# cfg key = value`` lines (the embedded config snapshot), one line per
parameter ``name<TAB>dtype<TAB>dim0,dim1,...<TAB>byte-offset``, a blank line,
and the payload, which ``qst.data.payload_chunks`` writes and
``qst.data.read_payload`` reads: the little-endian float32 arrays back to
back in header order, so each offset is the running byte count.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import header_int, header_line, payload_chunks, read_payload, split_header
from .errors import BadMagicError, DataFormatError, VersionError

MAGIC = "QSTCKPT 1"


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=dict)
    config_text: str = ""

    @classmethod
    def from_tensors(cls, tensors, meta: dict[str, str], config_text: str) -> "Checkpoint":
        params = {name: t.data.astype("<f4") for name, t in tensors.items()}
        return cls(params=params, meta=dict(meta), config_text=config_text)

    def chunks(self):
        """The serialized file in pieces: the ASCII header, then each
        array's little-endian float32 bytes as a memoryview (no copy for
        arrays that already are contiguous ``<f4``).  The header is built,
        and each of its entries checked with ``data.header_line``, by this call."""
        lines = [MAGIC]
        for key, value in self.meta.items():
            header_line(key, "checkpoint meta key")
            lines.append(f"# meta {key} = {header_line(value, f'checkpoint meta {key!r} value')}")
        for cfg_line in self.config_text.splitlines():
            if cfg_line.strip():
                lines.append(f"# cfg {header_line(cfg_line, 'checkpoint config line')}")
        offset = 0
        for name, arr in self.params.items():
            dims = ",".join(str(d) for d in arr.shape)
            lines.append(f"{header_line(name, 'parameter name')}\tf32\t{dims}\t{offset}")
            offset += 4 * arr.size
        header = ("\n".join(lines) + "\n\n").encode("ascii")
        return itertools.chain([header], payload_chunks(self.params.values()))

    def to_bytes(self) -> bytes:
        return b"".join(self.chunks())

    def save(self, path) -> None:
        chunks = self.chunks()  # a header that cannot be written raises before the file opens
        with open(path, "wb") as fh:
            fh.writelines(chunks)

    def content_sha256(self) -> str:
        digest = hashlib.sha256()
        for chunk in self.chunks():
            digest.update(chunk)
        return digest.hexdigest()

    @classmethod
    def load(cls, path) -> "Checkpoint":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Checkpoint":
        lines, payload = split_header(raw, "checkpoint header")
        if not lines[0].startswith("QSTCKPT"):
            raise BadMagicError(f"expected magic 'QSTCKPT <version>', got {lines[0]!r}")
        if lines[0] != MAGIC:
            raise VersionError(f"unsupported checkpoint version line {lines[0]!r}")

        meta: dict[str, str] = {}
        cfg_lines: list[str] = []
        entries: dict[str, tuple[int, ...]] = {}
        end = 0
        for line in lines[1:]:
            if line.startswith("# meta "):
                key, _, value = line[len("# meta ") :].partition(" = ")
                if key in meta:
                    raise DataFormatError(f"meta key '{key}' is given twice")
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
                dims = () if not dims_text else tuple(
                    header_int(d, f"dimension of '{name}'") for d in dims_text.split(",")
                )
                offset = header_int(offset_text, f"offset of '{name}'")
                if offset != end:
                    raise DataFormatError(
                        f"parameter '{name}' starts at byte {offset}, expected {end}: "
                        "the blobs lie back to back in header order"
                    )
                entries[name] = dims
                end += 4 * math.prod(dims)

        shapes = [(f"parameter '{name}'", dims) for name, dims in entries.items()]
        params = dict(zip(entries, read_payload(payload, shapes, "checkpoint")))
        return cls(params=params, meta=meta, config_text="\n".join(cfg_lines) + ("\n" if cfg_lines else ""))
