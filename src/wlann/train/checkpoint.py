"""The WLANN1 named-tensor archive: checkpoints and cached feature files.

Layout:

    bytes 0..5    magic "WLANN1"
    bytes 6..9    uint32 little-endian JSON header length
    header        UTF-8 JSON: kind, config, metadata, tensor table
    payload       concatenated raw little-endian float32 tensors

The tensor table stores (name, shape, element offset) per entry, so the
file is self-describing and round-trips bit-exactly at 32-bit precision.
Each tensor starts where the one before it ends, the payload ends where
the last one ends, and no name repeats; any other table is a corrupt
header. Tensors are written straight to a temporary file renamed over
the target, so an existing archive is only ever replaced by a complete
one. `ArchiveReader` reads the header and table first; a load then
reads every payload as read-only views of one buffer, or only the
tensors it restores.
"""

from __future__ import annotations

import json
import math
import os
import struct
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..errors import (
    CHECKPOINT_BAD_MAGIC,
    CHECKPOINT_MISSING_TENSOR,
    CHECKPOINT_SHAPE_MISMATCH,
    CHECKPOINT_TRAILING_BYTES,
    CHECKPOINT_TRUNCATED,
    CheckpointError,
    StorageError,
)

MAGIC = b"WLANN1"


@dataclass
class Archive:
    """Decoded WLANN1 file: config, metadata, and float32 tensors viewing the bytes read."""

    kind: str
    config: dict
    metadata: dict
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


def save_archive(
    path: str | Path,
    kind: str,
    config: dict,
    tensors: dict[str, np.ndarray],
    metadata: dict | None = None,
) -> None:
    table = []
    offset = 0
    for name, value in tensors.items():
        shape = np.shape(value)
        table.append({"name": name, "shape": list(shape), "offset": offset})
        offset += math.prod(shape)
    header = {
        "kind": kind,
        "config": config,
        "metadata": metadata or {},
        "tensors": table,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("wb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack("<I", len(header_bytes)))
            handle.write(header_bytes)
            for value in tensors.values():
                handle.write(np.ascontiguousarray(value, dtype="<f4"))
        os.replace(partial, path)
    except OSError as exc:
        raise StorageError(f"cannot write archive {path}: {exc}") from exc
    finally:
        partial.unlink(missing_ok=True)


class ArchiveReader:
    """An open WLANN1 file whose header and tensor table are read and checked against its size.

    Payloads are read only on request: `tensors` reads them all, and
    `restore` reads just the named ones, each straight into its array.
    Use it as a context manager, so the file is closed.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        try:
            self._handle = self.path.open("rb")
        except OSError as exc:
            raise StorageError(f"cannot read archive {self.path}: {exc}") from exc
        try:
            self.header, self._table, self._payload_start, self._payload_bytes = self._read_header()
        except BaseException:
            self._handle.close()
            raise

    def __enter__(self) -> "ArchiveReader":
        return self

    def __exit__(self, *exc) -> None:
        self._handle.close()

    def _read(self, count: int, what: str) -> bytes:
        try:
            data = self._handle.read(count)
        except OSError as exc:
            raise StorageError(f"cannot read archive {self.path}: {exc}") from exc
        if len(data) < count:
            raise CheckpointError(CHECKPOINT_TRUNCATED, f"{self.path}: truncated {what}")
        return data

    def _read_header(self):
        path = self.path
        size = os.fstat(self._handle.fileno()).st_size
        if size < len(MAGIC) + 4 or self._read(len(MAGIC), "header") != MAGIC:
            raise CheckpointError(CHECKPOINT_BAD_MAGIC, f"{path}: not a WLANN1 archive")
        (header_len,) = struct.unpack("<I", self._read(4, "header"))
        header_start = len(MAGIC) + 4
        if size < header_start + header_len:
            raise CheckpointError(CHECKPOINT_TRUNCATED, f"{path}: truncated header")
        try:
            header = json.loads(self._read(header_len, "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(CHECKPOINT_BAD_MAGIC, f"{path}: corrupt header ({exc})") from exc

        if not isinstance(header, dict):
            raise CheckpointError(CHECKPOINT_BAD_MAGIC, f"{path}: corrupt header (not an object)")
        kind = header.get("kind", "checkpoint")
        config = header.get("config", {})
        metadata = header.get("metadata", {})
        entries = header.get("tensors", [])
        if not (
            isinstance(kind, str)
            and isinstance(config, dict)
            and isinstance(metadata, dict)
            and isinstance(entries, list)
        ):
            raise CheckpointError(
                CHECKPOINT_BAD_MAGIC,
                f"{path}: corrupt header (needs a string kind, object config and metadata, "
                "and a tensor list)",
            )

        payload_start = header_start + header_len
        table: dict[str, tuple[tuple[int, ...], int]] = {}  # name -> (shape, payload byte offset)
        table_end = payload_start
        for entry in entries:
            name, shape, offset = _table_entry(entry, path)
            start = payload_start + offset * 4
            if name in table or start != table_end:
                raise CheckpointError(
                    CHECKPOINT_BAD_MAGIC,
                    f"{path}: corrupt header (tensor {name!r} at element {offset}: names must "
                    f"be unique and each tensor must start where the previous one ends, "
                    f"{(table_end - payload_start) // 4})",
                )
            end = start + math.prod(shape) * 4
            if end > size:
                raise CheckpointError(
                    CHECKPOINT_TRUNCATED,
                    f"{path}: truncated payload for tensor {name!r} "
                    f"(need {end - payload_start} bytes, have {size - payload_start})",
                )
            table[name] = (shape, start - payload_start)
            table_end = end
        if size > table_end:
            raise CheckpointError(
                CHECKPOINT_TRAILING_BYTES,
                f"{path}: {size - table_end} bytes after the last tensor",
            )
        return Archive(kind, config, metadata), table, payload_start, table_end - payload_start

    def tensors(self) -> dict[str, np.ndarray]:
        """Every tensor, as read-only float32 views of one read of the payload."""
        self._handle.seek(self._payload_start)
        payload = self._read(self._payload_bytes, "payload")
        return {
            name: np.frombuffer(payload, "<f4", math.prod(shape), offset).reshape(shape)
            for name, (shape, offset) in self._table.items()
        }

    def restore(self, named_params: dict[str, "np.ndarray | object"]) -> None:
        """Read each named tensor's payload straight into the array its tensor object owns.

        Parameters and Adam moments alike. A missing name or a wrong
        shape raises; unknown extra names in the archive only warn, so
        newer files load into older code. Extra `adam.*` moments draw no
        warning, since an inference load does not ask for them. The
        payloads of names not asked for are never read. A float32 array
        on a little-endian machine is filled in place, any other through
        a float32 buffer of its size.
        """
        for name, tensor in named_params.items():
            if name not in self._table:
                raise CheckpointError(CHECKPOINT_MISSING_TENSOR, f"checkpoint lacks tensor {name!r}")
            shape, offset = self._table[name]
            if shape != tuple(tensor.data.shape):
                raise CheckpointError(
                    CHECKPOINT_SHAPE_MISMATCH,
                    f"tensor {name!r} has shape {shape}, expected {tensor.data.shape}",
                )
            target = tensor.data
            if target.dtype != np.dtype("<f4") or not target.flags.c_contiguous:
                target = np.empty(shape, "<f4")
            self._handle.seek(self._payload_start + offset)
            try:
                read = self._handle.readinto(target.reshape(-1).view(np.uint8))
            except OSError as exc:
                raise StorageError(f"cannot read archive {self.path}: {exc}") from exc
            if read != target.nbytes:
                raise CheckpointError(CHECKPOINT_TRUNCATED,
                                      f"{self.path}: truncated payload for tensor {name!r}")
            if target is not tensor.data:
                np.copyto(tensor.data, target)
        extra = set(self._table) - set(named_params)
        extra = {name for name in extra if not name.startswith("adam.")}
        if extra:
            warnings.warn(f"checkpoint has unknown extra tensors: {sorted(extra)}", stacklevel=2)


def load_archive(path: str | Path) -> Archive:
    with ArchiveReader(path) as reader:
        return replace(reader.header, tensors=reader.tensors())


def _table_entry(entry, path: Path) -> tuple[str, tuple[int, ...], int]:
    """Name, shape and offset of one tensor-table entry; anything else is a corrupt header."""
    if isinstance(entry, dict):
        name, shape, offset = entry.get("name"), entry.get("shape"), entry.get("offset")
        if isinstance(name, str) and isinstance(shape, list) and all(
            type(n) is int and n >= 0 for n in (offset, *shape)
        ):
            return name, tuple(shape), offset
    raise CheckpointError(CHECKPOINT_BAD_MAGIC, f"{path}: corrupt header (tensor entry {entry!r})")
