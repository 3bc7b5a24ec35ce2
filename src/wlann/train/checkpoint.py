"""The WLANN1 named-tensor archive: checkpoints and cached feature files.

Layout:

    bytes 0..5    magic "WLANN1"
    bytes 6..9    uint32 little-endian JSON header length
    header        UTF-8 JSON: kind, config, metadata, tensor table
    payload       concatenated raw little-endian float32 tensors

The tensor table stores (name, shape, element offset) per entry, so the
file is self-describing and round-trips bit-exactly at 32-bit precision.
The payload ends where the table's last tensor ends. Writes go to a
temporary file renamed over the target, so an existing archive is only
ever replaced by a complete one.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from dataclasses import dataclass, field
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
    """Decoded WLANN1 file: config + metadata + named float32 tensors."""

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
    payloads = []
    offset = 0
    for name, value in tensors.items():
        data = np.ascontiguousarray(value, dtype="<f4")
        table.append({"name": name, "shape": list(data.shape), "offset": offset})
        payloads.append(data.tobytes())
        offset += data.size
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
            for blob in payloads:
                handle.write(blob)
        os.replace(partial, path)
    except OSError as exc:
        raise StorageError(f"cannot write archive {path}: {exc}") from exc
    finally:
        partial.unlink(missing_ok=True)


def load_archive(path: str | Path) -> Archive:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise StorageError(f"cannot read archive {path}: {exc}") from exc
    if len(raw) < len(MAGIC) + 4 or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(CHECKPOINT_BAD_MAGIC, f"{path}: not a WLANN1 archive")
    (header_len,) = struct.unpack("<I", raw[len(MAGIC) : len(MAGIC) + 4])
    header_start = len(MAGIC) + 4
    if len(raw) < header_start + header_len:
        raise CheckpointError(CHECKPOINT_TRUNCATED, f"{path}: truncated header")
    try:
        header = json.loads(raw[header_start : header_start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(CHECKPOINT_BAD_MAGIC, f"{path}: corrupt header ({exc})") from exc

    if not isinstance(header, dict):
        raise CheckpointError(CHECKPOINT_BAD_MAGIC, f"{path}: corrupt header (not an object)")
    kind = header.get("kind", "checkpoint")
    config = header.get("config", {})
    metadata = header.get("metadata", {})
    table = header.get("tensors", [])
    if not (
        isinstance(kind, str)
        and isinstance(config, dict)
        and isinstance(metadata, dict)
        and isinstance(table, list)
    ):
        raise CheckpointError(
            CHECKPOINT_BAD_MAGIC,
            f"{path}: corrupt header (needs a string kind, object config and metadata, "
            "and a tensor list)",
        )

    payload = raw[header_start + header_len :]
    tensors: dict[str, np.ndarray] = {}
    table_end = 0
    for entry in table:
        name, shape, offset = _table_entry(entry, path)
        size = int(np.prod(shape)) if shape else 1
        start = offset * 4
        end = start + size * 4
        if end > len(payload):
            raise CheckpointError(
                CHECKPOINT_TRUNCATED,
                f"{path}: truncated payload for tensor {name!r} "
                f"(need {end} bytes, have {len(payload)})",
            )
        tensors[name] = np.frombuffer(payload[start:end], dtype="<f4").reshape(shape).copy()
        table_end = max(table_end, end)
    if len(payload) > table_end:
        raise CheckpointError(
            CHECKPOINT_TRAILING_BYTES,
            f"{path}: {len(payload) - table_end} bytes after the last tensor",
        )
    return Archive(kind=kind, config=config, metadata=metadata, tensors=tensors)


def _table_entry(entry, path: Path) -> tuple[str, tuple[int, ...], int]:
    """Name, shape and offset of one tensor-table entry; anything else is a corrupt header."""
    if isinstance(entry, dict):
        name, shape, offset = entry.get("name"), entry.get("shape"), entry.get("offset")
        if isinstance(name, str) and isinstance(shape, list) and all(
            type(n) is int and n >= 0 for n in (offset, *shape)
        ):
            return name, tuple(shape), offset
    raise CheckpointError(CHECKPOINT_BAD_MAGIC, f"{path}: corrupt header (tensor entry {entry!r})")


def restore_parameters(archive: Archive, named_params: dict[str, "np.ndarray | object"]) -> None:
    """Copy archive tensors into tensor objects (parameters, Adam moments) by name.

    A missing name or a wrong shape raises; unknown extra names in the
    archive only warn, so newer files load into older code. Extra `adam.*`
    moments draw no warning, since an inference load does not ask for them.
    """
    for name, tensor in named_params.items():
        if name not in archive.tensors:
            raise CheckpointError(CHECKPOINT_MISSING_TENSOR, f"checkpoint lacks tensor {name!r}")
        stored = archive.tensors[name]
        if tuple(stored.shape) != tuple(tensor.data.shape):
            raise CheckpointError(
                CHECKPOINT_SHAPE_MISMATCH,
                f"tensor {name!r} has shape {stored.shape}, expected {tensor.data.shape}",
            )
        tensor.data = stored.astype(tensor.data.dtype)
    extra = set(archive.tensors) - set(named_params)
    extra = {name for name in extra if not name.startswith("adam.")}
    if extra:
        warnings.warn(f"checkpoint has unknown extra tensors: {sorted(extra)}", stacklevel=2)
