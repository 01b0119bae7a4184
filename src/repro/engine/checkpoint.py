"""Engine checkpoints: per-shard integrity envelopes (formats v3/v4).

Format v2 (:mod:`repro.core.serialize`) protects one analyzer's synopsis
with a single CRC -- one flipped bit rejects the whole checkpoint.  A
sharded engine does better with one CRC envelope per shard.  Format v4
frames each shard's backend payload (:mod:`repro.engine.backends`); the
header names the backend and carries the engine-level configuration and
flow counters (the v2 header only knows table capacities)::

    RTBKD\\x04 || u8 name_len || name || u32 cfg_len || cfg_json
             || u32 shard_count || { u32 length || u32 crc32 || payload } * N

Corruption inside one shard's payload is caught by *that shard's* CRC, so
a degraded restore (``strict=False``) replaces only the damaged shard
with a fresh backend of the same kind at the same per-shard
configuration and keeps every other shard's learned state -- one corrupt
shard degrades, not destroys, the synopsis.  Damage to the framing
itself (magic, counts, lengths) still rejects the file, as the shard
boundaries can no longer be trusted.  A two-tier shard's payload is a v2
envelope plus its R/W sidecar, table stats and flow counters, so R/W
tallies survive a restore.

Format v3, written by earlier releases for two-tier shards, framed N bare
v2 envelopes (no R/W sidecar)::

    RTSHD\\x03 || u32 shard_count || { u32 blob_length || v2-envelope } * N

It still loads, read-only, into a two-tier
:class:`~repro.engine.backends.host.BackendEngine`.

:func:`dump_engine` writes v4 for every sharded engine and v2 for the
single analyzer; :func:`load_engine` dispatches on the magic, so services
need a single pair of calls regardless of engine shape.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, List, NamedTuple, Union

from ..core.config import AnalyzerConfig
from ..core.serialize import (
    CheckpointCorruptError,
    _run_pre_rename_hook,
    dump_analyzer,
    load_analyzer,
    loads_analyzer,
)
from ..core.typed import TypedOnlineAnalyzer
from .backends import create_backend, deserialize_backend
from .backends.host import BackendEngine, shard_config
from .backends.twotier import TwoTierBackend

_MAGIC_V3 = b"RTSHD\x03"
_MAGIC_V4 = b"RTBKD\x04"
_U32 = struct.Struct("<I")
_U8 = struct.Struct("<B")

#: Sanity bound on the shard count field; a corrupt count must not drive a
#: multi-gigabyte allocation loop.
MAX_SHARDS = 4096

PathOrStr = Union[str, Path]


class LoadedEngine(NamedTuple):
    """Result of :func:`load_engine`.

    ``engine`` is a :class:`~repro.core.typed.TypedOnlineAnalyzer` (v1/v2
    checkpoints; the R/W sidecar rebuilds from future traffic) or a
    :class:`~repro.engine.backends.host.BackendEngine` (v3/v4);
    ``corrupt_shards`` lists shard indices that failed integrity checks
    and were restored fresh (always empty under ``strict=True``, which
    raises instead).
    """

    engine: object
    corrupt_shards: List[int]


def _read_exact(stream: BinaryIO, size: int, what: str) -> bytes:
    chunk = stream.read(size)
    if len(chunk) != size:
        raise CheckpointCorruptError(f"truncated {what}")
    return chunk


def _load_v3(stream: BinaryIO, strict: bool = True) -> LoadedEngine:
    """Restore a v3 checkpoint into a two-tier :class:`BackendEngine`.

    Under ``strict=True`` any corruption raises
    :class:`CheckpointCorruptError`.  Under ``strict=False`` a shard whose
    envelope fails its CRC (or structure checks) is replaced with a fresh
    synopsis at the same per-shard configuration and its index reported in
    ``corrupt_shards``; framing-level corruption still raises.
    """
    magic = _read_exact(stream, len(_MAGIC_V3), "sharded checkpoint magic")
    if magic != _MAGIC_V3:
        raise CheckpointCorruptError(f"bad sharded synopsis magic: {magic!r}")
    (count,) = _U32.unpack(_read_exact(stream, _U32.size, "shard count"))
    if not 1 <= count <= MAX_SHARDS:
        raise CheckpointCorruptError(f"implausible shard count: {count}")

    blobs: List[bytes] = []
    for index in range(count):
        (length,) = _U32.unpack(
            _read_exact(stream, _U32.size, f"shard {index} length")
        )
        blobs.append(_read_exact(stream, length, f"shard {index} payload"))

    analyzers: List[object] = []
    corrupt: List[int] = []
    for index, blob in enumerate(blobs):
        try:
            analyzers.append(loads_analyzer(blob))
        except CheckpointCorruptError:
            if strict:
                raise
            corrupt.append(index)
            analyzers.append(None)

    if len(corrupt) == count:
        raise CheckpointCorruptError(
            f"all {count} shards corrupt; nothing to restore"
        )
    per_shard = next(a for a in analyzers if a is not None).config
    backends = []
    for analyzer in analyzers:
        backend = TwoTierBackend(per_shard)
        if analyzer is not None:
            backend.analyzer.adopt(analyzer)
        backends.append(backend)
    config = dataclasses.replace(
        per_shard,
        item_capacity=per_shard.item_capacity * count,
        correlation_capacity=per_shard.correlation_capacity * count,
    )
    engine = BackendEngine(config, shards=count, backends=backends)
    return LoadedEngine(engine, corrupt)


# ---------------------------------------------------------------------------
# Format v4: backend-tagged engines
# ---------------------------------------------------------------------------

def _dump_v4(engine, backends, stream: BinaryIO) -> int:
    """Write a sharded engine and its ``shard_backends`` as a v4
    checkpoint; returns bytes written."""
    name = engine.backend_name.encode("utf-8")
    if not 1 <= len(name) <= 255:
        raise ValueError(f"implausible backend name: {engine.backend_name!r}")
    header = dict(dataclasses.asdict(engine.config))
    # Engine-level flow counters ride in the header (the per-shard
    # payloads only know their own slice of the stream).
    header["__counters__"] = [
        engine._transactions, engine._extents_seen, engine._pairs_seen,
    ]
    cfg_json = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    written = stream.write(_MAGIC_V4)
    written += stream.write(_U8.pack(len(name)))
    written += stream.write(name)
    written += stream.write(_U32.pack(len(cfg_json)))
    written += stream.write(cfg_json)
    written += stream.write(_U32.pack(len(backends)))
    for backend in backends:
        payload = backend.serialize()
        written += stream.write(_U32.pack(len(payload)))
        written += stream.write(_U32.pack(zlib.crc32(payload) & 0xFFFFFFFF))
        written += stream.write(payload)
    return written


def _load_config_json(raw: bytes):
    """Parse the v4 header JSON into ``(AnalyzerConfig, flow_counters)``."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(f"bad engine config JSON: {exc}")
    if not isinstance(data, dict):
        raise CheckpointCorruptError("engine config JSON is not an object")
    counters = data.get("__counters__", [0, 0, 0])
    if (not isinstance(counters, list) or len(counters) != 3
            or not all(isinstance(value, int) and value >= 0
                       for value in counters)):
        raise CheckpointCorruptError("bad engine flow counters")
    known = {field.name for field in dataclasses.fields(AnalyzerConfig)}
    try:
        config = AnalyzerConfig(
            **{key: value for key, value in data.items() if key in known}
        )
    except (TypeError, ValueError) as exc:
        raise CheckpointCorruptError(f"bad engine config: {exc}")
    return config, counters


def _load_v4(stream: BinaryIO, strict: bool = True) -> LoadedEngine:
    """Restore a v4 checkpoint.

    Returns a :class:`~repro.engine.backends.host.BackendEngine`.  Under
    ``strict=False`` a shard whose payload fails its CRC (or whose codec
    rejects it) is replaced with a fresh backend of the same kind at the
    same per-shard configuration; framing corruption still raises.
    """
    magic = _read_exact(stream, len(_MAGIC_V4), "backend checkpoint magic")
    if magic != _MAGIC_V4:
        raise CheckpointCorruptError(f"bad backend synopsis magic: {magic!r}")
    (name_len,) = _U8.unpack(_read_exact(stream, 1, "backend name length"))
    if name_len == 0:
        raise CheckpointCorruptError("empty backend name")
    try:
        name = _read_exact(stream, name_len, "backend name").decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointCorruptError("undecodable backend name")
    (cfg_len,) = _U32.unpack(_read_exact(stream, _U32.size, "config length"))
    config, counters = _load_config_json(
        _read_exact(stream, cfg_len, "engine config")
    )
    if config.backend != name:
        raise CheckpointCorruptError(
            f"backend name mismatch: header says {name!r}, "
            f"config says {config.backend!r}"
        )
    (count,) = _U32.unpack(_read_exact(stream, _U32.size, "shard count"))
    if not 1 <= count <= MAX_SHARDS:
        raise CheckpointCorruptError(f"implausible shard count: {count}")

    framed: List[tuple] = []
    for index in range(count):
        (length,) = _U32.unpack(
            _read_exact(stream, _U32.size, f"shard {index} length")
        )
        (crc,) = _U32.unpack(
            _read_exact(stream, _U32.size, f"shard {index} crc")
        )
        framed.append(
            (crc, _read_exact(stream, length, f"shard {index} payload"))
        )

    per_shard = shard_config(config, count)
    backends: List[object] = []
    corrupt: List[int] = []
    for index, (crc, payload) in enumerate(framed):
        try:
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise CheckpointCorruptError(
                    f"shard {index} payload CRC mismatch"
                )
            backends.append(deserialize_backend(name, payload, per_shard))
        except CheckpointCorruptError:
            if strict:
                raise
            corrupt.append(index)
            backends.append(None)
        except (ValueError, KeyError, TypeError, struct.error) as exc:
            # The payload passed its CRC but the backend codec rejected
            # it -- same corruption class, same degraded-restore policy.
            if strict:
                raise CheckpointCorruptError(
                    f"shard {index} payload undecodable: {exc}"
                )
            corrupt.append(index)
            backends.append(None)

    if len(corrupt) == count:
        raise CheckpointCorruptError(
            f"all {count} shards corrupt; nothing to restore"
        )
    for index in corrupt:
        backends[index] = create_backend(name, per_shard)

    engine = BackendEngine(config, shards=count, backends=backends)
    (engine._transactions, engine._extents_seen,
     engine._pairs_seen) = counters
    return LoadedEngine(engine, corrupt)


# ---------------------------------------------------------------------------
# Format-dispatching entry points
# ---------------------------------------------------------------------------

def dump_engine(engine, stream: BinaryIO) -> int:
    """Checkpoint any engine: v4 for a sharded engine (it exposes the
    ``shard_backends`` seam; a process engine materializes its workers'
    state once for the dump), v2 for the single analyzer."""
    backends = getattr(engine, "shard_backends", None)
    if backends is None:
        return dump_analyzer(engine, stream)
    return _dump_v4(engine, backends, stream)


def load_engine(stream: BinaryIO, strict: bool = True) -> LoadedEngine:
    """Restore a checkpoint of any format, dispatching on its magic."""
    prefix = stream.read(len(_MAGIC_V3))
    body = io.BytesIO(prefix + stream.read())
    if prefix == _MAGIC_V3:
        return _load_v3(body, strict=strict)
    if prefix == _MAGIC_V4:
        return _load_v4(body, strict=strict)
    restored = load_analyzer(body)
    typed = TypedOnlineAnalyzer(restored.config)
    typed.adopt(restored)
    return LoadedEngine(typed, [])


def save_engine_checkpoint(engine, path: PathOrStr) -> int:
    """Atomically write an engine checkpoint file (temp + fsync + rename)."""
    path = Path(path)
    tmp_path = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp_path, "wb") as stream:
            written = dump_engine(engine, stream)
            stream.flush()
            os.fsync(stream.fileno())
        _run_pre_rename_hook(tmp_path, path)
        os.replace(tmp_path, path)
    finally:
        if tmp_path.exists():
            tmp_path.unlink()
    return written


def load_engine_checkpoint(path: PathOrStr, strict: bool = True) -> LoadedEngine:
    """Load and integrity-check an engine checkpoint file."""
    with open(path, "rb") as stream:
        return load_engine(stream, strict=strict)
