"""Synopsis checkpoint/restore.

A production characterization service must survive restarts without losing
what it has learned, and may want to ship its synopsis to an optimizer on
another host.  This module serialises an :class:`OnlineAnalyzer`'s two
tables to the paper's native entry layout -- 16-byte item entries and
28-byte pair entries (Section IV-C1) -- preceded by a small header, with
LRU order preserved exactly, so a restored analyzer continues as if the
process had never stopped.

Checkpoint format **v2** wraps the payload in an integrity envelope:
``magic || crc32 || payload-length || payload``.  A bit flip anywhere in
the file -- disk rot, a torn copy, an interrupted upload -- is detected at
load time and rejected with :class:`CheckpointCorruptError` instead of
silently restoring a subtly wrong synopsis.  v1 checkpoints (no CRC) are
still readable.  :func:`save_checkpoint` additionally writes atomically
(temp file + fsync + rename) so a crash mid-write can never clobber the
previous good checkpoint.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, List, Tuple, Union

from .analyzer import OnlineAnalyzer
from .config import AnalyzerConfig
from .extent import Extent, ExtentPair
from .two_tier import TIER1, TIER2


class CheckpointCorruptError(ValueError):
    """A checkpoint failed its integrity or structure checks.

    Subclasses :class:`ValueError` so callers that guarded against the old
    parse errors keep working; new callers should catch this type to
    distinguish corruption (fall back to a fresh synopsis) from I/O errors
    (retry).
    """


_MAGIC_V1 = b"RTSYN\x01"
_MAGIC = b"RTSYN\x02"
# Integrity envelope (v2): CRC32 of the payload, payload byte length.
_INTEGRITY = struct.Struct("<II")
# Header: item T1/T2 capacities, pair T1/T2 capacities, promote threshold,
# then four section entry counts.
_HEADER = struct.Struct("<IIIIIIIII")
# Item entry: 64-bit start, 32-bit length, 32-bit tally (16 bytes).
_ITEM = struct.Struct("<QII")
# Pair entry: two extents + 32-bit tally (28 bytes).
_PAIR = struct.Struct("<QIQII")


def _tier_entries(queue) -> List[Tuple]:
    """Entries of one LRU queue in LRU-to-MRU order."""
    return list(queue.items())


def _payload_bytes(analyzer: OnlineAnalyzer) -> bytes:
    """The header + entry sections (everything the CRC protects)."""
    items = analyzer.items._table           # two-tier internals
    correlations = analyzer.correlations._table
    sections = [
        _tier_entries(items.t1),
        _tier_entries(items.t2),
        _tier_entries(correlations.t1),
        _tier_entries(correlations.t2),
    ]
    payload = io.BytesIO()
    payload.write(_HEADER.pack(
        items.t1.capacity, items.t2.capacity,
        correlations.t1.capacity, correlations.t2.capacity,
        analyzer.config.promote_threshold,
        len(sections[0]), len(sections[1]),
        len(sections[2]), len(sections[3]),
    ))
    for extent, tally in sections[0] + sections[1]:
        payload.write(_ITEM.pack(extent.start, extent.length, tally))
    for pair, tally in sections[2] + sections[3]:
        payload.write(_PAIR.pack(
            pair.first.start, pair.first.length,
            pair.second.start, pair.second.length, tally,
        ))
    return payload.getvalue()


def dump_analyzer(analyzer: OnlineAnalyzer, stream: BinaryIO) -> int:
    """Write the analyzer's synopsis (v2 format); returns bytes written."""
    payload = _payload_bytes(analyzer)
    written = stream.write(_MAGIC)
    written += stream.write(_INTEGRITY.pack(
        zlib.crc32(payload), len(payload)
    ))
    written += stream.write(payload)
    return written


def load_analyzer(stream: BinaryIO) -> OnlineAnalyzer:
    """Restore an analyzer serialised by :func:`dump_analyzer`.

    Accepts both the CRC-protected v2 format and legacy v1 checkpoints.
    Any integrity or structure violation raises
    :class:`CheckpointCorruptError`, and so do tiers that no access
    sequence produces (v1 files carry no CRC to catch them): a key listed
    twice, or a T1 tally at or above the promotion threshold.  The
    restored synopsis has identical
    residency, tallies, tier membership, and LRU ordering; operation
    counters (hits/misses) start fresh -- they describe a process
    lifetime, not the learned state.
    """
    magic = stream.read(len(_MAGIC))
    if magic == _MAGIC:
        envelope = stream.read(_INTEGRITY.size)
        if len(envelope) != _INTEGRITY.size:
            raise CheckpointCorruptError("truncated integrity envelope")
        crc_expected, payload_length = _INTEGRITY.unpack(envelope)
        payload = stream.read(payload_length)
        if len(payload) != payload_length:
            raise CheckpointCorruptError(
                f"truncated checkpoint payload: expected {payload_length} "
                f"bytes, got {len(payload)}"
            )
        crc_actual = zlib.crc32(payload)
        if crc_actual != crc_expected:
            raise CheckpointCorruptError(
                f"checkpoint CRC mismatch: stored {crc_expected:#010x}, "
                f"computed {crc_actual:#010x}"
            )
        stream = io.BytesIO(payload)
    elif magic != _MAGIC_V1:
        raise CheckpointCorruptError(f"bad synopsis magic: {magic!r}")
    header = stream.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise CheckpointCorruptError("truncated synopsis header")
    (item_t1, item_t2, pair_t1, pair_t2, promote,
     n_item_t1, n_item_t2, n_pair_t1, n_pair_t2) = _HEADER.unpack(header)

    # Rebuild an analyzer whose tier split matches the dumped capacities.
    try:
        analyzer = OnlineAnalyzer(AnalyzerConfig(
            item_capacity=max(1, (item_t1 + item_t2) // 2),
            correlation_capacity=max(1, (pair_t1 + pair_t2) // 2),
            promote_threshold=promote,
            t2_ratio=item_t2 / max(1, item_t1 + item_t2),
        ))
        items = analyzer.items._table
        correlations = analyzer.correlations._table
        items._t1 = type(items.t1)(item_t1)
        items._t2 = type(items.t2)(item_t2)
        correlations._t1 = type(correlations.t1)(pair_t1)
        correlations._t2 = type(correlations.t2)(pair_t2)
    except ValueError as exc:
        raise CheckpointCorruptError(f"bad synopsis header: {exc}") from exc

    def _read_section(count: int, table, tier: int, entry: struct.Struct,
                      make_key, what: str) -> None:
        """Read one tier's entries, rejecting what no access sequence can
        produce: a key listed twice (within a tier or across both) and a
        T1 tally at or above the promotion threshold, which the hit that
        reached it would have promoted."""
        queue = table.t1 if tier == TIER1 else table.t2
        for _ in range(count):
            chunk = stream.read(entry.size)
            if len(chunk) != entry.size:
                raise CheckpointCorruptError(f"truncated {what} section")
            *fields, tally = entry.unpack(chunk)
            try:
                key = make_key(*fields)
            except ValueError as exc:
                raise CheckpointCorruptError(
                    f"bad {what} entry: {exc}") from exc
            if key in table:
                raise CheckpointCorruptError(
                    f"{what} {key} appears twice (in "
                    f"T{table.tier_of(key)}, again in T{tier})")
            if tier == TIER1 and tally >= promote:
                raise CheckpointCorruptError(
                    f"{what} {key} has tally {tally} in T1, at or above "
                    f"the promotion threshold {promote}")
            queue.insert(key, tally)

    def _pair(a_start: int, a_length: int, b_start: int,
              b_length: int) -> ExtentPair:
        return ExtentPair(Extent(a_start, a_length), Extent(b_start, b_length))

    _read_section(n_item_t1, items, TIER1, _ITEM, Extent, "item")
    _read_section(n_item_t2, items, TIER2, _ITEM, Extent, "item")
    _read_section(n_pair_t1, correlations, TIER1, _PAIR, _pair, "pair")
    _read_section(n_pair_t2, correlations, TIER2, _PAIR, _pair, "pair")
    for tier in (correlations.t1, correlations.t2):
        for pair, _tally in tier.items():
            analyzer.correlations._index(pair)
    return analyzer


def dumps_analyzer(analyzer: OnlineAnalyzer) -> bytes:
    """Serialise to bytes (convenience wrapper)."""
    buffer = io.BytesIO()
    dump_analyzer(analyzer, buffer)
    return buffer.getvalue()


def loads_analyzer(data: bytes) -> OnlineAnalyzer:
    """Restore from bytes (convenience wrapper)."""
    return load_analyzer(io.BytesIO(data))


def synopsis_size_bytes(analyzer: OnlineAnalyzer) -> int:
    """Checkpoint size for the analyzer's current contents."""
    item_entries = len(analyzer.items)
    pair_entries = len(analyzer.correlations)
    return (len(_MAGIC) + _INTEGRITY.size + _HEADER.size
            + item_entries * _ITEM.size + pair_entries * _PAIR.size)


# ---------------------------------------------------------------------------
# Atomic file checkpoints
# ---------------------------------------------------------------------------

PathOrStr = Union[str, Path]

#: Test seam: called (with the temp path and the final path) after the
#: temp file is written and fsynced, just before the atomic rename.  The
#: fault harness (:mod:`repro.resilience.faults`) raises here to prove a
#: crash in that window can never clobber the previous good checkpoint.
_pre_rename_hook = None


def _run_pre_rename_hook(tmp_path: Path, path: Path) -> None:
    if _pre_rename_hook is not None:
        _pre_rename_hook(tmp_path, path)


def save_checkpoint(analyzer: OnlineAnalyzer, path: PathOrStr) -> int:
    """Atomically write a checkpoint file; returns bytes written.

    The synopsis is written to a temporary file in the target directory,
    fsynced, and renamed over ``path``.  A crash at any point leaves either
    the previous checkpoint or the new one -- never a torn file.
    """
    path = Path(path)
    tmp_path = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp_path, "wb") as stream:
            written = dump_analyzer(analyzer, stream)
            stream.flush()
            os.fsync(stream.fileno())
        _run_pre_rename_hook(tmp_path, path)
        os.replace(tmp_path, path)
    finally:
        if tmp_path.exists():
            tmp_path.unlink()
    return written


def load_checkpoint(path: PathOrStr) -> OnlineAnalyzer:
    """Load and integrity-check a checkpoint file.

    Raises :class:`CheckpointCorruptError` on any corruption and the usual
    :class:`OSError` family on I/O failure.
    """
    with open(path, "rb") as stream:
        return load_analyzer(stream)
