"""Deterministic, seeded fault injection.

Testing an always-on monitor means feeding it the traffic it will actually
see: traces with corrupt rows, event streams with drops, duplicates, and
out-of-order delivery, checkpoints with flipped bits.  This module
manufactures exactly those faults, reproducibly -- every decision comes
from a ``random.Random`` seeded by the caller, so a failing run can be
replayed bit-for-bit.

Four layers of fault:

* :class:`FaultInjector` -- perturbs a :class:`BlockIOEvent` stream
  (drop / duplicate / reorder / corrupt), counting what it did;
* :func:`corrupt_msr_csv` -- mangles a fraction of the rows of an MSR CSV
  text so each mangled row is guaranteed unparseable;
* :func:`flip_bits` -- flips bits in a byte string (checkpoint corruption);
* crash injection -- :func:`crash_before_rename` raises
  :class:`SimulatedCrash` inside the atomic checkpoint writers' narrowest
  window (temp file durable, rename not yet issued), and
  :func:`truncate_tail` tears the final bytes off a file the way a crash
  mid-append does to a journal segment.
"""

from __future__ import annotations

import contextlib
import os
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple, Union

from ..core import serialize as _serialize
from ..monitor.events import BlockIOEvent


@dataclass(frozen=True)
class FaultSpec:
    """Per-event fault probabilities and the RNG seed.

    Probabilities are evaluated independently per event, in the order
    corrupt -> drop -> duplicate -> reorder, so e.g. a corrupted event can
    still be duplicated (as happens when a flaky collector retransmits).
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    corrupt: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder", "corrupt"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} probability must be in [0, 1], got {value}"
                )


@dataclass
class FaultCounters:
    """What one injection pass actually did."""

    events_in: int = 0
    events_out: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    corrupted: int = 0

    @property
    def total_faults(self) -> int:
        return self.dropped + self.duplicated + self.reordered + self.corrupted


class FaultInjector:
    """Applies a :class:`FaultSpec` to an event stream, deterministically.

    Reordering is modelled as adjacent swaps: a selected event is held back
    one slot and emitted after its successor -- the out-of-order pattern
    blktrace produces when merging per-CPU buffers.  Corruption perturbs
    the event's start block and length (plausible-looking but wrong data,
    the hardest kind to notice).
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.counters = FaultCounters()
        self._rng = random.Random(spec.seed)

    def _corrupt(self, event: BlockIOEvent) -> BlockIOEvent:
        rng = self._rng
        start = max(0, event.start + rng.randint(-1_000_000, 1_000_000))
        length = rng.randint(1, 4096)
        return replace(event, start=start, length=length)

    def inject(self, events: Iterable[BlockIOEvent]) -> Iterator[BlockIOEvent]:
        """Yield the faulted stream (single pass, bounded memory)."""
        spec, counters, rng = self.spec, self.counters, self._rng
        held: List[BlockIOEvent] = []
        for event in events:
            counters.events_in += 1
            if spec.corrupt and rng.random() < spec.corrupt:
                counters.corrupted += 1
                event = self._corrupt(event)
            if spec.drop and rng.random() < spec.drop:
                counters.dropped += 1
                continue
            out = [event]
            if spec.duplicate and rng.random() < spec.duplicate:
                counters.duplicated += 1
                out.append(event)
            if spec.reorder and rng.random() < spec.reorder:
                # Hold this (possibly duplicated) event back one slot.
                counters.reordered += 1
                held.extend(out)
                continue
            for emitted in out:
                counters.events_out += 1
                yield emitted
            while held:
                counters.events_out += 1
                yield held.pop(0)
        for emitted in held:
            counters.events_out += 1
            yield emitted


# ---------------------------------------------------------------------------
# Trace-file corruption
# ---------------------------------------------------------------------------

#: Row manglings guaranteed to fail MSR CSV parsing.
_ROW_MANGLERS = (
    lambda row, rng: ",".join(row.split(",")[:4]),          # field loss
    lambda row, rng: row.replace(",", ";", 2),              # wrong separator
    lambda row, rng: _swap_field(row, 3, "Frobnicate"),     # unknown op
    lambda row, rng: _swap_field(row, 5, "-4096"),          # negative size
    lambda row, rng: _swap_field(row, 0, "not-a-number"),   # garbage ticks
    lambda row, rng: row + "," + str(rng.randint(0, 9)),    # extra field
)


def _swap_field(row: str, index: int, value: str) -> str:
    fields = row.split(",")
    if index < len(fields):
        fields[index] = value
    return ",".join(fields)


def corrupt_msr_csv(text: str, fraction: float,
                    seed: int = 0) -> Tuple[str, int]:
    """Mangle ``fraction`` of the CSV's data rows; returns (text, count).

    Each selected row is rewritten by a deterministic, rng-chosen mangler
    from a set every member of which is guaranteed to be rejected by
    :func:`~repro.trace.io.read_msr_csv` -- so the returned count is
    exactly the number of rows a lenient reader must report as bad.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = random.Random(seed)
    lines = text.splitlines()
    data_indexes = [
        index for index, line in enumerate(lines)
        if line.strip() and not line.strip().startswith("#")
    ]
    count = round(len(data_indexes) * fraction)
    corrupted = 0
    for index in sorted(rng.sample(data_indexes, count)):
        mangler = rng.choice(_ROW_MANGLERS)
        lines[index] = mangler(lines[index], rng)
        corrupted += 1
    return "\n".join(lines) + ("\n" if text.endswith("\n") else ""), corrupted


# ---------------------------------------------------------------------------
# Byte-level corruption (checkpoints)
# ---------------------------------------------------------------------------

class SimulatedCrash(RuntimeError):
    """Raised by crash-injection hooks to model sudden process death at a
    chosen point.  Not an :class:`OSError`: the retry machinery must not
    swallow it (a real crash isn't retried either)."""


@contextlib.contextmanager
def crash_before_rename(after_writes: int = 0):
    """Arm the checkpoint writers' pre-rename crash hook.

    Within the context, checkpoint save number ``after_writes`` (0-based;
    earlier saves complete normally) raises :class:`SimulatedCrash` in the
    exact window where the temp file is fully written and fsynced but the
    atomic rename has not happened -- the narrowest interval in which a
    real crash could conceivably hurt.  Both the v2
    (:func:`~repro.core.serialize.save_checkpoint`) and engine
    (:func:`~repro.engine.checkpoint.save_engine_checkpoint`) writers
    share the hook.  Yields a one-element list that ends up holding the
    number of saves that ran (crashed one included).
    """
    if after_writes < 0:
        raise ValueError(f"after_writes must be >= 0, got {after_writes}")
    calls = [0]

    def hook(tmp_path, path):
        calls[0] += 1
        if calls[0] > after_writes:
            raise SimulatedCrash(
                f"simulated crash before renaming {tmp_path} -> {path}"
            )

    previous = _serialize._pre_rename_hook
    _serialize._pre_rename_hook = hook
    try:
        yield calls
    finally:
        _serialize._pre_rename_hook = previous


def truncate_tail(path: Union[str, Path], drop_bytes: int) -> int:
    """Tear the last ``drop_bytes`` bytes off ``path`` in place; returns
    the new size.  This is the on-disk signature of a crash mid-append
    (the exact fault a journal's torn-tail-tolerant replay must absorb);
    truncating more than the file holds leaves an empty file.
    """
    if drop_bytes < 0:
        raise ValueError(f"drop_bytes must be >= 0, got {drop_bytes}")
    size = os.path.getsize(path)
    new_size = max(0, size - drop_bytes)
    with open(path, "r+b") as stream:
        stream.truncate(new_size)
    return new_size


def flip_bits(data: bytes, flips: int = 1, seed: int = 0) -> bytes:
    """Return ``data`` with ``flips`` random bits flipped (deterministic)."""
    if not data:
        raise ValueError("cannot flip bits in empty data")
    if flips < 1:
        raise ValueError(f"flips must be >= 1, got {flips}")
    rng = random.Random(seed)
    mutable = bytearray(data)
    for bit in rng.sample(range(len(mutable) * 8), min(flips, len(mutable) * 8)):
        mutable[bit // 8] ^= 1 << (bit % 8)
    return bytes(mutable)
