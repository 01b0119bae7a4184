"""Seeded workload inputs: block I/O events plus the call plan.

Everything the system receives is made here, from the workload seed alone:
an MSR-like trace from :mod:`repro.workloads.enterprise`, replayed on a
seeded simulated SSD (:mod:`repro.blkdev`) into issue events, and a plan
that cuts the event stream into calls -- batches, single events and
top-k queries, interleaved by a seeded generator.  The same
seed gives byte-identical inputs (:func:`digest`).
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.blkdev.device import SsdDevice
from repro.blkdev.replay import replay_timed
from repro.monitor.events import BlockIOEvent
from repro.workloads.enterprise import generate_named

BATCH = "batch"
EVENT = "event"
QUERY = "query"

#: One planned call: (kind, first event index, event count).
Step = Tuple[str, int, int]


#: The program's default client batching (``BatchingWriter``, which
#: ``repro send`` uses): a BATCH frame closes once it holds 512 events or
#: its first event is 0.25 s old.  Plans apply it on the trace's clock.
WRITER_MAX_BATCH = 512
WRITER_MAX_AGE_S = 0.25


@dataclass(frozen=True)
class Mix:
    """How the plan interleaves calls.

    Each ingest call holds ``batch`` events, or, when ``batch`` is None,
    the events the default client batching would put in one frame (see
    :func:`writer_batch`).  Every ingest call is followed by one
    single-event call, and each run of ``query_every`` ingest calls has
    one top-k query after a seeded one of them, so every seed makes the
    same number of these costly calls.
    """

    query_every: int
    batch: Optional[int] = None


@dataclass
class Inputs:
    """The generated events and the plan that feeds them to the system."""

    events: List[BlockIOEvent]
    plan: List[Step]


def make_events(model: str, count: int, seed: int) -> List[BlockIOEvent]:
    """``count`` issue events of the named MSR-like model."""
    records, _truth = generate_named(model, requests=count, seed=seed)
    events: List[BlockIOEvent] = []
    replay_timed(records, SsdDevice(seed=seed), listeners=[events.append],
                 collect=False)
    return events


def writer_batch(events: Sequence[BlockIOEvent], first: int) -> int:
    """Events in the frame the default client batching sends when its
    buffer opens at ``events[first]``, with the trace's timestamps as the
    clock: it flushes after the event that fills it or that arrives
    :data:`WRITER_MAX_AGE_S` after the first."""
    opened = events[first].timestamp
    end = min(len(events), first + WRITER_MAX_BATCH)
    for index in range(first, end):
        if events[index].timestamp - opened >= WRITER_MAX_AGE_S:
            return index - first + 1
    return end - first


def make_plan(events: Sequence[BlockIOEvent], mix: Mix,
              seed: int) -> List[Step]:
    """Cut ``events`` into a seeded sequence of calls."""
    rng = random.Random(f"plan:{seed}")
    plan: List[Step] = []
    position = 0
    calls = 0
    while position < len(events):
        size = mix.batch or writer_batch(events, position)
        if position + size + 1 > len(events):
            break
        if calls % mix.query_every == 0:
            query_after = calls + rng.randrange(mix.query_every)
        plan.append((BATCH, position, size))
        plan.append((EVENT, position + size, 1))
        position += size + 1
        if calls == query_after:
            plan.append((QUERY, position, 0))
        calls += 1
    return plan


def make_inputs(model: str, count: int, mix: Mix, seed: int,
                model_seed: Optional[int] = None) -> Inputs:
    """``count`` events and their plan.

    By default the seed draws a whole model instance: its hot pool and its
    traffic.  With ``model_seed`` the instance is fixed and the seed picks
    a ``count``-event window of a trace a quarter longer, for models whose
    cost per event depends on a few hot extents.
    """
    if model_seed is None:
        events = make_events(model, count, seed)
    else:
        margin = count // 4
        trace = make_events(model, count + margin, model_seed)
        start = random.Random(f"window:{seed}").randrange(margin + 1)
        events = trace[start:start + count]
    return Inputs(events, make_plan(events, mix, seed))


def block_footprint(events: Sequence[BlockIOEvent]) -> int:
    """Distinct 512-byte blocks the events touch."""
    blocks = set()
    for event in events:
        blocks.update(range(event.start, event.start + event.length))
    return len(blocks)


_EVENT_ROW = struct.Struct("<dqcqqdq")


def digest(inputs: Inputs) -> str:
    """SHA-256 over every event field and every planned call."""
    hasher = hashlib.sha256()
    for event in inputs.events:
        latency = event.latency if event.latency is not None else -1.0
        hasher.update(_EVENT_ROW.pack(
            event.timestamp, event.pid, event.op.value.encode(),
            event.start, event.length, latency, event.pgid,
        ))
    for kind, first, count in inputs.plan:
        hasher.update(f"{kind}:{first}:{count};".encode())
    return hasher.hexdigest()
