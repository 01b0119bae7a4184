"""A fault-tolerant wrapper around the characterization service.

:class:`ResilientCharacterizationService` is the deployment-grade shape of
:class:`~repro.service.CharacterizationService` (Fig. 3's always-on
monitor).  It adds:

* **checkpoint I/O with retries** -- :meth:`checkpoint_to` writes
  atomically (temp file + rename) and retries transient I/O failures with
  capped exponential backoff;
* **corruption fallback** -- :meth:`restore_from` rejects a corrupt
  checkpoint (:class:`~repro.core.serialize.CheckpointCorruptError` is
  never retried: corruption is deterministic) and continues serving with
  the same engine reset to empty, flagged *degraded* rather than crashed;
* **observer isolation** -- snapshot observers registered through
  :meth:`observe` are wrapped in :class:`~repro.resilience.guard.SinkGuard`
  so a crashing optimizer hook is counted and, after repeated failures,
  quarantined without stopping ingestion;
* **health reporting** -- :meth:`health` summarises all of the above as
  ``ok`` or ``degraded`` with machine-readable reasons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..core.serialize import CheckpointCorruptError
from ..engine.checkpoint import (
    load_engine_checkpoint,
    save_engine_checkpoint,
)
from ..service import CharacterizationService, SnapshotObserver
from .guard import DEFAULT_FAILURE_LIMIT, SinkGuard
from .policy import BackoffPolicy

HEALTH_OK = "ok"
HEALTH_DEGRADED = "degraded"


@dataclass
class ServiceHealth:
    """One service's condition at a glance."""

    status: str
    reasons: List[str] = field(default_factory=list)
    checkpoint_failures: int = 0
    checkpoint_retries: int = 0
    restore_failures: int = 0
    quarantined_observers: int = 0
    observer_failures: int = 0
    last_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == HEALTH_OK


class ResilientCharacterizationService(CharacterizationService):
    """Characterization service that survives I/O faults and bad consumers."""

    def __init__(
        self,
        *args,
        max_io_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        observer_failure_limit: int = DEFAULT_FAILURE_LIMIT,
        sleep: Callable[[float], None] = time.sleep,
        **kwargs,
    ) -> None:
        """``sleep`` is injectable so tests (and async hosts) can replace
        the real backoff delay; retries are attempted ``max_io_retries``
        times after the initial try, waiting ``backoff_base * 2**attempt``
        seconds, capped at ``backoff_cap``.
        """
        try:
            self.backoff_policy = BackoffPolicy(
                base=backoff_base, cap=backoff_cap, retries=max_io_retries
            )
        except ValueError as exc:
            raise ValueError(f"bad retry configuration: {exc}") from exc
        super().__init__(*args, **kwargs)
        self.max_io_retries = max_io_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.observer_failure_limit = observer_failure_limit
        self._sleep = sleep
        self._guards: List[SinkGuard] = []
        self._degraded_reasons: List[str] = []
        self._checkpoint_failures = 0
        self._checkpoint_retries = 0
        self._restore_failures = 0
        self._degraded_restores = 0
        self._last_error: Optional[str] = None
        self._bind_resilience_metrics()

    # -- telemetry ------------------------------------------------------------

    def _bind_resilience_metrics(self) -> None:
        registry = self.registry
        if not registry.enabled:
            return
        self._resilience_counters = {
            name: registry.counter(f"repro_resilience_{name}_total", help)
            for name, help in {
                "checkpoint_retries": "Checkpoint I/O attempts retried",
                "checkpoint_failures": "Checkpoint writes that exhausted "
                                       "retries",
                "restore_failures": "Restores that hit corruption or I/O "
                                    "errors",
                "degraded_restores": "Restores completed with fresh "
                                     "replacement shards",
                "observer_failures": "Snapshot observer invocations that "
                                     "raised",
            }.items()
        }
        self._degraded_gauge = registry.gauge(
            "repro_resilience_degraded",
            "1 while the service reports itself degraded",
        )
        self._quarantined_gauge = registry.gauge(
            "repro_resilience_quarantined_observers",
            "Observers quarantined after repeated failures",
        )
        registry.register_collector(self._collect_resilience_metrics)

    def _collect_resilience_metrics(self) -> None:
        counters = self._resilience_counters
        counters["checkpoint_retries"].set_total(self._checkpoint_retries)
        counters["checkpoint_failures"].set_total(self._checkpoint_failures)
        counters["restore_failures"].set_total(self._restore_failures)
        counters["degraded_restores"].set_total(self._degraded_restores)
        counters["observer_failures"].set_total(
            sum(guard.failures for guard in self._guards)
        )
        quarantined = sum(1 for guard in self._guards if guard.quarantined)
        self._quarantined_gauge.set(quarantined)
        self._degraded_gauge.set(
            1.0 if (self._degraded_reasons or quarantined) else 0.0
        )

    # -- observer isolation ---------------------------------------------------

    def observe(self, observer: SnapshotObserver) -> SinkGuard:
        """Register an observer behind a :class:`SinkGuard`; returns it."""
        guard = SinkGuard(observer, failure_limit=self.observer_failure_limit)
        self._guards.append(guard)
        super().observe(guard)
        return guard

    @property
    def observer_guards(self) -> List[SinkGuard]:
        return list(self._guards)

    # -- retrying checkpoint I/O ----------------------------------------------

    def _with_retries(self, operation: Callable[[], object]) -> object:
        """Run ``operation``, retrying OSError per the backoff policy."""
        policy = self.backoff_policy
        attempt = 0
        while True:
            try:
                return operation()
            except OSError as exc:
                self._last_error = f"{type(exc).__name__}: {exc}"
                if attempt >= policy.retries:
                    raise
                self._sleep(policy.delay(attempt))
                attempt += 1
                self._checkpoint_retries += 1

    def _save_current(self, path) -> int:
        """Write the current engine atomically (format v4 for a sharded
        engine, v2 for the single analyzer).  The writer resolves through
        the module globals so tests (and hosts) can substitute the I/O
        layer.
        """
        return save_engine_checkpoint(self.analyzer, path)

    def checkpoint_to(self, path) -> int:
        """Atomically checkpoint to ``path``, retrying transient failures.

        A crash mid-write can never clobber a previous good checkpoint
        (see :func:`~repro.core.serialize.save_checkpoint`).  If every
        retry fails the last error is re-raised, but the failure is
        recorded and surfaced by :meth:`health` -- the service itself
        keeps ingesting.
        """
        self.flush()
        try:
            return self._with_retries(lambda: self._save_current(path))
        except OSError:
            self._checkpoint_failures += 1
            self._mark_degraded(f"checkpoint write failed: {self._last_error}")
            raise

    def restore_from(self, path) -> bool:
        """Restore from ``path``; returns True when the checkpoint loaded.

        A corrupt checkpoint (bad CRC, torn structure) is *never* loaded
        -- and never retried, since corruption is deterministic.  A
        sharded (format v3/v4) checkpoint restores *per shard*: a corrupt
        shard envelope is replaced with a fresh synopsis while every
        intact shard keeps its learned state, and the service reports
        itself degraded rather than discarding everything.  The loaded
        engine goes through the same adopt-or-swap step as
        :meth:`restore`, so a process-backed engine keeps its fleet.
        Only whole-file corruption (v2, broken framing, or every shard
        corrupt) falls back to the current engine reset to empty --
        because a monitor with an empty synopsis still beats a dead
        monitor.
        """
        try:
            loaded = self._with_retries(
                lambda: load_engine_checkpoint(path, strict=False)
            )
        except CheckpointCorruptError as exc:
            self._restore_failures += 1
            self._last_error = f"{type(exc).__name__}: {exc}"
            self._fallback_fresh(f"checkpoint corrupt: {exc}")
            return False
        except OSError as exc:
            self._restore_failures += 1
            self._fallback_fresh(f"checkpoint unreadable: {exc}")
            return False
        self._adopt_or_swap(loaded.engine)
        if loaded.corrupt_shards:
            self._restore_failures += 1
            self._degraded_restores += 1
            self._mark_degraded(
                f"checkpoint shards {loaded.corrupt_shards} corrupt; "
                f"restored degraded with fresh replacements"
            )
        return True

    def _fallback_fresh(self, reason: str) -> None:
        self.analyzer.reset()
        self._mark_degraded(reason)

    def _mark_degraded(self, reason: str) -> None:
        if reason not in self._degraded_reasons:
            self._degraded_reasons.append(reason)

    # -- health ---------------------------------------------------------------

    def health(self) -> ServiceHealth:
        """The service's current condition (``ok`` or ``degraded``)."""
        reasons = list(self._degraded_reasons)
        quarantined = sum(1 for guard in self._guards if guard.quarantined)
        observer_failures = sum(guard.failures for guard in self._guards)
        for guard in self._guards:
            if guard.quarantined:
                reasons.append(
                    f"observer {guard.name} quarantined after "
                    f"{guard.consecutive_failures} consecutive failures: "
                    f"{guard.last_error}"
                )
        status = HEALTH_DEGRADED if reasons else HEALTH_OK
        return ServiceHealth(
            status=status,
            reasons=reasons,
            checkpoint_failures=self._checkpoint_failures,
            checkpoint_retries=self._checkpoint_retries,
            restore_failures=self._restore_failures,
            quarantined_observers=quarantined,
            observer_failures=observer_failures,
            last_error=self._last_error,
        )

    def clear_degraded(self) -> None:
        """Operator acknowledgement: drop degraded reasons, reset guards."""
        self._degraded_reasons.clear()
        for guard in self._guards:
            guard.reset()
