"""Prefetch policies that consume detected correlations.

The paper's introduction motivates real-time characterization with
exactly this consumer: "once the framework knows that extent A is
frequently followed by extent B, a cache can pull B in when A is
requested".  Three prefetchers implement that idea at different points
of the online/offline spectrum:

* :class:`SynopsisPrefetcher` -- the **online** closed loop.  On every
  miss it queries a *live* synopsis (any
  :class:`~repro.engine.backends.base.SynopsisBackend`, an analyzer, or
  an engine from :func:`~repro.engine.build_engine`, in-process or
  process-sharded) for the missed extent's strongest partners through
  its ``correlated_with``,
  under a prefetch ``budget``, a ``min_support`` confidence floor, and
  accuracy-driven throttling: when the cache's measured
  ``prefetch_accuracy`` drops below a watermark the effective budget
  backs off multiplicatively, and recovers once accuracy does.
* :class:`CorrelationPrefetcher` -- a **frozen** table of partners built
  once from an analyzer's frequent pairs (the legacy
  ``repro.optimize.prefetch`` behavior, kept for comparison: it cannot
  adapt to drift).
* :class:`RulePrefetcher` -- directional ``A -> B`` association rules
  only (no reverse prefetch below confidence).

The MITHRIL-style offline baseline lives in :mod:`repro.cache.miner`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.analyzer import OnlineAnalyzer
from ..core.extent import Extent

try:
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - Python < 3.8 fallback
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


@runtime_checkable
class Prefetcher(Protocol):
    """What the cache driver requires of a prefetch policy."""

    def partners_of(self, extent: Extent) -> List[Extent]:
        """Extents to prefetch when ``extent`` is demand-accessed."""
        ...


class SynopsisPrefetcher:
    """Online prefetching straight off the live synopsis.

    ``budget`` bounds partners prefetched per miss (cache-pollution
    control); ``min_support`` is the confidence floor -- a partner whose
    tally is below it is never speculated on.  Throttling watches the
    accuracy the attached cache measures (fed via :meth:`adjust`): below
    ``backoff_accuracy`` the effective budget halves (to zero, i.e.
    fully paused, if accuracy stays bad); at or above
    ``restore_accuracy`` it recovers one step per adjustment.  A paused
    prefetcher keeps re-evaluating, so a workload whose correlations
    become predictive again turns prefetching back on.
    """

    def __init__(
        self,
        synopsis,
        budget: int = 2,
        min_support: int = 2,
        backoff_accuracy: float = 0.2,
        restore_accuracy: float = 0.5,
    ) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if min_support < 1:
            raise ValueError("min_support must be >= 1")
        if not 0.0 <= backoff_accuracy <= restore_accuracy <= 1.0:
            raise ValueError(
                "need 0 <= backoff_accuracy <= restore_accuracy <= 1, got "
                f"{backoff_accuracy} / {restore_accuracy}"
            )
        self.synopsis = synopsis
        self.budget = budget
        self.min_support = min_support
        self.backoff_accuracy = backoff_accuracy
        self.restore_accuracy = restore_accuracy
        self._effective_budget = budget
        self.adjustments = 0
        self.backoffs = 0

    @property
    def effective_budget(self) -> int:
        """The throttled per-miss budget right now."""
        return self._effective_budget

    @property
    def paused(self) -> bool:
        return self._effective_budget == 0

    def partners_of(self, extent: Extent) -> List[Extent]:
        budget = self._effective_budget
        if budget == 0:
            return []
        ranked = self.synopsis.correlated_with(extent, budget)
        min_support = self.min_support
        return [partner for partner, count in ranked
                if count >= min_support][:budget]

    def adjust(self, accuracy: float, issued: int = 1) -> None:
        """Feed back the cache's measured prefetch accuracy.

        Called periodically by the cache driver with the accuracy over
        the most recent feedback window; ``issued`` is the number of
        prefetches issued in that window (no prefetches -> no evidence,
        except that a paused prefetcher uses the quiet window to probe
        its way back up).
        """
        self.adjustments += 1
        if issued == 0:
            # Nothing speculated: no accuracy evidence.  If paused, use
            # the quiet window to probe with a minimal budget again.
            if self._effective_budget == 0:
                self._effective_budget = 1
            return
        if accuracy < self.backoff_accuracy:
            if self._effective_budget > 0:
                self._effective_budget //= 2
                self.backoffs += 1
        elif accuracy >= self.restore_accuracy:
            if self._effective_budget < self.budget:
                self._effective_budget += 1


class CorrelationPrefetcher:
    """Prefetches the frequent partners of each accessed extent.

    Built **once** from an analyzer's correlation table; ``fanout``
    bounds how many partners are prefetched per access (strongest
    first), keeping cache pollution in check.  Unlike
    :class:`SynopsisPrefetcher` the partner table is frozen at
    construction time.
    """

    def __init__(
        self,
        analyzer: OnlineAnalyzer,
        min_support: int = 2,
        fanout: int = 2,
    ) -> None:
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.fanout = fanout
        self._partners: Dict[Extent, List[Tuple[Extent, int]]] = {}
        for pair, tally in analyzer.frequent_pairs(min_support):
            self._partners.setdefault(pair.first, []).append(
                (pair.second, tally))
            self._partners.setdefault(pair.second, []).append(
                (pair.first, tally))
        for partners in self._partners.values():
            partners.sort(key=lambda entry: (-entry[1], entry[0]))

    def partners_of(self, extent: Extent) -> List[Extent]:
        return [
            partner for partner, _tally in self._partners.get(extent, [])
        ][: self.fanout]


class RulePrefetcher:
    """Directional prefetching from association rules.

    Unlike :class:`CorrelationPrefetcher`, which prefetches the partners
    of a pair in both directions, a rule prefetcher follows ``A -> B``
    rules only in their mined direction and only above a confidence
    threshold -- so an extent that *follows* a popular extent, but
    rarely precedes it, does not trigger wasted prefetches of the
    popular one.
    """

    def __init__(self, rule_index, fanout: int = 2) -> None:
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self._rules = rule_index
        self.fanout = fanout

    def partners_of(self, extent: Extent) -> List[Extent]:
        return self._rules.consequents_of(extent, limit=self.fanout)
