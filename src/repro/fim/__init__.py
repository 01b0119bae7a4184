"""Offline and stream frequent itemset mining baselines."""

from .apriori import apriori
from .eclat import eclat
from .estdec import EstDecConfig, EstDecMiner
from .fpgrowth import fpgrowth
from .itemset import (
    SupportMap,
    TransactionDatabase,
    filter_max_size,
    frequent_pairs,
    support_of,
)
from .cminer import CMinerConfig, CMinerResult, cminer_from_records, cminer_mine
from ..core.sketches import CountMinParams, CountMinSketch, SpaceSaving
from .rules import AssociationRule, RuleIndex, mine_rules, rules_from_analyzer
from .pairs import (
    exact_extent_counts,
    exact_pair_counts,
    itemsets_to_pair_counts,
    pairs_with_support,
    sorted_by_frequency,
)

__all__ = [
    "AssociationRule",
    "CMinerConfig",
    "CMinerResult",
    "cminer_from_records",
    "cminer_mine",
    "CountMinParams",
    "CountMinSketch",
    "SpaceSaving",
    "EstDecConfig",
    "RuleIndex",
    "mine_rules",
    "rules_from_analyzer",
    "EstDecMiner",
    "SupportMap",
    "TransactionDatabase",
    "apriori",
    "eclat",
    "exact_extent_counts",
    "exact_pair_counts",
    "filter_max_size",
    "fpgrowth",
    "frequent_pairs",
    "itemsets_to_pair_counts",
    "pairs_with_support",
    "sorted_by_frequency",
    "support_of",
]
