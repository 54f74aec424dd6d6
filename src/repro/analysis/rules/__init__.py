"""Rule registry for the repro static-analysis suite."""

from __future__ import annotations

from .atomicity import AtomicityRule
from .base import Rule
from .charge_category import ChargeCategoryRule
from .future_drain import FutureDrainRule
from .guarded_by import GuardedByRule
from .knob_consistency import KnobConsistencyRule
from .lock_order import LockOrderRule
from .mutation_completeness import MutationCompletenessRule
from .pickle_boundary import PickleBoundaryRule
from .resource_lifecycle import ResourceLifecycleRule
from .unmetered_row_access import UnmeteredRowAccessRule

#: Every shipped rule, in reporting order.  The first three are the
#: concurrency family, built on the lock-set layer; the last three
#: are the meter-integrity family, built on the interprocedural
#: ProjectIndex.
ALL_RULES: list[type[Rule]] = [
    GuardedByRule,
    LockOrderRule,
    AtomicityRule,
    FutureDrainRule,
    ResourceLifecycleRule,
    PickleBoundaryRule,
    KnobConsistencyRule,
    ChargeCategoryRule,
    UnmeteredRowAccessRule,
    MutationCompletenessRule,
]


def default_rules() -> list[Rule]:
    """Fresh instances of every shipped rule."""
    return [cls() for cls in ALL_RULES]


def rules_by_name(names: list[str]) -> list[Rule]:
    """Instances of the named rules, in registry order.

    Raises :class:`KeyError` naming the first unknown rule, so the
    CLI can turn it into a usage error.
    """
    catalog = {cls.name: cls for cls in ALL_RULES}
    for name in names:
        if name not in catalog:
            raise KeyError(name)
    return [cls() for cls in ALL_RULES if cls.name in set(names)]


__all__ = [
    "ALL_RULES",
    "AtomicityRule",
    "ChargeCategoryRule",
    "FutureDrainRule",
    "GuardedByRule",
    "KnobConsistencyRule",
    "LockOrderRule",
    "MutationCompletenessRule",
    "PickleBoundaryRule",
    "ResourceLifecycleRule",
    "Rule",
    "UnmeteredRowAccessRule",
    "default_rules",
    "rules_by_name",
]
