"""Rule registry for the repro static-analysis suite."""

from __future__ import annotations

from .base import Rule
from .resource_lifecycle import ResourceLifecycleRule

#: Every shipped rule, in reporting order.
ALL_RULES: list[type[Rule]] = [
    ResourceLifecycleRule,
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
    "ResourceLifecycleRule",
    "Rule",
    "default_rules",
    "rules_by_name",
]
