"""The repro-lint rule registry.

One module per contract; :func:`default_rules` is the extension point —
a new checker is one class and one line here.
"""

from __future__ import annotations

from .base import ImportMap, LintRule, dotted_name
from .determinism import DeterminismRule
from .floataccounting import FloatAccountingRule
from .imports import SubmoduleImportRule
from .sharedmem import SharedMemoryLifecycleRule
from .spawnsafety import SpawnSafetyRule
from .vectorization import VectorizationRule
from .versioning import VersionBumpRule


def default_rules() -> list[LintRule]:
    """All registered rules, in rule-id order."""
    return [
        DeterminismRule(),
        VersionBumpRule(),
        SharedMemoryLifecycleRule(),
        VectorizationRule(),
        SpawnSafetyRule(),
        FloatAccountingRule(),
        SubmoduleImportRule(),
    ]


__all__ = [
    "DeterminismRule",
    "FloatAccountingRule",
    "ImportMap",
    "LintRule",
    "SharedMemoryLifecycleRule",
    "SpawnSafetyRule",
    "SubmoduleImportRule",
    "VectorizationRule",
    "VersionBumpRule",
    "default_rules",
    "dotted_name",
]
