"""Uniform result serialization and the on-disk artifact store.

Every experiment result is a dataclass; :class:`JsonResultMixin` gives each
of them the same ``to_dict()``: a plain, JSON-round-trippable dictionary of
the result's fields (plus its ``summary()`` when it defines one).  The
encoding is canonical — running the same experiment with the same config
twice yields byte-identical ``json.dumps`` output — which is what makes the
sweep cache and the determinism tests possible.

:class:`ResultStore` is a small content-addressed artifact store: sweep
points are cached under a key derived from the experiment name and the
*full* resolved config, so re-running a sweep only computes the points that
changed.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from collections.abc import Mapping
from pathlib import Path
from typing import Any, ClassVar, Optional

import numpy as np


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-serializable plain types.

    Handles the shapes that appear in experiment results: dataclasses,
    enums, numpy scalars/arrays, mappings with non-string keys (stringified
    deterministically — e.g. ``4.0`` → ``"4.0"``, ``(0, 2)`` → ``"(0, 2)"``)
    and arbitrary iterables.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, enum.Enum):
        return to_jsonable(value.value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        if isinstance(value, JsonResultMixin):
            return value.to_dict()
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        encoded: dict[str, Any] = {}
        for key, item in value.items():
            if isinstance(key, str):
                name = key
            elif isinstance(key, enum.Enum):
                name = str(key.value)
            else:
                name = str(key)  # 4.0 -> "4.0", (0, 2) -> "(0, 2)"
            encoded[name] = to_jsonable(item)
        return encoded
    if isinstance(value, (list, tuple, frozenset, set)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [to_jsonable(item) for item in items]
    if callable(getattr(value, "to_dict", None)):
        return to_jsonable(value.to_dict())
    raise TypeError(f"cannot encode {type(value).__name__} for JSON: {value!r}")


class JsonResultMixin:
    """Uniform ``to_dict()`` for experiment result dataclasses.

    Fields named in ``_json_exclude`` are omitted (used for bulky raw
    inputs like a full :class:`~repro.traffic.trace.TrafficTrace`); if the
    result defines ``summary()``, it is included under ``"summary"`` so a
    serialized result carries its headline numbers.
    """

    _json_exclude: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {}
        for field in dataclasses.fields(self):
            if field.name in self._json_exclude:
                continue
            payload[field.name] = to_jsonable(getattr(self, field.name))
        summary = getattr(self, "summary", None)
        if callable(summary):
            payload["summary"] = to_jsonable(summary())
        return payload


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------
class ResultStore:
    """Content-addressed JSON cache for experiment results.

    Keys are derived from the package version, the experiment name and the
    fully resolved config dictionary, so any config change (including a
    derived per-point sweep seed) produces a different artifact, while
    re-running an identical point is a cache hit.  The version component
    bounds staleness: when the experiment code changes in a release, old
    artifacts stop matching instead of silently serving pre-change numbers.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key_for(experiment: str, config: Mapping[str, Any]) -> str:
        from .. import __version__

        canonical = json.dumps(
            {
                "version": __version__,
                "experiment": experiment,
                "config": to_jsonable(dict(config)),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[dict[str, Any]]:
        """The cached payload for ``key``, or ``None`` on a miss."""
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    def save(self, key: str, payload: Mapping[str, Any]) -> Path:
        """Atomically persist ``payload`` under ``key``."""
        path = self.path_for(key)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(to_jsonable(dict(payload))), encoding="utf-8")
        tmp.replace(path)
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
