"""Machine-readable export of experiment results.

The markdown renderers serve humans; this module serialises the same
dataclass points to JSON so plots and regression dashboards can consume
regenerated results (`python -m repro run fig13 --json out.json`).
Any experiment's point list works — dataclasses are introspected, enums
flattened to their labels.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from pathlib import Path
from typing import Any, List, Sequence


def _jsonify(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return getattr(value, "label", value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonify(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, bytes):
        return value.hex()
    return value


def points_to_records(points: Sequence[Any]) -> List[dict]:
    """Convert a list of experiment dataclass points to plain dicts."""
    return [_jsonify(point) for point in points]


def export_json(points: Sequence[Any], path: str | Path, experiment: str = "") -> int:
    """Write points as ``{"experiment": ..., "points": [...]}`` JSON.

    Returns the number of points written.
    """
    records = points_to_records(points)
    payload = {"experiment": experiment, "points": records}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))
    return len(records)
