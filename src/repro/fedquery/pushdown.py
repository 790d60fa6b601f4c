"""Predicate classification and push-down analysis.

The planner decides, per predicate, where it can be evaluated:

* ``app`` predicates prune federation members outright;
* execution-attribute predicates (and ``exec``) push down through
  ``getExecsOp`` — every store answers them against its own engine
  (SQL for the RDBMS stores, header scans for text);
* ``focus`` predicates constrain the *query foci* passed to ``getPR``
  (the thesis's query model: foci are an input coordinate, so selecting
  them shrinks the store-side scan);
* ``start``/``end`` predicates become the getPR time window;
* ``type`` predicates become the getPR resultType;
* ``value`` predicates push down as inclusive bounds on ``getPRAgg``
  when every one is ``>=``, ``<=`` or ``=``; a strict ``<``/``>``/``!=``
  forces raw rows back to the client for exact filtering.

Everything here is pure analysis over the AST — no I/O — so the same
functions serve the planner, the executor's residual filters, and the
naive reference implementation the oracle test compares against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from repro.fedquery.ast import Predicate, Query
from repro.mapping.base import compare_attribute

#: window defaults when the query has no start/end predicates; stores
#: clamp or filter against these exactly as against user bounds
WINDOW_START = 0.0
WINDOW_END = 1e30

#: value-predicate operators expressible as inclusive getPRAgg bounds
_PUSHABLE_VALUE_OPS = ("=", "<=", ">=")


@dataclass(frozen=True)
class PredicateSplit:
    """The WHERE conjunction, bucketed by evaluation site."""

    app: tuple[Predicate, ...]
    exec_ids: tuple[Predicate, ...]
    focus: tuple[Predicate, ...]
    type: Predicate | None
    time: tuple[Predicate, ...]
    value: tuple[Predicate, ...]
    attrs: tuple[Predicate, ...]


def split_predicates(query: Query) -> PredicateSplit:
    buckets: dict[str, list[Predicate]] = {
        "app": [], "exec": [], "focus": [], "type": [], "time": [], "value": [], "attrs": []
    }
    for pred in query.where:
        if pred.field in ("start", "end"):
            buckets["time"].append(pred)
        elif pred.field in buckets:
            buckets[pred.field].append(pred)
        else:
            buckets["attrs"].append(pred)
    types = buckets["type"]
    return PredicateSplit(
        app=tuple(buckets["app"]),
        exec_ids=tuple(buckets["exec"]),
        focus=tuple(buckets["focus"]),
        type=types[0] if types else None,
        time=tuple(buckets["time"]),
        value=tuple(buckets["value"]),
        attrs=tuple(buckets["attrs"]),
    )


def derive_window(time_preds: tuple[Predicate, ...]) -> tuple[float, float]:
    """The getPR time window implied by start/end predicates.

    ``start >= t`` bounds raise the window start, ``end <= t`` bounds
    lower the window end; with no predicates the window is wide open.
    """
    start, end = WINDOW_START, WINDOW_END
    for pred in time_preds:
        bound = float(str(pred.value))
        if pred.field == "start":
            start = max(start, bound)
        else:
            end = min(end, bound)
    return start, end


@dataclass(frozen=True)
class ValueBounds:
    """Inclusive value bounds, when the value conjunction can express them."""

    minimum: float | None
    maximum: float | None
    pushable: bool


def derive_value_bounds(value_preds: tuple[Predicate, ...]) -> ValueBounds:
    if any(pred.op not in _PUSHABLE_VALUE_OPS for pred in value_preds):
        return ValueBounds(None, None, pushable=False)
    minimum: float | None = None
    maximum: float | None = None
    for pred in value_preds:
        bound = float(str(pred.value))
        if pred.op in ("=", ">="):
            minimum = bound if minimum is None else max(minimum, bound)
        if pred.op in ("=", "<="):
            maximum = bound if maximum is None else min(maximum, bound)
    return ValueBounds(minimum, maximum, pushable=True)


def focus_allowlist(focus_preds: tuple[Predicate, ...]) -> frozenset[str] | None:
    """The set of foci the query admits (None = unconstrained).

    Multiple focus predicates AND together, so their value sets
    intersect; an empty set means the query can match nothing.
    """
    allowed: frozenset[str] | None = None
    for pred in focus_preds:
        values = frozenset(pred.values())
        allowed = values if allowed is None else (allowed & values)
    return allowed


def filter_foci(exec_foci: list[str], allowlist: frozenset[str] | None) -> list[str]:
    """Query foci for one execution: its foci, narrowed by the allowlist."""
    if allowlist is None:
        return list(exec_foci)
    return [focus for focus in exec_foci if focus in allowlist]


# ----------------------------------------------------------- residual filters
def app_matches(app_name: str, app_preds: tuple[Predicate, ...]) -> bool:
    for pred in app_preds:
        if pred.op == "=" and app_name != pred.value:
            return False
        if pred.op == "!=" and app_name == pred.value:
            return False
        if pred.op == "in" and app_name not in pred.values():
            return False
    return True


def _compare(stored: str, pred: Predicate) -> bool:
    """One predicate against one stored attribute value.

    ``IN`` is the disjunction of equality comparisons, matching how the
    planner decomposes it into a union of ``getExecsOp(=)`` calls.
    """
    if pred.op == "in":
        return any(compare_attribute(stored, v, "=") for v in pred.values())
    return compare_attribute(stored, str(pred.value), pred.op)


def exec_matches(exec_id: str, exec_preds: tuple[Predicate, ...]) -> bool:
    return all(_compare(exec_id, pred) for pred in exec_preds)


def attrs_match(info: dict[str, str], attr_preds: tuple[Predicate, ...]) -> bool:
    """Client-side attribute filter over an execution's info records."""
    for pred in attr_preds:
        stored = info.get(pred.field)
        if stored is None:
            return False
        if not _compare(stored, pred):
            return False
    return True


def matches_value(value: float, value_preds: tuple[Predicate, ...]) -> bool:
    """Exact client-side value filter (the non-pushable fallback)."""
    return bool(matching_rows((value,), value_preds))


#: a value predicate's comparison, as a function of ``(value, bound)``
_VALUE_OPS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def matching_rows(values: Sequence[float], value_preds: tuple[Predicate, ...]) -> Sequence[int]:
    """Positions of the *values* every predicate keeps, one pass each."""
    kept: Sequence[int] = range(len(values))
    for pred in value_preds:
        compare, bound = _VALUE_OPS[pred.op], float(str(pred.value))
        kept = [i for i in kept if compare(values[i], bound)]
    return kept
