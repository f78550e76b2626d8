"""Decoding one JSONL line into a checked JSON object, and the decision line.

Golden traces, serving recordings and offline-training shards are files
the program reads from outside, one JSON object per line.  Each loader
decodes a line with :func:`read_object` and checks it against a *schema*
-- a mapping from key to :data:`Kind` -- with :func:`check_object`, so
every malformed line ends in a ``ValueError`` worded the same way, with
the caller's ``where`` (e.g. ``"recording line 3"``) in front:

* ``{where} is not JSON: …`` / ``{where} is not a JSON object: list``;
* ``{where} is missing key 'fn'`` / ``{where} has unexpected key 'x'``;
* ``{where} key 'seed' is not an int: 'x'``.

JSON ``true``/``false`` decode to ``bool``, which Python counts as an
int, so the numeric kinds compare exact types and reject booleans.
``json.loads`` also decodes the non-standard ``NaN``, ``Infinity`` and
``-Infinity``; :data:`NUMBER` rejects them (``key 't' is not a number:
nan``), since no time, latency or capacity a loader reads can be one.

Golden traces and serving recordings store one scheduling decision as
the same line, :data:`DECISION_SCHEMA`.  :func:`decision_line` is the one
place that maps an invocation record's fields to that line's keys, and
:func:`first_divergence` the one report of the first key two lines (or
two headers) disagree on, as a :class:`Divergence`.
This module imports nothing but the standard library.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

#: A JSON value kind: a predicate on the decoded value, and the phrase an
#: error message uses for it ("is not {label}").
Kind = Tuple[Callable[[Any], bool], str]

INT: Kind = (lambda v: type(v) is int, "an int")
NUMBER: Kind = (
    lambda v: type(v) is int or (type(v) is float and math.isfinite(v)),
    "a number",
)
STR: Kind = (lambda v: type(v) is str, "a string")
BOOL: Kind = (lambda v: type(v) is bool, "a bool")

#: The Table-I match level: 0 is a cold start (no match), 1..3 are warm
#: starts at L1..L3.
MATCH_LEVEL: Kind = (lambda v: type(v) is int and 0 <= v <= 3,
                     "an int match level in 0..3")

#: One scheduling decision as golden-trace lines and serving-recording
#: decision lines both store it (a trace line adds its index ``i``):
#: invocation id, function, arrival time, cold flag, container id, match
#: level, startup latency, queueing delay, worker id and execution time.
DECISION_SCHEMA: Dict[str, Kind] = {
    "inv": INT, "fn": STR, "t": NUMBER, "cold": BOOL, "cid": INT,
    "m": MATCH_LEVEL, "lat": NUMBER, "q": NUMBER, "w": INT, "exec": NUMBER,
}


def decision_line(record) -> Dict[str, Any]:
    """The decision line of an ``InvocationRecord``, in schema key order.

    ``cold`` is a bool and ``m`` the match level as an int; the other
    values are the record's own.  Reads attributes only, so any object
    with the record's field names encodes.
    """
    return {
        "inv": record.invocation_id,
        "fn": record.function_name,
        "t": record.arrival_time,
        "cold": bool(record.cold_start),
        "cid": record.container_id,
        "m": int(record.match),
        "lat": record.startup_latency_s,
        "q": record.queue_delay_s,
        "w": record.worker_id,
        "exec": record.execution_time_s,
    }


@dataclass(frozen=True)
class Divergence:
    """The first key where two lines disagree.

    ``index`` is the line's event or decision index (``-1`` for a
    header), ``field`` the JSON key, and ``expected`` / ``actual`` the
    two values.
    """

    index: int
    field: str
    expected: Any
    actual: Any

    def __str__(self) -> str:
        where = "header" if self.index < 0 else f"event {self.index}"
        return (
            f"first divergence at {where}, field {self.field!r}: "
            f"expected {self.expected!r}, got {self.actual!r}"
        )


def first_divergence(index: int, expected: Mapping[str, Any],
                     actual: Mapping[str, Any],
                     keys: Iterable[str]) -> Optional[Divergence]:
    """The first of ``keys`` whose values differ, or ``None``."""
    for key in keys:
        want, got = expected[key], actual[key]
        if want != got:
            return Divergence(index, key, want, got)
    return None


def nullable(kind: Kind) -> Kind:
    """``kind`` or JSON ``null``."""
    check, label = kind
    return (lambda v: v is None or check(v), f"{label} or null")


def read_object(line: str, where: str) -> Dict[str, Any]:
    """Decode ``line``, which must hold one JSON object.

    ``ValueError`` prefixed with ``where`` when it is not JSON or holds
    another JSON value.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where} is not JSON: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{where} is not a JSON object: "
                         f"{type(data).__name__}")
    return data


def check_object(data: Mapping[str, Any], schema: Mapping[str, Kind],
                 where: str, closed: bool = True) -> None:
    """``ValueError`` unless ``data`` holds every ``schema`` key at its kind.

    Checks run in order -- missing keys, then (when ``closed``) keys the
    schema does not name, then each value's kind in schema order -- and
    the first failure is reported, prefixed with ``where``.
    """
    for key in schema:
        if key not in data:
            raise ValueError(f"{where} is missing key {key!r}")
    if closed:
        for key in data:
            if key not in schema:
                raise ValueError(f"{where} has unexpected key {key!r}")
    for key, (check, label) in schema.items():
        value = data[key]
        if not check(value):
            raise ValueError(f"{where} key {key!r} is not {label}: "
                             f"{value!r}")
