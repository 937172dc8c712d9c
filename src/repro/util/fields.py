"""Field tables: the one check every decoder of outside JSON makes.

Every file this repository reads back — trace lines, fault plans, run
manifests, counterfactual specs, serve records and checkpoints, sweep
rows — is decoded through a table ``name -> (required, test, what)``
passed to :func:`check_fields` before anything is built from the
object.  The check raises ``KeyError`` for a missing required field and
``TypeError`` for a field that fails its test (or an object that is not
one); each decoder maps both to its own typed error, which the CLI
reports in one line with exit 2.

The tests are exact where JSON is loose: ``bool`` is not a number and
NaN and ±inf are not finite, although :mod:`json` decodes all of them.
Range checks that do not depend on the encoding (``duration > 0``,
``capacity >= 1``) stay in the constructors.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Callable, Collection, Mapping

#: One table entry: (required, test, what a passing value is).
Field = tuple[bool, Callable[[Any], bool], str]

_FLOAT_MAX = sys.float_info.max


def check_fields(row: Any, fields: Mapping[str, Field]) -> None:
    """Check a decoded object against ``fields``.  An optional field may
    be absent or null; fields the table does not name are not read."""
    if not isinstance(row, dict):
        raise TypeError(f"expected an object, got {row!r:.40}")
    for name, (required, ok, what) in fields.items():
        value = row.get(name)
        if value is None:
            if not required:
                continue
            if name not in row:
                raise KeyError(name)
        if not ok(value):
            raise TypeError(f"{name!r} must be {what}, got {value!r:.40}")


def is_int(v: Any) -> bool:
    """A JSON integer (``bool`` excluded)."""
    return type(v) is int


def is_count(v: Any) -> bool:
    """A JSON integer ``>= 0``."""
    return type(v) is int and v >= 0


def is_real(v: Any) -> bool:
    """A finite number (``bool`` and ints beyond the float range
    excluded)."""
    if type(v) is int:
        return -_FLOAT_MAX <= v <= _FLOAT_MAX
    return isinstance(v, float) and math.isfinite(v)


def is_time(v: Any) -> bool:
    """A sim time: a finite number ``>= 0`` whose microsecond count (the
    Perfetto ``ts``) is finite too."""
    return is_real(v) and v >= 0 and math.isfinite(v * 1e6)


def is_prob(v: Any) -> bool:
    return is_real(v) and 0 <= v <= 1


def is_int_pair(v: Any) -> bool:
    """A ``[pid, seq]`` key or a ``[value, pid]`` scalar stamp."""
    return type(v) is list and len(v) == 2 and type(v[0]) is int \
        and type(v[1]) is int


def is_str(v: Any) -> bool:
    return type(v) is str


def is_bool(v: Any) -> bool:
    return type(v) is bool


def is_list(v: Any) -> bool:
    return type(v) is list


def is_object(v: Any) -> bool:
    return type(v) is dict


def one_of(choices: Collection[str]) -> Callable[[Any], bool]:
    """A test passing exactly the strings in ``choices``."""
    return lambda v: type(v) is str and v in choices


def list_of(test: Callable[[Any], bool]) -> Callable[[Any], bool]:
    """A test passing a list whose items all pass ``test``."""
    return lambda v: type(v) is list and all(map(test, v))


__all__ = [
    "Field", "check_fields", "is_bool", "is_count", "is_int", "is_int_pair",
    "is_list", "is_object", "is_prob", "is_real", "is_str", "is_time",
    "list_of", "one_of",
]
