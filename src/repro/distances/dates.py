"""Date distance in days (Table 2: ``date``)."""

from __future__ import annotations

import datetime as _dt
import re
from typing import Sequence

import numpy as np

from repro.distances.base import (
    DistanceMeasure,
    INFINITE_DISTANCE,
    ValueColumn,
    absdiff_column,
    min_over_pairs,
)

_FORMATS = (
    "%Y-%m-%d",
    "%Y/%m/%d",
    "%d.%m.%Y",
    "%d/%m/%Y",
    "%m/%d/%Y",
    "%B %d, %Y",
    "%d %B %Y",
    "%b %d, %Y",
)

_YEAR_RE = re.compile(r"^\s*(\d{4})\s*$")

# English month names (the C locale's ``calendar.month_name``), so
# ``%B``/``%b`` do not follow the process's ``LC_TIME``.
_MONTH_NAMES = (
    "january", "february", "march", "april", "may", "june",
    "july", "august", "september", "october", "november", "december",
)
_FULL_MONTHS = {name: number for number, name in enumerate(_MONTH_NAMES, 1)}
_ABBR_MONTHS = {name[:3]: number for number, name in enumerate(_MONTH_NAMES, 1)}


def _alternation(group: str, names) -> str:
    # Longest first, as ``_strptime`` orders them, so no name matches as
    # a prefix of a longer one.
    ordered = sorted(names, key=len, reverse=True)
    return f"(?P<{group}>{'|'.join(re.escape(name) for name in ordered)})"


# The directive patterns of CPython's ``_strptime.TimeRE``.
_DIRECTIVES = {
    "Y": r"(?P<Y>\d\d\d\d)",
    "m": r"(?P<m>1[0-2]|0[1-9]|[1-9])",
    "d": r"(?P<d>3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])",
    "B": _alternation("B", _FULL_MONTHS),
    "b": _alternation("b", _ABBR_MONTHS),
}


def _compile_format(fmt: str) -> re.Pattern:
    """The regex ``strptime`` builds for ``fmt``: regex metacharacters
    escaped, each whitespace run matching ``\\s+``, case-insensitive."""
    pattern = re.sub(r"([\\.^$*+?\(\){}\[\]|])", r"\\\1", fmt)
    pattern = re.sub(r"\s+", r"\\s+", pattern)
    pattern = re.sub(r"%(.)", lambda m: _DIRECTIVES[m.group(1)], pattern)
    return re.compile(pattern, re.IGNORECASE)


_FORMAT_RES = tuple(_compile_format(fmt) for fmt in _FORMATS)


def parse_date(value: str) -> _dt.date | None:
    """Parse a date string; bare years resolve to January 1st.

    Accepts exactly what ``datetime.strptime`` accepts for ``_FORMATS``
    under the C locale, tried in order, with every regex compiled once
    (``strptime`` caches only five and would recompile in turn)."""
    text = value.strip()
    year_match = _YEAR_RE.match(text)
    if year_match is not None:
        year = int(year_match.group(1))
        if 1 <= year <= 9999:
            return _dt.date(year, 1, 1)
        return None
    for regex in _FORMAT_RES:
        found = regex.match(text)
        if found is None or found.end() != len(text):
            continue
        fields = found.groupdict()
        if "m" in fields:
            month = int(fields["m"])
        elif "B" in fields:
            month = _FULL_MONTHS.get(fields["B"].lower())
        else:
            month = _ABBR_MONTHS.get(fields["b"].lower())
        if month is None:
            continue  # a case-folded match such as "Auguſt"
        try:
            return _dt.date(int(fields["Y"]), month, int(fields["d"]))
        except ValueError:
            continue
    return None


def _pair_distance(a: str, b: str) -> float:
    da = parse_date(a)
    db = parse_date(b)
    if da is None or db is None:
        return INFINITE_DISTANCE
    return float(abs((da - db).days))


def _parse_ordinal(value: str) -> float | None:
    """Parse a date to its proleptic ordinal as a float.

    ``abs((da - db).days)`` equals ``abs(ordinal_a - ordinal_b)``
    exactly, and ordinals (< 3.7 million) are exact in float64, so the
    batch kernel's vectorized difference is bit-identical to the scalar
    ``timedelta`` arithmetic.
    """
    date = parse_date(value)
    return None if date is None else float(date.toordinal())


class DateDistance(DistanceMeasure):
    """Absolute difference between two dates in days."""

    name = "date"
    threshold_range = (0.0, 730.0)
    batch_capable = True

    def evaluate(self, values_a: Sequence[str], values_b: Sequence[str]) -> float:
        return min_over_pairs(values_a, values_b, _pair_distance)

    def evaluate_column(
        self, columns_a: ValueColumn, columns_b: ValueColumn
    ) -> np.ndarray:
        """Vectorized day differences over parsed date ordinals: each
        distinct value set is parsed once per batch instead of
        once per pair, singleton rows reduce to one ``|a - b|`` numpy
        expression."""
        return absdiff_column(columns_a, columns_b, _parse_ordinal)
