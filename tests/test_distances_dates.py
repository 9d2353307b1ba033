"""Tests for the date distance."""

import datetime
import itertools
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances.base import INFINITE_DISTANCE
from repro.distances.dates import _FORMATS, DateDistance, parse_date


class TestParseDate:
    def test_iso(self):
        assert parse_date("1994-05-20") == datetime.date(1994, 5, 20)

    def test_slash(self):
        assert parse_date("1994/05/20") == datetime.date(1994, 5, 20)

    def test_german_dotted(self):
        assert parse_date("20.05.1994") == datetime.date(1994, 5, 20)

    def test_long_month_name(self):
        assert parse_date("May 20, 1994") == datetime.date(1994, 5, 20)

    def test_bare_year_resolves_to_january_first(self):
        assert parse_date("1994") == datetime.date(1994, 1, 1)

    def test_whitespace_tolerated(self):
        assert parse_date("  1994  ") == datetime.date(1994, 1, 1)

    def test_garbage(self):
        assert parse_date("not a date") is None

    def test_year_zero_rejected(self):
        assert parse_date("0000") is None


class TestDateDistance:
    def test_same_date_zero(self):
        assert DateDistance().evaluate(("1994-05-20",), ("20.05.1994",)) == 0.0

    def test_days_difference(self):
        assert DateDistance().evaluate(("1994-05-20",), ("1994-05-25",)) == 5.0

    def test_year_vs_full_date(self):
        # 1994 -> Jan 1; May 20 is 139 days later.
        assert DateDistance().evaluate(("1994",), ("1994-05-20",)) == 139.0

    def test_unparseable_infinite(self):
        assert DateDistance().evaluate(("soon",), ("1994",)) == INFINITE_DISTANCE

    def test_min_over_sets(self):
        distance = DateDistance().evaluate(
            ("1990-01-01", "1994-05-20"), ("1994-05-21",)
        )
        assert distance == 1.0


def _strptime_reference(value: str) -> datetime.date | None:
    """``parse_date`` as it was built on ``datetime.strptime``."""
    text = value.strip()
    if re.fullmatch(r"\d{4}", text):  # bare years, before any format
        year = int(text)
        return datetime.date(year, 1, 1) if year >= 1 else None
    for fmt in _FORMATS:
        try:
            return datetime.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


_YEARS = ("2000", "1900", "2004", "0000", "0001", "9999", "٢٠٠٠")
_MONTHS = ("0", "00", "1", "01", "2", "02", "12", "13", "١٢")
_DAYS = ("0", "00", "1", "01", " 1", " 9", "9", "28", "29", "30", "31", "32")
_NAMES = (
    "January", "january", "JANUARY", "jAnUaRy", "Feb", "FEB", "february",
    "Sep", "Sept", "September", "May", "MAY", "Auguſt", "Mai", "Janu",
)
_SPACES = (" ", "  ", "\t", " \t ")
_TAILS = ("", "x", "1", " 0")


def _date_corpus():
    """Every format with each day, month and year edge: day 0/29/30/31
    and Feb 29 (2000 and 2004 leap, 1900 not), space-padded days, year
    0000, non-ASCII digits, mixed-case, abbreviated and case-folded
    month names, repeated whitespace and trailing garbage."""
    for y, m, d in itertools.product(_YEARS, _MONTHS, _DAYS):
        yield f"{y}-{m}-{d}"
        yield f"{y}/{m}/{d}"
        yield f"{d}.{m}.{y}"
        yield f"{d}/{m}/{y}"
        yield f"{m}/{d}/{y}"
    for name, d, y in itertools.product(_NAMES, _DAYS, _YEARS[:4]):
        for space in _SPACES:
            yield f"{name}{space}{d},{space}{y}"
            yield f"{d}{space}{name}{space}{y}"
    for text, tail in itertools.product(
        ("1994-05-20", "May 20, 1994", "20 May 1994", "Feb 29, 2000"), _TAILS
    ):
        yield text + tail


class TestStrptimeParity:
    """``parse_date`` matches the regexes ``strptime`` compiles for the
    C locale; these checks hold whatever ``LC_TIME`` the process has."""

    def test_matches_strptime_on_corpus(self):
        corpus = list(dict.fromkeys(_date_corpus()))
        parsed = 0
        for text in corpus:
            expected = _strptime_reference(text)
            assert parse_date(text) == expected, text
            parsed += expected is not None
        # The corpus exercises both outcomes in volume.
        assert 500 < parsed < len(corpus) - 500

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(
            alphabet="0123456789 ./-,\tJanFebMaySpOctDvu٣ſ", max_size=18
        )
    )
    def test_matches_strptime_on_random_text(self, text):
        assert parse_date(text) == _strptime_reference(text)

    def test_feb_29_only_in_leap_years(self):
        assert parse_date("2000-02-29") == datetime.date(2000, 2, 29)
        assert parse_date("1900-02-29") is None
        assert parse_date("29 February 2004") == datetime.date(2004, 2, 29)

    def test_english_month_names_without_locale(self):
        assert parse_date("DECEMBER  5, 1999") == datetime.date(1999, 12, 5)
        assert parse_date("Sep 5, 1999") == datetime.date(1999, 9, 5)
        assert parse_date("5 Mai 1999") is None
