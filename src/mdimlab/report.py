"""A suite's report: typed rows plus the constants the run measured.

Every suite runner builds its rows with ``check_row``, ``at_most`` and
``info_row`` and closes them with ``finish``; rendering is byte-stable so
identical configs produce identical files.  ``InvalidConfigError`` lives
here too, below the runners, so that a runner can refuse a config without
importing ``harness``, which re-exports both.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction


class InvalidConfigError(ValueError):
    """The experiment description cannot be run as given."""


@dataclass
class SuiteReport:
    suite: str
    pass_count: int
    fail_count: int
    measured_constants: dict
    rows: list[dict]

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "pass_count": self.pass_count,
            "fail_count": self.fail_count,
            "measured_constants": {
                k: _plain(v) for k, v in self.measured_constants.items()
            },
            "rows": [
                {k: _plain(v) for k, v in row.items()} for row in self.rows
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("check", "detail", "value", "bound", "status"))
        writer.writerow(
            ("summary", self.suite, self.pass_count, self.fail_count,
             "pass" if self.fail_count == 0 else "fail")
        )
        for name in sorted(self.measured_constants):
            writer.writerow(
                ("measured_constant", name,
                 _plain(self.measured_constants[name]), "", "info")
            )
        for row in self.rows:
            writer.writerow(
                (row["check"], row["detail"], _plain(row["value"]),
                 _plain(row["bound"]), row["status"])
            )
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        return self.to_csv() if fmt == "csv" else self.to_json()


def _plain(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def check_row(check: str, detail: str, value, bound, ok: bool) -> dict:
    return {
        "check": check,
        "detail": detail,
        "value": value,
        "bound": bound,
        "status": "pass" if ok else "fail",
    }


def at_most(check: str, detail: str, value, bound) -> dict:
    """Gated row: value <= bound, both reported rounded to 6 places."""
    return check_row(check, detail, round(value, 6), round(bound, 6),
                     value <= bound)


def info_row(check: str, detail: str, value, bound="") -> dict:
    return {
        "check": check,
        "detail": detail,
        "value": value,
        "bound": bound,
        "status": "info",
    }


def finish(suite: str, rows: list[dict], constants: dict) -> SuiteReport:
    passes = sum(1 for row in rows if row["status"] == "pass")
    fails = sum(1 for row in rows if row["status"] == "fail")
    return SuiteReport(suite, passes, fails, constants, rows)
