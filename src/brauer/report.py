"""Check-report plumbing shared by the verification suites and the CLI.

A check compares an expected and a computed value exactly (string equality of
their canonical representations, zero tolerance).
"""

from __future__ import annotations

from typing import NamedTuple


class Check(NamedTuple):
    case: str
    expected: str
    computed: str
    passed: bool


def check(case, expected, computed):
    passed = expected == computed
    e = expected if isinstance(expected, str) else repr(expected)
    c = computed if isinstance(computed, str) else repr(computed)
    return Check(case, e, c, passed)


def check_bool(case, condition, detail=""):
    computed = "true" if condition else ("false: %s" % detail if detail else "false")
    return Check(case, "true", computed, bool(condition))


def report_json(checks):
    return [
        {"case": c.case, "expected": c.expected, "computed": c.computed, "pass": c.passed}
        for c in checks
    ]


def all_passed(checks):
    return all(c.passed for c in checks)
