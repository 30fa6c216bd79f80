"""The defining relations of the diagram category as rule templates, and
their soundness check.

The seven defining relations (identity absorption, uncrossing, braid, cap
over crossing, loop removal, cap sliding, straightening) are stored as
parameterized layer templates: each template layer is (dl, gen, dr) and
stands for the concrete layer (a + dl, gen, b + dr) at free paddings
a, b >= 0.  Every relation also exists in its three transformed versions:
star (turn the relation upside down, swapping caps and cups), sharp (mirror
left-right), and both.  Loop removal changes the scalar: its left side
evaluates to one more loop than its right.

:func:`verify_relation_soundness` evaluates both sides of every rule at
several paddings; the ``relations`` suite of :mod:`brauer.verify` runs it.
It lives here rather than beside that suite because the benchmark's tracer
(``perfbench/spans.py``) times it as ``rewrite.verify_relation_soundness``.
"""

from __future__ import annotations

from typing import NamedTuple

from brauer.report import check
from brauer.words import Layer, evaluate_word, make_word


class Rule(NamedTuple):
    rid: str
    lhs: tuple  # template layers, bottom to top
    rhs: tuple
    delta: int  # evaluate(lhs) carries this many more loops than evaluate(rhs)


_BASE_RULES = [
    Rule("identity_absorb", (), (), 0),
    Rule("uncross", ((0, "X", 0), (0, "X", 0)), (), 0),
    Rule(
        "braid",
        ((0, "X", 1), (1, "X", 0), (0, "X", 1)),
        ((1, "X", 0), (0, "X", 1), (1, "X", 0)),
        0,
    ),
    Rule("cap_uncross", ((0, "X", 0), (0, "A", 0)), ((0, "A", 0),), 0),
    Rule("loop_removal", ((0, "U", 0), (0, "A", 0)), (), 1),
    Rule(
        "cap_slide",
        ((1, "X", 0), (0, "A", 1)),
        ((0, "X", 1), (1, "A", 0)),
        0,
    ),
    Rule("straighten", ((1, "U", 0), (0, "A", 1)), (), 0),
]

_DUAL = {"A": "U", "U": "A", "X": "X"}


def _star_side(side):
    return tuple((dl, _DUAL[g], dr) for (dl, g, dr) in reversed(side))


def _sharp_side(side):
    return tuple((dr, g, dl) for (dl, g, dr) in side)


def _normalize(rule):
    layers = rule.lhs + rule.rhs
    if not layers:
        return rule
    min_dl = min(dl for dl, _g, _dr in layers)
    min_dr = min(dr for _dl, _g, dr in layers)
    shift = lambda side: tuple((dl - min_dl, g, dr - min_dr) for (dl, g, dr) in side)
    return Rule(rule.rid, shift(rule.lhs), shift(rule.rhs), rule.delta)


def _build_rules():
    rules = {}
    for base in _BASE_RULES:
        for suffix in ("", "*", "#", "*#"):
            lhs, rhs = base.lhs, base.rhs
            if "*" in suffix:
                lhs, rhs = _star_side(lhs), _star_side(rhs)
            if "#" in suffix:
                lhs, rhs = _sharp_side(lhs), _sharp_side(rhs)
            rules[base.rid + suffix] = _normalize(
                Rule(base.rid + suffix, lhs, rhs, base.delta)
            )
    return rules


RULES = _build_rules()


def _instantiate(template, a, b):
    return [Layer(a + dl, g, b + dr) for (dl, g, dr) in template]


def rule_instance_words(rid, a, b):
    """Concrete lhs/rhs words of a rule at paddings (a, b), for soundness
    checks.  Returns (lhs_word, rhs_word) over the common domain."""
    rule = RULES[rid]
    lhs = _instantiate(rule.lhs, a, b)
    rhs = _instantiate(rule.rhs, a, b)
    if lhs:
        domain = lhs[0].in_width()
    elif rhs:
        domain = rhs[0].in_width()
    else:
        domain = a + b + 2
    return make_word(domain, lhs), make_word(domain, rhs)


def verify_relation_soundness():
    """Evaluate both sides of every rule variant at several paddings.

    A rule is sound when lhs evaluates to exactly delta more loops than rhs
    on the same residual diagram.  Returns a list of checks.
    """
    checks = []
    for rid in sorted(RULES):
        rule = RULES[rid]
        for a, b in ((0, 0), (1, 0), (0, 1), (2, 1)):
            lhs_word, rhs_word = rule_instance_words(rid, a, b)
            nl, dl = evaluate_word(lhs_word)
            nr, dr = evaluate_word(rhs_word)
            checks.append(
                check(
                    "%s a=%d b=%d" % (rid, a, b),
                    (nr + rule.delta, dr),
                    (nl, dl),
                )
            )
    return checks
