"""Sound rewriting of words under the defining relations.

The seven defining relations (identity absorption, uncrossing, braid, cap
over crossing, loop removal, cap sliding, straightening) are stored as
parameterized layer templates: each template layer is (dl, gen, dr) and
matches a concrete layer (a + dl, gen, b + dr) for common free paddings
a, b >= 0.  Every relation also exists in its three transformed versions:
star (turn the relation upside down, swapping caps and cups), sharp (mirror
left-right), and both.

Loop removal changes the scalar, so the engine rewrites scaled words,
pairs (delta_power, Word); every rule application preserves evaluation,
which is the soundness contract checked by verify_relation_soundness.

Only soundness is provided.  No strategy for deciding word equivalence by
rewriting is implemented: the relations are complete, but a terminating
completion procedure is out of scope.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from brauer.report import check
from brauer.words import Layer, Word, evaluate_word, make_word


class Rule(NamedTuple):
    rid: str
    lhs: tuple  # template layers, bottom to top
    rhs: tuple
    delta: int  # evaluate(lhs) carries this many more loops than evaluate(rhs)


class RelationInstance(NamedTuple):
    """A rule application site.

    direction "ltr" rewrites lhs -> rhs at position, "rtl" the reverse.
    params pins the free paddings (a, b); it is required when the source
    side is empty (an insertion site does not determine its padding) and
    ignored otherwise.
    """

    rule: str
    position: int
    direction: str = "ltr"
    params: Optional[tuple] = None


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


class RewriteError(ValueError):
    pass


def _match(layers, pos, template):
    """Solve for the free paddings (a, b) of template at pos, or None."""
    if pos < 0 or pos + len(template) > len(layers):
        return None
    seg = layers[pos : pos + len(template)]
    dl0, g0, dr0 = template[0]
    if seg[0].gen != g0:
        return None
    a = seg[0].left - dl0
    b = seg[0].right - dr0
    if a < 0 or b < 0:
        return None
    for lay, (dl, g, dr) in zip(seg, template):
        if lay.gen != g or lay.left != a + dl or lay.right != b + dr:
            return None
    return a, b


def _width_at(word, pos):
    width = word.domain
    for lay in word.layers[:pos]:
        width = lay.out_width()
    return width


def _instantiate(template, a, b):
    return [Layer(a + dl, g, b + dr) for (dl, g, dr) in template]


def apply_relation(scaled_word, inst):
    """Apply one relation instance to a scaled word.

    Accepts (delta_power, Word) or a bare Word (taken at delta_power 0);
    returns (delta_power, Word).  Raises RewriteError if the pattern does
    not match, the position is out of range, or a reverse loop removal has
    no delta power to spend.
    """
    if isinstance(scaled_word, Word):
        scaled_word = (0, scaled_word)
    n, word = scaled_word
    rule = RULES.get(inst.rule)
    if rule is None:
        raise RewriteError("unknown rule %r" % (inst.rule,))
    if inst.direction == "ltr":
        src, dst, ddelta = rule.lhs, rule.rhs, rule.delta
    elif inst.direction == "rtl":
        src, dst, ddelta = rule.rhs, rule.lhs, -rule.delta
    else:
        raise RewriteError("direction must be ltr or rtl")

    pos = inst.position
    if src:
        found = _match(word.layers, pos, src)
        if found is None:
            raise RewriteError(
                "rule %s (%s) does not match at position %d" % (rule.rid, inst.direction, pos)
            )
        a, b = found
    else:
        if not 0 <= pos <= len(word.layers):
            raise RewriteError("position %d out of range" % pos)
        if not dst:
            return n, word
        if inst.params is None:
            raise RewriteError(
                "rule %s (%s) inserts layers; params (a, b) required" % (rule.rid, inst.direction)
            )
        a, b = inst.params
        dl0, g0, dr0 = dst[0]
        need = a + dl0 + b + dr0 + (0 if g0 == "U" else 2)
        if a < 0 or b < 0 or need != _width_at(word, pos):
            raise RewriteError(
                "params (%d, %d) do not fit width %d at position %d"
                % (a, b, _width_at(word, pos), pos)
            )

    if n + ddelta < 0:
        raise RewriteError("no delta power available to reverse loop removal")

    new_layers = (
        list(word.layers[:pos])
        + _instantiate(dst, a, b)
        + list(word.layers[pos + len(src) :])
    )
    return n + ddelta, make_word(word.domain, new_layers)


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
