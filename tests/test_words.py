"""Word layer: evaluation, synthesis round-trips, rewrite soundness."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauer.diagram import e_i, enumerate_diagrams, identity, make_diagram, s_i
from brauer.report import all_passed, failures
from brauer.rewrite import (
    RULES,
    RelationInstance,
    RewriteError,
    apply_relation,
    rule_instance_words,
    verify_relation_soundness,
)
from brauer.words import (
    Layer,
    WordError,
    evaluate_word,
    make_word,
    synthesize_word,
    word_from_text,
    word_to_text,
)


def test_evaluate_examples():
    assert evaluate_word(make_word(0, [(0, "U", 0), (0, "A", 0)])) == (
        1,
        make_diagram(0, 0, []),
    )
    assert evaluate_word(make_word(1, [(1, "U", 0), (0, "A", 1)])) == (0, identity(1))
    assert evaluate_word(make_word(3, [])) == (0, identity(3))


def test_word_widths_stay_within_the_cell_budget(monkeypatch):
    with pytest.raises(WordError, match="a word of width 1000000000, above "
                                        "the limit"):
        make_word(10 ** 9, [])
    monkeypatch.setenv("BRAUER_MAX_CELLS", "4")
    assert make_word(4, [(0, "A", 2)]).domain == 4
    with pytest.raises(WordError, match="a word of width 5, above"):
        make_word(5, [(0, "A", 3)])
    # a cup above a full-width domain widens the word past the limit
    with pytest.raises(WordError, match="a word of width 6, above"):
        make_word(4, [(0, "U", 4)])


def test_word_validation():
    with pytest.raises(WordError):
        make_word(1, [(0, "X", 0)])  # X needs width 2
    with pytest.raises(WordError):
        make_word(2, [(0, "A", 0), (0, "A", 0)])  # second cap under-width
    with pytest.raises(WordError):
        make_word(2, [(0, "Q", 0)])


@pytest.mark.parametrize("domain,layers", [
    (2, [(0.9, "X", 0)]),
    (2, [(0, "X", 0.0)]),
    (3, [(True, "X", 0)]),
    (2, [("0", "X", 0)]),
    (2, [(-1, "X", 1)]),
    (2.0, [(0, "X", 0)]),
    (True, []),
])
def test_word_widths_are_not_truncated(domain, layers):
    with pytest.raises(WordError):
        make_word(domain, layers)


def test_synthesize_examples():
    w = synthesize_word(e_i(2, 1))
    assert [lay.gen for lay in w.layers] == ["A", "U"]
    assert synthesize_word(identity(4)).layers == ()
    assert [lay.gen for lay in synthesize_word(s_i(2, 1)).layers] == ["X"]


def test_synthesize_crossing_cups():
    # top arcs {0,2},{1,3} cross; cups alone cannot make them, routing must
    # sit above the cups
    d = make_diagram(0, 4, [(0, 2), (1, 3)])
    w = synthesize_word(d)
    assert evaluate_word(w) == (0, d)
    assert any(lay.gen == "X" for lay in w.layers)


def test_round_trip_exhaustive():
    for k in range(0, 9):
        for l in range(0, 9 - k):
            for d in enumerate_diagrams(k, l):
                assert evaluate_word(synthesize_word(d)) == (0, d)


def test_synthesized_words_equal_validated_words():
    # synthesize_word skips make_word's checks; every word it builds must
    # still be one make_word accepts and rebuilds equal, of Layer values.
    for k in range(0, 9):
        for l in range(0, 9 - k):
            for d in enumerate_diagrams(k, l):
                w = synthesize_word(d)
                assert w == make_word(k, w.layers)
                assert all(type(lay) is Layer for lay in w.layers)
                assert type(w.layers) is tuple


def test_text_round_trip():
    w = make_word(2, [(0, "A", 0), (0, "U", 0), (0, "X", 0)])
    assert word_from_text(2, word_to_text(w)) == w
    assert word_from_text(3, "") == make_word(3, [])
    with pytest.raises(WordError):
        word_from_text(2, "0:A")


@pytest.mark.parametrize("text", ["0:X:x", "a:X:0", "0.5:X:0"])
def test_text_with_non_integer_position_names_the_layer(text):
    with pytest.raises(WordError, match="bad layer %r" % text):
        word_from_text(2, text)


def test_relation_soundness_report():
    checks = verify_relation_soundness()
    assert len(checks) == len(RULES) * 4
    assert all_passed(checks), failures(checks)


def test_apply_relation_examples():
    # braid, both directions
    lhs, rhs = rule_instance_words("braid", 0, 0)
    n, w = apply_relation(lhs, RelationInstance("braid", 0))
    assert (n, w) == (0, rhs)
    n, w = apply_relation(rhs, RelationInstance("braid", 0, "rtl"))
    assert (n, w) == (0, lhs)
    # cap over crossing collapses
    lhs, rhs = rule_instance_words("cap_uncross", 1, 0)
    assert apply_relation(lhs, RelationInstance("cap_uncross", 0)) == (0, rhs)
    # cap slide
    lhs, rhs = rule_instance_words("cap_slide", 0, 0)
    assert apply_relation(lhs, RelationInstance("cap_slide", 0)) == (0, rhs)
    # loop removal trades layers for delta and back
    lhs, _ = rule_instance_words("loop_removal", 0, 0)
    scaled = apply_relation(lhs, RelationInstance("loop_removal", 0))
    assert scaled == (1, make_word(0, []))
    back = apply_relation(
        scaled, RelationInstance("loop_removal", 0, "rtl", params=(0, 0))
    )
    assert back == (0, lhs)


def test_apply_relation_errors():
    lhs, _ = rule_instance_words("braid", 0, 0)
    with pytest.raises(RewriteError):
        apply_relation(lhs, RelationInstance("braid", 1))
    with pytest.raises(RewriteError):
        apply_relation(lhs, RelationInstance("no_such_rule", 0))
    with pytest.raises(RewriteError):
        # reversing loop removal with no delta power to spend
        apply_relation(
            make_word(0, []), RelationInstance("loop_removal", 0, "rtl", params=(0, 0))
        )


# --- random words and rewrites ----------------------------------------------


@st.composite
def words(draw, max_domain=5, max_len=12):
    domain = draw(st.integers(0, max_domain))
    layers = []
    width = domain
    for _ in range(draw(st.integers(0, max_len))):
        gens = ["U"]
        if width >= 2:
            gens += ["X", "A"]
        gen = draw(st.sampled_from(gens))
        in_nodes = 2 if gen != "U" else 0
        a = draw(st.integers(0, width - in_nodes))
        layers.append((a, gen, width - in_nodes - a))
        width = a + (width - in_nodes - a) + (0 if gen == "A" else 2)
    return make_word(domain, layers)


def applicable_instances(word, delta_power):
    """All matching (non-insertion) instances plus in-range insertions."""
    from brauer.rewrite import _match, _width_at

    out = []
    for rid, rule in RULES.items():
        for direction, src in (("ltr", rule.lhs), ("rtl", rule.rhs)):
            if direction == "rtl" and delta_power - rule.delta < 0:
                continue
            if not src:
                continue  # insertions handled separately
            for pos in range(len(word.layers) - len(src) + 1):
                if _match(word.layers, pos, src) is not None:
                    out.append(RelationInstance(rid, pos, direction))
    # insertion sites for the collapsing rules (rhs empty, rewrite rtl)
    for rid in ("uncross", "straighten", "loop_removal"):
        rule = RULES[rid]
        if delta_power - rule.delta < 0:
            continue
        dl0, g0, dr0 = rule.lhs[0]
        nodes = 0 if g0 == "U" else 2
        for pos in range(len(word.layers) + 1):
            a_total = _width_at(word, pos) - nodes - dl0 - dr0
            if a_total >= 0:
                out.append(RelationInstance(rid, pos, "rtl", params=(0, a_total)))
    return out


@given(words(), st.data())
@settings(max_examples=300, deadline=None)
def test_rewrite_preserves_evaluation(word, data):
    n0, d0 = evaluate_word(word)
    insts = applicable_instances(word, 0)
    if not insts:
        return
    inst = data.draw(st.sampled_from(insts))
    n1, word1 = apply_relation(word, inst)
    n2, d2 = evaluate_word(word1)
    assert n1 + n2 == n0 and d2 == d0


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_random_walk_keeps_evaluation(data):
    """Twenty random sound rewrites from a synthesized word never change the
    total evaluation."""
    k = data.draw(st.integers(0, 3))
    l = data.draw(st.integers(0, 3))
    if (k + l) % 2:
        l += 1
    ds = enumerate_diagrams(k, l)
    if not ds:
        return
    d = data.draw(st.sampled_from(ds))
    scaled = (0, synthesize_word(d))
    for _ in range(20):
        insts = applicable_instances(scaled[1], scaled[0])
        if not insts:
            break
        inst = data.draw(st.sampled_from(insts))
        scaled = apply_relation(scaled, inst)
        n, residual = evaluate_word(scaled[1])
        assert residual == d
        assert scaled[0] + n == 0
