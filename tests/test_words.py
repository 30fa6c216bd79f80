"""Word layer: evaluation, synthesis round-trips, relation soundness."""

from __future__ import annotations

import pytest

from brauer.diagram import e_i, enumerate_diagrams, identity, make_diagram, s_i
from brauer.report import all_passed
from brauer.rewrite import RULES, verify_relation_soundness
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


@pytest.mark.parametrize("text", ["0:X:x", "a:X:0", "0.5:X:0", "0_0:X:0",
                                  "\u0663:X:0", "-1:X:1"])
def test_text_with_non_integer_position_names_the_layer(text):
    with pytest.raises(WordError, match="bad layer %r" % text):
        word_from_text(2, text)


def test_relation_soundness_report():
    checks = verify_relation_soundness()
    assert len(checks) == len(RULES) * 4
    assert all_passed(checks), [c for c in checks if not c.passed]
