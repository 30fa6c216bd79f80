"""Core diagram layer: canonical forms, composition with loop bookkeeping,
tensor, involutions, constructors, raising/lowering, rotation, enumeration."""

from __future__ import annotations

import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauer.diagram import (
    Diagram,
    DiagramError,
    ast,
    cap,
    closure_loops,
    compose,
    crossing,
    crossing_count,
    cup,
    diagram_from_json,
    diagram_to_json,
    e_i,
    e_pair,
    enumerate_diagrams,
    identity,
    lower_diagram,
    make_diagram,
    permutation_diagram,
    raise_diagram,
    rotate_right,
    s_i,
    sharp,
    star,
    tensor,
    u_nest,
    x_block,
)

A = cap()
U = cup()
X = crossing()
I = identity(1)


# --- strategies -------------------------------------------------------------


@st.composite
def diagrams(draw, max_nodes=8, k=None, l=None):
    if k is None or l is None:
        half = draw(st.integers(0, max_nodes // 2))
        k = draw(st.integers(0, 2 * half))
        l = 2 * half - k
    nodes = list(range(k + l))
    perm = draw(st.permutations(nodes))
    pairs = [(perm[2 * i], perm[2 * i + 1]) for i in range(len(nodes) // 2)]
    return make_diagram(k, l, pairs)


@st.composite
def composable_pairs(draw):
    k = draw(st.integers(0, 4))
    mid = draw(st.integers(0, 4))
    p = draw(st.integers(0, 4))
    if (k + mid) % 2 == 1:
        k += 1
    if (mid + p) % 2 == 1:
        p += 1
    d2 = draw(diagrams(k=k, l=mid))
    d1 = draw(diagrams(k=mid, l=p))
    return d1, d2


# --- frozen examples --------------------------------------------------------


def test_make_diagram_examples():
    assert make_diagram(0, 0, []).pairs == ()
    assert make_diagram(2, 2, [(0, 2), (1, 3)]) == identity(2)
    assert make_diagram(2, 0, [(0, 1)]) == A


def test_make_diagram_validation():
    with pytest.raises(DiagramError):
        make_diagram(2, 0, [(0, 0)])
    with pytest.raises(DiagramError):
        make_diagram(2, 2, [(0, 1), (0, 2)])
    with pytest.raises(DiagramError):
        make_diagram(2, 2, [(0, 1)])
    with pytest.raises(DiagramError):
        make_diagram(1, 0, [(0, 1)])
    with pytest.raises(DiagramError):
        make_diagram(2, 2, [(0, 1), (2, 5)])


def test_arc_count_is_checked_before_the_nodes_are_allocated():
    # 20 million nodes and no arc: refused on the count, before a slot per
    # node is made
    tracemalloc.start()
    try:
        with pytest.raises(DiagramError, match="0 arcs cannot cover the "
                                               "20000000 nodes"):
            Diagram(20000000, 0, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6
    with pytest.raises(DiagramError, match="3 arcs cannot cover the 4 nodes"):
        Diagram(2, 2, [(0, 1), (2, 3), (0, 2)])


@pytest.mark.parametrize("k,l,pairs", [
    (-1, 3, [(0, 1)]),
    (2, -2, []),
    (True, 1, [(0, 1)]),
    (2.0, 0, [(0, 1)]),
    (2, 0, [(False, True)]),
])
def test_diagram_rejects_invalid_valencies_and_nodes(k, l, pairs):
    with pytest.raises(DiagramError):
        Diagram(k, l, pairs)


@pytest.mark.parametrize("k,l", [(-1, 3), (3, -1), (-2, 2), (True, 1),
                                 (2.0, 0), ("2", 2)])
def test_enumerate_diagrams_rejects_invalid_valencies(k, l):
    with pytest.raises(DiagramError):
        enumerate_diagrams(k, l)


@pytest.mark.parametrize("obj", [
    {"k": 2.9, "l": 0, "pairs": [[0, 1]]},
    {"k": "2", "l": 0, "pairs": [[0, 1]]},
    {"k": 2, "l": True, "pairs": [[0, 2]]},
    {"k": -2, "l": 2, "pairs": []},
    {"k": 2, "l": 0, "pairs": [[0, 1.0]]},
    {"k": 2, "l": 0, "pairs": [["0", 1]]},
    {"k": 2, "l": 0, "pairs": [[True, 0]]},
    {"k": 2, "l": 0, "pairs": 1},
])
def test_diagram_from_json_rejects_non_integral_values(obj):
    with pytest.raises(DiagramError):
        diagram_from_json(obj)


def test_canonical_form():
    d = make_diagram(2, 2, [(3, 1), (2, 0)])
    assert d.pairs == ((0, 2), (1, 3))
    assert d == identity(2)
    assert hash(d) == hash(identity(2))


def test_compose_examples():
    assert compose(A, U) == (1, make_diagram(0, 0, []))
    assert compose(tensor(A, I), tensor(I, U)) == (0, I)
    assert compose(X, X) == (0, identity(2))


def test_compose_valency_mismatch():
    with pytest.raises(DiagramError):
        compose(A, A)


def test_tensor_examples():
    empty = make_diagram(0, 0, [])
    d = e_i(3, 2)
    assert tensor(empty, d) == d
    assert tensor(d, empty) == d
    assert tensor(I, I) == identity(2)
    assert tensor(A, U) == e_i(2, 1)


def test_involution_examples():
    assert star(A) == U
    assert star(U) == A
    assert sharp(X) == X
    assert ast(e_i(2, 1)) == e_i(2, 1)


def test_constructors():
    assert u_nest(2) == make_diagram(0, 4, [(0, 3), (1, 2)])
    assert x_block(1, 1) == X
    assert permutation_diagram([0, 1, 2]) == identity(3)
    assert e_pair(2, 0, 1) == e_i(2, 1)
    assert s_i(2, 1) == X == x_block(1, 1)
    with pytest.raises(DiagramError):
        s_i(2, 2)
    with pytest.raises(DiagramError):
        e_pair(3, 2, 2)


def test_raise_lower_examples():
    assert raise_diagram(A) == I
    assert lower_diagram(raise_diagram(e_i(2, 1))) == e_i(2, 1)
    d = identity(2)
    for _ in range(2):
        d = raise_diagram(d)
    assert (d.k, d.l) == (0, 4)
    assert d == u_nest(2)


def test_rotate_right_examples():
    assert rotate_right(identity(2), 1) == identity(2)
    assert rotate_right(X, 1) == e_i(2, 1)
    assert rotate_right(X, 0) == X


def test_enumerate_counts():
    assert len(enumerate_diagrams(2, 2)) == 3
    assert len(enumerate_diagrams(3, 3)) == 15
    assert enumerate_diagrams(1, 0) == []
    assert enumerate_diagrams(0, 0) == [make_diagram(0, 0, [])]
    assert len(enumerate_diagrams(4, 4)) == 105


def test_enumerate_budget_ignores_the_cache(monkeypatch):
    assert len(enumerate_diagrams(4, 4)) == 105
    monkeypatch.setenv("BRAUER_MAX_CELLS", "100")
    with pytest.raises(DiagramError, match=r"B\(4, 4\) has 7!! diagrams"):
        enumerate_diagrams(4, 4)
    assert enumerate_diagrams(5, 4) == []


def test_enumerate_refuses_seventeen_double_factorial():
    with pytest.raises(DiagramError, match=r"B\(9, 9\) has 17!! diagrams"):
        enumerate_diagrams(9, 9)


def test_enumerate_distinct_and_deterministic():
    ds = enumerate_diagrams(3, 3)
    assert len(set(ds)) == 15
    assert ds == enumerate_diagrams(3, 3)
    assert all((d.k, d.l) == (3, 3) for d in ds)


def test_crossing_count_examples():
    assert crossing_count(X) == 1
    assert crossing_count(e_i(2, 1)) == 0
    assert crossing_count(x_block(2, 1)) == 2
    assert crossing_count(identity(4)) == 0
    assert crossing_count(u_nest(3)) == 0


def test_closure_loops_examples():
    assert closure_loops(identity(3)) == 3
    assert closure_loops(e_i(2, 1)) == 1
    assert closure_loops(s_i(2, 1)) == 1


def test_through_count():
    assert identity(3).through_count() == 3
    assert e_i(2, 1).through_count() == 0
    assert tensor(A, U).through_count() == 0
    assert s_i(3, 1).through_count() == 3


def test_json_round_trip():
    d = e_pair(4, 1, 3)
    assert diagram_from_json(diagram_to_json(d)) == d
    assert diagram_to_json(d) == {
        "k": 4,
        "l": 4,
        "pairs": [[0, 4], [1, 3], [2, 6], [5, 7]],
    }


# Every (k, l) with k + l <= 8 and k + l even: 2,620 diagrams in all.
SMALL_VALENCIES = [(k, n - k) for n in range(0, 9, 2) for k in range(n + 1)]


@pytest.mark.parametrize("k,l", SMALL_VALENCIES)
def test_partner_order_equals_pairs_order(k, l):
    ds = enumerate_diagrams(k, l)
    random.Random(k * 10 + l).shuffle(ds)
    by_pairs = sorted(ds, key=lambda d: d.pairs)
    assert sorted(ds, key=lambda d: d.partner) == by_pairs
    assert sorted(ds) == by_pairs


@pytest.mark.parametrize("k,l", SMALL_VALENCIES)
def test_pairs_rebuild_the_same_diagram(k, l):
    for d in enumerate_diagrams(k, l):
        rebuilt = Diagram(k, l, d.pairs)
        assert rebuilt == d
        assert hash(rebuilt) == hash(d)
        assert rebuilt.partner == d.partner
        obj = json.loads(json.dumps(diagram_to_json(d)))
        assert diagram_from_json(obj) == d
        assert [tuple(arc) for arc in obj["pairs"]] == list(d.pairs)


def _map_arcs(k, l, arcs, node_map):
    """Reference relabeling: map every arc, then validate from scratch."""
    return Diagram(k, l, [(node_map(a), node_map(b)) for a, b in arcs])


@pytest.mark.parametrize("k,l", [(k, l) for k, l in SMALL_VALENCIES if k + l <= 6])
def test_relabelings_match_arc_maps(k, l):
    for d in enumerate_diagrams(k, l):
        assert star(d) == _map_arcs(l, k, d.pairs,
                                    lambda i: l + i if i < k else i - k)
        assert sharp(d) == _map_arcs(
            k, l, d.pairs, lambda i: k - 1 - i if i < k else 2 * k + l - 1 - i)
        # cap on the left shifts every node of d by 2; cup on the right
        # adds the two top nodes after d's; a crossing on the left shifts
        # d's bottom nodes by 2 and its top nodes by 4.
        assert tensor(cap(), d) == Diagram(
            k + 2, l, [(0, 1)] + [(a + 2, b + 2) for a, b in d.pairs])
        shift = [i + 2 if i < k else i + 4 for i in range(k + l)]
        assert tensor(crossing(), d) == Diagram(
            k + 2, l + 2,
            [(0, k + 3), (1, k + 2)] + [(shift[a], shift[b]) for a, b in d.pairs])
        assert tensor(d, cup()) == Diagram(
            k, l + 2, list(d.pairs) + [(k + l, k + l + 1)])


# --- properties -------------------------------------------------------------


@given(composable_pairs(), diagrams(max_nodes=4))
@settings(max_examples=200, deadline=None)
def test_associativity_with_loops(pair, d3):
    """(d1 o d2) o d3' agrees with d1 o (d2 o d3') including loop counts."""
    d1, d2 = pair
    # rebuild d3 to compose under d2
    if d3.l != d2.k:
        d3 = enumerate_diagrams(d3.k if (d3.k + d2.k) % 2 == 0 else d3.k + 1, d2.k)
        if not d3:
            return
        d3 = d3[0]
    f12, d12 = compose(d1, d2)
    f_a, left = compose(d12, d3)
    f23, d23 = compose(d2, d3)
    f_b, right = compose(d1, d23)
    assert left == right
    assert f12 + f_a == f23 + f_b


@given(composable_pairs())
@settings(max_examples=200, deadline=None)
def test_star_antihomomorphism(pair):
    d1, d2 = pair
    f, d = compose(d1, d2)
    fs, ds = compose(star(d2), star(d1))
    assert ds == star(d)
    assert fs == f


@given(composable_pairs())
@settings(max_examples=200, deadline=None)
def test_sharp_homomorphism(pair):
    d1, d2 = pair
    f, d = compose(d1, d2)
    fs, ds = compose(sharp(d1), sharp(d2))
    assert ds == sharp(d)
    assert fs == f


@given(diagrams(), diagrams())
@settings(max_examples=200, deadline=None)
def test_involutions_on_tensor(d1, d2):
    assert star(tensor(d1, d2)) == tensor(star(d1), star(d2))
    assert sharp(tensor(d1, d2)) == tensor(sharp(d2), sharp(d1))


@given(diagrams())
@settings(max_examples=200, deadline=None)
def test_involutions_square_to_identity(d):
    assert star(star(d)) == d
    assert sharp(sharp(d)) == d
    assert ast(ast(d)) == d
    assert star(sharp(d)) == sharp(star(d))


@given(diagrams(), diagrams(), diagrams(), diagrams())
@settings(max_examples=100, deadline=None)
def test_tensor_interchange(a, b, c, d):
    """(a (x) b) o (c (x) d) = (a o c) (x) (b o d) when valencies allow."""
    if a.k != c.l or b.k != d.l:
        return
    f1, left = compose(tensor(a, b), tensor(c, d))
    fa, ac = compose(a, c)
    fb, bd = compose(b, d)
    assert left == tensor(ac, bd)
    assert f1 == fa + fb


@given(diagrams())
@settings(max_examples=200, deadline=None)
def test_raise_lower_inverse(d):
    if d.k >= 1:
        assert lower_diagram(raise_diagram(d)) == d
    if d.l >= 1:
        assert raise_diagram(lower_diagram(d)) == d


@given(diagrams())
@settings(max_examples=200, deadline=None)
def test_raise_lower_match_composition(d):
    if d.k >= 1:
        ik = identity(d.k - 1)
        loops, composed = compose(tensor(d, I), tensor(ik, U))
        assert loops == 0
        assert composed == raise_diagram(d)
    if d.l >= 1:
        il = identity(d.l - 1)
        loops, composed = compose(tensor(il, A), tensor(d, I))
        assert loops == 0
        assert composed == lower_diagram(d)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rotate_involution(data):
    """Rotating the same p strands twice restores the diagram; rotating all
    r strands is the double reflection."""
    r = data.draw(st.integers(0, 4))
    d = data.draw(diagrams(k=r, l=r))
    p = data.draw(st.integers(0, r))
    assert rotate_right(rotate_right(d, p), p) == d
    assert rotate_right(d, r) == ast(d)


@given(st.permutations(list(range(5))))
@settings(max_examples=100, deadline=None)
def test_crossing_count_counts_inversions(pi):
    inv = sum(
        1
        for i in range(len(pi))
        for j in range(i + 1, len(pi))
        if pi[i] > pi[j]
    )
    assert crossing_count(permutation_diagram(pi)) == inv
