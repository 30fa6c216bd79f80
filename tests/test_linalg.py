"""Tests for exact sparse Gaussian elimination over the rationals and prime fields."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauer import (
    QQ,
    QQ_DELTA,
    EliminationBasis,
    LinAlgError,
    PrimeField,
    nullspace_of_rows,
    rank_of_rows,
)


def dot(row, vec, ring=None):
    if ring is None:
        return sum(Fraction(row.get(c, 0)) * Fraction(v) for c, v in vec.items())
    acc = ring.zero()
    for c, v in vec.items():
        acc = ring.add(acc, ring.mul(row.get(c, ring.zero()), v))
    return acc


def in_span(basis, row):
    """Whether row lies in the basis's row space, the basis left unchanged."""
    probe = EliminationBasis(basis.ring)
    probe.pivots = {q: dict(piv) for q, piv in basis.pivots.items()}
    return not probe.add_row(row)


class TestRationalMode:
    def test_rank_counts_independent_rows(self):
        basis = EliminationBasis(QQ)
        assert basis.add_row({0: 1, 1: 2})
        assert basis.add_row({1: 1, 2: 1})
        assert not basis.add_row({0: 1, 1: 3, 2: 1})
        assert basis.rank == 2
        assert sorted(basis.pivots) == [0, 1]

    def test_zero_row_is_dependent(self):
        basis = EliminationBasis(QQ)
        assert not basis.add_row({})
        assert not basis.add_row({0: 0, 3: 0})
        assert basis.rank == 0

    def test_fractional_rows_are_rescaled(self):
        basis = EliminationBasis(QQ)
        assert basis.add_row({0: Fraction(1, 2), 1: Fraction(1, 3)})
        (row,) = basis.pivots.values()
        assert row == {0: 3, 1: 2}

    def test_reduced_rows_are_rref(self):
        basis = EliminationBasis(QQ)
        basis.add_row({0: 2, 1: 4, 2: 6})
        basis.add_row({0: 1, 1: 3, 2: 5})
        rows = basis.reduced_rows()
        assert sorted(rows) == [0, 1]
        pivots = set(rows)
        for p, row in rows.items():
            assert row[p] == Fraction(1)
            for other in pivots - {p}:
                assert other not in row

    def test_nullspace_vectors_are_primitive_integers(self):
        rows = [{0: 1, 1: 2, 2: 3}]
        vecs = nullspace_of_rows(rows, [0, 1, 2], QQ)
        assert len(vecs) == 2
        for vec in vecs:
            assert all(isinstance(v, int) for v in vec.values())
            assert dot(rows[0], vec) == 0
        # free-column entry normalized positive
        assert vecs[0][1] > 0 and vecs[1][2] > 0

    def test_nullspace_of_full_rank_square_is_trivial(self):
        rows = [{0: 1}, {1: 1}, {2: 1}]
        assert nullspace_of_rows(rows, [0, 1, 2], QQ) == []

    def test_tuple_column_labels(self):
        # callers key columns by structured labels; only sortability matters
        rows = [{(0, 1): 1, (1, 0): -1}]
        basis = EliminationBasis(QQ)
        basis.add_row(rows[0])
        vecs = basis.nullspace([(0, 1), (1, 0)])
        assert len(vecs) == 1
        assert dot(rows[0], vecs[0]) == 0

    def test_no_pivot_rescaling_breaks_dependence(self):
        # cross-multiplication must keep previously inserted rows intact
        basis = EliminationBasis(QQ)
        basis.add_row({0: 3, 1: 1})
        basis.add_row({0: 2, 1: 5})
        assert basis.rank == 2
        assert in_span(basis, {0: 1, 1: -4})  # difference of the two rows


class TestPrimeFieldMode:
    def test_rank_drops_mod_p(self):
        gf5 = PrimeField(5)
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}]
        assert rank_of_rows(rows, QQ) == 1
        assert rank_of_rows([{0: 1, 1: 2}, {0: 2, 1: 9}], QQ) == 2
        assert rank_of_rows([{0: gf5.from_int(1), 1: gf5.from_int(2)},
                             {0: gf5.from_int(2), 1: gf5.from_int(9)}], gf5) == 1

    def test_nullspace_mod_p(self):
        gf7 = PrimeField(7)
        row = {0: gf7.from_int(1), 1: gf7.from_int(3)}
        vecs = nullspace_of_rows([row], [0, 1], gf7)
        assert len(vecs) == 1
        assert dot(row, vecs[0], gf7) == gf7.zero()

    def test_leads_need_a_modular_inverse(self):
        # rows (3, 1, 5) and (2, 6, 1) over F_7; 3^-1 = 5 mod 7
        gf7 = PrimeField(7)
        basis = EliminationBasis(gf7)
        assert basis.add_row({0: 3, 1: 1, 2: 5})
        assert basis.add_row({0: 2, 1: 6, 2: 1})
        # stored monic: 3^-1 (3, 1, 5) = (1, 5, 4); then
        # (2, 6, 1) - 2 (1, 5, 4) = (0, 3, 0), stored as (0, 1, 0)
        assert basis.pivots == {0: {0: 1, 1: 5, 2: 4}, 1: {1: 1}}
        assert basis.reduced_rows() == {0: {0: 1, 2: 4}, 1: {1: 1}}
        assert basis.nullspace(range(3)) == [{2: 1, 0: 3}]
        assert in_span(basis, {0: 1, 2: 4})
        assert not in_span(basis, {2: 1})
        assert not basis.add_row({0: 5, 1: 7, 2: 6})  # r1 + r2, entries mod 7

    def test_entries_are_reduced_mod_p(self):
        gf7 = PrimeField(7)
        basis = EliminationBasis(gf7)
        assert basis.add_row({0: -4, 1: 8, 2: 14})
        assert basis.pivots == {0: {0: 1, 1: 5}}
        assert not basis.add_row({0: 7, 1: -7})

    def test_reduced_rows_leading_one(self):
        gf5 = PrimeField(5)
        basis = EliminationBasis(gf5)
        basis.add_row({0: gf5.from_int(3), 1: gf5.from_int(1)})
        rows = basis.reduced_rows()
        assert rows[0][0] == gf5.one()


class TestInPlaceReduction:
    """Elimination reduces its own copy of a row in place: the caller's dict
    and the stored pivot rows never change."""

    CASES = [
        (QQ, [{0: 2, 1: 4, 2: 6}, {0: 3, 1: 1, 2: 5}],
         [{0: 5, 1: 5, 2: 11}, {0: 1, 1: 7, 3: -2}, {2: 4}]),
        (QQ, [{0: Fraction(1, 2), 1: Fraction(-1, 3)}, {1: Fraction(5, 6), 2: 1}],
         [{0: Fraction(3, 4), 1: Fraction(1, 6), 2: Fraction(7, 2)},
          {0: Fraction(2, 3), 2: 0}]),
        (PrimeField(7), [{0: -4, 1: 8, 2: 14}, {0: 10, 1: -1, 2: 3}],
         [{0: -11, 1: 20, 2: 17}, {0: 7, 1: -6, 3: 15}, {1: 0, 2: -7}]),
    ]

    @pytest.mark.parametrize("ring,basis_rows,rows", CASES,
                             ids=["QQ-ints", "QQ-fractions", "F7-residues"])
    def test_caller_rows_and_stored_pivots_are_left_alone(self, ring,
                                                          basis_rows, rows):
        basis_rows = [dict(row) for row in basis_rows]
        basis = EliminationBasis(ring)
        for row in basis_rows:
            before = dict(row)
            assert basis.add_row(row)
            assert row == before
        stored = {q: dict(piv) for q, piv in basis.pivots.items()}
        for row in basis_rows:
            row.clear()  # no stored pivot is the caller's dict
        assert basis.pivots == stored
        for row in rows:
            before = dict(row)
            basis.add_row(row)
            assert row == before
            assert all(basis.pivots[q] == piv for q, piv in stored.items())

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([None, 2, 5, 11]),
           st.lists(st.dictionaries(
               st.integers(min_value=0, max_value=5),
               st.tuples(st.integers(min_value=-30, max_value=30),
                         st.integers(min_value=1, max_value=6)),
               max_size=6), min_size=1, max_size=8))
    def test_hypothesis_no_row_is_mutated(self, p, entries):
        # Over QQ an entry (v, d) is v / d; over F_p it is v, often
        # negative or at least p.
        if p is None:
            ring = QQ
            rows = [{c: Fraction(v, d) if d > 1 else v
                     for c, (v, d) in row.items()} for row in entries]
        else:
            ring = PrimeField(p)
            rows = [{c: v for c, (v, _) in row.items()} for row in entries]
        basis = EliminationBasis(ring)
        for row in rows:
            before = dict(row)
            stored = {q: dict(piv) for q, piv in basis.pivots.items()}
            basis.add_row(row)
            assert row == before
            assert all(basis.pivots[q] == piv for q, piv in stored.items())
        # The stored normal form: lead 1 over F_p; over QQ primitive
        # integers with a positive lead.
        for q, piv in basis.pivots.items():
            assert q == min(piv)
            if p is None:
                assert all(v.__class__ is int for v in piv.values())
                assert piv[q] > 0
                assert gcd(*piv.values()) == 1
            else:
                assert piv[q] == 1
                assert all(0 < v < p for v in piv.values())


class TestGuards:
    def test_requires_field(self):
        with pytest.raises(LinAlgError):
            EliminationBasis(QQ_DELTA)

    @pytest.mark.parametrize("rows", [[{0: 0.1}], [{0: "1/2"}], [{0: True}],
                                      [{0: 1}, {1: 2.0}], [{0: None}]])
    def test_rational_entries_are_ints_or_fractions(self, rows):
        with pytest.raises(LinAlgError, match="is not an int or a Fraction"):
            rank_of_rows(rows, QQ)

    @pytest.mark.parametrize("rows", [[{0: 2.5}, {0: 1.0}], [{0: Fraction(1, 2)}],
                                      [{0: Fraction(3)}], [{0: False}], [{0: "1"}]])
    def test_prime_field_entries_are_ints(self, rows):
        with pytest.raises(LinAlgError, match="is not an int"):
            rank_of_rows(rows, PrimeField(5))

    def test_rejected_row_leaves_the_basis_unchanged(self):
        basis = EliminationBasis(QQ)
        basis.add_row({0: 1})
        with pytest.raises(LinAlgError):
            basis.add_row({1: 0.5})
        assert basis.pivots == {0: {0: 1}}

    def test_fractions_and_ints_are_accepted(self):
        assert rank_of_rows([{0: Fraction(1, 2), 1: 3}, {0: 1, 1: Fraction(6)}],
                            QQ) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_hypothesis_rank_nullity(dense_rows):
    rows = [{j: v for j, v in enumerate(r) if v} for r in dense_rows]
    basis = EliminationBasis(QQ)
    for row in rows:
        basis.add_row(row)
    vecs = basis.nullspace(range(4))
    assert basis.rank <= min(len(rows), 4)
    assert basis.rank + len(vecs) == 4
    for vec in vecs:
        for row in rows:
            assert dot(row, vec) == 0
    for row in rows:
        assert in_span(basis, row)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_hypothesis_rank_matches_prime_field_bound(dense_rows):
    # rank over F_p never exceeds rank over QQ
    gf = PrimeField(11)
    rows_q = [{j: v for j, v in enumerate(r) if v} for r in dense_rows]
    rows_p = [
        {j: gf.from_int(v) for j, v in enumerate(r) if gf.from_int(v) != gf.zero()}
        for r in dense_rows
    ]
    assert rank_of_rows(rows_p, gf) <= rank_of_rows(rows_q, QQ)
