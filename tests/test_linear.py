"""Linear combinations of diagrams: construction, algebra operations with
loop bookkeeping, flips, specialization, modular reduction, and JSON."""

from __future__ import annotations

from fractions import Fraction

import pytest

from brauer.diagram import e_i, identity, s_i, tensor
from brauer.linear import (
    Morphism,
    MorphismError,
    from_diagram,
    identity_morphism,
    integrality_check,
    lin_add,
    lin_ast,
    lin_compose,
    lin_power,
    lin_scale,
    lin_star,
    lin_sub,
    lin_tensor,
    make_morphism,
    morphism_from_json,
    morphism_to_json,
    reduce_mod_p,
    specialize_delta,
    zero_morphism,
)
from brauer.rings import Poly, PrimeField, QQ, QQ_DELTA


def morphism_of(d, **kw):
    return from_diagram(d, **kw)


class TestConstruction:
    def test_zero_terms_dropped(self):
        x = make_morphism(2, 2, {e_i(2, 1): Fraction(0)}, ring=QQ, delta=Fraction(1))
        assert x.is_zero()
        assert x.term_count() == 0

    def test_valency_mismatch_rejected(self):
        with pytest.raises(MorphismError):
            make_morphism(2, 2, {e_i(3, 1): 1})

    def test_symbolic_requires_polynomial_ring(self):
        with pytest.raises(MorphismError):
            make_morphism(2, 2, {e_i(2, 1): 1}, ring=QQ, delta=None)

    def test_bool_coefficient_rejected(self):
        with pytest.raises(MorphismError):
            make_morphism(2, 2, {e_i(2, 1): True})

    @pytest.mark.parametrize("k,l", [(-2, 2), (2, -1), (2.9, 2), (2, 2.0),
                                     (True, 1), ("2", 2)])
    def test_invalid_valency_rejected(self, k, l):
        with pytest.raises(MorphismError):
            make_morphism(k, l, {})

    def test_context_mismatch_in_add(self):
        x = from_diagram(e_i(2, 1), ring=QQ, delta=Fraction(2))
        y = from_diagram(e_i(2, 1), ring=QQ, delta=Fraction(3))
        with pytest.raises(MorphismError):
            lin_add(x, y)


class TestAlgebra:
    def test_cap_cup_square_is_delta_times_itself(self):
        e = from_diagram(e_i(2, 1))
        prod = lin_compose(e, e)
        assert prod == lin_scale(Poly.variable(), e)

    def test_crossing_absorbs_into_cap_cup(self):
        s = from_diagram(s_i(2, 1))
        e = from_diagram(e_i(2, 1))
        assert lin_compose(s, e) == e
        assert lin_compose(e, s) == e

    def test_jumping_relation_in_width_three(self):
        e1 = from_diagram(e_i(3, 1))
        e2 = from_diagram(e_i(3, 2))
        assert lin_compose(lin_compose(e1, e2), e1) == e1

    def test_identity_neutral(self):
        x = lin_add(from_diagram(s_i(3, 1)), lin_scale(Poly.variable(), from_diagram(e_i(3, 2))))
        one = identity_morphism(3)
        assert lin_compose(one, x) == x
        assert lin_compose(x, one) == x

    def test_power(self):
        e = from_diagram(e_i(2, 1), ring=QQ, delta=Fraction(3))
        assert lin_power(e, 3) == lin_scale(Fraction(9), e)
        assert lin_power(e, 0) == identity_morphism(2, ring=QQ, delta=Fraction(3))

    def test_tensor_splits_over_sums(self):
        a = lin_add(from_diagram(s_i(2, 1)), from_diagram(e_i(2, 1)))
        b = from_diagram(identity(1))
        left = lin_tensor(a, b)
        expected = lin_add(from_diagram(tensor(s_i(2, 1), identity(1))),
                           from_diagram(tensor(e_i(2, 1), identity(1))))
        assert left == expected

    def test_star_is_antihomomorphism(self):
        x = from_diagram(s_i(3, 1))
        y = from_diagram(e_i(3, 2))
        assert lin_star(lin_compose(x, y)) == lin_compose(lin_star(y), lin_star(x))

    def test_ast_is_involution(self):
        x = lin_add(from_diagram(s_i(3, 2)), lin_scale(Fraction(2, 3), from_diagram(e_i(3, 1))))
        y = make_morphism(3, 3, dict(x.terms), ring=x.ring, delta=x.delta)
        assert lin_ast(lin_ast(y)) == y

    def test_sub_cancels(self):
        x = from_diagram(s_i(2, 1))
        assert lin_sub(x, x).is_zero()
        assert lin_sub(x, x) == zero_morphism(2, 2)


class TestSpecialization:
    def test_specialize_delta(self):
        e = from_diagram(e_i(2, 1))
        sq = lin_compose(e, e)  # delta * e, symbolic
        sp = specialize_delta(sq, Fraction(7))
        assert sp == lin_scale(Fraction(7), from_diagram(e_i(2, 1), ring=QQ, delta=Fraction(7)))

    def test_specialize_requires_symbolic(self):
        e = from_diagram(e_i(2, 1), ring=QQ, delta=Fraction(2))
        with pytest.raises(MorphismError):
            specialize_delta(e, Fraction(3))

    def test_reduce_mod_p(self):
        x = lin_scale(Fraction(7), from_diagram(e_i(2, 1), ring=QQ, delta=Fraction(-2)))
        y = reduce_mod_p(x, 5)
        assert y.ring == PrimeField(5)
        assert y.delta == 3
        assert y.coeff(e_i(2, 1)) == 2

    def test_reduce_mod_p_needs_integral(self):
        x = lin_scale(Fraction(1, 5), from_diagram(e_i(2, 1), ring=QQ, delta=Fraction(2)))
        with pytest.raises(MorphismError):
            reduce_mod_p(x, 5)

    def test_integrality(self):
        assert integrality_check(lin_scale(Fraction(4), from_diagram(e_i(2, 1), ring=QQ, delta=Fraction(1))))
        assert not integrality_check(lin_scale(Fraction(1, 2), from_diagram(e_i(2, 1), ring=QQ, delta=Fraction(1))))


class TestJson:
    def test_round_trip_symbolic(self):
        x = lin_add(lin_scale(Poly.variable(), from_diagram(s_i(2, 1))),
                    from_diagram(e_i(2, 1)))
        assert morphism_from_json(morphism_to_json(x)) == x

    def test_round_trip_numeric(self):
        x = lin_scale(Fraction(-3, 2), from_diagram(e_i(2, 1), ring=QQ, delta=Fraction(5, 2)))
        assert morphism_from_json(morphism_to_json(x)) == x

    def test_round_trip_prime_field(self):
        x = from_diagram(e_i(2, 1), ring=PrimeField(7), delta=3, coeff=4)
        assert morphism_from_json(morphism_to_json(x)) == x

    def test_terms_sorted_deterministically(self):
        x = lin_add(from_diagram(s_i(2, 1)), from_diagram(e_i(2, 1)))
        data = morphism_to_json(x)
        pair_lists = [tuple(map(tuple, t["diagram"]["pairs"])) for t in data["terms"]]
        assert pair_lists == sorted(pair_lists)

    def test_malformed_rejected(self):
        with pytest.raises(MorphismError):
            morphism_from_json({"k": 2, "l": 2, "ring": "Rationals"})
        with pytest.raises(MorphismError):
            morphism_from_json({"k": 2, "l": 2, "ring": "Rationals",
                                "delta": "1", "terms": [{"coeff": "1"}]})
