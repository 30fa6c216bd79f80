"""Linear combinations of diagrams: construction, algebra operations with
loop bookkeeping, flips, specialization, modular reduction, and JSON."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from brauer.diagram import (cup, e_i, enumerate_diagrams, identity, s_i,
                            tensor, u_nest)
from brauer.elements import ElementError, sigma
from brauer.linear import (
    Morphism,
    MorphismError,
    block_act,
    block_orbit,
    from_diagram,
    identity_morphism,
    integrality_check,
    lin_add,
    lin_ast,
    lin_compose,
    lin_scale,
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
        assert len(x.terms) == 0

    def test_valency_mismatch_rejected(self):
        with pytest.raises(MorphismError):
            make_morphism(2, 2, {e_i(3, 1): 1})
        with pytest.raises(MorphismError):
            Morphism(2, 0, QQ, Fraction(1), {e_i(2, 1): 1})

    def test_symbolic_requires_polynomial_ring(self):
        with pytest.raises(MorphismError):
            make_morphism(2, 2, {e_i(2, 1): 1}, ring=QQ, delta=None)

    @pytest.mark.parametrize("delta", [3, Fraction(3), Poly.variable()])
    def test_polynomial_ring_requires_symbolic_delta(self, delta):
        # a coefficient d beside a numeric delta would mean two loop values
        with pytest.raises(MorphismError, match="requires symbolic delta"):
            make_morphism(1, 1, {identity(1): Poly((0, 1))}, ring=QQ_DELTA,
                          delta=delta)

    def test_bool_coefficient_rejected(self):
        with pytest.raises(MorphismError):
            make_morphism(2, 2, {e_i(2, 1): True})
        with pytest.raises(MorphismError):
            Morphism(2, 2, QQ, Fraction(1), {e_i(2, 1): False})

    @pytest.mark.parametrize("key", [((0, 1), (2, 3)), "e_1", None])
    def test_non_diagram_key_rejected(self, key):
        with pytest.raises(MorphismError):
            make_morphism(2, 2, {key: 1})
        with pytest.raises(MorphismError):
            Morphism(2, 2, QQ, Fraction(1), {key: 1})

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

    def test_tensor_splits_over_sums(self):
        a = lin_add(from_diagram(s_i(2, 1)), from_diagram(e_i(2, 1)))
        b = from_diagram(identity(1))
        left = lin_tensor(a, b)
        expected = lin_add(from_diagram(tensor(s_i(2, 1), identity(1))),
                           from_diagram(tensor(e_i(2, 1), identity(1))))
        assert left == expected

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
        assert specialize_delta(sq, 7) == sp

    @pytest.mark.parametrize("value", [0.1, True, "3", None],
                             ids=["float", "bool", "str", "none"])
    def test_specialize_refuses_inexact_values(self, value):
        with pytest.raises(MorphismError):
            specialize_delta(sigma(1, 2), value)

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
        half = from_diagram(e_i(2, 1), ring=QQ, delta=Fraction(1, 2))
        with pytest.raises(MorphismError, match="non-integral"):
            reduce_mod_p(half, 5)

    @pytest.mark.parametrize("p", [5, 7])
    def test_reduce_mod_p_refuses_a_prime_field_morphism(self, p):
        # -e over F_7 has coefficient 6: read as an integer it would give 1
        # mod 5, not -1
        x = reduce_mod_p(lin_scale(-1, from_diagram(e_i(2, 1), ring=QQ,
                                                    delta=Fraction(-2))), 7)
        assert x.coeff(e_i(2, 1)) == 6
        with pytest.raises(MorphismError, match=r"over PrimeField\(7\)"):
            reduce_mod_p(x, p)

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

    def test_polynomial_ring_with_numeric_delta_rejected(self):
        data = morphism_to_json(from_diagram(identity(1)))
        data["delta"] = "3"
        with pytest.raises(MorphismError, match="requires symbolic delta"):
            morphism_from_json(data)

    @pytest.mark.parametrize("field,value", [
        ("coeff", 1e-400), ("coeff", 12345678901234567891.0), ("coeff", 1),
        ("delta", 2), ("delta", None)])
    def test_numeric_json_coefficient_rejected(self, field, value):
        data = morphism_to_json(from_diagram(cup(), ring=QQ, delta=2))
        if field == "coeff":
            data["terms"][0]["coeff"] = value
        else:
            data["delta"] = value
        with pytest.raises(MorphismError, match="is not a string"):
            morphism_from_json(data)

    def test_malformed_rejected(self):
        with pytest.raises(MorphismError):
            morphism_from_json({"k": 2, "l": 2, "ring": "Rationals"})
        with pytest.raises(MorphismError):
            morphism_from_json({"k": 2, "l": 2, "ring": "Rationals",
                                "delta": "1", "terms": [{"coeff": "1"}]})


def _young_blocks(blocks, r, eps, ring=QQ, delta=1):
    """Sigma_eps(b_1) (x) Sigma_eps(b_2) (x) ... (x) I on r strands, built
    from the enumerated symmetrizers."""
    acc = identity_morphism(0, ring=ring, delta=delta)
    for b in blocks:
        acc = lin_tensor(acc, sigma(eps, b, ring=ring, delta=delta))
    return lin_tensor(acc, identity_morphism(r - sum(blocks), ring=ring,
                                             delta=delta))


def _two_blocks(r):
    """Two blocks over all but the last of r nodes, so that some node is
    fixed."""
    r = max(r - 1, 0)
    return ((r + 1) // 2, r // 2)


class TestBlockAct:
    @pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_matches_composition_on_every_diagram(self, n, eps):
        for k in range(n + 1):
            l = n - k
            top, bottom = _two_blocks(l), _two_blocks(k)
            left = _young_blocks(top, l, eps)
            right = _young_blocks(bottom, k, eps)
            for d in enumerate_diagrams(k, l):
                x = from_diagram(d, ring=QQ, delta=1)
                assert block_act(x, eps, top=top) == lin_compose(left, x)
                assert block_act(x, eps, bottom=bottom) == lin_compose(x, right)
                assert block_act(x, eps, top=top, bottom=bottom) == \
                    lin_compose(left, lin_compose(x, right))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_composition_on_random_sums(self, seed):
        # several terms per orbit, so grouping and cancellation are exercised
        rng = random.Random(seed)
        k, l = rng.choice([(2, 4), (3, 3), (4, 2), (1, 5), (0, 6)])
        pool = enumerate_diagrams(k, l)
        terms = {d: Poly((Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2))))
                 for d in rng.sample(pool, 8)}
        x = make_morphism(k, l, terms)
        top = (rng.randint(0, l),)
        top += (rng.randint(0, l - top[0]),)
        bottom = (rng.randint(0, k),)
        for eps in (1, -1):
            expected = lin_compose(lin_compose(_young_blocks(top, l, eps,
                                                             QQ_DELTA, None), x),
                                   _young_blocks(bottom, k, eps, QQ_DELTA, None))
            assert block_act(x, eps, top=top, bottom=bottom) == expected

    def test_antisymmetrizer_over_a_cup_is_zero(self):
        adjacent = from_diagram(tensor(cup(), identity(1)))
        nested = from_diagram(tensor(u_nest(2), identity(1)))
        assert block_act(adjacent, 1, top=(2,)).is_zero()
        assert block_act(nested, 1, top=(4,)).is_zero()
        orbit, vanishes = block_orbit(next(iter(nested.terms)), 1, top=(4,))
        assert vanishes and len(orbit) == 3
        # the symmetrizer keeps it, with the stabilizer order 2^2 * 2!
        sym = block_act(nested, -1, top=(4,))
        assert len(sym.terms) == 3
        assert set(sym.terms.values()) == {Poly.const(8)}

    def test_absorbs_its_own_block(self):
        x = block_act(identity_morphism(4), 1, top=(3,))
        assert x == lin_tensor(sigma(1, 3), identity_morphism(1))
        assert block_act(x, 1, top=(3,)) == lin_scale(6, x)
        assert block_act(x, 1, bottom=(3,)) == lin_scale(6, x)
        # acting on both sides at once is acting on one side, then the other
        y = from_diagram(e_i(4, 2))
        assert block_act(block_act(y, -1, top=(1, 3)), -1, bottom=(2, 2)) == \
            block_act(y, -1, top=(1, 3), bottom=(2, 2))

    def test_keeps_ring_and_delta(self):
        x = from_diagram(s_i(3, 1), ring=PrimeField(5), delta=2)
        y = block_act(x, -1, top=(3,))
        assert (y.ring, y.delta) == (PrimeField(5), 2)
        assert len(y.terms) == 6

    @pytest.mark.parametrize("kw", [
        {"eps": 0}, {"eps": 1, "top": (3,)}, {"eps": 1, "bottom": (1, 2)},
        {"eps": 1, "top": (-1,)}, {"eps": -1, "bottom": (1.5,)},
    ], ids=["eps", "top-wide", "bottom-wide", "negative", "not-int"])
    def test_rejects_bad_blocks(self, kw):
        x = from_diagram(e_i(2, 1))
        with pytest.raises(MorphismError):
            block_act(x, **kw)
        with pytest.raises(MorphismError):
            block_orbit(e_i(2, 1), **kw)

    @pytest.mark.parametrize("eps", [True, 1.0, 0], ids=["bool", "float", "zero"])
    def test_every_eps_check_refuses_all_but_the_ints_one_and_minus_one(self, eps):
        x = from_diagram(e_i(2, 1))
        for error, call in [(MorphismError, lambda: block_act(x, eps)),
                            (MorphismError, lambda: block_orbit(e_i(2, 1), eps)),
                            (ElementError, lambda: sigma(eps, 2))]:
            with pytest.raises(error, match="eps must be"):
                call()
