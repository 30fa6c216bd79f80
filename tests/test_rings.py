"""Coefficient rings: dense polynomials in the loop parameter, rationals,
prime fields, canonical forms and formatting/parsing round-trips."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brauer.rings import (
    Poly,
    PolynomialsInDelta,
    PrimeField,
    QQ,
    QQ_DELTA,
    Rationals,
    RingError,
    TextError,
    parse_natural,
    parse_poly,
    parse_rational,
    rational,
    ring_from_name,
)


class TestPoly:
    def test_construction_drops_trailing_zeros(self):
        p = Poly((Fraction(1), Fraction(0), Fraction(0)))
        assert p.degree == 0
        assert p == Poly.const(Fraction(1))

    def test_arithmetic(self):
        d = Poly.variable()
        p = d * d - Poly.const(Fraction(1))
        q = d + Poly.const(Fraction(1))
        assert (d - Poly.const(Fraction(1))) * q == p
        assert p - q == d * d - d - Poly.const(Fraction(2))

    def test_evaluate_horner(self):
        d = Poly.variable()
        p = Poly.const(Fraction(2)) * d ** 3 - d + Poly.const(Fraction(5))
        assert p.evaluate(Fraction(3)) == 2 * 27 - 3 + 5

    def test_power(self):
        d = Poly.variable()
        assert (d + Poly.const(Fraction(1))) ** 2 == d * d + Poly.const(Fraction(2)) * d + Poly.const(Fraction(1))

    def test_str_forms(self):
        d = Poly.variable()
        assert str(Poly.const(Fraction(0))) == "0"
        assert str(d) == "d"
        assert str(Poly.const(Fraction(-3, 4))) == "-3/4"
        assert str(Poly.const(Fraction(2)) * d ** 2 - Poly.const(Fraction(1))) == "2*d^2-1"
        assert str(d ** 2 + Poly.const(Fraction(5)) * d + Poly.const(Fraction(6))) == "d^2+5*d+6"

    @given(st.lists(st.fractions(max_denominator=40), max_size=5))
    def test_format_parse_round_trip(self, coeffs):
        p = Poly(tuple(coeffs))
        assert QQ_DELTA.parse(str(p)) == p

    @given(st.lists(st.fractions(max_denominator=12), min_size=1, max_size=4),
           st.lists(st.fractions(max_denominator=12), min_size=1, max_size=4))
    def test_product_degree_and_commutativity(self, a, b):
        p, q = Poly(tuple(a)), Poly(tuple(b))
        assert p * q == q * p
        if p and q:
            assert (p * q).degree == p.degree + q.degree


class TestRingProtocol:
    @pytest.mark.parametrize("ring,sample", [
        (QQ, Fraction(3, 7)),
        (PrimeField(5), 3),
        (QQ_DELTA, Poly.variable()),
    ])
    def test_basic_ops(self, ring, sample):
        one, zero = ring.one(), ring.zero()
        assert not zero and one
        assert ring.add(sample, zero) == sample
        assert ring.add(ring.add(sample, sample), ring.neg(sample)) == sample
        assert ring.mul(one, sample) == sample
        assert not ring.add(sample, ring.neg(sample))
        assert ring.power(sample, 1) == sample
        assert ring.power(sample, 0) == one
        assert ring.parse(str(sample)) == sample

    def test_prime_field_inverse(self):
        f7 = PrimeField(7)
        for a in range(1, 7):
            assert f7.mul(a, f7.inv(a)) == 1
        with pytest.raises(RingError, match="division by zero"):
            f7.inv(14)

    def test_prime_field_rejects_composite(self):
        with pytest.raises(RingError):
            PrimeField(6)
        with pytest.raises(RingError):
            PrimeField(1)

    def test_prime_field_large_prime_is_fast(self):
        f = PrimeField(2 ** 61 - 1)
        assert f.mul(2, f.inv(2)) == 1

    @pytest.mark.parametrize("n", [561, 3215031751, (2 ** 31 - 1) * (2 ** 61 - 1)])
    def test_prime_field_rejects_pseudoprimes(self, n):
        # 561 is a Carmichael number, 3215031751 a strong pseudoprime to
        # the bases 2, 3, 5 and 7.
        with pytest.raises(RingError):
            PrimeField(n)

    def test_prime_field_refuses_moduli_beyond_the_exact_bound(self):
        with pytest.raises(RingError):
            PrimeField(2 ** 89 - 1)

    def test_primality_matches_trial_division(self):
        from brauer.rings import _is_prime

        def trial(n):
            return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))

        assert [n for n in range(-3, 5000) if _is_prime(n)] == \
            [n for n in range(-3, 5000) if trial(n)]

    def test_prime_field_cached_instances(self):
        assert PrimeField(5) is PrimeField(5)

    def test_is_integral(self):
        assert QQ.is_integral(Fraction(4))
        assert not QQ.is_integral(Fraction(1, 2))
        assert QQ_DELTA.is_integral(Poly((Fraction(2), Fraction(-1))))
        assert not QQ_DELTA.is_integral(Poly((Fraction(1, 2),)))

    def test_from_int_reduces_mod_p(self):
        f5 = PrimeField(5)
        assert f5.from_int(-2) == 3
        assert f5.from_int(12) == 2

    @pytest.mark.parametrize("n", [2.5, True, Fraction(2)])
    def test_from_int_refuses_what_is_not_an_int(self, n):
        with pytest.raises(RingError, match="is not an integer"):
            PrimeField(5).from_int(n)


class TestTextGrammar:
    """Every ring reads a rational as N or N/D, the one form str prints."""

    @pytest.mark.parametrize("ring", [QQ, PrimeField(5), PrimeField(11), QQ_DELTA])
    @pytest.mark.parametrize("text", ["1e5", "0.5", "1_000", "1/0", "", "--3",
                                      "1/-2", " 3", "3 ", "\u0663", "1//2", "/2"])
    def test_other_text_is_refused_by_every_ring(self, ring, text):
        with pytest.raises(TextError):
            ring.parse(text)

    @pytest.mark.parametrize("text", ["1/0*d", "1e5*d", "d^2+0.5", "*d", "3*",
                                      "2*d*d", "d^", "d+", "d + 1"])
    def test_polynomial_terms_use_the_same_grammar(self, text):
        with pytest.raises(TextError):
            parse_poly(text)

    @pytest.mark.parametrize("text,pair", [
        ("7", (7, 1)), ("-3/4", (-3, 4)), ("+2", (2, 1)), ("4/6", (4, 6)),
        ("0/5", (0, 5)),
    ])
    def test_rational_reader(self, text, pair):
        assert parse_rational(text) == pair

    @pytest.mark.parametrize("text,value", [("0", 0), ("7", 7), ("007", 7),
                                            ("1000000", 1000000)])
    def test_integer_reader(self, text, value):
        assert parse_natural(text) == value

    @pytest.mark.parametrize("text", ["", "\u0663", "1_0", " 3", "3 ", "+3",
                                      "-3", "3.0", "1e3", "0x10", "3\n"])
    def test_integer_reader_takes_ascii_digits_only(self, text):
        with pytest.raises(TextError, match="malformed integer"):
            parse_natural(text)

    def test_digits_past_the_interpreter_limit_are_refused(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts ints of any length")
        with pytest.raises(TextError):
            QQ.parse("1" * (limit + 1))
        with pytest.raises(TextError):
            parse_poly("d^" + "1" * (limit + 1))
        with pytest.raises(TextError):
            parse_natural("1" * (limit + 1))

    def test_prime_field_divides_by_the_denominator(self):
        f7 = PrimeField(7)
        assert f7.parse("1/2") == 4
        assert f7.parse("-3/4") == f7.mul(-3, f7.inv(4))
        with pytest.raises(RingError, match=r"division by zero in PrimeField\(7\)"):
            f7.parse("1/7")

    def test_polynomial_degree_is_bounded_by_the_cell_budget(self):
        with pytest.raises(RingError, match="above the limit"):
            parse_poly("d^3000000")
        with pytest.raises(RingError, match="above the limit"):
            parse_poly("d^99999999999")
        assert parse_poly("d^3000") == Poly.monomial(3000)

    def test_polynomial_degree_budget_boundary(self, monkeypatch):
        # (degree + 1)^2 cells: degree 4 needs 25
        monkeypatch.setenv("BRAUER_MAX_CELLS", "25")
        assert parse_poly("d^4").degree == 4
        monkeypatch.setenv("BRAUER_MAX_CELLS", "24")
        with pytest.raises(RingError, match="above the limit"):
            parse_poly("d^4")


class TestRingNames:
    @pytest.mark.parametrize("ring", [QQ, QQ_DELTA, PrimeField(5), PrimeField(11)])
    def test_round_trip(self, ring):
        assert ring_from_name(ring.name) == ring

    @pytest.mark.parametrize("name", [
        "Octonions", "Integers", "PrimeField(\u0667)", "PrimeField(007)",
        "PrimeField(0)", "PrimeField(7)\n", "PrimeField(+7)", "PrimeField( 7)",
        "PrimeField(7_1)"])
    def test_unknown_name(self, name):
        with pytest.raises(RingError, match="unknown ring"):
            ring_from_name(name)

    def test_delta_helpers(self):
        assert QQ_DELTA.delta() == Poly.variable()
        assert QQ_DELTA.delta_power(3) == Poly.variable() ** 3


def _is_canonical(c):
    return c.__class__ is int or (c.__class__ is Fraction and c.denominator > 1)


_small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


class TestCanonicalForm:
    """Rationals are ints while integral and Fractions only otherwise."""

    def test_helper(self):
        assert rational(Fraction(6, 3)).__class__ is int
        assert rational(Fraction(1, 2)) == Fraction(1, 2)
        assert rational(True).__class__ is int
        assert rational("3/4") == Fraction(3, 4)
        assert rational(7) == 7

    def test_rationals_stay_integral(self):
        assert QQ.zero().__class__ is int and QQ.one().__class__ is int
        assert QQ.from_int(5).__class__ is int
        assert QQ.mul(Fraction(1, 2), 4).__class__ is int
        assert QQ.add(Fraction(1, 3), Fraction(2, 3)).__class__ is int
        assert QQ.add(Fraction(1, 2), QQ.neg(Fraction(-1, 2))).__class__ is int
        assert QQ.parse("4/2").__class__ is int
        assert QQ.power(Fraction(1, 2), 2) == Fraction(1, 4)

    def test_poly_constructors_and_evaluate(self):
        assert Poly((Fraction(4, 2), 0.5)).coeffs == (2, Fraction(1, 2))
        assert Poly.const(Fraction(3)).coeffs[0].__class__ is int
        assert Poly.monomial(2, Fraction(-4, 2)).coeffs == (0, 0, -2)
        assert all(_is_canonical(c) for c in Poly.monomial(2).coeffs)
        assert Poly((1, Fraction(1, 2))).evaluate(2).__class__ is int
        assert Poly((1, 1)).evaluate(Fraction(1, 2)) == Fraction(3, 2)

    @given(st.lists(_small_fractions, max_size=5),
           st.lists(_small_fractions, min_size=1, max_size=4))
    def test_arithmetic_keeps_canonical_coefficients(self, a, b):
        a, b = Poly(tuple(a)), Poly(tuple(b))
        for p in (a, b, a * b, a + b, a - b, -a):
            assert all(_is_canonical(c) for c in p.coeffs)

    @pytest.mark.parametrize("bad", [7.0, 7.5, "7", True])
    def test_prime_field_rejects_non_int_modulus(self, bad):
        with pytest.raises(RingError):
            PrimeField(bad)


_TEXTS = {
    QQ: ["1/2", "-4/6", "3", "0"],
    QQ_DELTA: ["d", "d^2-1", "1/2*d", "-3/4", "0"],
    PrimeField(5): ["3", "-1", "12", "0"],
    PrimeField(11): ["7", "-1", "23", "0"],
}


@st.composite
def _ring_values(draw):
    """A ring and two of its values, built by the ring's own operations
    from small ints and parsed strings."""
    ring = draw(st.sampled_from(list(_TEXTS)))
    leaves = st.one_of(st.integers(-4, 4).map(ring.from_int),
                       st.sampled_from(_TEXTS[ring]).map(ring.parse))
    values = st.recursive(leaves, lambda v: st.one_of(
        st.tuples(v, v).map(lambda t: ring.add(*t)),
        st.tuples(v, v).map(lambda t: ring.mul(*t)),
        v.map(ring.neg)), max_leaves=6)
    return ring, draw(values), draw(values)


class TestCanonicalValues:
    """Every value is canonical, so ==, hash, truthiness and str agree with
    one another and with parse, on every ring."""

    @given(_ring_values())
    def test_equality_hash_truth_and_str_agree(self, sample):
        ring, a, b = sample
        assert (a == b) == (str(a) == str(b))
        if a == b:
            assert hash(a) == hash(b)
        assert bool(a) == (str(a) != "0")
        back = ring.parse(str(a))
        assert back == a and hash(back) == hash(a)
