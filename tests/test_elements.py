"""Tests for the distinguished algebra elements and their exact identities."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauer import (
    QQ,
    ElementError,
    Morphism,
    Poly,
    antisymmetrizer_block,
    d_pq,
    e_i_j,
    e_p_formula,
    e_p_rotation,
    f_p,
    from_diagram,
    from_permutation,
    identity_morphism,
    integrality_check,
    lin_add,
    lin_ast,
    lin_compose,
    lin_scale,
    permutation_diagram,
    phi,
    rotate_right,
    sigma,
    verify_relation_soundness,
    zero_morphism,
)
from brauer.diagram import e_i, e_pair, s_i
from brauer.elements import inversions
from brauer.verify import (brauer_presentation_report, verify_afu,
                           verify_sigma_cap, verify_sigma_identities)


def assert_all(checks):
    bad = [c for c in checks if not c.passed]
    assert not bad, "failed: %s" % ([c.case for c in bad],)


class TestPermutations:
    def test_inversions(self):
        assert inversions((0, 1, 2)) == 0
        assert inversions((1, 0, 2)) == 1
        assert inversions((2, 1, 0)) == 3

    def test_from_permutation_single_term(self):
        m = from_permutation((1, 0, 2))
        assert m.k == m.l == 3
        assert m.terms == {permutation_diagram((1, 0, 2)): Poly.const(1)}

    def test_from_permutation_composes_like_permutations(self):
        a, b = (1, 2, 0), (0, 2, 1)
        left = lin_compose(from_permutation(a), from_permutation(b))
        # diagram composition applies the right factor first
        composed = tuple(a[b[i]] for i in range(3))
        assert left == from_permutation(composed)


class TestSigma:
    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
    def test_term_count_and_units(self, eps, r):
        sig = sigma(eps, r)
        assert len(sig.terms) == factorial(r)
        assert all(c in (Poly.const(1), Poly.const(-1)) for c in sig.terms.values())

    def test_sign_convention(self):
        anti = sigma(1, 2)
        sym = sigma(-1, 2)
        swap = permutation_diagram((1, 0))
        assert anti.terms[swap] == Poly.const(-1)
        assert sym.terms[swap] == Poly.const(1)

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_quasi_idempotent(self, eps, r):
        sig = sigma(eps, r)
        assert lin_compose(sig, sig) == lin_scale(factorial(r), sig)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_crossing_absorption(self, r):
        for eps in (1, -1):
            sig = sigma(eps, r)
            for i in range(1, r):
                s = from_diagram(s_i(r, i))
                assert lin_compose(s, sig) == lin_scale(-eps, sig)
                assert lin_compose(sig, s) == lin_scale(-eps, sig)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_cap_kills_alternating_sum(self, r):
        anti = sigma(1, r)
        for i in range(1, r):
            e = from_diagram(e_i(r, i))
            assert lin_compose(e, anti).is_zero()
            assert lin_compose(anti, e).is_zero()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ElementError):
            sigma(0, 2)
        with pytest.raises(ElementError):
            sigma(1, -1)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_identity_suite(self, r):
        assert_all(verify_sigma_identities(r))

    @pytest.mark.parametrize(
        "r,k", [(r, k) for r in range(2, 6) for k in range(r // 2 + 1)]
    )
    def test_cap_suite(self, r, k):
        assert_all(verify_sigma_cap(r, k))

    def test_term_budget_boundary(self, monkeypatch):
        # 4! = 24 terms: allowed at a budget of 24, refused at 23
        monkeypatch.setenv("BRAUER_MAX_CELLS", "24")
        assert len(sigma(1, 4).terms) == 24
        assert len(antisymmetrizer_block(2, 5, 6).terms) == 24
        monkeypatch.setenv("BRAUER_MAX_CELLS", "23")
        with pytest.raises(ElementError):
            sigma(1, 4)
        with pytest.raises(ElementError):
            antisymmetrizer_block(2, 5, 6)
        with pytest.raises(ElementError):
            phi(3)
        assert len(sigma(-1, 3).terms) == 6
        assert len(antisymmetrizer_block(1, 3, 6).terms) == 6

    def test_suite_argument_guards(self):
        with pytest.raises(ElementError):
            verify_sigma_identities(0)
        with pytest.raises(ElementError):
            verify_sigma_cap(4, 3)


class TestAntisymmetrizerBlock:
    def test_degenerate_window_is_identity(self):
        assert antisymmetrizer_block(2, 2, 4) == identity_morphism(4)
        assert antisymmetrizer_block(3, 1, 4) == identity_morphism(4)

    def test_full_window_is_sigma(self):
        assert antisymmetrizer_block(1, 4, 4) == sigma(1, 4)

    def test_disjoint_blocks_commute(self):
        a = antisymmetrizer_block(1, 2, 5)
        b = antisymmetrizer_block(3, 5, 5)
        assert lin_compose(a, b) == lin_compose(b, a)

    def test_block_quasi_idempotent(self):
        b = antisymmetrizer_block(2, 4, 5)
        assert lin_compose(b, b) == lin_scale(factorial(3), b)

    def test_out_of_range(self):
        with pytest.raises(ElementError):
            antisymmetrizer_block(0, 2, 4)
        with pytest.raises(ElementError):
            antisymmetrizer_block(1, 5, 4)


class TestNestedCups:
    def test_zero_depth_is_identity(self):
        assert e_i_j(2, 0, 4) == identity_morphism(4)

    def test_depth_one_is_adjacent_generator(self):
        assert e_i_j(2, 1, 4) == from_diagram(e_i(4, 2))

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_equals_product_of_its_factors(self, r):
        for i in range(1, r):
            for j in range(min(i, r - i) + 1):
                product = identity_morphism(r)
                for x in range(j):
                    factor = from_diagram(e_pair(r, i - 1 - x, i + x))
                    product = lin_compose(product, factor)
                assert e_i_j(i, j, r) == product

    def test_out_of_range(self):
        with pytest.raises(ElementError):
            e_i_j(1, 2, 4)
        with pytest.raises(ElementError):
            e_i_j(2, -1, 4)


def _phi_sandwich(n):
    """Phi_n by the symmetrizer sandwich: the sum over k of Xi_k /
    ((2^k k!)^2 (n+1-2k)!), where Xi_k sandwiches the k-fold product of far
    cap-cup generators between two symmetrizers."""
    r = n + 1
    delta = Fraction(-2 * n)
    sig = sigma(-1, r, ring=QQ, delta=delta)
    acc = zero_morphism(r, r, ring=QQ, delta=delta)
    for k in range((n + 1) // 2 + 1):
        ek = identity_morphism(r, ring=QQ, delta=delta)
        for j in range(1, k + 1):
            ek = lin_compose(
                ek, from_diagram(e_i(r, n + 2 - 2 * j), ring=QQ, delta=delta)
            )
        xi = lin_compose(lin_compose(sig, ek), sig)
        a_k = Fraction(1, (2**k * factorial(k)) ** 2 * factorial(n + 1 - 2 * k))
        acc = lin_add(acc, lin_scale(a_k, xi))
    return acc


class TestPhi:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_symmetrizer_sandwich(self, n):
        assert phi(n) == _phi_sandwich(n)

    def test_term_budget_counts_all_diagrams(self, monkeypatch):
        # |B_3| = 5!! = 15 terms: allowed at a budget of 15, refused at 14
        monkeypatch.setenv("BRAUER_MAX_CELLS", "15")
        assert len(phi(2).terms) == 15
        monkeypatch.setenv("BRAUER_MAX_CELLS", "14")
        with pytest.raises(ElementError, match="limit 14"):
            phi(2)

    def test_huge_degree_refused_without_forming_the_count(self):
        # 200001!! has about 487,000 digits; the guard stops at the first
        # partial product over the limit and never prints the count
        with pytest.raises(ElementError, match=r"sums the 200001!! diagrams"):
            phi(100000)

    def test_degree_two_value(self):
        p = phi(1)
        expected = {
            permutation_diagram((0, 1)): Fraction(1),
            permutation_diagram((1, 0)): Fraction(1),
            e_i(2, 1): Fraction(1),
        }
        assert p.k == p.l == 2
        assert p.ring == QQ
        assert p.delta == Fraction(-2)
        assert p.terms == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_integer_coefficients(self, n):
        assert integrality_check(phi(n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_quasi_idempotent(self, n):
        p = phi(n)
        assert lin_compose(p, p) == lin_scale(factorial(n + 1), p)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_flip_fixed(self, n):
        p = phi(n)
        assert lin_ast(p) == p

    @pytest.mark.parametrize("n", [1, 2])
    def test_caps_annihilate(self, n):
        p = phi(n)
        for i in range(1, n + 1):
            e = from_diagram(e_i(n + 1, i), ring=QQ, delta=Fraction(-2 * n))
            assert lin_compose(e, p).is_zero()
            assert lin_compose(p, e).is_zero()

    @pytest.mark.parametrize("n", [1, 2])
    def test_permutations_absorbed(self, n):
        p = phi(n)
        for i in range(1, n + 1):
            s = from_diagram(s_i(n + 1, i), ring=QQ, delta=Fraction(-2 * n))
            assert lin_compose(s, p) == p
            assert lin_compose(p, s) == p

    def test_requires_positive_degree(self):
        with pytest.raises(ElementError):
            phi(0)


def _e_p_sandwich(m, i):
    """E_i by its formula with F_i built from the enumerated blocks and
    composed: the sum over j of F_i e_i(j) F_i / ((i-j)! (m+1-i-j)! (j!)^2)."""
    r = m + 1
    ring, delta = QQ, Fraction(m)
    fi = f_p(m, i)
    acc = zero_morphism(r, r, ring=ring, delta=delta)
    for j in range(min(i, r - i) + 1):
        c = Fraction((-1) ** j, factorial(i - j) * factorial(r - i - j)
                     * factorial(j) ** 2)
        xi = lin_compose(lin_compose(fi, e_i_j(i, j, r, ring=ring, delta=delta)),
                         fi)
        acc = lin_add(acc, lin_scale(c, xi))
    return acc


def _e_p_rotate_right(m, p):
    """E_p by rotating each term of the enumerated Sigma_1(m+1) with
    :func:`brauer.diagram.rotate_right`: the oracle for the bend."""
    delta = Fraction(m)
    terms = {}
    for d, c in sigma(1, m + 1, ring=QQ, delta=delta).terms.items():
        rd = rotate_right(d, p)
        terms[rd] = terms.get(rd, 0) + c
    return Morphism(m + 1, m + 1, QQ, delta, terms)


class TestBentAntisymmetrizers:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_bend_matches_rotate_right(self, m):
        for p in range(m + 2):
            assert e_p_rotation(m, p) == _e_p_rotate_right(m, p)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_formula_matches_rotation(self, m):
        for i in range(m + 2):
            assert e_p_formula(m, i) == e_p_rotation(m, m + 1 - i)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_formula_matches_block_sandwich(self, m):
        for i in range(m + 2):
            assert e_p_formula(m, i) == _e_p_sandwich(m, i)

    def test_budget_counts_result_terms(self, monkeypatch):
        # at most 3! terms of 6 nodes: allowed at 36 cells, refused at 35
        monkeypatch.setenv("BRAUER_MAX_CELLS", "36")
        assert len(e_p_formula(2, 1).terms) == 6
        assert len(e_p_rotation(2, 2).terms) == 6
        monkeypatch.setenv("BRAUER_MAX_CELLS", "35")
        # E_1 by formula, and by rotating 2 strands
        for make, arg in ((e_p_formula, 1), (e_p_rotation, 2)):
            with pytest.raises(ElementError, match="E_1 in degree 3 has up "
                                                   "to 3! terms of 6 nodes"):
                make(2, arg)

    def test_huge_degree_refused_without_forming_the_count(self):
        for make in (e_p_formula, e_p_rotation):
            with pytest.raises(ElementError, match=r"up to 1000001! terms"):
                make(10 ** 6, 3)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rotation_coefficients_are_units(self, m):
        for p in range(m + 2):
            rot = e_p_rotation(m, p)
            assert all(c in (Fraction(1), Fraction(-1)) for c in rot.terms.values())

    def test_boundary_case_is_flat_antisymmetrizer(self):
        for m in (1, 2, 3):
            flat = sigma(1, m + 1, ring=QQ, delta=Fraction(m))
            assert e_p_formula(m, 0) == flat
            assert e_p_rotation(m, 0) == flat

    @pytest.mark.parametrize("m", [1, 2])
    def test_block_absorption(self, m):
        for i in range(m + 2):
            e = e_p_formula(m, i)
            fi = f_p(m, i)
            scale = factorial(i) * factorial(m + 1 - i)
            assert lin_compose(fi, e) == lin_scale(scale, e)
            assert lin_compose(e, fi) == lin_scale(scale, e)

    @pytest.mark.parametrize("m", [1, 2])
    def test_flip_reverses_rotation(self, m):
        for p in range(m + 2):
            assert lin_ast(e_p_rotation(m, p)) == e_p_rotation(m, m + 1 - p)

    def test_out_of_range(self):
        with pytest.raises(ElementError):
            e_p_rotation(2, 4)
        with pytest.raises(ElementError):
            e_p_formula(2, -1)
        with pytest.raises(ElementError, match="block size 4 out of range"):
            f_p(2, 4)

    @pytest.mark.parametrize("m", [0, -1])
    def test_degree_below_one_rejected(self, m):
        for make in (e_p_rotation, e_p_formula, f_p):
            with pytest.raises(ElementError, match="m >= 1"):
                make(m, 0)

    @pytest.mark.parametrize("m,i,k", [
        (m, i, k)
        for m in (1, 2, 3)
        for i in range(1, m + 1)
        for k in range(min(i, m + 1 - i) + 1)
    ])
    def test_bent_cap_identity(self, m, i, k):
        assert_all(verify_afu(m, i, k))

    def test_bent_cap_guards(self):
        with pytest.raises(ElementError):
            verify_afu(2, 0, 0)
        with pytest.raises(ElementError):
            verify_afu(2, 1, 2)


class TestBentSymmetrizers:
    def test_no_bending_is_flat_symmetrizer(self):
        for n in (0, 1, 2):
            assert d_pq(n, 0, 0) == sigma(-1, 2 * n + 1, ring=QQ, delta=Fraction(-2 * n))

    @pytest.mark.parametrize("n,p,q", [(1, 1, 0), (1, 1, 1), (2, 1, 0), (2, 2, 1)])
    def test_valency(self, n, p, q):
        d = d_pq(n, p, q)
        assert d.k == d.l == 2 * n + 1 - p + q
        assert d.delta == Fraction(-2 * n)

    def test_terms_merge_with_multiplicity(self):
        # bending the degree-3 symmetrizer down to (2, 2) folds the six
        # permutations onto the three matchings, two apiece
        d = d_pq(1, 1, 0)
        assert d.k == d.l == 2
        assert len(d.terms) == 3
        assert all(c == Fraction(2) for c in d.terms.values())

    def test_fully_bent_is_conjugate_shape(self):
        # p = q keeps the valency of the flat symmetrizer
        d = d_pq(1, 1, 1)
        assert d.k == d.l == 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ElementError):
            d_pq(1, 0, 1)
        with pytest.raises(ElementError):
            d_pq(1, 2, 0)
        with pytest.raises(ElementError):
            d_pq(-1, 0, 0)


class TestPresentation:
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_presentation_report(self, r):
        assert_all(brauer_presentation_report(r))

    def test_rewrite_rules_are_sound(self):
        assert_all(verify_relation_soundness())


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(4))))
def test_hypothesis_permutation_morphisms(pi):
    pi = tuple(pi)
    m = from_permutation(pi)
    assert len(m.terms) == 1
    inv = tuple(sorted(range(4), key=lambda i: pi[i]))
    assert lin_compose(m, from_permutation(inv)) == identity_morphism(4)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_hypothesis_sigma_absorbs_sigma(r, s):
    if s > r:
        r, s = s, r
    big = sigma(1, r)
    small = antisymmetrizer_block(1, s, r)
    assert lin_compose(small, big) == lin_scale(factorial(s), big)


@pytest.mark.parametrize("make", [lambda: phi(2), lambda: phi(3),
                                  lambda: e_p_rotation(3, 2),
                                  lambda: sigma(1, 4)],
                         ids=["phi2", "phi3", "ep_rotation_3_2", "sigma_1_4"])
def test_integer_elements_have_int_coefficients(make):
    x = make()
    values = list(x.terms.values())
    assert values
    for c in values:
        coeffs = c.coeffs if isinstance(c, Poly) else (c,)
        assert all(v.__class__ is int for v in coeffs)


@pytest.mark.parametrize("make,args", [
    (phi, (True,)),
    (phi, (1.5,)),
    (sigma, (1, 2.0)),
    (sigma, (True, 2)),
    (e_p_rotation, (2.0, 1)),
    (e_p_formula, (2, 1.0)),
    (f_p, (2, "1")),
    (d_pq, (1.0, 1, 0)),
    (antisymmetrizer_block, (1, 2.5, 3)),
    (e_i_j, (2, 1, 4.0)),
], ids=["phi_bool", "phi_float", "sigma_float_r", "sigma_bool_eps",
        "e_p_rotation_float_m", "e_p_formula_float_i", "f_p_str_p",
        "d_pq_float_n", "antisymmetrizer_float_l", "e_i_j_float_r"])
def test_constructors_reject_non_integer_parameters(make, args):
    with pytest.raises(ElementError):
        make(*args)
