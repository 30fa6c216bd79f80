"""Tests for the exact tensor-representation functor and its matrix backend."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauer import (
    QQ,
    ExactMatrix,
    FunctorError,
    MorphismError,
    Poly,
    PrimeField,
    compose,
    e_p_formula,
    enumerate_diagrams,
    from_diagram,
    functor_matrix,
    functor_matrix_layered,
    generator_matrices,
    group_spec,
    identity,
    identity_morphism,
    ideal_span_dimension,
    lin_scale,
    lower_diagram,
    make_morphism,
    matrix_to_json,
    phi,
    raise_diagram,
    reduce_mod_p,
    tensor,
    trace_check,
)
from brauer.diagram import cap, cup, e_i, guard_cells, max_cells, s_i
from brauer.functor import GroupSpec
from brauer.invariants import hom_rank, kernel_basis
from brauer.linear import lin_compose
from brauer.verify import verify_pau
from brauer.words import Layer, layer_diagram


DESK_SPECS = [
    group_spec("o", 2),
    group_spec("o", 3),
    group_spec("sp", 2),
    group_spec("sp", 4),
]


class TestGroupSpec:
    def test_aliases_and_labels(self):
        assert group_spec("O", 3).family == "orthogonal"
        assert group_spec("Orthogonal", 3).label() == "O(3)"
        assert group_spec("SP", 2).label() == "Sp(2)"
        assert group_spec("sp", 2, modulus=5).label() == "Sp(2) over PrimeField(5)"

    def test_signs_and_loop_values(self):
        assert group_spec("o", 3).eps == 1
        assert group_spec("sp", 2).eps == -1
        assert group_spec("o", 3).delta_value() == Fraction(3)
        assert group_spec("sp", 2).delta_value() == Fraction(-2)
        gf7 = PrimeField(7)
        assert group_spec("sp", 2, modulus=7).delta_value() == gf7.from_int(-2)

    def test_orthogonal_form_is_identity(self):
        assert group_spec("o", 3).form == ((0, 1), (1, 1), (2, 1))

    def test_symplectic_form_is_standard(self):
        assert group_spec("sp", 2).form == ((1, 1), (0, -1))
        assert group_spec("sp", 4).form == ((2, 1), (3, 1), (0, -1), (1, -1))

    def test_rejections(self):
        with pytest.raises(FunctorError):
            group_spec("unitary", 2)
        with pytest.raises(FunctorError):
            group_spec("sp", 3)
        with pytest.raises(FunctorError):
            group_spec("o", 0)

    @pytest.mark.parametrize("m", [2.9, 3.0, "3", True, -2])
    def test_dimension_is_not_truncated(self, m):
        with pytest.raises(FunctorError):
            group_spec("o", m)

    @pytest.mark.parametrize("modulus", [7.5, 7.0, "7", True])
    def test_modulus_must_be_an_int(self, modulus):
        with pytest.raises(FunctorError):
            group_spec("o", 3, modulus=modulus)

    @pytest.mark.parametrize("form", [
        ((0, 0), (1, 0)),  # the zero form: cap went to the zero matrix
        ((1, 2), (0, 2)),  # 2 is not +-1
        ((0, Fraction(1)), (1, 1)),  # signs are ints
        ((0, True), (1, 1)),  # a bool is no sign
        ((0.0, 1), (1, 1)),  # a float is no partner
        ((2, 1), (1, 1)),  # partner out of range
        ((-1, 1), (1, 1)),  # partner out of range
        ((0, 1),),  # fewer than m pairs
        ((0, 1), (1, 1), (2, 1)),  # more than m pairs
        ((0, 1, 0), (1, 1, 0)),  # cells are pairs
        (0, 1),  # cells are pairs
        None,
        ((1, 1), (1, 1)),  # not an involution
        # an alternating form labelled orthogonal: hom_rank(2, 2) was 2
        # but commutant_dimension(2) was 3
        ((1, 1), (0, -1)),
    ], ids=["zero", "two", "fraction-sign", "bool-sign", "float-partner",
            "partner-high", "partner-negative", "short", "long", "triple",
            "flat", "none", "non-involution", "alternating"])
    def test_direct_orthogonal_spec_with_bad_form_is_refused(self, form):
        with pytest.raises(FunctorError):
            GroupSpec("orthogonal", 2, QQ, form)

    @pytest.mark.parametrize("form", [
        ((0, 1), (1, -1)),  # fixed points
        ((1, 1), (0, 1)),  # symmetric form labelled symplectic
        ((1, 1), (1, -1)),  # not an involution
    ], ids=["fixed-point", "symmetric", "non-involution"])
    def test_direct_symplectic_spec_with_bad_form_is_refused(self, form):
        with pytest.raises(FunctorError):
            GroupSpec("symplectic", 2, QQ, form)

    @pytest.mark.parametrize("family,m,ring,form", [
        ("o", 2, QQ, ((0, 1), (1, 1))),  # aliases belong to group_spec
        ("unitary", 2, QQ, ((0, 1), (1, 1))),
        ("symplectic", 3, QQ, ((1, 1), (0, -1), (2, 1))),
        ("orthogonal", 0, QQ, ()),
        ("orthogonal", 2.0, QQ, ((0, 1), (1, 1))),
        ("orthogonal", 2, None, ((0, 1), (1, 1))),
    ], ids=["alias", "unknown", "odd-sp", "zero-m", "float-m", "no-field"])
    def test_direct_spec_with_bad_group_data_is_refused(self, family, m, ring,
                                                         form):
        with pytest.raises(FunctorError):
            GroupSpec(family, m, ring, form)

    def test_eps_is_derived_not_settable(self):
        with pytest.raises(TypeError):
            GroupSpec("orthogonal", 1, QQ, ((0, 1),), eps=1)
        assert GroupSpec("symplectic", 2, QQ, ((1, 1), (0, -1))).eps == -1
        # any symmetric signed pairing is an orthogonal form
        assert GroupSpec("orthogonal", 2, QQ, ((1, -1), (0, -1))).eps == 1

    def test_direct_spec_agrees_with_group_spec(self):
        # a list of lists is kept as a tuple of pairs, so both evaluators
        # see the same form as for the spec group_spec builds
        gf3 = PrimeField(3)
        spec = GroupSpec("symplectic", 2, gf3, [[1, 1], [0, -1]])
        assert spec == group_spec("sp", 2, modulus=3, allow_small_modulus=True)
        assert hash(spec) == hash(group_spec("sp", 2, modulus=3,
                                             allow_small_modulus=True))
        for d in (cap(), cup()):
            assert functor_matrix(d, spec) == functor_matrix_layered(d, spec)

    @pytest.mark.parametrize("spec", [group_spec("o", m) for m in range(1, 7)]
                             + [group_spec("sp", m) for m in (2, 4, 6, 8)]
                             + [group_spec("sp", 4, modulus=7)],
                             ids=lambda s: s.label())
    def test_built_forms_satisfy_the_generator_relations(self, spec):
        checks = verify_pau(spec)
        assert checks and all(c.passed for c in checks)

    def test_large_orthogonal_rank_needs_no_dense_form(self):
        assert hom_rank(1, 1, group_spec("o", 3000)) == 1

    def test_small_modulus_guard(self):
        with pytest.raises(FunctorError):
            group_spec("o", 3, modulus=3)
        spec = group_spec("o", 3, modulus=3, allow_small_modulus=True)
        assert spec.ring.p == 3
        # at or above m + 2 no override is needed
        assert group_spec("o", 3, modulus=5).ring.p == 5


class TestExactMatrix:
    def test_immutability(self):
        mat = ExactMatrix.identity(2, QQ)
        with pytest.raises(AttributeError):
            mat.rows = 5
        with pytest.raises(TypeError):
            hash(mat)

    def test_constructors_and_queries(self):
        z = ExactMatrix.zero(2, 3, QQ)
        assert z.is_zero() and z.nnz() == 0
        ident = ExactMatrix.identity(3, QQ)
        assert ident.get(1, 1) == Fraction(1)
        assert ident.get(0, 2) == Fraction(0)
        built = ExactMatrix.from_rows(QQ, [[1, 2], [3, 4]])
        assert built.get(1, 0) == Fraction(3)
        assert built.nnz() == 4

    def test_zero_entries_are_dropped(self):
        mat = ExactMatrix(2, 2, QQ, {(0, 0): Fraction(0), (0, 1): Fraction(5)})
        assert mat.nnz() == 1

    def test_entry_bounds_checked(self):
        with pytest.raises(FunctorError):
            ExactMatrix(2, 2, QQ, {(2, 0): Fraction(1)})
        with pytest.raises(FunctorError):
            ExactMatrix.from_rows(QQ, [[1, 2], [3]])

    @pytest.mark.parametrize("index", [(2, 0), (0, 3), (-1, 0), (0, -1)])
    def test_out_of_range_entries_rejected(self, index):
        with pytest.raises(FunctorError):
            ExactMatrix(2, 3, QQ, {index: Fraction(1)})

    @pytest.mark.parametrize("index", [(2.9, 0), (0, 1.0), (True, 0),
                                       (0, False), ("1", 0), (None, 0)])
    def test_non_int_entry_indices_rejected(self, index):
        with pytest.raises(FunctorError):
            ExactMatrix(3, 3, QQ, {index: 1})

    @pytest.mark.parametrize("ring,value", [
        (QQ, 0.5), (QQ, "1"), (QQ, True), (QQ, None), (QQ, Poly.const(1)),
        (PrimeField(5), Fraction(1, 2)), (PrimeField(5), 2.0),
        (PrimeField(5), False)])
    def test_entry_values_must_belong_to_the_ring(self, ring, value):
        with pytest.raises(FunctorError, match="coefficient"):
            ExactMatrix(1, 1, ring, {(0, 0): value})
        with pytest.raises(FunctorError, match="coefficient"):
            ExactMatrix.from_rows(ring, [[1, value]])

    def test_entry_values_are_coerced_into_the_ring(self):
        gf5 = PrimeField(5)
        seven = ExactMatrix(1, 2, gf5, {(0, 0): 7, (0, 1): -5})
        assert seven.entries == {(0, 0): 2}
        assert seven == ExactMatrix(1, 2, gf5, {(0, 0): 2})
        half = ExactMatrix.from_rows(QQ, [[Fraction(4, 2), Fraction(1, 2)]])
        assert half.entries == {(0, 0): 2, (0, 1): Fraction(1, 2)}
        assert type(half.get(0, 0)) is int

    @pytest.mark.parametrize("rows,cols", [(-1, 2), (2, -3), (True, 2),
                                           (2, 0.25), (2.0, 2), ("2", 2)])
    def test_invalid_dimensions_rejected(self, rows, cols):
        with pytest.raises(FunctorError):
            ExactMatrix(rows, cols, QQ, {})

    def test_arithmetic(self):
        a = ExactMatrix.from_rows(QQ, [[1, 2], [3, 4]])
        b = ExactMatrix.from_rows(QQ, [[0, 1], [1, 0]])
        assert a.add(b) == ExactMatrix.from_rows(QQ, [[1, 3], [4, 4]])
        assert a.scale(Fraction(2)) == ExactMatrix.from_rows(QQ, [[2, 4], [6, 8]])
        assert a.mul(b) == ExactMatrix.from_rows(QQ, [[2, 1], [4, 3]])
        assert a.transpose() == ExactMatrix.from_rows(QQ, [[1, 3], [2, 4]])
        assert a.trace() == Fraction(5)

    def test_kronecker_layout(self):
        # left factor owns the most significant digit of the row index
        a = ExactMatrix.from_rows(QQ, [[0, 1], [0, 0]])
        b = ExactMatrix.identity(3, QQ)
        t = a.tensor(b)
        assert t.rows == t.cols == 6
        for i in range(3):
            assert t.get(i, 3 + i) == Fraction(1)
        assert t.nnz() == 3

    def test_shape_and_ring_mismatches(self):
        a = ExactMatrix.identity(2, QQ)
        b = ExactMatrix.identity(3, QQ)
        c = ExactMatrix.identity(2, PrimeField(5))
        with pytest.raises(FunctorError):
            a.add(b)
        with pytest.raises(FunctorError):
            a.mul(ExactMatrix.zero(3, 2, QQ))
        with pytest.raises(FunctorError):
            a.mul(c)
        with pytest.raises(FunctorError):
            ExactMatrix.zero(2, 3, QQ).trace()
        assert (a == c) is False

    def test_json_form(self):
        a = ExactMatrix.from_rows(QQ, [[Fraction(1, 2), 0], [0, -3]])
        assert matrix_to_json(a) == {"rows": 2, "cols": 2, "ring": "Rationals",
                                     "entries": [[0, 0, "1/2"], [1, 1, "-3"]]}


class TestGenerators:
    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: s.label())
    def test_shapes(self, spec):
        gens = generator_matrices(spec)
        m = spec.m
        assert (gens["I"].rows, gens["I"].cols) == (m, m)
        assert (gens["X"].rows, gens["X"].cols) == (m * m, m * m)
        assert (gens["A"].rows, gens["A"].cols) == (1, m * m)
        assert (gens["U"].rows, gens["U"].cols) == (m * m, 1)

    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: s.label())
    def test_crossing_is_signed_swap(self, spec):
        m, ring = spec.m, spec.ring
        x = generator_matrices(spec)["X"]
        sign = ring.from_int(spec.eps)
        for a in range(m):
            for b in range(m):
                assert x.get(b * m + a, a * m + b) == sign
        assert x.nnz() == m * m

    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: s.label())
    def test_relation_suite(self, spec):
        checks = verify_pau(spec)
        bad = [c.case for c in checks if not c.passed]
        assert not bad, bad

    def test_relation_suite_mod_p(self):
        checks = verify_pau(group_spec("sp", 2, modulus=5))
        assert all(c.passed for c in checks)

    @pytest.mark.parametrize("spec", [group_spec("o", 3), group_spec("sp", 2),
                                      group_spec("sp", 2, modulus=5)],
                             ids=lambda s: s.label())
    def test_one_layer_word_matches_tensor_assembly(self, spec):
        # the index action of I^a (x) g (x) I^b against the Kronecker product
        gens = generator_matrices(spec)
        for gen in ("X", "A", "U"):
            for a in range(3):
                for b in range(3 - a):
                    left = ExactMatrix.identity(spec.m ** a, spec.ring)
                    right = ExactMatrix.identity(spec.m ** b, spec.ring)
                    expected = left.tensor(gens[gen]).tensor(right)
                    d = layer_diagram(Layer(a, gen, b))
                    assert functor_matrix_layered(d, spec) == expected, (a, gen, b)


class TestFunctorMatrix:
    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: s.label())
    def test_identity_goes_to_identity(self, spec):
        mat = functor_matrix(identity(2), spec)
        assert mat == ExactMatrix.identity(spec.m ** 2, spec.ring)

    @pytest.mark.parametrize("spec", [group_spec("o", 2), group_spec("sp", 2)],
                             ids=lambda s: s.label())
    def test_functoriality_on_diagrams(self, spec):
        ring = spec.ring
        for d1 in enumerate_diagrams(2, 2):
            for d2 in enumerate_diagrams(2, 2):
                loops, res = compose(d1, d2)
                left = functor_matrix(d1, spec).mul(functor_matrix(d2, spec))
                weight = ring.power(spec.delta_value(), loops)
                assert left == functor_matrix(res, spec).scale(weight)

    @pytest.mark.parametrize("spec", [group_spec("o", 2), group_spec("sp", 2)],
                             ids=lambda s: s.label())
    def test_tensor_compatibility(self, spec):
        for d1 in enumerate_diagrams(1, 1):
            for d2 in enumerate_diagrams(2, 0):
                big = functor_matrix(tensor(d1, d2), spec)
                assert big == functor_matrix(d1, spec).tensor(functor_matrix(d2, spec))

    @pytest.mark.parametrize("spec", DESK_SPECS + [
        group_spec("sp", 2, modulus=5), group_spec("o", 3, modulus=7)],
        ids=lambda s: s.label())
    def test_layered_agrees_with_direct(self, spec):
        for k, l in ((2, 2), (3, 1), (0, 2), (3, 3), (4, 2)):
            for d in enumerate_diagrams(k, l):
                assert functor_matrix_layered(d, spec) == functor_matrix(d, spec)

    @pytest.mark.parametrize("spec", [group_spec("o", 1), group_spec("sp", 4),
                                      group_spec("o", 3, modulus=7)],
                             ids=lambda s: s.label())
    def test_layered_agrees_with_direct_up_to_six_points(self, spec):
        # groups outside the verify suite's, every (k, l) with k + l <= 6
        for k in range(7):
            for l in range(7 - k):
                for d in enumerate_diagrams(k, l):
                    assert functor_matrix_layered(d, spec) == functor_matrix(d, spec)

    @pytest.mark.parametrize("spec", [group_spec("sp", 2), group_spec("o", 1)],
                             ids=lambda s: s.label())
    def test_layered_on_a_cancelling_morphism(self, spec):
        # a kernel vector: its terms' matrices cancel to zero cell by cell
        x = kernel_basis(2, 2, spec)[0]
        assert len(x.terms) > 1
        assert functor_matrix_layered(x, spec).nnz() == 0
        assert functor_matrix(x, spec).nnz() == 0

    def test_morphism_linearity(self):
        spec = group_spec("sp", 2)
        x = make_morphism(
            2, 2,
            {e_i(2, 1): Fraction(3), s_i(2, 1): Fraction(-1)},
            ring=QQ, delta=Fraction(-2),
        )
        expected = functor_matrix(e_i(2, 1), spec).scale(Fraction(3)).add(
            functor_matrix(s_i(2, 1), spec).scale(Fraction(-1)))
        assert functor_matrix(x, spec) == expected
        assert functor_matrix_layered(x, spec) == expected

    def test_symbolic_morphism_specializes(self):
        spec = group_spec("o", 2)
        # delta acts as the loop value eps * m = 2
        x = make_morphism(1, 1, {identity(1): Poly.variable()})
        assert functor_matrix(x, spec) == ExactMatrix.identity(2, QQ).scale(Fraction(2))

    def test_delta_mismatch_rejected(self):
        spec = group_spec("o", 2)
        x = identity_morphism(1, ring=QQ, delta=Fraction(7))
        with pytest.raises(FunctorError):
            functor_matrix(x, spec)

    def test_ring_mismatch_rejected(self):
        spec = group_spec("o", 2)
        gf5 = PrimeField(5)
        x = identity_morphism(1, ring=gf5, delta=gf5.from_int(2))
        with pytest.raises(FunctorError):
            functor_matrix(x, spec)
        with pytest.raises(FunctorError):
            functor_matrix("not a diagram", spec)

    def test_rational_morphism_is_reduced_into_the_prime_field(self):
        spec = group_spec("sp", 2, modulus=5)
        assert functor_matrix(phi(1), spec) == functor_matrix(
            reduce_mod_p(phi(1), 5), spec)
        # a morphism whose matrix is not zero: 3 e - s at delta = -2, and
        # the symbolic e_1 specialized at -2 on the way
        x = make_morphism(2, 2, {e_i(2, 1): 3, s_i(2, 1): -1},
                          ring=QQ, delta=Fraction(-2))
        expected = functor_matrix(reduce_mod_p(x, 5), spec)
        assert not expected.is_zero()
        assert functor_matrix(x, spec) == expected
        assert functor_matrix_layered(x, spec) == expected
        assert functor_matrix(from_diagram(e_i(2, 1)), spec) == \
            functor_matrix(e_i(2, 1), spec)

    def test_other_prime_field_is_refused(self):
        # -E_2 over F_7 has coefficients 6; read mod 5 they would be 1
        f7 = reduce_mod_p(lin_scale(-1, e_p_formula(3, 2)), 7)
        spec = group_spec("o", 3, modulus=5)
        with pytest.raises(FunctorError, match=r"morphism ring PrimeField\(7\) "
                                               r"does not match group field "
                                               r"PrimeField\(5\)"):
            functor_matrix(f7, spec)
        with pytest.raises(FunctorError, match="does not match"):
            ideal_span_dimension(4, f7, spec)

    def test_non_integral_morphism_is_not_reduced(self):
        x = make_morphism(1, 1, {identity(1): Fraction(1, 2)}, ring=QQ,
                          delta=Fraction(-2))
        with pytest.raises(MorphismError, match="non-integral"):
            functor_matrix(x, group_spec("sp", 2, modulus=5))

    @pytest.mark.parametrize("spec", [group_spec("o", 2), group_spec("sp", 2)],
                             ids=lambda s: s.label())
    def test_raise_lower_compatibility(self, spec):
        m, ring = spec.m, spec.ring
        gens = generator_matrices(spec)
        for d in enumerate_diagrams(2, 2):
            mat = functor_matrix(d, spec)
            raised = functor_matrix(raise_diagram(d), spec)
            ident_km1 = ExactMatrix.identity(m ** 1, ring)
            assert raised == mat.tensor(gens["I"]).mul(ident_km1.tensor(gens["U"]))
            lowered = functor_matrix(lower_diagram(d), spec)
            ident_lm1 = ExactMatrix.identity(m ** 1, ring)
            assert lowered == ident_lm1.tensor(gens["A"]).mul(mat.tensor(gens["I"]))

    @pytest.mark.parametrize("spec", DESK_SPECS, ids=lambda s: s.label())
    def test_trace_matches_closure(self, spec):
        for r in (1, 2):
            for d in enumerate_diagrams(r, r):
                assert trace_check(d, spec)


class TestResourceGuard:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("BRAUER_MAX_CELLS", "10")
        assert max_cells() == 10
        with pytest.raises(FunctorError):
            guard_cells([11], "11 cells", FunctorError)
        guard_cells([10], "10 cells", FunctorError)
        with pytest.raises(FunctorError):
            functor_matrix(identity(2), group_spec("o", 5))

    def test_product_stops_at_the_limit(self):
        # an endless product of 2s is refused at its first partial product
        # past the limit
        with pytest.raises(FunctorError, match=r"^2\^oo cells, above the "
                                               r"limit \d+; raise BRAUER"):
            guard_cells(itertools.repeat(2), "2^oo cells", FunctorError)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("BRAUER_MAX_CELLS", "not a number")
        with pytest.raises(FunctorError, match="must be an integer"):
            guard_cells([1], "1 cell", FunctorError)
        for raw in ("-3", "1_000", " 10", "\u0663"):
            monkeypatch.setenv("BRAUER_MAX_CELLS", raw)
            with pytest.raises(FunctorError, match="must be an integer in "
                                                   "ASCII decimal digits"):
                guard_cells([1], "1 cell", FunctorError)
        monkeypatch.setenv("BRAUER_MAX_CELLS", "0")
        with pytest.raises(FunctorError, match="must be positive"):
            guard_cells([1], "1 cell", FunctorError)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(enumerate_diagrams(1, 3)),
    st.sampled_from(enumerate_diagrams(3, 1)),
)
def test_hypothesis_functoriality(d1, d2):
    spec = group_spec("sp", 2)
    loops, res = compose(d1, d2)
    left = functor_matrix(d1, spec).mul(functor_matrix(d2, spec))
    weight = spec.ring.power(spec.delta_value(), loops)
    assert left == functor_matrix(res, spec).scale(weight)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(enumerate_diagrams(1, 1)),
    st.sampled_from(enumerate_diagrams(1, 1)),
)
def test_hypothesis_tensor_of_matrices(d1, d2):
    spec = group_spec("o", 3)
    assert functor_matrix(tensor(d1, d2), spec) == \
        functor_matrix(d1, spec).tensor(functor_matrix(d2, spec))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hypothesis_trusted_results_match_public_constructor(data):
    # Small entries over QQ and F_5 make sums cancel often; each result of
    # the trusted constructor must equal its dense reference built through
    # the public one and hold no zero entry.
    ring = data.draw(st.sampled_from([QQ, PrimeField(5)]))
    small = st.integers(-2, 2).map(ring.from_int)
    zero = ring.zero()

    def dense(rows, cols):
        return [[data.draw(small) for _ in range(cols)] for _ in range(rows)]

    r, s, c = (data.draw(st.integers(1, 3)) for _ in range(3))
    a, a2, b = dense(r, s), dense(r, s), dense(s, c)
    ma, ma2, mb = (ExactMatrix.from_rows(ring, x) for x in (a, a2, b))
    product = [[zero] * c for _ in range(r)]
    for i in range(r):
        for k in range(c):
            for j in range(s):
                product[i][k] = ring.add(product[i][k], ring.mul(a[i][j], b[j][k]))
    kron = [[ring.mul(a[i1][j1], b[i2][j2]) for j1 in range(s) for j2 in range(c)]
            for i1 in range(r) for i2 in range(s)]
    total = [[ring.add(a[i][j], a2[i][j]) for j in range(s)] for i in range(r)]
    cancelled = [[zero] * s for _ in range(r)]
    minus_a = ma.scale(ring.from_int(-1))
    for result, reference in ((ma.mul(mb), product), (ma.tensor(mb), kron),
                              (ma.add(ma2), total), (ma.add(minus_a), cancelled)):
        assert result == ExactMatrix.from_rows(ring, reference)
        assert all(result.entries.values())

    delta = data.draw(small)
    diagrams = enumerate_diagrams(2, 2)
    x, y = (make_morphism(2, 2, {d: data.draw(small) for d in diagrams},
                          ring=ring, delta=delta) for _ in range(2))
    terms = {}
    for d1, c1 in x.terms.items():
        for d2, c2 in y.terms.items():
            loops, d = compose(d1, d2)
            term = ring.mul(ring.mul(c1, c2), ring.power(delta, loops))
            terms[d] = ring.add(terms.get(d, zero), term)
    result = lin_compose(x, y)
    assert result == make_morphism(2, 2, terms, ring=ring, delta=delta)
    assert all(result.terms.values())
