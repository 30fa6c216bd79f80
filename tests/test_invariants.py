"""Oracle tests for ranks, kernels, commutants, and ideal spans of the
tensor-representation functor at desk scale."""

from fractions import Fraction
from math import factorial

import pytest

from brauer import (
    ExactMatrix,
    FunctorError,
    reduce_mod_p,
    commutant_dimension,
    e_p_formula,
    e_p_rotation,
    enumerate_diagrams,
    functor_matrix,
    group_spec,
    hom_rank,
    ideal_span_dimension,
    kernel_basis,
    kernel_dimension,
    lie_generators,
    phi,
    sigma,
    tensor_ideal_span_dimension,
)
from brauer.diagram import compose, diagram_count, e_i, guard_cells, identity
from brauer.functor import GroupSpec, _morphism_to_spec_field
from brauer.invariants import (_algebra_generators, _commutant_group,
                               _reflection, _vectorized_rows, _word_classes,
                               derived_action)
from brauer.linalg import EliminationBasis
from brauer.linear import (from_diagram, lin_compose, lin_tensor,
                           make_morphism, morphism_to_json)
from brauer.rings import QQ, PrimeField

O2 = group_spec("o", 2)
O3 = group_spec("o", 3)
O4 = group_spec("o", 4)
SP2 = group_spec("sp", 2)
SP4 = group_spec("sp", 4)
SP2_F5 = group_spec("sp", 2, modulus=5)
O2_F5 = group_spec("o", 2, modulus=5)
O3_F7 = group_spec("o", 3, modulus=7)
O1 = group_spec("o", 1)
# delta = eps * m is 0 in these fields, so a generator word that closed a
# loop would multiply by 0: the closure must still find the whole ideal
# (1, 10, 91 for Phi_1 at r = 2, 3, 4; 5, 70 and 14 for E_p)
SP2_F2 = group_spec("sp", 2, modulus=2, allow_small_modulus=True)
O2_F2 = group_spec("o", 2, modulus=2, allow_small_modulus=True)
O3_F3 = group_spec("o", 3, modulus=3, allow_small_modulus=True)


# Oracle: the direct double-loop spans, kept only to cross-check the
# generator-closure engine at small degree.  Every composite B o x o B
# (every c o (I_a (x) Sigma (x) I_b) o d for slices) goes into elimination.

def _oracle_witnesses(basis, diagrams, k, l, ring, delta):
    rows = basis.reduced_rows()
    return [make_morphism(k, l, {diagrams[i]: c for i, c in rows[p].items()},
                          ring=ring, delta=delta)
            for p in sorted(rows)]


def _oracle_ideal_span(r, gen, spec):
    gen = _morphism_to_spec_field(gen, spec)
    ring, delta = spec.ring, spec.delta_value()
    padded = gen
    if gen.k < r:
        padded = lin_tensor(gen, from_diagram(identity(r - gen.k),
                                              ring=ring, delta=delta))
    diagrams = enumerate_diagrams(r, r)
    index = {d: i for i, d in enumerate(diagrams)}
    stage1 = EliminationBasis(ring)
    for d in diagrams:
        w = lin_compose(padded, from_diagram(d, ring=ring, delta=delta))
        stage1.add_row({index[t]: c for t, c in w.terms.items()})
    stage2 = EliminationBasis(ring)
    for w in _oracle_witnesses(stage1, diagrams, r, r, ring, delta):
        for d in diagrams:
            full = lin_compose(from_diagram(d, ring=ring, delta=delta), w)
            stage2.add_row({index[t]: c for t, c in full.terms.items()})
    return stage2.rank


def _oracle_tensor_span(k, l, spec):
    if (k + l) % 2:
        return 0
    ring, delta = spec.ring, spec.delta_value()
    base = spec.m + 1
    gen = sigma(spec.eps, base, ring=ring, delta=delta)
    targets = enumerate_diagrams(k, l)
    target_index = {d: i for i, d in enumerate(targets)}
    total = EliminationBasis(ring)
    for s in range(base, k + l + min(k, l) + 1):
        if (s - k) % 2:
            continue
        lower = enumerate_diagrams(k, s)
        lower_index = {d: i for i, d in enumerate(lower)}
        stage1 = EliminationBasis(ring)
        for a in range(0, s - base + 1):
            b = s - base - a
            mid = gen
            if a:
                mid = lin_tensor(from_diagram(identity(a), ring=ring,
                                              delta=delta), mid)
            if b:
                mid = lin_tensor(mid, from_diagram(identity(b), ring=ring,
                                                   delta=delta))
            for d in lower:
                w = lin_compose(mid, from_diagram(d, ring=ring, delta=delta))
                stage1.add_row({lower_index[t]: c for t, c in w.terms.items()})
        witnesses = _oracle_witnesses(stage1, lower, k, s, ring, delta)
        for c in enumerate_diagrams(s, l):
            top = from_diagram(c, ring=ring, delta=delta)
            for w in witnesses:
                full = lin_compose(top, w)
                total.add_row({target_index[t]: v for t, v in full.terms.items()})
    return total.rank


# Oracle: the transposed-nullspace kernel basis, kept only to cross-check the
# tagged elimination.  One row per matrix cell over the diagram columns; the
# reduced-echelon nullspace gives one vector per dependent diagram.

def _oracle_kernel_basis(k, l, spec):
    diagrams = enumerate_diagrams(k, l)
    by_cell = {}
    for idx, d in enumerate(diagrams):
        for cell, v in functor_matrix(d, spec).entries.items():
            by_cell.setdefault(cell, {})[idx] = v
    basis = EliminationBasis(spec.ring)
    for cell in sorted(by_cell):
        basis.add_row(by_cell[cell])
    return [make_morphism(k, l, {diagrams[i]: c for i, c in vec.items()},
                          ring=spec.ring, delta=spec.delta_value())
            for vec in basis.nullspace(range(len(diagrams)))]


# Oracle: the full-width vectorized rows, kept only to cross-check the rows
# built on one column per class of proportional columns.  Each diagram's
# m^l x m^k matrix is flattened row-major over all m^(k+l) columns and the
# rows, tagged in reverse diagram order, go through one elimination: its
# rank and its tag-led rows give hom_rank, kernel_dimension and
# kernel_basis.

def _oracle_vectorized_rows(k, l, spec):
    diagrams = enumerate_diagrams(k, l)
    rows = [dict(functor_matrix(d, spec).entries) for d in diagrams]
    return diagrams, rows


def _oracle_rank_and_kernel(k, l, spec):
    diagrams, rows = _oracle_vectorized_rows(k, l, spec)
    n = len(diagrams)
    top = spec.m ** (k + l) + n - 1
    basis = EliminationBasis(spec.ring)
    for idx, row in enumerate(rows):
        row[top - idx] = 1
        basis.add_row(row)
    ring = spec.ring
    kernel = []
    for lead in sorted((c for c in basis.pivots if c > top - n), reverse=True):
        vec = basis.pivots[lead]
        # F_p pivot rows are stored monic; over QQ they are primitive.
        assert vec[lead] == 1 or not isinstance(ring, PrimeField)
        kernel.append(make_morphism(k, l, {diagrams[top - c]: v
                                           for c, v in vec.items()},
                                    ring=ring, delta=spec.delta_value()))
    return n - len(kernel), kernel


def _oracle_class_columns(k, l, spec):
    """The full-width column of each class of proportional columns that a
    short row column stands for, and the short column expected there: the
    smallest member's column of +-1 signs by diagram, in column order."""
    _, rows = _oracle_vectorized_rows(k, l, spec)
    one = spec.ring.one()
    by_cell = {}
    for idx, row in enumerate(rows):
        for cell, v in row.items():
            by_cell.setdefault(cell, []).append((idx, 1 if v == one else -1))
    seen = set()
    kept = []
    for cell in sorted(by_cell):
        col = tuple(by_cell[cell])
        if col not in seen:
            seen.add(col)
            seen.add(tuple((idx, -s) for idx, s in col))
            kept.append((cell, col))
    return rows, kept


def _invariant_grid():
    """O(1)-O(4), Sp(2), Sp(4), Sp(6) over QQ, F_7 and F_101, at every point
    count k + l <= 8."""
    groups = [("o", m) for m in range(1, 5)] + [("sp", m) for m in (2, 4, 6)]
    for family, m in groups:
        for modulus in (None, 7, 101):
            spec = group_spec(family, m, modulus=modulus,
                              allow_small_modulus=True)
            for n in range(9):
                yield spec, n


def _grid_id(value):
    return value.label() if hasattr(value, "label") else str(value)


# Oracle: dim End_G(V^(x)r) by Howe duality.  As an S_2r-module B(0, 2r) is
# the sum of S^(2mu) over the partitions mu of r, each once, and the
# invariants keep the f^lambda with lambda = 2mu, l(mu) <= m, for O(m), and
# lambda = (2mu)', mu_1 <= n, for Sp(2n).

def _partitions(r, largest):
    """Partitions of r with parts at most largest, as non-increasing
    tuples."""
    if r == 0:
        yield ()
        return
    for first in range(min(r, largest), 0, -1):
        for rest in _partitions(r - first, first):
            yield (first,) + rest


def _conjugate(shape):
    return tuple(sum(1 for row in shape if row > j)
                 for j in range(shape[0] if shape else 0))


def _hook_length_count(shape):
    """f^shape, the number of standard Young tableaux, by the hook length
    formula."""
    cols = _conjugate(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (cols[j] - i) - 1
    return factorial(sum(shape)) // hooks


def _howe_rank(spec, points):
    if points % 2:
        return 0
    total = 0
    for mu in _partitions(points // 2, points // 2):
        double = tuple(2 * part for part in mu)
        if spec.family == "orthogonal":
            if len(mu) <= spec.m:
                total += _hook_length_count(double)
        elif not mu or mu[0] <= spec.m // 2:
            total += _hook_length_count(_conjugate(double))
    return total


# Oracle: the full-unknown commutant, kept only to cross-check the
# weight-class solve.  One unknown per cell of the m^r x m^r matrix M and
# one commutator row per cell, on the spec's own form and reflection.

def _commuting_rows(rho, n):
    """Linear conditions on an n x n unknown M for rho M - M rho = 0,
    unknowns indexed row-major."""
    ring = rho.ring
    by_row = {}
    by_col = {}
    for key, v in rho.entries.items():
        a, c = divmod(key, n)
        by_row.setdefault(a, []).append((c, v))
        by_col.setdefault(c, []).append((a, v))
    for a in range(n):
        for b in range(n):
            row = {}
            for c, v in by_row.get(a, ()):
                key = c * n + b
                row[key] = ring.add(row.get(key, ring.zero()), v)
            for c, v in by_col.get(b, ()):
                key = a * n + c
                row[key] = ring.add(row.get(key, ring.zero()), ring.neg(v))
            if row:
                yield row


def _oracle_commutant_dimension(r, spec):
    """Dimension of the algebra of matrices on the r-fold tensor power
    commuting with the group action (infinitesimal action plus, for the
    orthogonal family, the reflection)."""
    n = spec.m ** r
    guard_cells([n, n], "the oracle needs (m^r)^2 unknowns", FunctorError)
    basis = EliminationBasis(spec.ring)
    for gen in lie_generators(spec):
        for row in _commuting_rows(derived_action(gen, r), n):
            basis.add_row(row)
    refl = _reflection(spec)
    if refl is not None:
        power = ExactMatrix.identity(1, spec.ring)
        for _ in range(r):
            power = power.tensor(refl)
        for row in _commuting_rows(power, n):
            basis.add_row(row)
    return n * n - basis.rank


def _commutant_grid():
    """O(1)-O(5), Sp(2), Sp(4), Sp(6) over QQ, a prime p >= m + 2, F_2 and
    F_3, at every r <= 3 with at most 1296 oracle unknowns."""
    groups = [("o", m) for m in range(1, 6)] + [("sp", m) for m in (2, 4, 6)]
    for family, m in groups:
        for modulus in (None, 7 if m <= 5 else 11, 2, 3):
            spec = group_spec(family, m, modulus=modulus,
                              allow_small_modulus=True)
            for r in (1, 2, 3):
                if m ** (2 * r) <= 1296:
                    yield spec, r


def gram_matrix(spec):
    return ExactMatrix(spec.m, spec.m, spec.ring,
                       {(i, j): s for i, (j, s) in enumerate(spec.form)})


class TestRanks:
    @pytest.mark.parametrize("r,expected", [(1, 1), (2, 2), (3, 5), (4, 14)])
    def test_small_symplectic_ranks_are_catalan(self, r, expected):
        assert hom_rank(r, r, SP2) == expected

    @pytest.mark.parametrize("r,expected", [(1, 1), (2, 3), (3, 14)])
    def test_rank_four_symplectic_ranks(self, r, expected):
        # below the kernel threshold the map is injective: (2r-1)!! at r <= 2
        assert hom_rank(r, r, SP4) == expected

    @pytest.mark.parametrize("r,expected", [(1, 1), (2, 3), (3, 10)])
    def test_plane_orthogonal_ranks(self, r, expected):
        assert hom_rank(r, r, O2) == expected

    @pytest.mark.parametrize("r,expected", [(2, 3), (3, 15)])
    def test_space_orthogonal_ranks(self, r, expected):
        assert hom_rank(r, r, O3) == expected

    def test_rank_respects_rectangular_consistency(self):
        count = len(enumerate_diagrams(3, 1))
        assert kernel_dimension(3, 1, SP2) == count - hom_rank(3, 1, SP2)


class TestKernels:
    @pytest.mark.parametrize("r,expected", [(2, 1), (3, 10), (4, 91)])
    def test_small_symplectic_kernels(self, r, expected):
        assert kernel_dimension(r, r, SP2) == expected

    def test_rank_four_symplectic_first_kernel(self, r=3):
        assert kernel_dimension(r, r, SP4) == 1

    @pytest.mark.parametrize("r,expected", [(2, 0), (3, 5), (4, 70)])
    def test_plane_orthogonal_kernels(self, r, expected):
        assert kernel_dimension(r, r, O2) == expected

    @pytest.mark.parametrize("r,expected", [(3, 0), (4, 14)])
    def test_space_orthogonal_kernels(self, r, expected):
        assert kernel_dimension(r, r, O3) == expected

    def test_first_symplectic_kernel_is_the_quasi_idempotent(self):
        basis = kernel_basis(2, 2, SP2)
        assert len(basis) == 1
        expected = phi(1)
        assert basis[0].terms == expected.terms
        assert functor_matrix(basis[0], SP2).is_zero()

    @pytest.mark.parametrize("spec,k,l", [
        (O1, 3, 3), (O2, 3, 3), (O3, 4, 4), (O3_F7, 4, 4), (SP2, 3, 3),
        (SP2_F5, 3, 3), (SP4, 3, 3), (SP2, 2, 4), (O2, 1, 5), (SP2_F5, 1, 5),
    ], ids=lambda v: v.label() if hasattr(v, "label") else str(v))
    def test_tagged_kernel_matches_transposed_oracle(self, spec, k, l):
        got = [morphism_to_json(x) for x in kernel_basis(k, l, spec)]
        want = [morphism_to_json(x) for x in _oracle_kernel_basis(k, l, spec)]
        assert got == want
        assert len(got) == kernel_dimension(k, l, spec)

    @pytest.mark.parametrize("call", [
        lambda: hom_rank(-1, 3, SP2),
        lambda: hom_rank(3, -1, SP2),
        lambda: hom_rank(True, 1, SP2),
        lambda: kernel_dimension(-2, 2, SP2),
        lambda: kernel_basis(-2, 2, SP2),
        lambda: kernel_basis(2.0, 2, SP2),
        lambda: tensor_ideal_span_dimension(-2, 2, SP2),
        lambda: tensor_ideal_span_dimension(-1, 1, SP2),
        lambda: tensor_ideal_span_dimension(2, -4, SP2),
    ])
    def test_invalid_valencies_rejected(self, call):
        with pytest.raises(FunctorError):
            call()

    def test_kernel_basis_elements_die(self):
        for b in kernel_basis(3, 3, SP2):
            assert functor_matrix(b, SP2).is_zero()
        assert kernel_basis(2, 2, O2) == []


class TestLieAlgebra:
    @pytest.mark.parametrize("spec,dim", [(O2, 1), (O3, 3), (SP2, 3), (SP4, 10)],
                             ids=lambda v: v.label() if hasattr(v, "label") else v)
    def test_dimensions(self, spec, dim):
        assert len(lie_generators(spec)) == dim

    @pytest.mark.parametrize("spec", [O2, O3, SP2, SP4], ids=lambda s: s.label())
    def test_generators_preserve_form(self, spec):
        g = gram_matrix(spec)
        for x in lie_generators(spec):
            assert x.transpose().mul(g).add(g.mul(x)).is_zero()

    def test_derived_action_is_a_sum_of_slots(self):
        (x,) = lie_generators(O2)
        ident = ExactMatrix.identity(2, O2.ring)
        assert derived_action(x, 2) == x.tensor(ident).add(ident.tensor(x))

    def test_reflection_only_for_orthogonal(self):
        assert _reflection(SP2) is None
        r = _reflection(O3)
        assert r.mul(r) == ExactMatrix.identity(3, O3.ring)


class TestEquivariance:
    @pytest.mark.parametrize("spec", [O2, SP2], ids=lambda s: s.label())
    @pytest.mark.parametrize("k,l", [(2, 2), (3, 1)])
    def test_images_intertwine_infinitesimally(self, spec, k, l):
        gens = lie_generators(spec)
        for d in enumerate_diagrams(k, l):
            mat = functor_matrix(d, spec)
            for x in gens:
                left = mat.mul(derived_action(x, k))
                right = derived_action(x, l).mul(mat)
                assert left == right

    @pytest.mark.parametrize("k,l", [(2, 2), (3, 1)])
    def test_images_intertwine_reflection(self, k, l):
        spec = O3
        r = _reflection(spec)
        rk = ExactMatrix.identity(1, spec.ring)
        for _ in range(k):
            rk = rk.tensor(r)
        rl = ExactMatrix.identity(1, spec.ring)
        for _ in range(l):
            rl = rl.tensor(r)
        for d in enumerate_diagrams(k, l):
            mat = functor_matrix(d, spec)
            assert mat.mul(rk) == rl.mul(mat)


class TestCommutant:
    @pytest.mark.parametrize("spec", [O2, O3, SP2, SP4], ids=lambda s: s.label())
    def test_degree_one_commutant_is_scalars(self, spec):
        assert commutant_dimension(1, spec) == 1

    def test_degree_two_commutants(self):
        assert commutant_dimension(2, SP2) == 2
        assert commutant_dimension(2, O2) == 3

    @pytest.mark.parametrize(
        "r,spec",
        [(r, s) for r in (1, 2, 3) for s in (O2, O3, SP2)]
        + [(3, SP4), (3, O4), (4, O2)],
        ids=lambda v: v.label() if hasattr(v, "label") else None)
    def test_image_fills_commutant(self, spec, r):
        assert hom_rank(r, r, spec) == commutant_dimension(r, spec)

    @pytest.mark.parametrize("spec,r", list(_commutant_grid()),
                             ids=lambda v: v.label() if hasattr(v, "label") else None)
    def test_matches_full_unknown_oracle(self, spec, r):
        assert commutant_dimension(r, spec) == _oracle_commutant_dimension(r, spec)

    @pytest.mark.parametrize("r", [True, "2", -1, 2.5, None])
    def test_invalid_degree_rejected(self, r):
        with pytest.raises(FunctorError):
            commutant_dimension(r, O2)

    @pytest.mark.parametrize("spec", [group_spec("o", m) for m in range(1, 6)]
                             + [O3_F7, group_spec("o", 4, modulus=3,
                                                  allow_small_modulus=True)],
                             ids=lambda s: s.label())
    def test_split_form_and_reflection(self, spec):
        group = _commutant_group(spec)
        refl = _reflection(group)
        form = gram_matrix(group)
        assert refl.transpose().mul(form).mul(refl) == form
        assert refl.mul(refl) == ExactMatrix.identity(spec.m, spec.ring)
        assert refl != ExactMatrix.identity(spec.m, spec.ring)
        assert all(sum(divmod(key, spec.m)) == spec.m - 1
                   for key in form.entries)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_reflection_is_the_hand_built_one(self, m):
        # identity form: negate e_0; split form: negate the middle vector
        # for odd m, swap the two middle vectors for even m
        spec = group_spec("o", m)
        one, minus = Fraction(1), Fraction(-1)
        assert _reflection(spec).entries == {
            i * (m + 1): minus if i == 0 else one for i in range(m)}
        h = m // 2
        if m % 2:
            want = {i * (m + 1): minus if i == h else one for i in range(m)}
        else:
            want = {i * (m + 1): one for i in range(m) if i not in (h - 1, h)}
            want[(h - 1) * m + h] = want[h * m + h - 1] = one
        assert _reflection(_commutant_group(spec)).entries == want

    @pytest.mark.parametrize("form", [((1, -1), (0, -1)),
                                      ((3, 1), (2, -1), (1, -1), (0, 1)),
                                      ((0, -1), (2, 1), (1, 1))],
                             ids=["neg-swap", "mixed", "neg-fixed"])
    def test_reflection_of_any_orthogonal_form(self, form):
        spec = GroupSpec("orthogonal", len(form), QQ, form)
        refl, g = _reflection(spec), gram_matrix(spec)
        assert refl.transpose().mul(g).mul(refl) == g
        assert refl.mul(refl) == ExactMatrix.identity(spec.m, QQ)
        assert refl != ExactMatrix.identity(spec.m, QQ)

    def test_characteristic_two_keeps_the_identity_form(self):
        spec = group_spec("o", 2, modulus=2, allow_small_modulus=True)
        assert _commutant_group(spec) == spec
        assert commutant_dimension(2, spec) == 4

    @pytest.mark.parametrize("r,spec,kept", [(3, O3, 141), (2, group_spec("sp", 6), 90),
                                             (3, SP4, 400), (3, O4, 400),
                                             (3, group_spec("o", 3, modulus=5), 141)],
                             ids=lambda v: v.label() if hasattr(v, "label") else None)
    def test_unknowns_restricted_to_weight_classes(self, r, spec, kept):
        group = _commutant_group(spec)
        classes = _word_classes(group, _reflection(group), r)
        assert sorted(w for c in classes for w in c) == list(range(spec.m ** r))
        assert sum(len(c) ** 2 for c in classes) == kept
        # The unknowns are numbered largest class first.
        sizes = [len(c) for c in classes]
        assert sizes == sorted(sizes, reverse=True)


def _loop_free_reach(generators, r):
    """The diagrams of B_r reached from the identity by left products with
    the generators that close no loop."""
    seen = {identity(r)}
    frontier = list(seen)
    while frontier:
        step = []
        for x in frontier:
            for g in generators:
                loops, y = compose(g, x)
                if not loops and y not in seen:
                    seen.add(y)
                    step.append(y)
        frontier = step
    return seen


class TestAlgebraGenerators:
    @pytest.mark.parametrize("r,count", [(0, 0), (1, 0), (2, 2), (3, 3),
                                         (4, 3)])
    def test_generator_count(self, r, count):
        assert len(_algebra_generators(r, SP2.ring, SP2.delta_value())) == count

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_loop_free_words_reach_every_diagram(self, r):
        gens = [next(iter(g.terms))
                for g in _algebra_generators(r, SP2.ring, SP2.delta_value())]
        assert len(_loop_free_reach(gens, r)) == diagram_count(r, r)

    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    def test_cycle_and_e1_are_both_needed(self, r):
        s1, cycle, e1 = [next(iter(g.terms)) for g in _algebra_generators(
            r, SP2.ring, SP2.delta_value())]
        total = diagram_count(r, r)
        assert len(_loop_free_reach([s1, e1], r)) < total
        assert len(_loop_free_reach([s1, cycle], r)) < total


class TestIdeals:
    @pytest.mark.parametrize("r,expected", [(2, 1), (3, 10), (4, 91)])
    def test_symplectic_kernel_is_principal(self, r, expected):
        assert ideal_span_dimension(r, phi(1), SP2) == expected
        assert ideal_span_dimension(r, phi(1), SP2) == kernel_dimension(r, r, SP2)

    def test_rank_four_symplectic_kernel_is_principal(self):
        assert ideal_span_dimension(3, phi(2), SP4) == 1

    @pytest.mark.parametrize("r,expected", [(3, 5), (4, 70)])
    def test_plane_orthogonal_kernel_is_principal(self, r, expected):
        gen = e_p_formula(2, 1)
        assert ideal_span_dimension(r, gen, O2) == expected

    def test_space_orthogonal_kernel_is_principal(self):
        assert ideal_span_dimension(4, e_p_formula(3, 2), O3) == 14

    def test_symplectic_kernel_at_degree_five(self):
        # 945 - C_5 = 903
        assert ideal_span_dimension(5, phi(1), SP2) == 903
        assert kernel_dimension(5, 5, SP2) == 903

    @pytest.mark.parametrize("spec,gen,widths", [
        (SP2, phi(1), (2, 3, 4)),
        (SP2_F5, reduce_mod_p(phi(1), 5), (2, 3, 4)),
        (SP4, phi(2), (3, 4)),
        (O2, e_p_formula(2, 1), (3, 4)),
        (O2_F5, reduce_mod_p(e_p_formula(2, 1), 5), (3, 4)),
        (O3, e_p_formula(3, 2), (4,)),
        (O3_F7, reduce_mod_p(e_p_formula(3, 2), 7), (4,)),
        (O3, sigma(1, 2), (2, 3, 4)),
        (O3, from_diagram(e_i(2, 1)), (2, 3, 4)),
        (SP2, from_diagram(identity(1)), (1, 2, 3)),
        (SP2_F2, reduce_mod_p(phi(1), 2), (2, 3, 4)),
        (O2_F2, reduce_mod_p(e_p_rotation(2, 1), 2), (3, 4)),
        (O3_F3, reduce_mod_p(e_p_rotation(3, 2), 3), (4,)),
    ], ids=["sp2-phi1", "sp2f5-phi1", "sp4-phi2", "o2-ep", "o2f5-ep", "o3-ep",
            "o3f7-ep", "o3-sigma2", "o3-e1", "sp2-id1", "sp2f2-phi1",
            "o2f2-ep", "o3f3-ep"])
    def test_closure_matches_double_loop(self, spec, gen, widths):
        for r in widths:
            assert ideal_span_dimension(r, gen, spec) == _oracle_ideal_span(
                r, gen, spec)

    @pytest.mark.parametrize("r", [True, False, "3", 2.5, -1, None])
    def test_invalid_degree_rejected(self, r):
        with pytest.raises(FunctorError, match="degree"):
            ideal_span_dimension(r, phi(1), SP2)

    def test_degree_budget_counts_square_of_diagrams(self, monkeypatch):
        # |B(4, 4)|^2 = 105^2
        monkeypatch.setenv("BRAUER_MAX_CELLS", "11025")
        assert ideal_span_dimension(4, phi(1), SP2) == 91
        monkeypatch.setenv("BRAUER_MAX_CELLS", "11024")
        with pytest.raises(FunctorError):
            ideal_span_dimension(4, phi(1), SP2)

    def test_zero_generator_spans_nothing(self):
        zero = make_morphism(2, 2, {})
        assert ideal_span_dimension(3, zero, SP2) == 0


class TestTensorSlices:
    @pytest.mark.parametrize("k,l", [(4, 0), (3, 1), (2, 2)])
    def test_symplectic_slices_match_kernels(self, k, l):
        assert tensor_ideal_span_dimension(k, l, SP2) == 1
        assert tensor_ideal_span_dimension(k, l, SP2) == kernel_dimension(k, l, SP2)

    @pytest.mark.parametrize("k,l", [(4, 0), (3, 1), (2, 2)])
    def test_plane_orthogonal_slices_are_injective(self, k, l):
        assert tensor_ideal_span_dimension(k, l, O2) == 0
        assert kernel_dimension(k, l, O2) == 0

    def test_odd_valency_is_trivial(self):
        assert tensor_ideal_span_dimension(2, 1, SP2) == 0

    @pytest.mark.parametrize("spec", [O1, SP2, O2, O3, SP2_F5, O2_F5, SP4,
                                      O3_F7],
                             ids=lambda s: s.label())
    def test_one_padding_matches_all_offsets(self, spec):
        for k in range(5):
            for l in range(5 - k):
                assert tensor_ideal_span_dimension(k, l, spec) == \
                    _oracle_tensor_span(k, l, spec), (k, l)

    @pytest.mark.parametrize("spec,k,l,expected", [
        (SP2, 4, 2, 10), (O2, 4, 2, 5), (O2, 0, 6, 5), (SP4, 0, 6, 1),
    ], ids=["sp2-4-2", "o2-4-2", "o2-0-6", "sp4-0-6"])
    def test_six_point_slices_match_kernels(self, spec, k, l, expected):
        assert tensor_ideal_span_dimension(k, l, spec) == expected
        assert kernel_dimension(k, l, spec) == expected

    @pytest.mark.parametrize("spec,k,l,expected", [
        (SP2, 4, 4, 91), (O3, 2, 6, 14), (SP4, 3, 5, 21),
    ], ids=["sp2-4-4", "o3-2-6", "sp4-3-5"])
    def test_eight_point_slices_match_kernels(self, spec, k, l, expected):
        assert tensor_ideal_span_dimension(k, l, spec) == expected
        assert kernel_dimension(k, l, spec) == expected

    @pytest.mark.parametrize("spec,k,l,expected", [
        (group_spec("sp", 6), 4, 4, 1), (group_spec("sp", 8), 5, 5, 1),
        (group_spec("o", 9), 5, 5, 0),
    ], ids=["sp6-4-4", "sp8-5-5", "o9-5-5"])
    def test_large_groups_at_the_default_budget(self, spec, k, l, expected):
        # Sp(2n) in degree n + 1: one dimension, the line of bent Phi_n
        # (|B_(n+1)| minus the rank, 105 - 104 and 945 - 944).  O(9) in
        # degree 5 is injective: every seed's orbit has a cup inside the
        # antisymmetrized block, so every seed is 0
        assert tensor_ideal_span_dimension(k, l, spec) == expected

    @pytest.mark.parametrize("spec", [SP2, O2], ids=lambda s: s.label())
    def test_bending_keeps_the_dimension(self, spec):
        # every (k, l) with k + l = 6, each also against its own kernel
        dims = [tensor_ideal_span_dimension(k, 6 - k, spec) for k in range(7)]
        assert dims == [kernel_dimension(k, 6 - k, spec) for k in range(7)]
        assert len(set(dims)) == 1

    def test_slice_budget_counts_widest_middle(self, monkeypatch):
        # (2, 2) over Sp(2) bends to (0, 4), whose one middle has width 4.
        # Sigma is never built, so the budget is the closure's |B(0, 4)|^2
        monkeypatch.setenv("BRAUER_MAX_CELLS", "9")
        assert tensor_ideal_span_dimension(2, 2, SP2) == 1
        monkeypatch.setenv("BRAUER_MAX_CELLS", "8")
        with pytest.raises(FunctorError):
            tensor_ideal_span_dimension(2, 2, SP2)


class TestPrimeCharacteristic:
    def test_symplectic_plane_mod_five(self):
        spec = group_spec("sp", 2, modulus=5)
        assert hom_rank(3, 3, spec) == 5
        assert kernel_dimension(3, 3, spec) == 10
        assert ideal_span_dimension(3, reduce_mod_p(phi(1), 5), spec) == 10

    def test_space_orthogonal_mod_seven(self):
        spec = group_spec("o", 3, modulus=7)
        assert hom_rank(3, 3, spec) == 15
        assert kernel_dimension(4, 4, spec) == 14


class TestColumnClasses:
    @pytest.mark.parametrize("spec,n", list(_invariant_grid()), ids=_grid_id)
    def test_rank_and_kernel_match_oracles(self, spec, n):
        # Two independent oracles: the full-width elimination, and for the
        # rank the Howe duality sum (F_7 and F_101 give the same ranks).
        for k in range(n + 1):
            rank, kernel = _oracle_rank_and_kernel(k, n - k, spec)
            assert hom_rank(k, n - k, spec) == rank == _howe_rank(spec, n)
            assert kernel_dimension(k, n - k, spec) == len(kernel)
            assert kernel_basis(k, n - k, spec) == kernel

    @pytest.mark.parametrize("spec,k,l,classes", [
        (O4, 4, 4, 379), (O3, 4, 4, 274), (SP4, 4, 4, 630), (SP2, 5, 5, 126),
    ], ids=_grid_id)
    def test_class_counts(self, spec, k, l, classes):
        _, rows, width = _vectorized_rows(k, l, spec)
        assert width == classes
        assert max(max(row) for row in rows) == classes - 1

    @pytest.mark.parametrize("spec,k,l", [
        (O3, 4, 4), (O3_F7, 3, 3), (SP2, 3, 5), (SP4, 4, 2), (SP2_F5, 2, 2),
        (O1, 3, 3), (O2, 0, 6), (SP4, 4, 4),
    ], ids=_grid_id)
    def test_rows_keep_the_smallest_member_of_each_class(self, spec, k, l):
        # Column c of the short rows is +-1 times the full-width column of
        # the c-th class's smallest member, classes taken by non-decreasing
        # size (rows holding them), ties in smallest-member order.  Every
        # row raises the rank exactly when its full-width row does.
        full_rows, kept = _oracle_class_columns(k, l, spec)
        _, rows, width = _vectorized_rows(k, l, spec)
        assert width == len(kept)
        for c, (_, col) in enumerate(sorted(kept, key=lambda kc: len(kc[1]))):
            short = tuple((idx, row[c]) for idx, row in enumerate(rows)
                          if c in row)
            assert short in (col, tuple((idx, -s) for idx, s in col))
        full, short = EliminationBasis(spec.ring), EliminationBasis(spec.ring)
        for full_row, row in zip(full_rows, rows):
            assert full.add_row(full_row) == short.add_row(row)

    @pytest.mark.parametrize("spec", [O4, group_spec("o", 5)], ids=_grid_id)
    def test_injective_rows_lead_with_a_column_of_their_own(self, spec):
        # Where the functor is injective on B(4, 4), each diagram owns a
        # class that no other row holds, and the fewest-rows-first order
        # puts one first in its row: no row needs a combination.
        _, rows, _ = _vectorized_rows(4, 4, spec)
        holders = {}
        for row in rows:
            for c in row:
                holders[c] = holders.get(c, 0) + 1
        assert all(holders[min(row)] == 1 for row in rows)
        basis = EliminationBasis(spec.ring)
        for row in rows:
            assert basis.add_row(row)
            assert basis.pivots[min(row)] == row

    @pytest.mark.parametrize("spec,n,expected", [
        (O3, 8, 91), (O2, 8, 35), (SP2, 10, 42), (SP4, 8, 84),
        (O4, 8, 105), (group_spec("sp", 6), 10, 909),
        (group_spec("sp", 8), 10, 944), (O1, 12, 1), (SP2, 0, 1),
    ], ids=_grid_id)
    def test_howe_sum_matches_known_ranks(self, spec, n, expected):
        assert _howe_rank(spec, n) == expected

    def test_riordan_rank_at_five_five(self):
        # R_10 = 603: the O(3) rank on ten points, past the oracle grid.
        assert hom_rank(5, 5, O3) == _howe_rank(O3, 10) == 603
