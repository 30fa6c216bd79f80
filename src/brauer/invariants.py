"""Ranks, kernels, commutants, and ideal spans under the tensor functor.

Everything here reduces to exact sparse elimination: diagram matrices are
vectorized into rows, infinitesimal invariance and commutation conditions
into linear systems, and two-sided ideals and tensor-ideal slices into the
closure of seed morphisms under three generators of the Brauer monoid: s_1,
the r-cycle and e_1.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import replace
from itertools import chain, repeat
from math import factorial

from .diagram import (_check_sizes, e_i, enumerate_diagrams, guard_cells,
                      identity as identity_diagram, permutation_diagram, s_i)
from .functor import (ExactMatrix, FunctorError, _morphism_to_spec_field,
                      functor_matrix)
from .linalg import EliminationBasis, nullspace_of_rows, rank_of_rows
from .linear import (block_orbit, from_diagram, lin_compose, lin_tensor,
                     make_morphism)
from .rings import PrimeField

__all__ = [
    "hom_rank", "kernel_dimension", "kernel_basis", "lie_generators",
    "commutant_dimension", "ideal_span_dimension",
    "tensor_ideal_span_dimension",
]


def _vectorized_rows(k, l, spec):
    """One sparse row per (k, l) diagram: its matrix flattened row-major
    (the keys of its entries), kept on one column per class of
    proportional columns.

    Every cell is +-1, a product of the form's signs (see
    :class:`brauer.functor.GroupSpec`), so a column is its list of signed
    row numbers +-(idx + 1), and two columns are proportional exactly when
    their lists agree up to one overall sign.
    The list, sign-normalised on its first entry, keys the class.
    Dropping a column that is a multiple of a kept one changes neither the
    rank nor the left kernel {x : x M = 0}.  The m^(k+l)-wide rows are
    never formed.

    Classes are numbered by ascending size, the number of rows that hold
    them, ties in the order of their smallest member column.  Elimination
    leads with a row's smallest column, so this pivots first on the
    columns held by the fewest rows (Markowitz's order), which fills the
    rows least: where the functor is injective every diagram owns a class
    of size 1 and no row needs a combination.  Neither the rank nor the
    kernel vectors of :func:`kernel_basis` depend on the column order.

    Returns (diagrams, rows, width): the diagrams in deterministic order,
    their rows with +-1 int entries, and the number of classes."""
    _check_sizes(FunctorError, "valency", k=k, l=l)
    n = k + l
    if n % 2:
        # B(k, l) is empty: no rows, whatever the group.
        return [], [], 0
    # Each of the |B(k, l)| diagrams has one nonzero per choice of an index
    # on each of its n / 2 arcs.  The m^n cells of each matrix are charged
    # by functor_matrix.
    guard_cells(chain(range(3, n, 2), repeat(spec.m, n // 2)),
                "computation needs %d!! * %d^%d row nonzeros"
                % (n - 1, spec.m, n // 2), FunctorError)
    diagrams = enumerate_diagrams(k, l)
    one = spec.ring.one()
    columns = defaultdict(list)
    for idx, d in enumerate(diagrams, 1):
        neg = -idx
        for cell, v in functor_matrix(d, spec).entries.items():
            columns[cell].append(idx if v == one else neg)
    classes = {}
    for cell in sorted(columns):
        col = columns[cell]
        classes[tuple(col) if col[0] > 0 else tuple(-s for s in col)] = None
    # The column map holds every nonzero; free it before the rows are built.
    del columns
    rows = [{} for _ in diagrams]
    # A stable sort: classes of one size keep their smallest-member order.
    for c, key in enumerate(sorted(classes, key=len)):
        for s in key:
            rows[abs(s) - 1][c] = 1 if s > 0 else -1
    return diagrams, rows, len(classes)


def hom_rank(k, l, spec):
    """Rank of the span of all (k, l) diagram matrices."""
    _, rows, _ = _vectorized_rows(k, l, spec)
    return rank_of_rows(rows, spec.ring)


def kernel_dimension(k, l, spec):
    """Dimension of the space of diagram combinations mapped to zero."""
    diagrams, rows, _ = _vectorized_rows(k, l, spec)
    return len(diagrams) - rank_of_rows(rows, spec.ring)


def kernel_basis(k, l, spec):
    """Deterministic basis of the kernel, one morphism per basis vector.

    Eliminates the vectorized diagram rows (:func:`_vectorized_rows`), each
    extended by a tag column after the w class columns, in reverse diagram
    order: diagram i gets column w + n - 1 - i.  A diagram f that depends
    on earlier ones reduces to a row with no cells left, whose lead is its
    own tag and whose other tags are earlier independent diagrams; that row
    is the reduced echelon nullspace vector of free column f.  Vectors come
    out in diagram order as the basis stores them: primitive integers with
    a positive f entry over the rationals, f entry 1 over F_p (see
    :meth:`brauer.linalg.EliminationBasis.add_row`).  Each becomes a
    morphism over the group's field at the loop value eps * m."""
    diagrams, rows, width = _vectorized_rows(k, l, spec)
    n = len(diagrams)
    top = width + n - 1
    basis = EliminationBasis(spec.ring)
    for idx, row in enumerate(rows):
        row[top - idx] = 1
        basis.add_row(row)
    ring = spec.ring
    delta = spec.delta_value()
    out = []
    for lead in sorted((c for c in basis.pivots if c > top - n), reverse=True):
        terms = {diagrams[top - c]: v for c, v in basis.pivots[lead].items()}
        out.append(make_morphism(k, l, terms, ring=ring, delta=delta))
    return out


def lie_generators(spec):
    """Basis of the form-preserving matrix Lie algebra: solutions of
    X^T G + G X = 0 over the group's field, as exact matrices.

    Entry (a, b) of X^T G + G X is X[c][a] G[c][b] + G[a][d] X[d][b] with
    c the partner of b and d that of a, the only cells of column b and row
    a of G; G[c][b] = eps * G[b][c]."""
    m, ring, form = spec.m, spec.ring, spec.form
    basis = EliminationBasis(ring)
    for a, (d, s_a) in enumerate(form):
        for b, (c, s_b) in enumerate(form):
            row = {c * m + a: spec.eps * s_b}
            key = d * m + b
            row[key] = row.get(key, 0) + s_a
            basis.add_row(row)
    # Unknown X[c][a] is column c * m + a, the row-major key of its cell;
    # nullspace vectors hold nonzero elements of the field.
    return [ExactMatrix._trusted(m, m, ring, vec)
            for vec in basis.nullspace(range(m * m))]


def _reflection(group):
    """Orientation-reversing isometry of an orthogonal form, generating the
    second component of the group; None for the connected symplectic
    family.  It negates the first basis vector the form pairs with itself,
    or, when there is none, swaps vector m // 2 with its partner j, scaled
    by the form's sign s = G[m // 2][j]: on that plane G is s times the
    swap, which the swap preserves, and the swap has determinant -1."""
    if group.family != "orthogonal":
        return None
    ring, m, form = group.ring, group.m, group.form
    one = ring.one()
    entries = {(i, i): one for i in range(m)}
    fixed = next((i for i, (j, _) in enumerate(form) if i == j), None)
    if fixed is not None:
        entries[(fixed, fixed)] = ring.neg(one)
    else:
        h = m // 2
        j, s = form[h]
        del entries[(h, h)], entries[(j, j)]
        entries[(h, j)] = entries[(j, h)] = ring.from_int(s)
    return ExactMatrix(m, m, ring, entries)


def derived_action(x_mat, r):
    """Derivation action on the r-fold tensor power: sum over positions of
    identity factors around one copy of the matrix."""
    ring = x_mat.ring
    m = x_mat.rows
    total = ExactMatrix.zero(m ** r, m ** r, ring)
    for i in range(r):
        mat = x_mat
        if i:
            mat = ExactMatrix.identity(m ** i, ring).tensor(mat)
        if r - 1 - i:
            mat = mat.tensor(ExactMatrix.identity(m ** (r - 1 - i), ring))
        total = total.add(mat)
    return total


def _commutant_group(spec):
    """The group data the commutant is solved over.

    The symplectic family, and O(m) in characteristic 2, keep the spec's
    own form.  Otherwise O(m) moves to the split form S, which pairs i with
    m - 1 - i by sign +1, where the diagonal of so(S) is a Cartan
    subalgebra."""
    ring = spec.ring
    if spec.family != "orthogonal" or (isinstance(ring, PrimeField)
                                       and ring.p == 2):
        return spec
    m = spec.m
    return replace(spec, form=tuple((m - 1 - i, 1) for i in range(m)))


def _word_classes(group, refl, r):
    """The m^r basis words of the r-fold tensor power, grouped by key.

    A word's key holds its weight under each diagonal solution of
    X^T G + G X = 0, summed over its letters in the field, and, when the
    reflection (None for the symplectic family) is diagonal, the parity of
    its letters on which the reflection is -1.  Returns the classes as
    lists of word indices, the largest first, ties in ascending key
    order (see :func:`commutant_dimension`)."""
    ring, m = group.ring, group.m
    # A diagonal X = diag(h) solves it when h_a + h_b = 0 for each pair
    # (a, b) of the form.
    rows = [{a: s, b: s} if a != b else {a: 2 * s}
            for a, (b, s) in enumerate(group.form)]
    cartan = nullspace_of_rows(rows, range(m), ring)
    letters = [[h.get(a, 0) for h in cartan] for a in range(m)]
    mods = [ring.p if isinstance(ring, PrimeField) else 0] * len(cartan)
    if refl is not None and all(not key % (m + 1) for key in refl.entries):
        for a in range(m):
            letters[a].append(0 if refl.get(a, a) == ring.one() else 1)
        mods.append(2)
    keys = [(0,) * len(mods)]
    for _ in range(r):
        keys = [tuple((v + w) % q if q else v + w
                      for v, w, q in zip(key, letter, mods))
                for key in keys for letter in letters]
    classes = {}
    for word, key in enumerate(keys):
        classes.setdefault(key, []).append(word)
    return [classes[key] for key in
            sorted(classes, key=lambda key: (-len(classes[key]), key))]


def _commutator_rows(rho, kept, n):
    """Rows of rho M - M rho = 0 for an n x n unknown M whose only nonzero
    entries are the kept ones; kept maps a * n + b to the column of M_ab.
    Only rows with a nonzero entry on a kept unknown are returned."""
    by_row = {}
    by_col = {}
    for key, v in rho.entries.items():
        a, c = divmod(key, n)
        by_row.setdefault(a, []).append((c, v))
        by_col.setdefault(c, []).append((a, v))
    rows = {}
    for key, col in kept.items():
        x, y = divmod(key, n)
        # M_xy enters row (a, y) as rho_ax M_xy and row (x, b) as -M_xy rho_yb.
        for a, v in by_col.get(x, ()):
            row = rows.setdefault(a * n + y, {})
            row[col] = row.get(col, 0) + v
        for b, v in by_row.get(y, ()):
            row = rows.setdefault(x * n + b, {})
            row[col] = row.get(col, 0) - v
    return [row for row in rows.values() if any(row.values())]


def commutant_dimension(r, spec):
    """Dimension of the algebra of matrices on the r-fold tensor power
    commuting with the group action: the infinitesimal action of the form's
    Lie algebra plus, for the orthogonal family, the r-th tensor power of a
    reflection.

    Only the unknowns M_ab that can be nonzero are solved for.  For a
    diagonal constraint D, [D, M]_ab = (D_aa - D_bb) M_ab, so every
    solution has M_ab = 0 unless words a and b have the same key (see
    :func:`_word_classes`): the same weight under the diagonal part of the
    Lie algebra and, when the reflection is diagonal, the same reflection
    parity.  The commutator rows of the Lie generators and the reflection
    power are built on the same-key pairs alone (a diagonal reflection's
    rows are then all zero and dropped), and the dimension is their count
    minus the rank.

    The unknowns are numbered class by class, the largest word class first,
    ties in ascending key order.  Elimination leads with a row's smallest
    column, so this order sets which class is pivoted on first.  Of the
    orders measured it took the fewest row combinations overall: O(3)
    r = 4 needs 291,749 against 506,453 with the classes in first-word
    order, and O(3) r = 3, O(4) r = 3, Sp(4) r = 3, Sp(6) r = 2 and
    O(3) r = 3 over F_7 all need fewer too.

    Outside characteristic 2, O(m) is solved on the split form (see
    :func:`_commutant_group`), whose Cartan subalgebra is diagonal.  This is
    exact: a linear system has the same rank over the algebraic closure of
    its field, where an isometry from the identity form to the split form
    conjugates so(m) to so(m) and the spec's reflection to the split one.
    In characteristic 2 the two forms are not equivalent, so O(m) keeps
    the spec's identity form there, whose diagonal still bounds the
    classes."""
    _check_sizes(FunctorError, "degree", r=r)
    guard_cells(repeat(spec.m, 2 * r), "computation needs %d^%d matrix cells"
                % (spec.m, 2 * r), FunctorError)
    n = spec.m ** r
    group = _commutant_group(spec)
    refl = _reflection(group)
    kept = {}
    for words in _word_classes(group, refl, r):
        for a in words:
            for b in words:
                kept[a * n + b] = len(kept)
    actions = [derived_action(x, r) for x in lie_generators(group)]
    if refl is not None:
        power = ExactMatrix.identity(1, spec.ring)
        for _ in range(r):
            power = power.tensor(refl)
        actions.append(power)
    basis = EliminationBasis(spec.ring)
    for rho in actions:
        for row in _commutator_rows(rho, kept, n):
            basis.add_row(row)
    return len(kept) - basis.rank


def _closure_rank(seeds, left, right, k, l, ring, delta):
    """Rank of the smallest subspace of Hom(k, l) that holds the seeds and is
    closed under left composition with the morphisms in left and right
    composition with those in right.

    The seeds are fed first, and the queue starts from the reduced echelon
    basis of their span, so a dependent seed is dropped before it is
    composed.  A worklist then composes each element that raised the rank
    with every generator until the rank stops growing, so the cost is
    rank x (len(left) + len(right)) compositions and row reductions."""
    diagrams = enumerate_diagrams(k, l)
    index = {d: i for i, d in enumerate(diagrams)}
    basis = EliminationBasis(ring)

    def feed(y):
        return basis.add_row({index[d]: c for d, c in y.terms.items()})

    for x in seeds:
        feed(x)
    queue = deque(make_morphism(k, l, {diagrams[i]: c for i, c in row.items()},
                                ring=ring, delta=delta)
                  for _, row in sorted(basis.reduced_rows().items()))
    while queue:
        x = queue.popleft()
        for y in ([lin_compose(g, x) for g in left]
                  + [lin_compose(x, g) for g in right]):
            if feed(y):
                queue.append(y)
    return basis.rank


def _algebra_generators(r, ring, delta):
    """s_1, the r-cycle c and e_1 of B_r, in that order (s_1 and e_1 at
    r = 2, where c = s_1; none below): enough to close a subspace under B_r.

    - Every Brauer diagram is a permutation, then a product of disjoint
      e's, then a permutation, and this stack closes no loop.  s_1 and c
      generate Sym_r, and e_i = pi e_1 pi^-1 for a permutation pi, so every
      diagram is a loop-free word in {s_1, c, e_1}.
    - Left multiplication by a diagram D is then exactly the composite of
      its word's left multiplications, with no delta factor, even where
      delta = 0 in the field.  Right multiplication likewise.
    - So a subspace closed under the three is closed under B_r."""
    if r < 2:
        return []
    gens = [s_i(r, 1), e_i(r, 1)]
    if r > 2:
        gens.insert(1, permutation_diagram([(j + 1) % r for j in range(r)]))
    return [from_diagram(g, ring=ring, delta=delta) for g in gens]


def ideal_span_dimension(r, gen, spec):
    """Dimension of the two-sided ideal slice in degree (r, r) generated by
    a square morphism, padded with identity strands on the right.  The
    generator is first brought into the group's field, as the functor does
    (:func:`~brauer.functor._morphism_to_spec_field`).

    Every diagram of B_r is a loop-free word in s_1, the r-cycle and e_1
    (:func:`_algebra_generators`), so the ideal is the closure
    (:func:`_closure_rank`) of the padded generator under left and right
    composition with those three diagrams.  Raises FunctorError
    unless r is a non-negative int, and when |B(r, r)|^2 exceeds the cell
    budget."""
    _check_sizes(FunctorError, "degree", r=r)
    guard_cells((j * j for j in range(3, 2 * r, 2)),
                "computation needs (%d!!)^2 matrix cells" % (2 * r - 1),
                FunctorError)
    gen = _morphism_to_spec_field(gen, spec)
    if gen.k != gen.l:
        raise FunctorError("ideal generator must be square, got (%d, %d)"
                           % (gen.k, gen.l))
    if gen.k > r:
        raise FunctorError("generator width %d exceeds degree %d" % (gen.k, r))
    ring, delta = spec.ring, spec.delta_value()
    padded = gen
    if gen.k < r:
        padded = lin_tensor(gen, from_diagram(identity_diagram(r - gen.k),
                                              ring=ring, delta=delta))
    generators = _algebra_generators(r, ring, delta)
    return _closure_rank([padded], generators, generators, r, r, ring, delta)


def tensor_ideal_span_dimension(k, l, spec):
    """Dimension of the (k, l) slice of the tensor ideal generated by the
    vanishing symmetrizer Sigma on m + 1 strands: the span of all composites
    c o (I_a (x) Sigma (x) I_b) o d.

    Three facts reduce every slice to one closure.
      - Bending.  :func:`brauer.diagram.raise_diagram` is a loop-free
        bijection B(k, l) -> B(k - 1, l + 1), inverted by a zigzag.  The
        tensor ideal is closed under (x) I and composition, so bending maps
        one slice onto the other, and dim slice(k, l) = dim slice(0, n) with
        n = k + l.
      - One middle width.  Let M_s = Sigma (x) I_(s-m-1).  Then
        M_s = (I_(s-1) (x) cap (x) I_1) o (M_s (x) I_2) o (I_s (x) cup), a
        loop-free zigzag on the last strand, so every composite through
        width s is also a composite through width s + 2.  Widths up to
        k + l + min(k, l) span the (k, l) slice; at k = 0 that bound is n,
        so width n alone spans slice(0, n), and no width serves when
        n < m + 1.  I_a (x) Sigma (x) I_b is a loop-free permutation
        conjugate of M_n, and composing with a permutation permutes B(0, n)
        and B_n, so M_n is the only middle.  The span found lies in the
        ideal, which lies in the kernel of the functor, so wherever it
        equals :func:`kernel_dimension` (every slice the tests check, up to
        k + l = 8) it is the whole slice.
      - Closure.  slice(0, n) = span{c o M_n o d : c in B_n, d in B(0, n)}:
        the closure (:func:`_closure_rank`) of the seeds M_n o d under left
        composition with s_1, the n-cycle and e_1 of B_n
        (:func:`_algebra_generators`).

    Sigma is never built.  M_n o d is the signed sum of d over Sym_(m+1)
    on its first m + 1 nodes (:func:`brauer.linear.block_act`): the
    orbit's diagrams with the signs :func:`block_orbit` gives, times
    |Stab(d)| = (m + 1)!/|orbit| in the ring, or 0 when the sign is
    nontrivial on the stabilizer (an antisymmetrizer across a cup).  For
    d' = h.d in the same orbit M_n o d' = +-M_n o d, so one seed per orbit
    spans the same seeds, and the walk that finds the orbit builds it.
    Walking the orbits touches each of the c = |B(0, n)| diagrams once,
    so the closure's c^2 is the cost, and FunctorError is raised before
    anything is built when c^2 exceeds the cell budget."""
    _check_sizes(FunctorError, "valency", k=k, l=l)
    n = k + l
    base = spec.m + 1
    if n % 2 or n < base:
        return 0
    guard_cells((j * j for j in range(3, n, 2)),
                "computation needs (%d!!)^2 matrix cells" % (n - 1),
                FunctorError)
    ring, delta = spec.ring, spec.delta_value()
    order = factorial(base)
    seen = set()
    seeds = []
    for d in enumerate_diagrams(0, n):
        if d in seen:
            continue
        orbit, vanishes = block_orbit(d, spec.eps, top=(base,))
        seen.update(orbit)
        stab = order // len(orbit)
        if not vanishes and ring.from_int(stab):
            seeds.append(make_morphism(0, n, {y: s * stab
                                              for y, s in orbit.items()},
                                       ring=ring, delta=delta))
    return _closure_rank(seeds, _algebra_generators(n, ring, delta), [], 0, n,
                         ring, delta)
