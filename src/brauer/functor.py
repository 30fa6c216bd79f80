"""Tensor-representation functor for the orthogonal and symplectic families.

A group spec fixes a family (orthogonal ``O(m)`` with a symmetric bilinear
form, or symplectic ``Sp(m)`` with an alternating one, ``m`` even), the
dimension ``m``, the coefficient field, and the form as m signed partner
pairs: form[i] = (j, s) is the one nonzero cell G[i][j] = s = +-1 of row i.
Every diagram ``(k, l)`` then maps to an exact ``m^l x m^k`` matrix:
through strands contract to Kronecker deltas, bottom arcs to the form's
cells, top arcs to the cells of its inverse eps * G, the whole weighted by
the form's sign raised to the diagram's crossing count.  The map is
functorial (composition goes to matrix product, juxtaposition to Kronecker
product) and kills every loop factor ``delta`` at the numeric value
``eps * m``.

Two independent evaluators are provided: :func:`functor_matrix` contracts a
diagram directly cell by cell, while :func:`functor_matrix_layered` applies
layers by index action: each layer I^a (x) g (x) I^b of a synthesized
generator word moves the entries of the running matrix through the middle
digits of their row indices, as monoidality allows, without building a
Kronecker product.  They must agree on every input; the verification suites
compare them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

from .diagram import (Diagram, _check_sizes, closure_loops, crossing_count,
                      guard_cells)
from .linear import (Morphism, _coerce_coeff, _drop_zeros, reduce_mod_p,
                     specialize_delta)
from .rings import PrimeField, Rationals, QQ
from .words import synthesize_word


class FunctorError(ValueError):
    """Raised for invalid group data or out-of-budget matrix requests."""


_FAMILY_EPS = {"orthogonal": 1, "symplectic": -1}


@dataclass(frozen=True)
class GroupSpec:
    """Family, dimension, coefficient field, and form as m signed pairs.

    form[i] = (j, s) means G[i][j] = s = +-1, the only nonzero cell of row
    i of the form matrix G.  Construction checks what both functor
    evaluators rely on: a known family, a positive int m (even for Sp), a
    field (QQ or F_p), and pairs whose partner map i -> j is an involution
    with s_j = eps * s_i, without fixed points for Sp.  Then G^T = eps * G
    and G^-1 = eps * G, so the form is nondegenerate, symmetric for O and
    alternating for Sp, and the cup's cells are eps times the same pairs.
    eps is derived from the family.  FunctorError otherwise."""

    family: str
    m: int
    ring: object
    form: tuple
    eps: int = field(init=False, compare=False)

    def __post_init__(self):
        if self.family not in _FAMILY_EPS:
            raise FunctorError("unknown family %r (use 'orthogonal' or "
                               "'symplectic')" % (self.family,))
        eps = _FAMILY_EPS[self.family]
        object.__setattr__(self, "eps", eps)
        _check_sizes(FunctorError, "group", m=self.m)
        m = self.m
        if m < 1:
            raise FunctorError("dimension must be positive: %d" % m)
        if eps == -1 and m % 2:
            raise FunctorError("symplectic dimension must be even: %d" % m)
        if not isinstance(self.ring, (Rationals, PrimeField)):
            raise FunctorError("coefficient field must be Rationals or a "
                               "PrimeField, got %r" % (self.ring,))
        try:
            form = tuple((j, s) for j, s in self.form)
        except (TypeError, ValueError):
            form = None
        if form is None or len(form) != m:
            raise FunctorError("form must be %d (partner, sign) pairs, got %r"
                               % (m, self.form))
        for i, (j, s) in enumerate(form):
            if (j.__class__ is not int or not 0 <= j < m
                    or s.__class__ is not int or s not in (1, -1)):
                raise FunctorError("form pair %d is (%r, %r), not an int "
                                   "partner in [0, %d) and an int sign +-1"
                                   % (i, j, s, m))
            # For Sp a fixed point j = i fails here too: s = -s is no sign.
            if form[j] != (i, eps * s):
                raise FunctorError("form pairs %d with %d by sign %d, so it "
                                   "must pair %d with %d by sign %d (eps = %d)"
                                   % (i, j, s, j, i, eps * s, eps))
        object.__setattr__(self, "form", form)

    def label(self):
        name = "O" if self.family == "orthogonal" else "Sp"
        suffix = "" if isinstance(self.ring, Rationals) else " over %s" % self.ring.name
        return "%s(%d)%s" % (name, self.m, suffix)

    def delta_value(self):
        """The loop value eps * m as an element of the coefficient field."""
        return self.ring.from_int(self.eps * self.m)


_FAMILY_ALIASES = {
    "o": "orthogonal",
    "orthogonal": "orthogonal",
    "sp": "symplectic",
    "symplectic": "symplectic",
}


def group_spec(family, m, modulus=None, allow_small_modulus=False):
    """Build the group data for ``O(m)`` or ``Sp(m)`` (``m`` even for Sp).

    The form is the identity for O(m) and the standard J for Sp(m), which
    pairs i with n + i by sign +1 and n + i with i by -1, n = m / 2.
    ``modulus`` switches the coefficient field from the rationals to the
    prime field of that order; the characteristic must be at least ``m + 2``
    (the range where the characteristic-zero kernel statements persist)
    unless ``allow_small_modulus`` is set.
    """
    key = _FAMILY_ALIASES.get(str(family).lower())
    if key is None:
        raise FunctorError("unknown family %r (use 'o' or 'sp')" % (family,))
    _check_sizes(FunctorError, "group", m=m)
    if modulus is None:
        ring = QQ
    else:
        _check_sizes(FunctorError, "group", modulus=modulus)
        ring = PrimeField(modulus)
        if modulus < m + 2 and not allow_small_modulus:
            raise FunctorError(
                "modulus %d is below m + 2 = %d, outside the guaranteed "
                "range; pass allow_small_modulus to proceed" % (modulus, m + 2))
    if key == "orthogonal":
        form = tuple((i, 1) for i in range(m))
    else:
        n = m // 2
        form = (tuple((n + i, 1) for i in range(n))
                + tuple((i, -1) for i in range(n)))
    return GroupSpec(key, m, ring, form)


class ExactMatrix:
    """Immutable sparse matrix over an exact coefficient ring."""

    __slots__ = ("rows", "cols", "ring", "entries")

    def __init__(self, rows, cols, ring, entries):
        _check_sizes(FunctorError, "matrix", rows=rows, cols=cols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "ring", ring)
        clean = {}
        for (i, j), v in entries.items():
            if i.__class__ is not int or j.__class__ is not int:
                raise FunctorError("entry index (%r, %r) is not a pair of ints"
                                   % (i, j))
            if not (0 <= i < rows and 0 <= j < cols):
                raise FunctorError("entry (%d, %d) outside %dx%d" % (i, j, rows, cols))
            v = _coerce_coeff(ring, v, FunctorError)
            if v:
                clean[(i, j)] = v
        object.__setattr__(self, "entries", clean)

    @classmethod
    def _trusted(cls, rows, cols, ring, entries):
        """Wrap a result computed here from valid matrices: entries maps
        in-range int pairs to nonzero elements of ring and is kept as is,
        without the checks of the public constructor."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", entries)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def zero(cls, rows, cols, ring):
        return cls(rows, cols, ring, {})

    @classmethod
    def identity(cls, n, ring):
        _check_sizes(FunctorError, "matrix", rows=n)
        one = ring.one()
        return cls._trusted(n, n, ring, {(i, i): one for i in range(n)})

    @classmethod
    def from_rows(cls, ring, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise FunctorError("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(rows, cols, ring, entries)

    def get(self, i, j):
        return self.entries.get((i, j), self.ring.zero())

    def nnz(self):
        return len(self.entries)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return ((self.rows, self.cols, self.ring, self.entries)
                == (other.rows, other.cols, other.ring, other.entries))

    def __hash__(self):
        raise TypeError("ExactMatrix is not hashable")

    def __repr__(self):
        return "ExactMatrix(%dx%d over %s, %d nonzero)" % (
            self.rows, self.cols, self.ring.name, len(self.entries))

    def add(self, other):
        self._match(other)
        ring = self.ring
        entries = dict(self.entries)
        for key, v in other.entries.items():
            entries[key] = ring.add(entries.get(key, ring.zero()), v)
        return ExactMatrix._trusted(self.rows, self.cols, ring,
                                    _drop_zeros(entries))

    def scale(self, c):
        # Every coefficient ring is an integral domain: c times a nonzero
        # entry is zero only when c is.
        ring = self.ring
        if not c:
            return ExactMatrix.zero(self.rows, self.cols, ring)
        entries = {k: ring.mul(c, v) for k, v in self.entries.items()}
        return ExactMatrix._trusted(self.rows, self.cols, ring, entries)

    def _match(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise FunctorError("shape mismatch: %dx%d vs %dx%d"
                               % (self.rows, self.cols, other.rows, other.cols))
        if self.ring != other.ring:
            raise FunctorError("ring mismatch: %s vs %s" % (self.ring.name, other.ring.name))

    def mul(self, other):
        """Matrix product self @ other."""
        if self.ring != other.ring:
            raise FunctorError("ring mismatch: %s vs %s" % (self.ring.name, other.ring.name))
        if self.cols != other.rows:
            raise FunctorError("inner dimension mismatch: %d vs %d" % (self.cols, other.rows))
        ring = self.ring
        by_row = {}
        for (j, k), v in other.entries.items():
            by_row.setdefault(j, []).append((k, v))
        entries = {}
        for (i, j), a in self.entries.items():
            for k, b in by_row.get(j, ()):
                key = (i, k)
                cur = entries.get(key)
                term = ring.mul(a, b)
                entries[key] = term if cur is None else ring.add(cur, term)
        return ExactMatrix._trusted(self.rows, other.cols, ring,
                                    _drop_zeros(entries))

    def tensor(self, other):
        """Kronecker product, left factor most significant."""
        if self.ring != other.ring:
            raise FunctorError("ring mismatch: %s vs %s" % (self.ring.name, other.ring.name))
        ring = self.ring
        entries = {}
        r2, c2 = other.rows, other.cols
        for (i1, j1), a in self.entries.items():
            for (i2, j2), b in other.entries.items():
                entries[(i1 * r2 + i2, j1 * c2 + j2)] = ring.mul(a, b)
        return ExactMatrix._trusted(self.rows * other.rows, self.cols * other.cols,
                                    ring, entries)

    def transpose(self):
        entries = {(j, i): v for (i, j), v in self.entries.items()}
        return ExactMatrix._trusted(self.cols, self.rows, self.ring, entries)

    def trace(self):
        if self.rows != self.cols:
            raise FunctorError("trace of a non-square %dx%d matrix" % (self.rows, self.cols))
        ring = self.ring
        total = ring.zero()
        for (i, j), v in self.entries.items():
            if i == j:
                total = ring.add(total, v)
        return total


def matrix_to_json(mat):
    entries = [[i, j, str(v)] for (i, j), v in sorted(mat.entries.items())]
    return {"rows": mat.rows, "cols": mat.cols, "ring": mat.ring.name, "entries": entries}


def generator_matrices(spec):
    """Matrices of the four generating pictures: identity strand ``I``,
    crossing ``X``, arc ``A`` (pairing row), and cup ``U`` (coevaluation
    column)."""
    m, ring, eps = spec.m, spec.ring, spec.eps
    eps_elt = ring.from_int(eps)
    ident = ExactMatrix.identity(m, ring)
    swap = {}
    for a in range(m):
        for b in range(m):
            swap[(b * m + a, a * m + b)] = eps_elt
    # Built here from the spec's own ring elements, so trusted.
    x_mat = ExactMatrix._trusted(m * m, m * m, ring, swap)
    a_mat = ExactMatrix._trusted(1, m * m, ring,
                                 {(0, a * m + b): ring.from_int(s)
                                  for a, (b, s) in enumerate(spec.form)})
    u_mat = ExactMatrix._trusted(m * m, 1, ring,
                                 {(a * m + b, 0): ring.from_int(eps * s)
                                  for a, (b, s) in enumerate(spec.form)})
    return {"I": ident, "X": x_mat, "A": a_mat, "U": u_mat}


@lru_cache(maxsize=16)
def _generators_by_column(spec):
    """Per generator of :func:`generator_matrices`: its row count m^out(g),
    column count m^in(g), and its nonzero cells grouped by column, as
    (row, value) lists.  Shared between calls, so read only."""
    gens = {}
    for gen, mat in generator_matrices(spec).items():
        by_col = {}
        for (r, c), v in mat.entries.items():
            by_col.setdefault(c, []).append((r, v))
        gens[gen] = (mat.rows, mat.cols, by_col)
    return gens


@lru_cache(maxsize=1 << 14)
def _diagram_matrix(d, spec):
    """Direct contraction.  Each arc contributes m choices of (row offset,
    column offset, sign): a through strand an index t on both sides, a
    bottom arc a pair (i, j, s) of the form, a top arc the same pair with
    sign eps * s.  Every cell of the product of choices is nonzero with
    value eps^crossings times the product of the +-1 signs, so cells are
    built as integer signs and mapped to one of the two field elements +-1
    at the end."""
    m, ring, eps = spec.m, spec.ring, spec.eps
    k, l = d.k, d.l
    guard_cells(repeat(m, k + l), "computation needs %d^%d matrix cells"
                % (m, k + l), FunctorError)
    pow_k = [m ** (k - 1 - a) for a in range(k)]
    pow_l = [m ** (l - 1 - b) for b in range(l)]
    form = spec.form
    sign = -1 if eps == -1 and crossing_count(d) % 2 else 1
    cells = [(0, 0, sign)]
    for a, b in d.pairs:
        if b < k:
            choices = [(0, i * pow_k[a] + j * pow_k[b], s)
                       for i, (j, s) in enumerate(form)]
        elif a >= k:
            choices = [(i * pow_l[a - k] + j * pow_l[b - k], 0, eps * s)
                       for i, (j, s) in enumerate(form)]
        else:
            choices = [(t * pow_l[b - k], t * pow_k[a], 1) for t in range(m)]
        cells = [(row + dr, col + dc, s * ds)
                 for row, col, s in cells for dr, dc, ds in choices]
    one = ring.one()
    minus = ring.neg(one)
    entries = {(row, col): one if s > 0 else minus for row, col, s in cells}
    return ExactMatrix._trusted(m ** l, m ** k, ring, entries)


def _morphism_to_spec_field(x, spec):
    """The morphism over the group's field: the one place a morphism is
    brought there.  A symbolic morphism is specialized at eps * m, and an
    integral rational one is reduced mod p for a group over F_p.  The
    coefficients must then live in the spec's field and the loop value be
    eps * m there; FunctorError otherwise (MorphismError from the
    reduction of a non-integral one)."""
    ring = spec.ring
    if x.delta is None:
        x = specialize_delta(x, spec.eps * spec.m)
    if isinstance(ring, PrimeField) and isinstance(x.ring, Rationals):
        x = reduce_mod_p(x, ring.p)
    if x.ring != ring:
        raise FunctorError("morphism ring %s does not match group field %s"
                           % (x.ring.name, ring.name))
    if x.delta != spec.delta_value():
        raise FunctorError(
            "morphism loop value %s does not match the group's %s"
            % (x.delta, spec.delta_value()))
    return x


def _sum_of_terms(x, spec, diagram_matrix):
    """Sum over the terms c * d of a morphism of c times
    diagram_matrix(d, spec), accumulated in one dict."""
    x = _morphism_to_spec_field(x, spec)
    ring = spec.ring
    zero = ring.zero()
    entries = {}
    for d in x.support():
        c = x.coeff(d)
        for key, v in diagram_matrix(d, spec).entries.items():
            entries[key] = ring.add(entries.get(key, zero), ring.mul(c, v))
    return ExactMatrix._trusted(spec.m ** x.l, spec.m ** x.k, ring,
                                _drop_zeros(entries))


def functor_matrix(x, spec):
    """Exact matrix of a diagram or morphism under the group's tensor
    representation (direct contraction)."""
    if isinstance(x, Diagram):
        return _diagram_matrix(x, spec)
    if not isinstance(x, Morphism):
        raise FunctorError("expected a Diagram or Morphism, got %r" % (x,))
    return _sum_of_terms(x, spec, _diagram_matrix)


def functor_matrix_layered(x, spec):
    """Same matrix as :func:`functor_matrix`, computed independently: the
    layers of a synthesized generator word are applied by index action.

    A layer I^a (x) g (x) I^b acts on a row index of width a + in(g) + b
    through its middle in(g) digits only, so each entry of the running
    matrix moves to the rows that the generator's column for those digits
    names, scaled by that column's values; no layer matrix is built."""
    if isinstance(x, Morphism):
        return _sum_of_terms(x, spec, functor_matrix_layered)
    if not isinstance(x, Diagram):
        raise FunctorError("expected a Diagram or Morphism, got %r" % (x,))
    m, ring = spec.m, spec.ring
    guard_cells(repeat(m, x.k + x.l),
                "computation needs %d^%d matrix cells" % (m, x.k + x.l),
                FunctorError)
    word = synthesize_word(x)
    gens = _generators_by_column(spec)
    add, mul = ring.add, ring.mul
    one = ring.one()
    entries = {(i, i): one for i in range(m ** word.domain)}
    for lay in word.layers:
        g_rows, g_cols, by_col = gens[lay.gen]
        low = m ** lay.right
        high_in, high_out = low * g_cols, low * g_rows
        out = {}
        for (i, j), v in entries.items():
            hi, rest = divmod(i, high_in)
            mid, lo = divmod(rest, low)
            base = hi * high_out + lo
            for r, w in by_col.get(mid, ()):
                key = (base + r * low, j)
                term = mul(w, v)
                cur = out.get(key)
                out[key] = term if cur is None else add(cur, term)
        entries = out
    return ExactMatrix._trusted(m ** x.l, m ** x.k, ring,
                                _drop_zeros(entries))


def closure_trace(d, spec):
    """``eps^r * (eps*m)^loops`` for a ``(r, r)`` diagram, with loops counted
    in its closure: the trace its matrix must have."""
    if d.k != d.l:
        raise FunctorError("trace needs a square diagram, got (%d, %d)" % (d.k, d.l))
    ring = spec.ring
    return ring.mul(ring.power(ring.from_int(spec.eps), d.k),
                    ring.power(spec.delta_value(), closure_loops(d)))


def trace_check(d, spec):
    """Whether the matrix trace of a ``(r, r)`` diagram equals its
    :func:`closure_trace`."""
    expected = closure_trace(d, spec)
    return functor_matrix(d, spec).trace() == expected
