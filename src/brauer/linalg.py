"""Exact sparse Gaussian elimination over the coefficient fields.

Rows are sparse {column: coefficient} dicts fed incrementally into an
:class:`EliminationBasis`, which maintains an echelonized row space with a
deterministic result for a deterministic feed order.  Over the rationals,
rows are rescaled to primitive integer vectors and combined fraction-free
(cross-multiplication followed by content removal), so no rational
arithmetic happens during elimination; integer entries and fractions with
denominator 1 enter as plain ints, and only a row with a real denominator is
scaled.  Over a prime field F_p, entries are ints in [0, p) combined inline
modulo p, and a row is stored monic (lead 1), so the one modular inverse is
taken per stored row, not per combination.  Ranks, reduced row echelon
forms, and nullspace bases are exact.

A row is reduced in place, on the copy the engine makes of it on entry,
and always at its smallest column, so the caller's column numbering is the
pivot order.  Rank does not depend on it, but the work does: the rank path
numbers first the columns held by the fewest rows (Markowitz's order, see
:func:`brauer.invariants._vectorized_rows`), so pivot rows stay short and
few combinations fill them in.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .rings import PrimeField, Rationals


class LinAlgError(ValueError):
    """Raised for unsupported rings or malformed rows."""


def _row_content(row):
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            break
    return g


class EliminationBasis:
    """Incrementally reduced row space over an exact field."""

    def __init__(self, ring):
        if not isinstance(ring, (Rationals, PrimeField)):
            raise LinAlgError("elimination requires a field: %s" % ring)
        self.ring = ring
        self._p = None if isinstance(ring, Rationals) else ring.p
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def _prepare(self, row):
        """The row with zero entries dropped: a primitive integer vector
        over the rationals, residues in [0, p) over F_p.  Entries must be
        ints (not bools), or Fractions over the rationals."""
        p = self._p
        if p is not None:
            out = {}
            for c, v in row.items():
                if v.__class__ is not int:
                    raise LinAlgError("row entry %r in column %r is not an int"
                                      % (v, c))
                v %= p
                if v:
                    out[c] = v
            return out
        out = {}
        scale = 1
        for c, v in row.items():
            if v.__class__ is not int:
                if not isinstance(v, Fraction):
                    raise LinAlgError("row entry %r in column %r is not an int "
                                      "or a Fraction" % (v, c))
                d = v.denominator
                if d == 1:
                    v = v.numerator
                else:
                    scale = scale * d // gcd(scale, d)
            if v:
                out[c] = v
        if scale > 1:
            out = {c: int(v * scale) for c, v in out.items()}
        g = _row_content(out)
        if g > 1:
            out = {c: v // g for c, v in out.items()}
        return out

    def _reduce(self, row):
        """Reduce a prepared row in place until its lead column has no pivot.

        Each step cancels the lead against its pivot row.  Over the
        rationals the row becomes ra * row - pa * pivot with pa / ra the
        lead ratio in lowest terms (ra > 0, as stored leads are positive),
        then loses its content; over F_p it becomes row - f * pivot with
        f the row's lead, as stored leads are 1.  The row is the one
        :meth:`_prepare` built, never the caller's.

        Returns the lead, or None (the row then empty) when the row lies
        in the span."""
        pivots = self.pivots
        p = self._p
        get = row.get
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                return lead
            if p is None:
                a, b = row[lead], piv[lead]
                g = gcd(a, b)
                ra, pa = b // g, a // g
                if ra != 1:
                    for c, v in row.items():
                        row[c] = v * ra
                for c, v in piv.items():
                    nv = get(c, 0) - v * pa
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
                g = _row_content(row)
                if g > 1:
                    for c, v in row.items():
                        row[c] = v // g
            else:
                f = row[lead]
                for c, v in piv.items():
                    nv = (get(c, 0) - f * v) % p
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
        return None

    def add_row(self, row):
        """Reduce a row against the basis; store it if independent, in
        normal form: primitive with a positive lead over the rationals,
        with lead 1 over F_p.

        Returns True when the row increased the rank.
        """
        row = self._prepare(row)
        lead = self._reduce(row)
        if lead is None:
            return False
        p = self._p
        if p is None:
            if row[lead] < 0:
                for c, v in row.items():
                    row[c] = -v
        elif row[lead] != 1:
            inv = pow(row[lead], -1, p)
            for c, v in row.items():
                row[c] = v * inv % p
        self.pivots[lead] = row
        return True

    def reduced_rows(self):
        """Pivot rows in reduced row echelon form (leading ones, back-reduced),
        keyed by pivot column, with field coefficients."""
        p = self._p
        rows = {}
        for q in sorted(self.pivots, reverse=True):
            raw = self.pivots[q]
            if p is None:
                lead = raw[q]
                row = {c: Fraction(v, lead) for c, v in raw.items()}
            else:
                row = dict(raw)
            for r in [c for c in row if c != q and c in rows]:
                factor = row.pop(r)
                for c, v in rows[r].items():
                    if c == r:
                        continue
                    nv = row.get(c, 0) - factor * v
                    if p is not None:
                        nv %= p
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
            rows[q] = row
        return rows

    def nullspace(self, columns):
        """Basis of {x : R x = 0} for the fed row space R, over the given
        column universe, one vector per free column in column order.

        Over the rationals each vector is scaled to primitive integers with
        the free-column entry positive (:meth:`_prepare`); over F_p the
        free-column entry is 1.
        """
        rows = self.reduced_rows()
        basis = []
        for f in columns:
            if f in rows:
                continue
            vec = {f: 1}
            for q, row in rows.items():
                if f in row:
                    vec[q] = -row[f]
            basis.append(self._prepare(vec))
        return basis


def rank_of_rows(rows, ring):
    basis = EliminationBasis(ring)
    for row in rows:
        basis.add_row(row)
    return basis.rank


def nullspace_of_rows(rows, columns, ring):
    basis = EliminationBasis(ring)
    for row in rows:
        basis.add_row(row)
    return basis.nullspace(columns)
