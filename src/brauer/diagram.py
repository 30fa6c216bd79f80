"""Brauer diagrams: perfect matchings on a two-sided boundary.

A (k, l) diagram is a perfect matching on k + l nodes, drawn with k nodes on
the bottom boundary and l on the top.  Composition stacks one diagram on top
of another, gluing the middle boundary, deleting closed loops (their count is
returned alongside the residual diagram), and tensor is juxtaposition.

A diagram is stored in one canonical form, its partner tuple (partner[i] is
the node joined to i); composition, relabelings, equality, hashing and order
all read it.  The arc list ``pairs`` is derived at the boundary: for JSON,
repr and the validating constructor ``Diagram(k, l, pairs)``.

Node convention (the single 0-based/1-based bridge for the whole package):
internally nodes are 0-based, bottom 0..k-1 left to right, then top k..k+l-1
left to right.  The algebra literature numbers strands 1-based; the generator
constructors s_i(r, i) and e_i(r, i) keep that 1-based convention, everything
else speaks 0-based positions.
"""

from __future__ import annotations

import itertools
import os

from brauer import ops

DEFAULT_MAX_CELLS = 10 ** 7


class DiagramError(ValueError):
    pass


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _check_sizes(error, what, **sizes):
    """Raise ``error`` unless every size is a non-negative int (not a bool)."""
    for name, v in sizes.items():
        if not _is_int(v) or v < 0:
            raise error("%s %s=%r is not a non-negative integer" % (what, name, v))


def max_cells(error=ValueError):
    """Densest matrix cell count allowed, overridable via BRAUER_MAX_CELLS;
    a malformed value raises error."""
    raw = os.environ.get("BRAUER_MAX_CELLS")
    if raw is None:
        return DEFAULT_MAX_CELLS
    from .rings import TextError, parse_natural  # rings imports this module
    try:
        value = parse_natural(raw)
    except TextError:
        raise error("BRAUER_MAX_CELLS must be an integer in ASCII decimal "
                    "digits: %r" % raw) from None
    if value == 0:
        raise error("BRAUER_MAX_CELLS must be positive: %r" % raw)
    return value


def guard_cells(factors, what, error):
    """Refuse work whose size, the product of the factors, exceeds
    max_cells(): the one budget of every constructor that grows faster
    than polynomially, and of every size no input backs up.  The product
    is formed only until it passes the limit, so a count of any size costs
    a few multiplications; what names the count by formula for the
    message, raised as error."""
    limit = max_cells(error)
    count = 1
    for factor in factors:
        count *= factor
        if count > limit:
            raise error("%s, above the limit %d; raise BRAUER_MAX_CELLS to "
                        "allow it" % (what, limit))


class Diagram:
    """Immutable (k, l) perfect matching.

    partner is the canonical form: the involution on the k + l nodes as a
    flat tuple, partner[i] being the node joined to i.  Equality, hash and
    order read it.  pairs, the arcs (i, partner[i]) with i < partner[i] in
    increasing order, is derived from it for JSON, repr and outside readers.
    Ordering by partner equals ordering by pairs: at the first node where two
    partner tuples differ, that node is the smaller end of an arc in both.
    """

    __slots__ = ("k", "l", "partner", "_hash")

    def __init__(self, k, l, pairs):
        _check_sizes(DiagramError, "valency", k=k, l=l)
        n = k + l
        pairs = tuple(pairs)
        if 2 * len(pairs) != n:
            raise DiagramError("%d arcs cannot cover the %d nodes of a "
                               "(%d, %d) diagram" % (len(pairs), n, k, l))
        partner = [-1] * n
        for arc in pairs:
            try:
                a, b = arc
            except (TypeError, ValueError):
                raise DiagramError("arc %r is not a pair" % (arc,))
            if not (_is_int(a) and _is_int(b)):
                raise DiagramError("non-integer node in arc %r" % (arc,))
            if a == b or not (0 <= a < n) or not (0 <= b < n):
                raise DiagramError("arc %r out of range for %d nodes" % (arc, n))
            if partner[a] != -1 or partner[b] != -1:
                raise DiagramError("node repeated in arc %r" % (arc,))
            partner[a] = b
            partner[b] = a
        _finish(self, k, l, partner)

    @staticmethod
    def _from_partner(k, l, partner):
        """Trusted constructor: partner must already be an involution."""
        return _finish(object.__new__(Diagram), k, l, partner)

    @property
    def pairs(self):
        return tuple((i, j) for i, j in enumerate(self.partner) if i < j)

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.k == other.k and self.partner == other.partner

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.k, self.l, self.partner) < (other.k, other.l, other.partner)

    def __repr__(self):
        return "Diagram(%d, %d, %r)" % (self.k, self.l, list(self.pairs))

    def through_count(self):
        """Number of arcs joining the bottom boundary to the top."""
        k = self.k
        return sum(1 for j in self.partner[:k] if j >= k)


def _finish(d, k, l, partner):
    d.k = k
    d.l = l
    d.partner = partner = tuple(partner)
    d._hash = hash((k, partner))
    return d


def make_diagram(k, l, pairs):
    return Diagram(k, l, pairs)


def compose(d1, d2):
    """Stack d1 on top of d2 (d2 applied first): d1 o d2.

    d2: k -> l, d1: l -> p.  Returns (loop_count, residual (k, p) diagram).
    """
    if d1.k != d2.l:
        raise DiagramError(
            "valency mismatch: cannot compose (%d,%d) after (%d,%d)"
            % (d1.k, d1.l, d2.k, d2.l)
        )
    loops, partner = ops.compose_partners(d2.partner, d2.k, d2.l, d1.partner, d1.l)
    return loops, Diagram._from_partner(d2.k, d1.l, partner)


def tensor(d1, d2):
    """Juxtaposition, left factor on the left."""
    k1, l1, k2, l2 = d1.k, d1.l, d2.k, d2.l
    k = k1 + k2
    l = l1 + l2
    n1 = k1 + l1
    # Relabel the disjoint union: d1's nodes first, then d2's shifted by n1.
    new = [*range(k1), *range(k, k + l1), *range(k1, k), *range(k + l1, k + l)]
    return _relabel(d1.partner + tuple(n1 + j for j in d2.partner), k, l, new)


def _relabel(partner, k, l, new):
    """The (k, l) diagram joining new[i] to new[partner[i]] for every node i."""
    out = [0] * (k + l)
    for i, j in enumerate(partner):
        out[new[i]] = new[j]
    return Diagram._from_partner(k, l, out)


def star(d):
    """Reflection in a horizontal line: (k,l) -> (l,k)."""
    k, l = d.k, d.l
    return _relabel(d.partner, l, k, [*range(l, l + k), *range(l)])


def sharp(d):
    """Reflection in a vertical line: left-right mirror."""
    k, l = d.k, d.l
    return _relabel(d.partner, k, l, [*range(k - 1, -1, -1),
                                      *range(k + l - 1, k - 1, -1)])


def ast(d):
    """The composite star o sharp, the algebra anti-involution on diagrams."""
    return star(sharp(d))


def identity(r):
    return Diagram._from_partner(r, r, tuple(range(r, 2 * r)) + tuple(range(r)))


def crossing():
    return Diagram(2, 2, [(0, 3), (1, 2)])


def cap():
    return Diagram(2, 0, [(0, 1)])


def cup():
    return Diagram(0, 2, [(0, 1)])


def permutation_diagram(pi):
    """Diagram of the permutation sending bottom i to top pi[i] (0-based)."""
    r = len(pi)
    if sorted(pi) != list(range(r)):
        raise DiagramError("%r is not a permutation of 0..%d" % (pi, r - 1))
    return Diagram(r, r, [(i, r + pi[i]) for i in range(r)])


def s_i(r, i):
    """Adjacent transposition of strands i, i+1 (1-based, 1 <= i <= r-1)."""
    if not 1 <= i <= r - 1:
        raise DiagramError("s_i index %d out of range for %d strands" % (i, r))
    pi = list(range(r))
    pi[i - 1], pi[i] = pi[i], pi[i - 1]
    return permutation_diagram(pi)


def e_i(r, i):
    """Cap-cup pair on strands i, i+1 (1-based, 1 <= i <= r-1)."""
    if not 1 <= i <= r - 1:
        raise DiagramError("e_i index %d out of range for %d strands" % (i, r))
    return e_pair(r, i - 1, i)


def e_pair(r, a, b):
    """Bottom arc {a,b}, top arc {a,b}, identity elsewhere (0-based a < b)."""
    if not 0 <= a < b <= r - 1:
        raise DiagramError("e_pair needs 0 <= a < b <= r-1, got (%d, %d)" % (a, b))
    pairs = [(a, b), (r + a, r + b)]
    pairs += [(j, r + j) for j in range(r) if j != a and j != b]
    return Diagram(r, r, pairs)


def x_block(s, t):
    """Block crossing: the first s strands pass over the next t."""
    pi = [t + i for i in range(s)] + [j for j in range(t)]
    return permutation_diagram(pi)


def u_nest(q):
    """Nested cups: (0, 2q) diagram with arcs {i, 2q-1-i}."""
    return Diagram(0, 2 * q, [(i, 2 * q - 1 - i) for i in range(q)])


def raise_diagram(d):
    """Bend the last bottom strand up: (D (x) I) o (I^(k-1) (x) cup).

    Implemented as the equivalent pure relabeling; composition cannot create
    loops here, which the property tests confirm against the composed form.
    """
    k, l = d.k, d.l
    if k < 1:
        raise DiagramError("raise needs at least one bottom node")
    new = [*range(k - 1), k - 1 + l, *range(k - 1, k - 1 + l)]
    return _relabel(d.partner, k - 1, l + 1, new)


def lower_diagram(d):
    """Bend the last top strand down: (I^(l-1) (x) cap) o (D (x) I)."""
    k, l = d.k, d.l
    if l < 1:
        raise DiagramError("lower needs at least one top node")
    return _relabel(d.partner, k + 1, l - 1, [*range(k), *range(k + 1, k + l), k])


def rotate_right(d, p):
    """Rotate the last p strands of a square diagram around the right edge.

    Pure relabeling: the last p top positions become the last p bottom
    positions in reversed order, and vice versa.  rotate_right(X, 1) = e_1;
    applying it twice with p = r is the identity.
    """
    if d.k != d.l:
        raise DiagramError("rotate_right needs a square diagram")
    r = d.k
    if not 0 <= p <= r:
        raise DiagramError("rotation amount %d out of range 0..%d" % (p, r))

    # Bottom position r-p+t becomes top position r-1-t, and top position
    # r-p+t becomes bottom position r-1-t; the first r-p strands stay put.
    new = [*range(r - p), *range(2 * r - 1, 2 * r - 1 - p, -1),
           *range(r, 2 * r - p), *range(r - 1, r - 1 - p, -1)]
    return _relabel(d.partner, r, r, new)


def diagram_count(k, l):
    """|B(k, l)| = (k + l - 1)!! for even k + l, without enumerating."""
    if (k + l) % 2:
        return 0
    count = 1
    for j in range(3, k + l, 2):
        count *= j
    return count


_ENUM_CACHE = {}


def enumerate_diagrams(k, l):
    """All (k, l) diagrams in a fixed deterministic order.

    The order pairs the smallest unmatched node with each larger node in
    increasing order, recursively.  Count is (k+l-1)!! for even k+l, and
    is budgeted before the cache is read, so a refusal never depends on
    what an earlier call built.
    """
    _check_sizes(DiagramError, "valency", k=k, l=l)
    if (k + l) % 2 == 0:
        guard_cells(range(3, k + l, 2), "B(%d, %d) has %d!! diagrams"
                    % (k, l, k + l - 1), DiagramError)
    key = (k, l)
    cached = _ENUM_CACHE.get(key)
    if cached is None:
        if (k + l) % 2 == 1:
            cached = ()
        else:
            out = []
            partner = [-1] * (k + l)

            def rec(free):
                if not free:
                    out.append(Diagram._from_partner(k, l, partner))
                    return
                a = free[0]
                for idx in range(1, len(free)):
                    b = free[idx]
                    partner[a] = b
                    partner[b] = a
                    rec(free[1:idx] + free[idx + 1 :])
                partner[a] = -1

            rec(tuple(range(k + l)))
            cached = tuple(out)
        _ENUM_CACHE[key] = cached
    return list(cached)


def crossing_count(d):
    """Interleaving arc pairs in the circular boundary order.

    Circular order walks the bottom left to right then the top right to
    left; two arcs interleave iff exactly one endpoint of one lies strictly
    between the endpoints of the other.
    """
    k, l = d.k, d.l

    def pos(i):
        return i if i < k else k + (l - 1 - (i - k))

    arcs = [tuple(sorted((pos(a), pos(b)))) for a, b in d.pairs]
    count = 0
    for (a, b), (c, e) in itertools.combinations(arcs, 2):
        if (a < c < b) != (a < e < b):
            count += 1
    return count


def closure_loops(d):
    """Loop count of the full right closure cap_r o (D (x) I_r) o cup_r."""
    if d.k != d.l:
        raise DiagramError("closure needs a square diagram")
    return ops.closure_cycles(d.partner, d.k)


def diagram_to_json(d):
    return {"k": d.k, "l": d.l, "pairs": [list(p) for p in d.pairs]}


def diagram_from_json(obj):
    try:
        k, l, pairs = obj["k"], obj["l"], obj["pairs"]
    except (TypeError, KeyError):
        raise DiagramError("diagram JSON needs keys k, l, pairs")
    if not isinstance(pairs, (list, tuple)):
        raise DiagramError("diagram JSON pairs must be a list")
    return Diagram(k, l, pairs)
