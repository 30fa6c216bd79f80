"""Linear combinations of diagrams over exact coefficient rings.

A :class:`Morphism` is a finite linear combination of same-valency diagrams
together with a coefficient ring and a fixed handling of the loop parameter
delta: either symbolic (an indeterminate, coefficients live in the
polynomial ring) or specialized to a ring element.  Composition multiplies
each diagram pair's coefficient by delta raised to the number of closed
loops produced.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .diagram import (
    Diagram,
    _check_sizes,
    _is_int,
    ast,
    compose,
    diagram_from_json,
    diagram_to_json,
    identity,
    tensor,
)
from .rings import (
    QQ,
    QQ_DELTA,
    CoefficientRing,
    Poly,
    PolynomialsInDelta,
    PrimeField,
    Rationals,
    rational,
    ring_from_name,
)


class MorphismError(ValueError):
    """Raised for invalid morphism constructions or incompatible operands."""


def _coerce_coeff(ring, value, error=MorphismError):
    """value as an element of ring, in canonical form; error otherwise."""
    if isinstance(value, bool):
        raise error("boolean is not a coefficient")
    if isinstance(value, int):
        return ring.from_int(value)
    if isinstance(ring, Rationals) and isinstance(value, Fraction):
        return rational(value)
    if isinstance(ring, PolynomialsInDelta):
        if isinstance(value, Fraction):
            return Poly.const(value)
        if isinstance(value, Poly):
            return value
    raise error("coefficient %r does not belong to %s" % (value, ring))


def _coerce_delta(ring, delta):
    """Symbolic delta (None) exactly over the polynomial ring, a numeric
    delta exactly over the other rings."""
    if delta is None:
        if not isinstance(ring, PolynomialsInDelta):
            raise MorphismError(
                "symbolic delta requires the polynomial coefficient ring"
            )
        return None
    if isinstance(ring, PolynomialsInDelta):
        raise MorphismError(
            "the polynomial coefficient ring requires symbolic delta, got "
            "%r; specialize_delta gives a numeric one" % (delta,)
        )
    return _coerce_coeff(ring, delta)


def _drop_zeros(mapping):
    """The entries of mapping whose values are nonzero: what a sum of
    nonzero terms leaves once some of them cancel."""
    return {key: v for key, v in mapping.items() if v}


class Morphism:
    """Immutable linear combination of (k, l) diagrams."""

    __slots__ = ("k", "l", "ring", "delta", "terms")

    def __init__(self, k, l, ring, delta, terms):
        if not isinstance(ring, CoefficientRing):
            raise MorphismError("ring must be a CoefficientRing descriptor")
        _check_sizes(MorphismError, "valency", k=k, l=l)
        self.k = k
        self.l = l
        self.ring = ring
        self.delta = _coerce_delta(ring, delta)
        cleaned = {}
        for diag, coeff in terms.items():
            if not isinstance(diag, Diagram):
                raise MorphismError("term keys must be diagrams")
            if (diag.k, diag.l) != (self.k, self.l):
                raise MorphismError(
                    "diagram of valency (%d, %d) in a (%d, %d) morphism"
                    % (diag.k, diag.l, self.k, self.l)
                )
            c = _coerce_coeff(ring, coeff)
            if c:
                cleaned[diag] = c
        self.terms = cleaned

    @classmethod
    def _trusted(cls, k, l, ring, delta, terms):
        """Wrap a result computed here from valid morphisms: terms maps
        (k, l) diagrams to nonzero elements of ring and delta is already
        coerced; both are kept as is, without the checks of the public
        constructor."""
        self = object.__new__(cls)
        self.k = k
        self.l = l
        self.ring = ring
        self.delta = delta
        self.terms = terms
        return self

    def support(self):
        return sorted(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            (self.k, self.l) == (other.k, other.l)
            and self.ring == other.ring
            and self.delta == other.delta
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("morphisms are not hashable")

    def __repr__(self):
        if self.is_zero():
            body = "0"
        else:
            bits = []
            for diag in self.support():
                bits.append("%s*%r" % (self.terms[diag], diag))
            body = " + ".join(bits)
        return "Morphism(%d, %d; %s)" % (self.k, self.l, body)


def _require_compatible(x, y):
    if x.ring != y.ring:
        raise MorphismError("ring mismatch: %s vs %s" % (x.ring, y.ring))
    if x.delta != y.delta:
        raise MorphismError("delta handling mismatch")


def make_morphism(k, l, terms, ring=QQ_DELTA, delta=None):
    """Build a morphism from a {diagram: coefficient} mapping."""
    return Morphism(k, l, ring, delta, dict(terms))


def zero_morphism(k, l, ring=QQ_DELTA, delta=None):
    return Morphism(k, l, ring, delta, {})


def from_diagram(d, ring=QQ_DELTA, delta=None):
    return Morphism(d.k, d.l, ring, delta, {d: 1})


def identity_morphism(r, ring=QQ_DELTA, delta=None):
    return from_diagram(identity(r), ring=ring, delta=delta)


def delta_factor(ring, delta, loops):
    """The coefficient contributed by ``loops`` >= 1 closed loops."""
    if delta is None:
        return ring.delta_power(loops)
    return ring.power(delta, loops)


@lru_cache(maxsize=1 << 18)
def _compose_diagrams(d1, d2):
    return compose(d1, d2)


def lin_add(x, y):
    if (x.k, x.l) != (y.k, y.l):
        raise MorphismError("valency mismatch in addition")
    _require_compatible(x, y)
    ring = x.ring
    terms = dict(x.terms)
    for diag, c in y.terms.items():
        terms[diag] = ring.add(terms.get(diag, ring.zero()), c)
    return Morphism._trusted(x.k, x.l, ring, x.delta, _drop_zeros(terms))


def lin_scale(c, x):
    ring = x.ring
    c = _coerce_coeff(ring, c)
    # Every coefficient ring is an integral domain: c times a nonzero
    # coefficient is zero only when c is.
    if not c:
        terms = {}
    else:
        terms = {diag: ring.mul(c, v) for diag, v in x.terms.items()}
    return Morphism._trusted(x.k, x.l, ring, x.delta, terms)


def lin_sub(x, y):
    return lin_add(x, lin_scale(-1, y))


def lin_compose(x, y):
    """Bilinear extension of diagram composition (x after y)."""
    if x.k != y.l:
        raise MorphismError(
            "cannot compose (%d, %d) after (%d, %d)" % (x.k, x.l, y.k, y.l)
        )
    _require_compatible(x, y)
    ring = x.ring
    terms = {}
    zero = ring.zero()
    for d1, c1 in x.terms.items():
        for d2, c2 in y.terms.items():
            loops, diag = _compose_diagrams(d1, d2)
            c = ring.mul(c1, c2)
            if loops:
                c = ring.mul(c, delta_factor(ring, x.delta, loops))
            terms[diag] = ring.add(terms.get(diag, zero), c)
    return Morphism._trusted(y.k, x.l, ring, x.delta, _drop_zeros(terms))


def lin_tensor(x, y):
    # Juxtaposing distinct pairs of same-valency diagrams gives distinct
    # diagrams, and a product of nonzero coefficients is nonzero, so no
    # two terms meet and none is zero.
    _require_compatible(x, y)
    ring = x.ring
    terms = {tensor(d1, d2): ring.mul(c1, c2)
             for d1, c1 in x.terms.items() for d2, c2 in y.terms.items()}
    return Morphism._trusted(x.k + y.k, x.l + y.l, ring, x.delta, terms)


def _block_swaps(k, l, top, bottom):
    """The node pairs (a, a + 1) of the adjacent transpositions that
    generate the Young subgroup of the consecutive top and bottom blocks
    of a (k, l) diagram."""
    swaps = []
    for side, blocks, start, size in (("top", top, k, l),
                                      ("bottom", bottom, 0, k)):
        for b in blocks:
            _check_sizes(MorphismError, side + " block", size=b)
        if sum(blocks) > size:
            raise MorphismError("%s blocks %r exceed the %d %s nodes"
                                % (side, tuple(blocks), size, side))
        for b in blocks:
            swaps.extend((a, a + 1) for a in range(start, start + b - 1))
            start += b
    return swaps


def _walk_orbit(d, swaps, step):
    """Orbit of d under the swaps, each diagram with the sign step**len of
    the word that first reached it, and whether one was reached with both
    signs."""
    start = d.partner
    signs = {start: 1}
    stack = [start]
    vanishes = False
    while stack:
        p = stack.pop()
        s = signs[p] * step
        for a, b in swaps:
            pa = p[a]
            if pa == b:
                q = p
            else:
                pb = p[b]
                q = list(p)
                q[a], q[b], q[pa], q[pb] = pb, pa, b, a
                q = tuple(q)
            t = signs.get(q)
            if t is None:
                signs[q] = s
                stack.append(q)
            elif t != s:
                vanishes = True
    k, l = d.k, d.l
    return ({Diagram._from_partner(k, l, p): s for p, s in signs.items()},
            vanishes)


def _check_eps(error, eps):
    """Raise error unless eps is the int +1 or -1 (not a bool or a float)."""
    if not _is_int(eps) or eps not in (1, -1):
        raise error("eps must be +1 or -1")


def block_orbit(d, eps, top=(), bottom=()):
    """The orbit of diagram d under the Young subgroup G of :func:`block_act`.

    Returns (orbit, vanishes).  orbit maps each diagram g.d to
    (-eps)^len(g) for the g by which an adjacent-transposition walk first
    reached it; vanishes is True when the walk reached some diagram with
    both signs, that is when (-eps)^len is nontrivial on the stabilizer of
    d (by Schreier's lemma the edges of the walk generate the
    stabilizer), and then the signed sum over G applied to d is 0."""
    _check_eps(MorphismError, eps)
    return _walk_orbit(d, _block_swaps(d.k, d.l, top, bottom), -eps)


def block_act(x, eps, top=(), bottom=()):
    """Sum over g in G of (-eps)^len(g) g.x, without composing.

    top and bottom are compositions: consecutive blocks of x's top
    (bottom) nodes from the left, and G is the product of the symmetric
    groups on the blocks, acting on node labels; nodes past the blocks are
    fixed.  With Sigma_top = Sigma_eps(b_1) (x) Sigma_eps(b_2) (x) ... (x) I
    over the top blocks and Sigma_bottom likewise, the result is
    Sigma_top o x o Sigma_bottom, as :func:`lin_compose` against
    :func:`brauer.elements.sigma` would give it.

    Each term is expanded over its orbit only.  If y = h.d, the terms g.d
    with g.d = y are g in h Stab(d), whose signs sum to
    (-eps)^len(h) |Stab(d)| when the sign character is trivial on
    Stab(d) and to 0 otherwise (:func:`block_orbit`).  Terms of x in one
    orbit are grouped first, since the result O(d) for one term satisfies
    O(h.d) = (-eps)^len(h) O(d), so every orbit is walked once: the work is
    the sum of the orbit sizes, at most |B(k, l)|, against |G| term pairs
    per term for composition, and no loop is ever closed."""
    _check_eps(MorphismError, eps)
    swaps = _block_swaps(x.k, x.l, top, bottom)
    order = 1
    for b in tuple(top) + tuple(bottom):
        order *= factorial(b)
    ring = x.ring
    terms = {}
    seen = set()
    for d in x.terms:
        if d in seen:
            continue
        orbit, vanishes = _walk_orbit(d, swaps, -eps)
        seen.update(orbit)
        if vanishes:
            continue
        total = ring.zero()
        for y, s in orbit.items():
            c = x.terms.get(y)
            if c is not None:
                total = ring.add(total, c if s == 1 else ring.neg(c))
        scale = ring.mul(total, ring.from_int(order // len(orbit)))
        if not scale:
            continue
        neg = ring.neg(scale)
        for y, s in orbit.items():
            terms[y] = scale if s == 1 else neg
    return Morphism._trusted(x.k, x.l, ring, x.delta, terms)


def lin_ast(x):
    """Term-wise 180-degree rotation; an anti-homomorphism fixing valency order."""
    terms = {ast(d): c for d, c in x.terms.items()}
    return Morphism(x.l, x.k, x.ring, x.delta, terms)


def integrality_check(x):
    """True when every coefficient lies in the image of the integers."""
    return all(x.ring.is_integral(c) for c in x.terms.values())


def specialize_delta(x, value):
    """Evaluate a symbolic morphism at a rational value of delta, an int or
    a Fraction; MorphismError for anything else (a float, a bool, a str)."""
    if not isinstance(x.ring, PolynomialsInDelta) or x.delta is not None:
        raise MorphismError("specialize_delta expects a symbolic morphism")
    value = _coerce_coeff(QQ, value, MorphismError)
    terms = {d: c.evaluate(value) for d, c in x.terms.items()}
    return Morphism(x.k, x.l, QQ, value, terms)


def reduce_mod_p(x, p):
    """Reduce an integral morphism with a numeric integral delta modulo p.
    A morphism already over a prime field is refused: its residues belong
    to that field, not to the integers."""
    if x.delta is None:
        raise MorphismError(
            "cannot reduce a symbolic morphism; specialize delta first"
        )
    if isinstance(x.ring, PrimeField):
        raise MorphismError("cannot reduce a morphism over %s mod %r"
                            % (x.ring.name, p))
    if not (integrality_check(x) and x.ring.is_integral(x.delta)):
        raise MorphismError("morphism has a non-integral coefficient or "
                            "loop value")
    field = PrimeField(p)
    terms = {d: field.from_int(c) for d, c in x.terms.items()}
    return Morphism(x.k, x.l, field, field.from_int(x.delta), terms)


def morphism_to_json(x):
    entries = []
    for diag in x.support():
        entries.append(
            {"diagram": diagram_to_json(diag), "coeff": str(x.terms[diag])}
        )
    return {
        "k": x.k,
        "l": x.l,
        "ring": x.ring.name,
        "delta": "symbolic" if x.delta is None else str(x.delta),
        "terms": entries,
    }


def _parse_text(ring, text, what):
    """Parse a JSON coefficient, which is a string: a JSON number may
    already have lost digits (1e-400 reads as 0.0)."""
    if not isinstance(text, str):
        raise MorphismError("%s %r is not a string" % (what, text))
    return ring.parse(text)


def morphism_from_json(data):
    try:
        ring = ring_from_name(data["ring"])
        raw_delta = data["delta"]
        delta = (None if raw_delta == "symbolic"
                 else _parse_text(ring, raw_delta, "delta"))
        terms = {}
        zero = ring.zero()
        for entry in data["terms"]:
            diag = diagram_from_json(entry["diagram"])
            c = _parse_text(ring, entry["coeff"], "coefficient")
            terms[diag] = ring.add(terms.get(diag, zero), c)
        return Morphism(data["k"], data["l"], ring, delta, terms)
    except (KeyError, TypeError) as exc:
        raise MorphismError("malformed morphism JSON: %s" % (exc,)) from exc
