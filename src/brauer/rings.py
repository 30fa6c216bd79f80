"""Exact coefficient arithmetic: rationals, prime fields, and univariate
polynomials in the loop parameter.

Every ring is a descriptor object that does the arithmetic Python's
operators cannot do for its values (see :class:`CoefficientRing`), so the
linear-algebra layer can stay generic over the coefficient domain.  All
arithmetic is exact; nothing here ever touches floating point.

Every element has one canonical form: a rational is a plain ``int`` when
its denominator is 1 and a ``fractions.Fraction`` with denominator > 1
otherwise (:func:`rational`), so integer coefficients never pay for
``Fraction`` arithmetic; a prime-field element is a residue in [0, p); a
:class:`Poly` has canonical rational coefficients and no trailing zeros.
So callers compare coefficients with ``==``, test them for zero by
truthiness and print them with ``str``; the descriptors define none of
these.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .diagram import guard_cells

VARIABLE = "d"


class RingError(ValueError):
    """Raised for invalid ring operations or malformed coefficient strings."""


def rational(q):
    """The canonical form of the exact rational ``q`` (an ``int``, a
    ``Fraction``, or anything ``Fraction`` accepts): an ``int`` when
    integral, otherwise a ``Fraction``."""
    if q.__class__ is int:
        return q
    if q.__class__ is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


class Poly:
    """Univariate polynomial over the rationals in the variable ``d``.

    Coefficients are stored densely, lowest degree first, with no trailing
    zeros, each in the canonical form of :func:`rational`; the zero
    polynomial has an empty coefficient tuple.  Instances are immutable
    value objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, value):
        return cls((value,))

    @classmethod
    def monomial(cls, power, coeff=1):
        if power < 0:
            raise RingError("monomial power must be nonnegative")
        return cls((0,) * power + (coeff,))

    @classmethod
    def variable(cls):
        return cls.monomial(1)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise RingError("polynomial powers must be nonnegative integers")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, value):
        value = rational(value)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return rational(acc)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for p in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[p]
            if c == 0:
                continue
            mag = abs(c)
            if p == 0:
                body = str(mag)
            else:
                var = VARIABLE if p == 1 else "%s^%d" % (VARIABLE, p)
                body = var if mag == 1 else "%s*%s" % (mag, var)
            sign = "-" if c < 0 else ("" if not parts else "+")
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self):
        return "Poly(%s)" % self


_NATURAL_RE = re.compile(r"[0-9]+")
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_MONOMIAL_RE = re.compile(r"%s(?:\^([0-9]+))?" % VARIABLE)


class TextError(RingError):
    """Raised for coefficient text outside the grammar ``str`` prints."""


def _int(digits):
    try:
        return int(digits)
    except ValueError as exc:  # past the interpreter's int digit limit
        raise TextError(str(exc)) from None


def parse_natural(text):
    """The non-negative integer ``text`` in ASCII decimal digits, e.g.
    ``"7"``: the one reader of every integer in text.  No sign,
    whitespace, underscore or digits of another script."""
    if _NATURAL_RE.fullmatch(text) is None:
        raise TextError("malformed integer %r: expected ASCII decimal digits"
                        % (text,))
    return _int(text)


def parse_rational(text):
    """(numerator, denominator) of the rational ``text``, in the one form
    ``str`` prints a rational in: an optional sign, decimal digits and an
    optional ``/`` with a positive denominator, e.g. ``"-3/4"`` or ``"7"``.
    No whitespace, decimal point, exponent or underscore: an exponent is
    unbounded work in few characters."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise TextError("malformed rational %r: expected N or N/D" % (text,))
    num = _int(m.group(1))
    den = 1 if m.group(2) is None else _int(m.group(2))
    if den == 0:
        raise TextError("zero denominator in %r" % (text,))
    return num, den


def parse_poly(text):
    """Parse the exact string format produced by ``str(Poly)``.

    Accepts e.g. ``"2*d^2-1"``, ``"d"``, ``"-3/4"``, ``"d^2+5*d+6"``, with
    no whitespace; each coefficient is read by :func:`parse_rational`.  A
    degree whose dense coefficient list, squared, exceeds the cell budget
    is refused before anything is allocated: evaluating at an integer by
    Horner's rule is quadratic in the degree.
    """
    if not text:
        raise TextError("empty polynomial string")
    coeffs = {}
    # Every sign beyond position 0 starts a new term, so a term is one
    # optional sign and c, c*d, c*d^p, d or d^p.
    for term in re.split(r"(?<=.)(?=[+-])", text):
        head, star, tail = term.lstrip("+-").rpartition("*")
        m = _MONOMIAL_RE.fullmatch(tail)
        if m is None and star:
            raise TextError("malformed polynomial term %r in %r" % (term, text))
        if m is None:
            p, c = 0, Fraction(*parse_rational(tail))
        else:
            p = 1 if m.group(1) is None else _int(m.group(1))
            c = Fraction(*parse_rational(head)) if star else 1
        coeffs[p] = coeffs.get(p, 0) + (-c if term[0] == "-" else c)
    degree = max(coeffs)
    guard_cells((degree + 1, degree + 1), "a polynomial of degree %d needs "
                "(%d + 1)^2 steps to evaluate" % (degree, degree), RingError)
    out = [0] * (degree + 1)
    for p, c in coeffs.items():
        out[p] = c
    return Poly(out)


class CoefficientRing:
    """Descriptor protocol shared by all exact coefficient rings.

    Elements are plain Python values in canonical form (see the module
    docstring).  A ring supplies ``zero()``, ``from_int(n)``, ``add``,
    ``neg``, ``mul``, ``parse(text)`` (the inverse of ``str``) and
    ``is_integral(a)`` (whether a lies in the image of the integers);
    ``one`` and ``power`` follow from them.  Prime fields add ``inv`` and
    the polynomials ``delta_power``.

    ``parse`` reads ``N`` or ``N/D`` (:func:`parse_rational`; over F_p
    that is N times the inverse of D) or, for QQ[δ], terms in ``d`` with
    such coefficients (:func:`parse_poly`).  Other text raises
    :class:`TextError`, a degree over the cell budget :class:`RingError`.
    """

    name = "?"

    def one(self):
        return self.from_int(1)

    def power(self, a, n):
        if n < 0:
            raise RingError("negative powers are not supported")
        result = self.one()
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, CoefficientRing) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class Rationals(CoefficientRing):
    name = "Rationals"

    def zero(self):
        return 0

    def from_int(self, n):
        return rational(n)

    def add(self, a, b):
        return rational(a + b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return rational(a * b)

    def parse(self, s):
        return rational(Fraction(*parse_rational(s)))

    def is_integral(self, a):
        return rational(a).__class__ is int


# Miller-Rabin with the first 13 primes as bases is exact below _MR_LIMIT
# (Sorenson and Webster, 2015); larger moduli are refused, not guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p):
    if p >= _MR_LIMIT:
        raise RingError("modulus %d exceeds the deterministic primality bound %d"
                        % (p, _MR_LIMIT))
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField(CoefficientRing):
    """The field with ``p`` elements, represented as integers in [0, p)."""

    _cache = {}

    def __new__(cls, p):
        if p.__class__ is not int:
            raise RingError("modulus %r is not an integer" % (p,))
        inst = cls._cache.get(p)
        if inst is None:
            if not _is_prime(p):
                raise RingError("%r is not prime" % (p,))
            inst = super().__new__(cls)
            inst.p = p
            inst.name = "PrimeField(%d)" % p
            cls._cache[p] = inst
        return inst

    def zero(self):
        return 0

    def from_int(self, n):
        if n.__class__ is not int:
            raise RingError("%r is not an integer" % (n,))
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise RingError("division by zero in %s" % self.name)
        return pow(a, -1, self.p)

    def parse(self, s):
        num, den = parse_rational(s)
        return self.mul(num, self.inv(den))

    def is_integral(self, a):
        return True


class PolynomialsInDelta(CoefficientRing):
    """Univariate polynomials over the rationals in the loop parameter ``d``."""

    name = "PolynomialsInDelta"

    def zero(self):
        return Poly()

    def from_int(self, n):
        return Poly.const(n)

    def delta(self):
        return Poly.variable()

    def delta_power(self, n):
        return Poly.monomial(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def parse(self, s):
        return parse_poly(s)

    def is_integral(self, a):
        return all(c.denominator == 1 for c in a.coeffs)


QQ = Rationals()
QQ_DELTA = PolynomialsInDelta()

_FIXED_RINGS = {QQ.name: QQ, QQ_DELTA.name: QQ_DELTA}
_PRIME_FIELD_RE = re.compile(r"PrimeField\(([1-9][0-9]*)\)")


def ring_from_name(name):
    """Inverse of ``ring.name``, for wire-format round-trips."""
    ring = _FIXED_RINGS.get(name)
    if ring is not None:
        return ring
    m = _PRIME_FIELD_RE.fullmatch(name)
    if m:
        return PrimeField(parse_natural(m.group(1)))
    raise RingError("unknown ring %r" % (name,))
