"""Distinguished elements of the diagram algebra.

Houses the (anti)symmetrizers Sigma_eps(r), the quasi-idempotents Phi and
E_p, and the bent elements D(p, q).  The identities they satisfy are
checked by the suites of :mod:`brauer.verify`.

The kernel generators fix their own loop value and are built over QQ:
Phi_n at delta = -2n, E_p and F_p at delta = m, D(p, q) at delta = -2n.
The functor reduces them mod p where they meet a group over F_p.
E_p and D(p, q) are one bend of an enumerated Sigma (:func:`_bend`): the
antisymmetrizer of degree m + 1 with p legs turned on each side, and the
symmetrizer of degree 2n + 1 with p legs turned up and q down.

Index conventions follow the classical generator notation: s_i and e_i act
on strands i, i+1 with 1-based i, and antisymmetrizer windows [k, l] are
1-based inclusive.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, permutations
from math import factorial

from . import diagram as dg
from .diagram import (Diagram, _check_sizes, _is_int, guard_cells,
                      make_diagram)
from .linear import (Morphism, _check_eps, block_act, from_diagram,
                     identity_morphism, lin_add, lin_scale, lin_tensor,
                     make_morphism, zero_morphism)
from .rings import QQ, QQ_DELTA

__all__ = [
    "ElementError",
    "inversions",
    "from_permutation",
    "sigma",
    "antisymmetrizer_block",
    "e_i_j",
    "phi",
    "f_p",
    "e_p_rotation",
    "e_p_formula",
    "d_pq",
]


class ElementError(ValueError):
    """Raised for out-of-range constructor parameters."""


def inversions(pi):
    """Coxeter length of a permutation given in one-line 0-based form."""
    count = 0
    for a in range(len(pi)):
        for b in range(a + 1, len(pi)):
            if pi[a] > pi[b]:
                count += 1
    return count


def from_permutation(pi, ring=QQ_DELTA, delta=None):
    """Single-diagram morphism of the permutation sending bottom i to top pi[i]."""
    return from_diagram(dg.permutation_diagram(tuple(pi)), ring=ring, delta=delta)


def sigma(eps, r, ring=QQ_DELTA, delta=None):
    """Sum over Sym_r of (-eps)^length; symmetrizer for eps=-1, antisymmetrizer for +1."""
    _check_eps(ElementError, eps)
    _check_sizes(ElementError, "sigma", r=r)
    guard_cells(range(2, r + 1), "a sum over Sym_%d needs %d! terms" % (r, r),
                ElementError)
    terms = {}
    for pi in permutations(range(r)):
        terms[dg.permutation_diagram(pi)] = (-eps) ** inversions(pi)
    return make_morphism(r, r, terms, ring=ring, delta=delta)


def antisymmetrizer_block(k, l, r, ring=QQ_DELTA, delta=None):
    """Signed sum over permutations of the 1-based window [k, l] fixing the
    rest: I_(k-1) (x) sigma(1, l-k+1) (x) I_(r-l).

    Equals the identity whenever k >= l.
    """
    _check_sizes(ElementError, "antisymmetrizer window", k=k, l=l, r=r)
    if k >= l:
        return identity_morphism(r, ring=ring, delta=delta)
    if not (1 <= k and l <= r):
        raise ElementError(
            "window [%d, %d] out of range for %d strands" % (k, l, r)
        )
    block = sigma(1, l - k + 1, ring=ring, delta=delta)
    return lin_tensor(
        lin_tensor(identity_morphism(k - 1, ring=ring, delta=delta), block),
        identity_morphism(r - l, ring=ring, delta=delta),
    )


def e_i_j(i, j, r, ring=QQ_DELTA, delta=None):
    """Nested product e_{i,i+1} e_{i-1,i+2} ... e_{i-j+1,i+j} (1-based strands).

    The factors act on pairwise disjoint strand pairs, so the product is the
    single diagram with j nested arcs on strands i-j+1..i+j at the bottom
    and the same arcs at the top; e_i_j(i, 0, r) is the identity.
    """
    _check_sizes(ElementError, "nested window", i=i, j=j, r=r)
    if j > 0 and not (1 <= i - j + 1 and i + j <= r):
        raise ElementError(
            "nested window (i=%d, j=%d) out of range for %d strands" % (i, j, r)
        )
    arcs = [(i - 1 - x, i + x) for x in range(j)]
    pairs = arcs + [(r + a, r + b) for a, b in arcs]
    pairs += [(t, r + t) for t in range(r) if not i - j <= t < i + j]
    return from_diagram(make_diagram(r, r, pairs), ring=ring, delta=delta)


def phi(n):
    """The quasi-idempotent of degree n+1 at delta = -2n: the sum of all
    (n+1, n+1) diagrams, (n+1)! times the central idempotent of B_(n+1) for
    its trivial representation.

    Each s_i permutes the diagrams, so the sum is fixed by every s_i.  Each
    diagram of e_i o sum has one preimage that closes a loop and two for
    each of its other n arcs, so its coefficient is delta + 2n = 0.
    """
    _check_sizes(ElementError, "phi", n=n)
    if n < 1:
        raise ElementError("phi requires n >= 1")
    r = n + 1
    guard_cells(range(3, 2 * r, 2), "phi(%d) sums the %d!! diagrams of B_%d"
                % (n, 2 * n + 1, r), ElementError)
    return make_morphism(r, r, {d: 1 for d in dg.enumerate_diagrams(r, r)},
                         ring=QQ, delta=Fraction(-2 * n))


def _check_ep_degree(m, **indices):
    """m must be an int >= 1 and every index a non-negative int."""
    if _is_int(m) and m < 1:
        raise ElementError("E_p requires m >= 1, got m=%d" % m)
    _check_sizes(ElementError, "E_p", m=m, **indices)


def _guard_ep_terms(m, i):
    """Refuse E_i in degree m + 1 before building it when its at most
    (m + 1)! terms of 2(m + 1) nodes exceed the cell budget."""
    r = m + 1
    guard_cells(chain((2 * r,), range(2, r + 1)),
                "E_%d in degree %d has up to %d! terms of %d nodes"
                % (i, r, r, 2 * r), ElementError)


def f_p(m, p):
    """Sigma_1(p) (x) Sigma_1(m+1-p): the antisymmetrizer blocks on strands
    [1, p] and [p+1, m+1] in degree m+1, at delta = m."""
    _check_ep_degree(m, p=p)
    if not p <= m + 1:
        raise ElementError("block size %d out of range" % p)
    delta = Fraction(m)
    return lin_tensor(sigma(1, p, ring=QQ, delta=delta),
                      sigma(1, m + 1 - p, ring=QQ, delta=delta))


def e_p_rotation(m, p):
    """Rotate the last p strands of the degree-(m+1) antisymmetrizer, term-wise:
    the bend of :func:`_bend` with p legs turned on each side.

    With the boundary-position index i = m+1-p this realizes the bent
    antisymmetrizer E_i at delta = m; coefficients stay +-1.  Budgeted like
    :func:`e_p_formula`, before Sigma is built.
    """
    _check_ep_degree(m, p=p)
    if not p <= m + 1:
        raise ElementError("rotation count %d out of range" % p)
    _guard_ep_terms(m, m + 1 - p)
    return _bend(1, m + 1, p, p, m)


def e_p_formula(m, i):
    """The bent antisymmetrizer E_i at delta = m by its rational formula.

    Alternating sum over j of F_i e_i(j) F_i weighted by
    1/((i-j)! (m+1-i-j)! (j!)^2); agrees with e_p_rotation(m, m+1-i).

    F_i = Sigma_1(i) (x) Sigma_1(m+1-i) is never built: each sandwich is
    the double orbit of the single diagram e_i(j) under the Young blocks
    (i, m+1-i) on both sides (:func:`brauer.linear.block_act`), so it
    costs the orbit size, not (i! (m+1-i)!)^2 term pairs.  The result is a
    bent antisymmetrizer, with at most (m+1)! terms of 2(m+1) nodes, and
    ElementError is raised before anything is built when (m+1)! * 2(m+1)
    exceeds the cell budget, or when m < 1.
    """
    _check_ep_degree(m, i=i)
    if not i <= m + 1:
        raise ElementError("index %d out of range" % i)
    _guard_ep_terms(m, i)
    ring, delta = QQ, Fraction(m)
    r = m + 1
    blocks = (i, r - i)
    acc = zero_morphism(r, r, ring=ring, delta=delta)
    for j in range(min(i, r - i) + 1):
        c = Fraction(
            (-1) ** j,
            factorial(i - j) * factorial(r - i - j) * factorial(j) ** 2,
        )
        xi = block_act(e_i_j(i, j, r, ring=ring, delta=delta), 1,
                       top=blocks, bottom=blocks)
        acc = lin_add(acc, lin_scale(c, xi))
    return acc


def d_pq(n, p, q):
    """Bend the degree-(2n+1) symmetrizer at delta = -2n: p bottom legs up,
    q of its top legs down (:func:`_bend`).  The result is square of degree
    2n+1-p+q."""
    _check_sizes(ElementError, "D(p, q)", n=n, p=p, q=q)
    if not q <= p <= n:
        raise ElementError("need 0 <= q <= p <= n")
    return _bend(-1, 2 * n + 1, p, q, -2 * n)


def _bend(eps, w, p, q, delta):
    """Bend Sigma_eps(w) term-wise over QQ at the given delta, for
    0 <= q <= p and 2p - q <= w.

    On each permutation the last p bottom legs wrap around the right to
    the top boundary in reversed order; of the w top legs the first
    w-2(p-q)-q pass straight up, the next 2(p-q) close into p-q nested
    arcs, and the last q wrap around the right to the bottom boundary in
    reversed order.  The result is square of degree w-p+q.  Every top leg
    of a permutation ends on the bottom, so an arc joins two bottom legs
    and no loop closes.
    """
    narcs = p - q
    straight_top = w - 2 * narcs - q
    nr = w - p + q
    # new[x] is the node of the result that node x of Sigma becomes, or -1
    # for a top leg closed into an arc; arc[x] is that leg's arc partner.
    new = [*range(w - p),
           *range(2 * nr - 1, 2 * nr - 1 - p, -1),
           *range(nr, nr + straight_top),
           *[-1] * (2 * narcs),
           *range(w - p + q - 1, w - p - 1, -1)]
    arc = {w + straight_top + u: w + straight_top + 2 * narcs - 1 - u
           for u in range(2 * narcs)}
    ends = [x for x in range(2 * w) if new[x] >= 0]
    src = sigma(eps, w, ring=QQ, delta=Fraction(delta))
    terms = {}
    for d, c in src.terms.items():
        partner = d.partner
        out = [0] * (2 * nr)
        for x in ends:
            y = partner[x]
            if new[y] < 0:
                y = partner[arc[y]]
            out[new[x]] = new[y]
        diag = Diagram._from_partner(nr, nr, out)
        terms[diag] = terms.get(diag, 0) + c
    return Morphism(nr, nr, QQ, src.delta, terms)
