"""Named verification suites over the whole library, at desk scale.

Each suite returns a list of :class:`~brauer.report.Check` records; every
comparison is exact (zero tolerance).  The suites mirror the acceptance
criteria: generator-relation soundness, word round-trips, the algebra
presentation, the antisymmetrizer identity family, the matrix relations of
the generating pictures with functor consistency and traces, the
quasi-idempotent suites, the kernel theorems with fullness, and the
positive-characteristic reruns.

The identity checks the suites run live here, beside them:
:func:`brauer_presentation_report` (the generator presentation),
:func:`verify_sigma_identities`, :func:`verify_sigma_cap` and
:func:`verify_afu` (the symmetrizer and bent-cap identities), and
:func:`verify_pau` (the matrix relations of the generating pictures).  In
the cap and bent-cap identities a reciprocal factorial 1/t! vanishes for
t < 0, which makes them hold uniformly at the boundary of their parameter
ranges.  The relation soundness check stays in :mod:`brauer.rewrite`,
beside the rules it checks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

from .diagram import (_check_sizes, cap, crossing, cup, diagram_count, e_i,
                      enumerate_diagrams, identity, lower_diagram,
                      make_diagram, s_i, tensor, u_nest, x_block)
from .elements import (ElementError, e_p_formula, e_p_rotation,
                       from_permutation, phi, sigma)
from .functor import (_FAMILY_ALIASES, ExactMatrix, functor_matrix,
                      functor_matrix_layered, generator_matrices, group_spec,
                      trace_check)
from .invariants import (commutant_dimension, hom_rank, ideal_span_dimension,
                         kernel_basis, kernel_dimension,
                         tensor_ideal_span_dimension)
from .linear import (Morphism, block_act, from_diagram, identity_morphism,
                     integrality_check, lin_add, lin_ast, lin_compose,
                     lin_scale, lin_sub, lin_tensor, make_morphism,
                     zero_morphism)
from .report import check, check_bool
from .rewrite import verify_relation_soundness
from .rings import QQ, QQ_DELTA, Poly
from .words import evaluate_word, synthesize_word

SUITE_NAMES = ("relations", "presentation", "sigma", "pau", "phi", "ep",
               "kernel", "charp", "all")

_DESK_GROUPS = (("o", 2), ("o", 3), ("sp", 2), ("sp", 4))
_SMALL_GROUPS = (("o", 2), ("o", 3), ("sp", 2))
_EP_OPTIONAL_GROUPS = (("o", 4), ("o", 5))

# The fixed sizes of the suites.
WORD_MAX_NODES = 8
PRESENTATION_MAX_R = 5
SIGMA_MAX_R = 6
SIGMA_CAP_MAX_K = 2
AFU_MAX_M = 4
PAU_PAIRS = 200
PAU_SEED = 20260818


def _check_all(case, items, holds):
    """A check that holds(x) for every item, naming the first that fails."""
    bad = next((x for x in items if not holds(x)), None)
    return check_bool(case, bad is None, "" if bad is None else repr(bad))


def suite_relations():
    """Generator-relation soundness: both sides of every rewrite rule
    evaluate to the same scaled diagram at several paddings."""
    return verify_relation_soundness()


def suite_word_roundtrip():
    """Synthesize a layered word for every diagram with k + l <=
    WORD_MAX_NODES and evaluate it back; the result must be loop-free and
    equal."""
    checks = []
    for total in range(0, WORD_MAX_NODES + 1, 2):
        for k in range(total + 1):
            ds = enumerate_diagrams(k, total - k)
            checks.append(_check_all(
                "word round-trip (%d, %d): %d diagrams" % (k, total - k, len(ds)),
                ds, lambda d: evaluate_word(synthesize_word(d)) == (0, d)))
    return checks


def brauer_presentation_report(r):
    """Exact checks of the full generator presentation in degree r over
    symbolic delta, plus the derived relation e_i s_{i+1} e_i = e_i and the
    180-degree anti-involution."""
    s = {i: from_diagram(s_i(r, i)) for i in range(1, r)}
    e = {i: from_diagram(e_i(r, i)) for i in range(1, r)}
    one = identity_morphism(r)
    delta = Poly.variable()
    checks = []

    def comp(*xs):
        acc = xs[0]
        for x in xs[1:]:
            acc = lin_compose(acc, x)
        return acc

    for i in range(1, r):
        si, ei = s[i], e[i]
        checks.append(check_bool("s%d^2 = 1, r=%d" % (i, r), comp(si, si) == one))
        checks.append(check_bool("s%d e%d = e%d, r=%d" % (i, i, i, r), comp(si, ei) == ei))
        checks.append(check_bool("e%d s%d = e%d, r=%d" % (i, i, i, r), comp(ei, si) == ei))
        checks.append(
            check_bool(
                "e%d^2 = delta e%d, r=%d" % (i, i, r),
                comp(ei, ei) == lin_scale(delta, ei),
            )
        )
        checks.append(
            check_bool(
                "ast(s%d) = s%d, r=%d" % (i, r - i, r), lin_ast(si) == s[r - i]
            )
        )
        checks.append(
            check_bool(
                "ast(e%d) = e%d, r=%d" % (i, r - i, r), lin_ast(ei) == e[r - i]
            )
        )
    for i in range(1, r - 1):
        si, si1 = s[i], s[i + 1]
        ei, ei1 = e[i], e[i + 1]
        checks.append(
            check_bool(
                "braid s%d s%d s%d, r=%d" % (i, i + 1, i, r),
                comp(si, si1, si) == comp(si1, si, si1),
            )
        )
        checks.append(
            check_bool(
                "e%d e%d e%d = e%d, r=%d" % (i, i + 1, i, i, r),
                comp(ei, ei1, ei) == ei,
            )
        )
        checks.append(
            check_bool(
                "e%d e%d e%d = e%d, r=%d" % (i + 1, i, i + 1, i + 1, r),
                comp(ei1, ei, ei1) == ei1,
            )
        )
        checks.append(
            check_bool(
                "s%d e%d e%d = s%d e%d, r=%d" % (i, i + 1, i, i + 1, i, r),
                comp(si, ei1, ei) == comp(si1, ei),
            )
        )
        checks.append(
            check_bool(
                "e%d s%d e%d = e%d, r=%d" % (i, i + 1, i, i, r),
                comp(ei, si1, ei) == ei,
            )
        )
    for i in range(1, r):
        for j in range(i + 2, r):
            si, sj = s[i], s[j]
            ei, ej = e[i], e[j]
            checks.append(
                check_bool(
                    "s%d s%d commute, r=%d" % (i, j, r), comp(si, sj) == comp(sj, si)
                )
            )
            checks.append(
                check_bool(
                    "s%d e%d commute, r=%d" % (i, j, r), comp(si, ej) == comp(ej, si)
                )
            )
            checks.append(
                check_bool(
                    "e%d s%d commute, r=%d" % (i, j, r), comp(ei, sj) == comp(sj, ei)
                )
            )
            checks.append(
                check_bool(
                    "e%d e%d commute, r=%d" % (i, j, r), comp(ei, ej) == comp(ej, ei)
                )
            )
    return checks


def suite_presentation():
    """Defining relations of the diagram algebra over symbolic delta."""
    checks = []
    for r in range(2, PRESENTATION_MAX_R + 1):
        checks.extend(brauer_presentation_report(r))
    return checks


def _id_cap_id(left, right, ring, delta):
    d = tensor(tensor(identity(left), cap()), identity(right))
    return from_diagram(d, ring=ring, delta=delta)


def _id_cups_id(left, count, right, ring, delta):
    d = tensor(tensor(identity(left), u_nest(count)), identity(right))
    return from_diagram(d, ring=ring, delta=delta)


def _adjacent_cups(count):
    d = identity(0)
    for _ in range(count):
        d = tensor(d, cup())
    return d


def verify_sigma_identities(r):
    """Exact checks of the recursion, right-closure, and lowering identities
    for Sigma_eps(r), both signs, over symbolic delta.

    Each identity compares the enumerated :func:`sigma` with products in
    which Sigma is applied by its orbit action (:func:`block_act`)."""
    if r < 1:
        raise ElementError("need r >= 1")
    checks = []
    for eps in (1, -1):
        tag = "eps=%+d, r=%d" % (eps, r)
        sig_r = sigma(eps, r)
        sig_r1 = sigma(eps, r - 1)
        wide = (r - 1,)
        if r >= 2:
            mid = from_diagram(tensor(identity(r - 2), crossing()))
            rhs = lin_sub(
                block_act(identity_morphism(r), eps, top=wide),
                lin_scale(
                    Fraction(eps, factorial(r - 2)),
                    block_act(mid, eps, top=wide, bottom=wide),
                ),
            )
            checks.append(check_bool("sigma recursion, %s" % tag, sig_r == rhs))
        cap_last = from_diagram(tensor(identity(r - 1), cap()))
        cup_last = from_diagram(tensor(identity(r - 1), cup()))
        closed = lin_compose(cap_last, block_act(cup_last, eps, top=(r,)))
        coeff = Poly((Fraction(-eps * (r - 1)), Fraction(1)))
        checks.append(
            check_bool(
                "sigma right closure, %s" % tag,
                closed == lin_scale(coeff, sig_r1),
            )
        )
        lowered = Morphism(
            r + 1,
            r - 1,
            QQ_DELTA,
            None,
            {lower_diagram(d): c for d, c in sig_r.terms.items()},
        )
        acc = zero_morphism(r + 1, r - 1)
        for i in range(r):
            rest = [b for b in range(r + 1) if b not in (r - i - 1, r)]
            pairs = [(r - i - 1, r)] + [
                (b, (r + 1) + t) for t, b in enumerate(rest)
            ]
            base = make_diagram(r + 1, r - 1, pairs)
            acc = lin_add(
                acc,
                lin_scale((-eps) ** i,
                          block_act(from_diagram(base), eps, top=wide)),
            )
        checks.append(check_bool("sigma lowering, %s" % tag, lowered == acc))
    return checks


def verify_sigma_cap(r, k):
    """Exact check of the cap identity for the degree-r symmetrizer with k
    adjacent cups under its last 2k legs, over symbolic delta.

    Every symmetrizer acts by its orbit action (:func:`block_act`); the
    two sides apply it to different diagrams on different strands."""
    if r < 2 or k < 0 or r - 2 * k < 0:
        raise ElementError("need r >= 2 and 0 <= 2k <= r")
    cap_top = from_diagram(tensor(identity(r - 2), cap()))
    cups_bottom = from_diagram(tensor(identity(r - 2 * k), _adjacent_cups(k)))
    lhs = lin_compose(cap_top, block_act(cups_bottom, -1, top=(r,)))
    rhs = zero_morphism(r - 2 * k, r - 2)
    if k >= 1:
        cups1 = from_diagram(tensor(identity(r - 2 * k), _adjacent_cups(k - 1)))
        coeff = Poly((Fraction(4 * k * (r - k - 1)), Fraction(2 * k)))
        sym_cups1 = block_act(cups1, -1, top=(r - 2,))
        rhs = lin_add(rhs, lin_scale(coeff, sym_cups1))
    if r - 2 - 2 * k >= 0:
        cap_inner = from_diagram(tensor(identity(r - 2 - 2 * k), cap()))
        cups_inner = from_diagram(
            tensor(identity(r - 2 - 2 * k), _adjacent_cups(k))
        )
        tail = block_act(lin_compose(cups_inner, cap_inner), -1,
                         top=(r - 2,), bottom=(r - 2 * k,))
        rhs = lin_add(rhs, lin_scale(Fraction(1, factorial(r - 2 - 2 * k)), tail))
    checks = [check_bool("sigma cap identity, r=%d k=%d" % (r, k), lhs == rhs)]
    if k == 1 and r >= 4:
        shorthand = lin_scale(
            Fraction(1, factorial(r - 4)),
            block_act(from_diagram(e_i(r - 2, r - 3)), -1,
                      top=(r - 2,), bottom=(r - 2,)),
        )
        coeff = Poly((Fraction(4 * (r - 2)), Fraction(2)))
        checks.append(
            check_bool(
                "sigma cap k=1 shorthand, r=%d" % r,
                lhs == lin_add(lin_scale(coeff, sym_cups1), shorthand),
            )
        )
    return checks


def verify_afu(m, i, k):
    """Exact check of the cap-through-bent-antisymmetrizer identity in
    degree m+1 at delta = m (1 <= i <= m, 0 <= k <= min(i, m+1-i)).

    Every product of Young antisymmetrizer blocks is applied by its orbit
    action (:func:`block_act`)."""
    if not 1 <= i <= m:
        raise ElementError("need 1 <= i <= m")
    if not 0 <= k <= min(i, m + 1 - i):
        raise ElementError("need 0 <= k <= min(i, m+1-i)")
    ring, delta = QQ, Fraction(m)
    cap_left = _id_cap_id(i - 1, m - i, ring, delta)
    cups = _id_cups_id(i - k, k, m + 1 - i - k, ring, delta)
    lhs = lin_compose(cap_left, block_act(cups, 1, top=(i, m + 1 - i)))
    blocks = (i - 1, m - i)
    rhs = zero_morphism(m + 1 - 2 * k, m - 1, ring=ring, delta=delta)
    if k >= 1:
        cups1 = _id_cups_id(i - k, k - 1, m + 1 - i - k, ring, delta)
        rhs = lin_add(rhs, lin_scale(k * k, block_act(cups1, 1, top=blocks)))
    if i - k - 1 >= 0 and m - i - k >= 0:
        zeta = Fraction(1, factorial(i - k - 1) * factorial(m - i - k))
        cap_inner = _id_cap_id(i - k - 1, m - i - k, ring, delta)
        cups_inner = _id_cups_id(i - k - 1, k, m - i - k, ring, delta)
        tail = block_act(lin_compose(cups_inner, cap_inner), 1, top=blocks,
                         bottom=(i - k, m + 1 - i - k))
        rhs = lin_add(rhs, lin_scale(zeta, tail))
    return [check_bool("bent-cap identity, m=%d i=%d k=%d" % (m, i, k), lhs == rhs)]


def suite_sigma():
    """Antisymmetrizer identities: recursion/closure/lowering for both
    signs, the cap identity with symbolic delta, and the bent-cap identity
    at the symplectic loop value."""
    checks = []
    for r in range(1, SIGMA_MAX_R + 1):
        checks.extend(verify_sigma_identities(r))
    for r in range(2, SIGMA_MAX_R + 1):
        for k in range(0, SIGMA_CAP_MAX_K + 1):
            if 2 * k <= r:
                checks.extend(verify_sigma_cap(r, k))
    for m in range(1, AFU_MAX_M + 1):
        for i in range(1, m + 1):
            for k in range(0, min(i, m + 1 - i) + 1):
                checks.extend(verify_afu(m, i, k))
    return checks


def _random_morphism(rng, k, l, ring, delta):
    terms = {}
    pool = enumerate_diagrams(k, l)
    for d in rng.sample(pool, min(3, len(pool))):
        c = rng.randint(-3, 3)
        if c:
            terms[d] = ring.from_int(c)
    return make_morphism(k, l, terms, ring=ring, delta=delta)


def verify_pau(spec):
    """Check the defining matrix relations of the generating pictures:
    crossing square and braiding, crossing symmetry of the coevaluation
    vector and of the pairing, pairing of the coevaluation, the two zigzag
    straightenings, and the two crossing/arc slide rules."""
    ring = spec.ring
    m = spec.m
    gens = generator_matrices(spec)
    ident, x_mat, a_mat, u_mat = gens["I"], gens["X"], gens["A"], gens["U"]
    id1 = ExactMatrix.identity(m, ring)
    id2 = id1.tensor(id1)
    eps_elt = ring.from_int(spec.eps)
    checks = []

    checks.append(check_bool("%s: crossing squares to the identity" % spec.label(),
                             x_mat.mul(x_mat) == id2))
    lhs = x_mat.tensor(id1).mul(id1.tensor(x_mat)).mul(x_mat.tensor(id1))
    rhs = id1.tensor(x_mat).mul(x_mat.tensor(id1)).mul(id1.tensor(x_mat))
    checks.append(check_bool("%s: crossings braid" % spec.label(), lhs == rhs))

    # The crossing matrix is the plain swap scaled by the form sign, so the
    # sign cancels against the swap's action on the (anti)symmetric
    # coevaluation: the crossing fixes it exactly.
    p_mat = x_mat.scale(eps_elt)
    checks.append(check_bool("%s: swap scales the coevaluation by the form sign"
                             % spec.label(),
                             p_mat.mul(u_mat) == u_mat.scale(eps_elt)))
    checks.append(check_bool("%s: swap scales the pairing by the form sign"
                             % spec.label(),
                             a_mat.mul(p_mat) == a_mat.scale(eps_elt)))
    checks.append(check_bool("%s: crossing fixes the coevaluation" % spec.label(),
                             x_mat.mul(u_mat) == u_mat))
    checks.append(check_bool("%s: pairing absorbs the crossing" % spec.label(),
                             a_mat.mul(x_mat) == a_mat))

    pair_val = a_mat.mul(u_mat)
    expected = ExactMatrix(1, 1, ring, {(0, 0): ring.from_int(spec.eps * m)})
    checks.append(check_bool("%s: pairing of the coevaluation is eps*m" % spec.label(),
                             pair_val == expected))
    zig1 = a_mat.tensor(id1).mul(id1.tensor(u_mat))
    zig2 = id1.tensor(a_mat).mul(u_mat.tensor(id1))
    checks.append(check_bool("%s: left zigzag straightens" % spec.label(), zig1 == id1))
    checks.append(check_bool("%s: right zigzag straightens" % spec.label(), zig2 == id1))

    slide1l = a_mat.tensor(id1).mul(id1.tensor(x_mat))
    slide1r = id1.tensor(a_mat).mul(x_mat.tensor(id1))
    checks.append(check_bool("%s: pairing slides across the crossing" % spec.label(),
                             slide1l == slide1r))
    slide2l = x_mat.tensor(id1).mul(id1.tensor(u_mat))
    slide2r = id1.tensor(x_mat).mul(u_mat.tensor(id1))
    checks.append(check_bool("%s: coevaluation slides across the crossing"
                             % spec.label(), slide2l == slide2r))
    return checks


def suite_pau(groups):
    """Matrix relations of the generating pictures on every group, and on
    the groups of _SMALL_GROUPS among them agreement of the two functor
    evaluators, multiplicativity on random morphism pairs, and the
    closure-trace rule."""
    checks = []
    for fam, dim in groups:
        checks.extend(verify_pau(group_spec(fam, dim)))

    specs = [group_spec(*g) for g in groups if g in _SMALL_GROUPS]
    upto6 = [d for total in range(0, 7, 2) for k in range(total + 1)
             for d in enumerate_diagrams(k, total - k)]
    for spec in specs:
        checks.append(_check_all(
            "%s: direct and layered evaluation agree on %d diagrams"
            % (spec.label(), len(upto6)), upto6,
            lambda d: functor_matrix(d, spec) == functor_matrix_layered(d, spec)))

    if specs:
        rng = random.Random(PAU_SEED)
        ok_compose = ok_tensor = True
        for t in range(PAU_PAIRS):
            spec = specs[t % len(specs)]
            ring, delta = spec.ring, spec.delta_value()
            k, s, l = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
            if (k + s) % 2 == 0 and (s + l) % 2 == 0:
                x = _random_morphism(rng, s, l, ring, delta)
                y = _random_morphism(rng, k, s, ring, delta)
                lhs = functor_matrix(lin_compose(x, y), spec)
                rhs = functor_matrix(x, spec).mul(functor_matrix(y, spec))
                if lhs != rhs:
                    ok_compose = False
            k1, l1 = rng.randint(0, 2), rng.randint(0, 2)
            k2, l2 = rng.randint(0, 2), rng.randint(0, 2)
            if (k1 + l1) % 2 == 0 and (k2 + l2) % 2 == 0:
                x = _random_morphism(rng, k1, l1, spec.ring, spec.delta_value())
                y = _random_morphism(rng, k2, l2, spec.ring, spec.delta_value())
                lhs = functor_matrix(lin_tensor(x, y), spec)
                rhs = functor_matrix(x, spec).tensor(functor_matrix(y, spec))
                if lhs != rhs:
                    ok_tensor = False
        checks.append(check_bool(
            "functor respects composition on %d random pairs" % PAU_PAIRS,
            ok_compose))
        checks.append(check_bool(
            "functor respects juxtaposition on %d random pairs" % PAU_PAIRS,
            ok_tensor))

    squares = [d for r in range(1, 5) for d in enumerate_diagrams(r, r)]
    for spec in specs:
        checks.append(_check_all(
            "%s: closure-trace rule on %d square diagrams"
            % (spec.label(), len(squares)), squares,
            lambda d: trace_check(d, spec)))
    return checks


def suite_phi():
    """Symplectic quasi-idempotent: integrality, scaled idempotency,
    annihilation by every cap generator, flip and permutation invariance,
    functor vanishing, and the alternating binomial consequence."""
    checks = []
    for n in (1, 2, 3):
        ph = phi(n)
        tag = "phi(%d)" % n
        checks.append(check_bool("%s has integer coefficients" % tag,
                                 integrality_check(ph)))
        lhs = lin_compose(ph, ph)
        rhs = lin_scale(Fraction(factorial(n + 1)), ph)
        checks.append(check_bool("%s squares to (n+1)! times itself" % tag,
                                 lhs == rhs))
        ring, delta = ph.ring, ph.delta
        caps = [from_diagram(e_i(n + 1, i), ring=ring, delta=delta)
                for i in range(1, n + 1)]
        ok = all(lin_compose(e, ph).is_zero() and lin_compose(ph, e).is_zero()
                 for e in caps)
        checks.append(check_bool("%s is annihilated by every cap generator" % tag, ok))
        checks.append(check_bool("%s is fixed by the rotation flip" % tag,
                                 lin_ast(ph) == ph))
        perms = (from_permutation(pi, ring=ring, delta=delta)
                 for pi in permutations(range(n + 1)))
        ok = all(lin_compose(pm, ph) == ph == lin_compose(ph, pm) for pm in perms)
        checks.append(check_bool(
            "%s absorbs all %d permutations" % (tag, factorial(n + 1)), ok))
    for n in (1, 2):
        spec = group_spec("sp", 2 * n)
        checks.append(check_bool(
            "functor kills phi(%d) under %s" % (n, spec.label()),
            functor_matrix(phi(n), spec).is_zero()))
    ok = all(sum((-1) ** k * comb(n, k) * comb(2 * n - 2 * k, n - 1)
                 for k in range(0, n + 1)) == 0 for n in range(1, 9))
    checks.append(check_bool(
        "alternating binomial sum vanishes for n = 1..8", ok))
    return checks


def suite_ep(groups):
    """Orthogonal kernel generators on the groups O(m): the rotation
    construction matches the closed formula, scaled absorption by the block
    antisymmetrizers, annihilation by cap generators, flip and
    crossing-conjugation symmetry, the p = 0 degenerate case, and functor
    vanishing (for m <= 3)."""
    checks = []
    sizes = [dim for _, dim in groups]
    for dim in sizes:
        rot = {p: e_p_rotation(dim, p) for p in range(0, dim + 2)}
        ring, delta = rot[0].ring, rot[0].delta
        ok = all(e_p_formula(dim, i) == rot[dim + 1 - i]
                 for i in range(0, dim + 2))
        checks.append(check_bool(
            "m=%d: rotation construction matches the closed formula" % dim, ok))

        ok = True
        for p in range(0, dim + 2):
            ep = rot[dim + 1 - p]
            blocks = (p, dim + 1 - p)
            scaled = lin_scale(factorial(p) * factorial(dim + 1 - p), ep)
            ok &= (block_act(ep, 1, top=blocks) == scaled
                   == block_act(ep, 1, bottom=blocks))
        checks.append(check_bool(
            "m=%d: block antisymmetrizers absorb with factor p!(m+1-p)!" % dim, ok))

        caps = [from_diagram(e_i(dim + 1, i), ring=ring, delta=delta)
                for i in range(1, dim + 1)]
        ok = all(lin_compose(e, ep).is_zero() and lin_compose(ep, e).is_zero()
                 for ep in rot.values() for e in caps)
        checks.append(check_bool(
            "m=%d: cap generators annihilate every bent antisymmetrizer" % dim, ok))

        ok = all(lin_ast(rot[dim + 1 - p]) == rot[p] for p in range(0, dim + 2))
        checks.append(check_bool(
            "m=%d: rotation flip swaps the index to m+1-p" % dim, ok))

        ok = True
        for i in range(0, dim + 2):
            j = dim + 1 - i
            left = from_diagram(x_block(i, j), ring=ring, delta=delta)
            right = from_diagram(x_block(j, i), ring=ring, delta=delta)
            ok &= lin_compose(lin_compose(left, rot[j]), right) == rot[i]
        checks.append(check_bool(
            "m=%d: crossing conjugation swaps the index" % dim, ok))

        checks.append(check_bool(
            "m=%d: the unbent case is the signed symmetry sum" % dim,
            rot[dim + 1] == sigma(1, dim + 1, ring=ring, delta=delta)))

    for dim in [d for d in sizes if d in (2, 3)]:
        spec = group_spec("o", dim)
        ok = all(functor_matrix(e_p_rotation(dim, p), spec).is_zero()
                 for p in range(0, dim + 2))
        checks.append(check_bool(
            "functor kills every bent antisymmetrizer under O(%d)" % dim, ok))
    return checks


def suite_kernel(groups):
    """Kernel theorems and fullness: kernel dimensions agree with the
    two-sided ideal spans of the quasi-idempotents, ranks hit the full
    diagram count in the injective range, tensor-ideal slices match
    kernels, and ranks equal commutant dimensions."""
    checks = []
    if ("sp", 2) in groups:
        sp2 = group_spec("sp", 2)
        ph1 = phi(1)
        for r in (2, 3, 4):
            kd = kernel_dimension(r, r, sp2)
            idim = ideal_span_dimension(r, ph1, sp2)
            checks.append(check("Sp(2) r=%d: kernel vs quasi-idempotent ideal" % r,
                                kd, idim))
        checks.append(check("Sp(2): kernel dimension at (2, 2)",
                            1, kernel_dimension(2, 2, sp2)))
        checks.append(check("Sp(2): rank at (1, 1) is 1!! (injective range)",
                            diagram_count(1, 1), hom_rank(1, 1, sp2)))
        # Independent of kernel_dimension (15 - rank by definition): the
        # nullspace basis has 15 - rank vectors and the functor kills each.
        basis = kernel_basis(3, 3, sp2)
        alive = sum(1 for x in basis if not functor_matrix(x, sp2).is_zero())
        checks.append(check(
            "Sp(2): kernel basis at (3, 3) has 15 - rank vectors, all killed",
            (15 - hom_rank(3, 3, sp2), 0), (len(basis), alive)))

    if ("sp", 4) in groups:
        sp4 = group_spec("sp", 4)
        for r in (1, 2):
            checks.append(check(
                "Sp(4) r=%d: rank is (2r-1)!! (injective range)" % r,
                diagram_count(r, r), hom_rank(r, r, sp4)))
        # At r = n + 1 = 3 the functor first fails to be injective: the
        # kernel is one-dimensional, spanned by the quasi-idempotent ideal.
        kd = kernel_dimension(3, 3, sp4)
        checks.append(check("Sp(4): kernel dimension at (3, 3)", 1, kd))
        checks.append(check("Sp(4) r=3: kernel vs quasi-idempotent ideal",
                            kd, ideal_span_dimension(3, phi(2), sp4)))

    if ("o", 2) in groups:
        o2 = group_spec("o", 2)
        e1 = e_p_rotation(2, 1)
        for r in (3, 4):
            kd = kernel_dimension(r, r, o2)
            idim = ideal_span_dimension(r, e1, o2)
            checks.append(check("O(2) r=%d: kernel vs bent-antisymmetrizer ideal" % r,
                                kd, idim))
        checks.append(check("O(2): kernel dimension at (2, 2) (injective range)",
                            0, kernel_dimension(2, 2, o2)))

    if ("o", 3) in groups:
        o3 = group_spec("o", 3)
        checks.append(check("O(3): kernel dimension at (3, 3) (injective range)",
                            0, kernel_dimension(3, 3, o3)))
        e2 = e_p_rotation(3, 2)
        kd = kernel_dimension(4, 4, o3)
        checks.append(check("O(3) r=4: kernel vs bent-antisymmetrizer ideal",
                            kd, ideal_span_dimension(4, e2, o3)))

    for fam, dim in [g for g in (("sp", 2), ("o", 2)) if g in groups]:
        spec = group_spec(fam, dim)
        for (kk, ll) in ((4, 0), (3, 1), (2, 2)):
            tid = tensor_ideal_span_dimension(kk, ll, spec)
            kd = kernel_dimension(kk, ll, spec)
            checks.append(check(
                "%s slice (%d, %d): tensor ideal vs kernel" % (spec.label(), kk, ll),
                kd, tid))
            if kk + ll <= 2 * (dim if fam == "o" else dim // 2):
                checks.append(check(
                    "%s slice (%d, %d): empty in the injective range"
                    % (spec.label(), kk, ll), 0, tid))

    for fam, dim in [g for g in groups if g in _SMALL_GROUPS]:
        spec = group_spec(fam, dim)
        for r in (1, 2, 3):
            checks.append(check(
                "%s r=%d: rank equals commutant dimension (fullness)"
                % (spec.label(), r),
                commutant_dimension(r, spec), hom_rank(r, r, spec)))
    return checks


def suite_charp():
    """Positive characteristic reruns: the quasi-idempotents still vanish
    under the functor and every kernel, ideal, and slice dimension matches
    its characteristic-zero value."""
    checks = []

    sp2 = group_spec("sp", 2)
    sp2p = group_spec("sp", 2, modulus=5)
    ph1 = phi(1)
    checks.append(check_bool("Sp(2)/F_5: functor kills the quasi-idempotent",
                             functor_matrix(ph1, sp2p).is_zero()))
    for r in (2, 3, 4):
        kd0 = kernel_dimension(r, r, sp2)
        kdp = kernel_dimension(r, r, sp2p)
        checks.append(check("Sp(2)/F_5 r=%d: kernel matches characteristic 0" % r,
                            kd0, kdp))
        checks.append(check("Sp(2)/F_5 r=%d: kernel vs quasi-idempotent ideal" % r,
                            kdp, ideal_span_dimension(r, ph1, sp2p)))
    for (kk, ll) in ((4, 0), (3, 1), (2, 2)):
        tid = tensor_ideal_span_dimension(kk, ll, sp2p)
        checks.append(check(
            "Sp(2)/F_5 slice (%d, %d): matches characteristic 0" % (kk, ll),
            tensor_ideal_span_dimension(kk, ll, sp2), tid))

    o3 = group_spec("o", 3)
    o3p = group_spec("o", 3, modulus=7)
    checks.append(check_bool(
        "O(3)/F_7: functor kills every bent antisymmetrizer",
        all(functor_matrix(e_p_rotation(3, p), o3p).is_zero()
            for p in range(5))))
    checks.append(check("O(3)/F_7: kernel at (3, 3) matches characteristic 0",
                        kernel_dimension(3, 3, o3),
                        kernel_dimension(3, 3, o3p)))
    kd0 = kernel_dimension(4, 4, o3)
    kdp = kernel_dimension(4, 4, o3p)
    checks.append(check("O(3)/F_7: kernel at (4, 4) matches characteristic 0",
                        kd0, kdp))
    checks.append(check("O(3)/F_7 r=4: kernel vs bent-antisymmetrizer ideal",
                        kdp, ideal_span_dimension(4, e_p_rotation(3, 2), o3p)))
    return checks


_SUITE_FUNCS = {
    "relations": (suite_relations,),
    "presentation": (suite_word_roundtrip, suite_presentation),
    "sigma": (suite_sigma,),
    "phi": (suite_phi,),
    "charp": (suite_charp,),
}

# The group suites, each with the groups it runs unfiltered.
_GROUP_SUITES = {
    "pau": (suite_pau, _DESK_GROUPS),
    "ep": (suite_ep, (("o", 2), ("o", 3))),
    "kernel": (suite_kernel, _DESK_GROUPS),
}


def _select(name, groups, family, m):
    """The groups matching the family and dimension filter, in suite
    order; ValueError if there are none."""
    if m is not None:
        _check_sizes(ValueError, "suite option", m=m)
    if family is not None:
        key = _FAMILY_ALIASES.get(str(family).lower())
        if key is None:
            raise ValueError("unknown family %r (use 'o' or 'sp')" % (family,))
    chosen = tuple(g for g in groups
                   if (family is None or _FAMILY_ALIASES[g[0]] == key)
                   and (m is None or g[1] == m))
    if not chosen:
        wanted = " ".join("--%s %s" % kv for kv in (("family", family), ("m", m))
                          if kv[1] is not None)
        raise ValueError("%s selects none of the groups of suite %s: %s" % (
            wanted, name, ", ".join(group_spec(*g).label() for g in groups)))
    return chosen


def run_suite(name, family=None, m=None, include_optional=False):
    """Run one named suite (or 'all') and return its checks.

    family ('o' or 'sp') and m filter the groups of the group suites pau,
    ep and kernel; include_optional adds O(4) and O(5) to ep, alone or in
    'all'.  A flag the suite does not take, or a filter that selects none of
    its groups, raises ValueError.
    """
    if name not in SUITE_NAMES:
        raise ValueError("unknown suite %r; choose from %s"
                         % (name, ", ".join(SUITE_NAMES)))
    if include_optional and name not in ("ep", "all"):
        raise ValueError("suite %s takes no --include-optional; only ep and "
                         "all do" % name)
    if name in _GROUP_SUITES:
        func, groups = _GROUP_SUITES[name]
        if include_optional:
            groups += _EP_OPTIONAL_GROUPS
        return func(_select(name, groups, family, m))
    if family is not None or m is not None:
        raise ValueError("suite %s takes no --family, --m or --n; only pau, "
                         "ep and kernel do" % name)
    if name == "all":
        checks = []
        for key in SUITE_NAMES[:-1]:
            # Looked up through the module global, so a traced run_suite
            # sees one call per suite.
            checks.extend(run_suite(key, include_optional=include_optional
                                    and key == "ep"))
        return checks
    return [c for func in _SUITE_FUNCS[name] for c in func()]
