"""The benchmark's three workloads and their expected answers.

Each workload is a list of queries made through the public library (or, for
``verify``, the CLI).  Every expected answer below comes from a closed form
that does not depend on the code under test:

* |B(k, l)| = (k + l - 1)!!, so |B_4| = 105, |B_3| = 15, |B_2| = 3.
* Second fundamental theorem (Lehrer-Zhang, Annals 2012): the kernel of the
  functor on B(k, l) is the ideal generated by Phi_n (Sp) or E_p (O), and
  kernel = |B(k, l)| - rank, so ranks fix the ideal and kernel answers.
* rank for Sp(2) = SL(2) on 2r points is the Catalan number C_r
  (C_2 = 2, C_4 = 14, C_5 = 42).
* rank for O(2) on 2r points is binomial(2r, r) / 2 (35 at r = 4).
* rank for O(3) on 2r points is the Riordan number R_2r (R_6 = 15,
  R_8 = 91); bending makes it depend on k + l only.
* rank for Sp(4) on 8 points is the number of 3-noncrossing perfect
  matchings of 8 points, 84 (OEIS A005700).
* In the injective range m >= r for O(m), m >= 2r for Sp(m), the rank is
  |B| itself: 105 for O(4) at r = 4, 3 for Sp(6) at r = 2.
* commutant dimension = rank of the diagram span on (r, r) (first
  fundamental theorem).
* Positive characteristic p >= m + 2 gives the same numbers (the ``charp``
  suite's claim); the F_p queries repeat characteristic-0 cases.
* ``verify --suite all`` runs 447 checks at this version and all pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from typing import Callable, NamedTuple, Optional

import brauer.cli as cli
import brauer.elements as elements
import brauer.functor as functor
import brauer.invariants as invariants
import brauer.linear as linear

# Functions are looked up on their modules at call time (``invariants.
# hom_rank(...)``), never bound at import, so traced runs see the wrappers.

VERIFY_ARGV = ["verify", "--suite", "all"]
VERIFY_CHECKS = 447
# suite_pau's default seed; the CLI exposes no flag for it.
VERIFY_INTERNAL_SEED = 20260818

SLICES = ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))


class Query(NamedTuple):
    label: str
    call: Callable[[], object]
    expected: int
    # Answer from the raw result (kernel_basis returns a list of morphisms).
    answer: Callable[[object], int] = lambda raw: raw
    # Out-of-band check on the raw result, run after the timed region.
    post: Optional[Callable[[object], bool]] = None


class Outcome(NamedTuple):
    attempted: int
    failed: int
    errors: list


def _killed_by(spec):
    def check(vectors):
        return all(functor.functor_matrix(v, spec).is_zero() for v in vectors)
    return check


def ideals_queries(seed):
    gs = functor.group_spec
    sp2, sp2_f5 = gs("sp", 2), gs("sp", 2, modulus=5)
    o2, o3, o3_f7 = gs("o", 2), gs("o", 3), gs("o", 3, modulus=7)
    queries = [
        Query("ideal r=4 Sp(2) <Phi_1>",
              lambda: invariants.ideal_span_dimension(4, elements.phi(1), sp2),
              105 - 14),
        Query("ideal r=4 Sp(2)/F_5 <Phi_1>",
              lambda: invariants.ideal_span_dimension(
                  4, linear.reduce_mod_p(elements.phi(1), 5), sp2_f5),
              105 - 14),
        Query("ideal r=4 O(2) <E_p rotation(2,1)>",
              lambda: invariants.ideal_span_dimension(
                  4, elements.e_p_rotation(2, 1), o2),
              105 - 35),
        Query("ideal r=4 O(3) <E_p rotation(3,2)>",
              lambda: invariants.ideal_span_dimension(
                  4, elements.e_p_rotation(3, 2), o3),
              105 - 91),
        Query("ideal r=4 O(3)/F_7 <E_p rotation(3,2)>",
              lambda: invariants.ideal_span_dimension(
                  4, linear.reduce_mod_p(elements.e_p_rotation(3, 2), 7), o3_f7),
              105 - 91),
    ]
    # Slices with k + l = 4 have |B| = 3; Sp(2) has rank C_2 = 2, O(2) rank 3.
    for name, spec, expected in (("Sp(2)", sp2, 3 - 2), ("O(2)", o2, 3 - 3),
                                 ("Sp(2)/F_5", sp2_f5, 3 - 2)):
        for k, l in SLICES:
            queries.append(Query(
                "tensor ideal (%d,%d) %s" % (k, l, name),
                lambda k=k, l=l, spec=spec:
                    invariants.tensor_ideal_span_dimension(k, l, spec),
                expected))
    random.Random(seed).shuffle(queries)
    return queries


def ranks_queries(seed):
    gs = functor.group_spec
    sp2, o3, o3_f7 = gs("sp", 2), gs("o", 3), gs("o", 3, modulus=7)
    sp4, sp4_f101, o4, sp6 = (gs("sp", 4), gs("sp", 4, modulus=101),
                              gs("o", 4), gs("sp", 6))
    queries = [
        Query("hom_rank (4,4) Sp(4)",
              lambda: invariants.hom_rank(4, 4, sp4), 84),
        Query("hom_rank (4,4) Sp(4)/F_101",
              lambda: invariants.hom_rank(4, 4, sp4_f101), 84),
        Query("hom_rank (4,4) O(4)",
              lambda: invariants.hom_rank(4, 4, o4), 105),
        Query("hom_rank (5,5) Sp(2)",
              lambda: invariants.hom_rank(5, 5, sp2), 42),
        Query("hom_rank (3,5) O(3)",
              lambda: invariants.hom_rank(3, 5, o3), 91),
        Query("hom_rank (3,3) O(3)",
              lambda: invariants.hom_rank(3, 3, o3), 15),
        Query("kernel_basis (4,4) O(3)",
              lambda: invariants.kernel_basis(4, 4, o3), 105 - 91,
              len, _killed_by(o3)),
        Query("kernel_basis (4,4) O(3)/F_7",
              lambda: invariants.kernel_basis(4, 4, o3_f7), 105 - 91,
              len, _killed_by(o3_f7)),
        Query("kernel_basis (4,4) Sp(4)",
              lambda: invariants.kernel_basis(4, 4, sp4), 105 - 84,
              len, _killed_by(sp4)),
        Query("commutant r=3 O(3)",
              lambda: invariants.commutant_dimension(3, o3), 15),
        Query("commutant r=2 Sp(6)",
              lambda: invariants.commutant_dimension(2, sp6), 3),
    ]
    random.Random(seed).shuffle(queries)
    return queries


class QueryWorkload:
    """A shuffled list of queries, run one after another (closed loop, one
    client); a query that raises counts as failed and the run continues."""

    def __init__(self, queries):
        self.queries = queries
        self._passed = []

    def run(self):
        failed, errors = 0, []
        for q in self.queries:
            try:
                raw = q.call()
                got = q.answer(raw)
            except Exception as exc:  # one failed query must not stop the run
                raw, got = None, "raised %s: %s" % (type(exc).__name__, exc)
            if got == q.expected:
                self._passed.append((q, raw))
            else:
                failed += 1
                errors.append("%s: expected %r, got %r" % (q.label, q.expected, got))
        return Outcome(len(self.queries), failed, errors)

    def post_check(self):
        """Out-of-band checks of the queries that answered right, run after
        the timed region; each error is one more failed query."""
        errors = []
        for q, raw in self._passed:
            if q.post is None:
                continue
            try:
                ok, detail = q.post(raw), ""
            except Exception as exc:
                ok, detail = False, " (raised %s: %s)" % (type(exc).__name__, exc)
            if not ok:
                errors.append("%s: post-check failed%s" % (q.label, detail))
        return errors


class VerifyWorkload:
    """``brauer verify --suite all`` through ``brauer.cli.run``."""

    def run(self):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.run(list(VERIFY_ARGV))
            payload = json.loads(out.getvalue())
            passed, total = payload["passed"], payload["total"]
        except Exception as exc:
            return Outcome(VERIFY_CHECKS, VERIFY_CHECKS,
                           ["verify raised %s: %s" % (type(exc).__name__, exc)])
        errors = []
        if code != 0:
            errors.append("verify exited %d" % code)
        if total != VERIFY_CHECKS:
            errors.append("verify ran %d checks, expected %d" % (total, VERIFY_CHECKS))
        for c in payload["checks"]:
            if not c["pass"]:
                errors.append("check failed: %s" % c["case"])
        # A wrong exit code or check count is one more wrong answer.
        failed = max(VERIFY_CHECKS - min(passed, VERIFY_CHECKS), min(len(errors), 1))
        return Outcome(VERIFY_CHECKS, failed, errors)

    def post_check(self):
        return []


def build(name, seed):
    if name == "verify":
        return VerifyWorkload()
    if name == "ideals":
        return QueryWorkload(ideals_queries(seed))
    if name == "ranks":
        return QueryWorkload(ranks_queries(seed))
    raise ValueError("unknown workload %r" % name)
