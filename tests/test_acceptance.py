"""Acceptance gate: the eleven exact desk-scale verification criteria.

Each test prints one PASS/FAIL line (visible with ``pytest -s``; the
``pytest -v`` status column carries the same verdict) and asserts exact
equality — zero tolerance throughout.
"""

from math import factorial

from brauer import (
    commutant_dimension,
    e_p_formula,
    enumerate_diagrams,
    functor_matrix,
    group_spec,
    hom_rank,
    ideal_span_dimension,
    kernel_basis,
    kernel_dimension,
    phi,
    tensor_ideal_span_dimension,
    trace_check,
)
from brauer.verify import (
    run_suite,
    suite_presentation,
    suite_word_roundtrip,
)

O2 = group_spec("o", 2)
O3 = group_spec("o", 3)
SP2 = group_spec("sp", 2)
SP4 = group_spec("sp", 4)


def _verdict(num, name, ok, detail):
    print("ACCEPTANCE %02d %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %02d (%s) failed: %s" % (num, name, detail)


def _run(num, name, checks):
    bad = [c.case for c in checks if not c.passed]
    _verdict(num, name, not bad,
             "%d checks" % len(checks) if not bad else "failed: %s" % bad[:5])


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def test_01_relation_soundness():
    _run(1, "relation-soundness", run_suite("relations"))


def test_02_word_round_trip():
    _run(2, "word-round-trip", suite_word_roundtrip())


def test_03_presentation():
    _run(3, "presentation", suite_presentation())


def test_04_symmetrizer_identities():
    _run(4, "symmetrizer-identities", run_suite("sigma"))


def test_05_quasi_idempotent_suite():
    _run(5, "quasi-idempotent-suite", run_suite("phi"))


def test_06_bent_antisymmetrizer_suite():
    _run(6, "bent-antisymmetrizer-suite", run_suite("ep"))


def test_07_kernel_theorems():
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append("%s: got %r, want %r" % (label, got, want))

    # symplectic plane: principal kernels at every desk degree
    for r in (2, 3, 4):
        kd = kernel_dimension(r, r, SP2)
        expect("Sp(2) kernel==ideal r=%d" % r,
               ideal_span_dimension(r, phi(1), SP2), kd)
    expect("Sp(2) first kernel", kernel_dimension(2, 2, SP2), 1)
    basis = kernel_basis(3, 3, SP2)
    expect("Sp(2) kernel basis complements rank at r=3",
           len(basis), 15 - hom_rank(3, 3, SP2))
    expect("Sp(2) functor kills the kernel basis at r=3",
           sum(1 for x in basis if not functor_matrix(x, SP2).is_zero()), 0)

    # injectivity below the first kernel: odd double factorials
    expect("Sp(2) rank r=1", hom_rank(1, 1, SP2), double_factorial(1))
    for r in (1, 2):
        expect("Sp(4) rank r=%d" % r, hom_rank(r, r, SP4), double_factorial(2 * r - 1))

    # rank-four symplectic: the first kernel appears at degree 3 and is the
    # span of the degree-3 quasi-idempotent (computed exact value 1; the
    # injectivity range ends at r = 2)
    expect("Sp(4) kernel r=3", kernel_dimension(3, 3, SP4), 1)
    expect("Sp(4) kernel==ideal r=3",
           ideal_span_dimension(3, phi(2), SP4), kernel_dimension(3, 3, SP4))

    # orthogonal families: bent antisymmetrizers generate the kernels
    for r in (3, 4):
        expect("O(2) kernel==ideal r=%d" % r,
               ideal_span_dimension(r, e_p_formula(2, 1), O2),
               kernel_dimension(r, r, O2))
    expect("O(2) kernel r=3", kernel_dimension(3, 3, O2), 5)
    expect("O(3) kernel==ideal r=4",
           ideal_span_dimension(4, e_p_formula(3, 2), O3),
           kernel_dimension(4, 4, O3))
    expect("O(3) kernel r=4", kernel_dimension(4, 4, O3), 14)

    # tensor-ideal slices of the vanishing symmetrizer match the kernels
    for k, l in ((4, 0), (3, 1), (2, 2)):
        for spec in (SP2, O2):
            expect("%s slice (%d,%d)" % (spec.label(), k, l),
                   tensor_ideal_span_dimension(k, l, spec),
                   kernel_dimension(k, l, spec))
        # the plane orthogonal group is injective through k+l <= 2m
        expect("O(2) slice (%d,%d) vanishes" % (k, l),
               tensor_ideal_span_dimension(k, l, O2), 0)

    _verdict(7, "kernel-theorems", not failures,
             "18 equalities" if not failures else "; ".join(failures))


def test_08_fullness():
    failures = []
    for spec in (O2, O3, SP2):
        for r in (1, 2, 3):
            rank = hom_rank(r, r, spec)
            comm = commutant_dimension(r, spec)
            if rank != comm:
                failures.append("%s r=%d: rank %d != commutant %d"
                                % (spec.label(), r, rank, comm))
    _verdict(8, "fullness", not failures,
             "9 equalities" if not failures else "; ".join(failures))


def test_09_closure_trace():
    failures = []
    count = 0
    for spec in (O2, O3, SP2):
        for r in (1, 2, 3, 4):
            for d in enumerate_diagrams(r, r):
                count += 1
                if not trace_check(d, spec):
                    failures.append("%s r=%d %r" % (spec.label(), r, d))
    _verdict(9, "closure-trace", not failures,
             "%d diagrams" % count if not failures else "; ".join(failures[:5]))


def test_10_positive_characteristic():
    _run(10, "positive-characteristic", run_suite("charp"))


def test_11_functor_consistency():
    _run(11, "functor-consistency", run_suite("pau"))
