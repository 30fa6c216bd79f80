"""Outside-in tracing of the library's layers.

The tracer wraps public functions of each ``brauer`` module from the outside
and records one span per call (name, start, end, parent span) in flat
arrays.  ``from .linear import lin_compose`` copies the binding, so every
wrapper is rebound in every ``brauer.*`` module that holds the original;
methods of ``EliminationBasis`` are patched on the class.  A span's self time
is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

import brauer.cli as cli
import brauer.diagram as diagram
import brauer.elements as elements
import brauer.functor as functor
import brauer.invariants as invariants
import brauer.linalg as linalg
import brauer.linear as linear
import brauer.rewrite as rewrite
import brauer.verify as verify
import brauer.words as words

ELEMENT_CONSTRUCTORS = ("sigma", "phi", "e_p_rotation", "e_p_formula", "f_p",
                        "antisymmetrizer_block", "d_pq")
INVARIANTS = ("hom_rank", "kernel_dimension", "kernel_basis",
              "ideal_span_dimension", "tensor_ideal_span_dimension",
              "commutant_dimension")
SUITES = ("relations", "presentation", "sigma", "pau", "phi", "ep", "kernel",
          "charp")

# Spans each workload must record at least once; a wrapper that saw no call
# means the tracing missed a binding (or the layer changed), and the traced
# run fails rather than report a silent zero.
EXPECTED_CALLS = {
    "verify": (["cli.run", "diagram.compose", "diagram.enumerate_diagrams",
                "linear.lin_compose", "linear.lin_tensor", "elements.construct",
                "words.synthesize_word", "words.evaluate_word",
                "rewrite.verify_relation_soundness", "functor.functor_matrix",
                "functor.functor_matrix_layered", "linalg.add_row",
                "linalg.reduced_rows", "invariants.hom_rank",
                "invariants.kernel_dimension", "invariants.ideal_span_dimension",
                "invariants.tensor_ideal_span_dimension",
                "invariants.commutant_dimension"]
               + ["verify.run_suite." + s for s in SUITES]),
    "ideals": ["diagram.compose", "diagram.enumerate_diagrams",
               "linear.lin_compose", "linear.lin_tensor", "elements.construct",
               "linalg.add_row", "linalg.reduced_rows",
               "invariants.ideal_span_dimension",
               "invariants.tensor_ideal_span_dimension"],
    "ranks": ["diagram.enumerate_diagrams", "functor.functor_matrix",
              "linalg.add_row", "linalg.reduced_rows", "linalg.nullspace",
              "invariants.hom_rank", "invariants.kernel_basis",
              "invariants.commutant_dimension"],
}
# Spans a workload must never record: ranks bypasses morphism arithmetic and
# ideals bypasses the functor.
EXPECTED_ZERO = {
    "verify": [],
    "ideals": ["functor.functor_matrix"],
    "ranks": ["linear.lin_compose"],
}


class TraceError(RuntimeError):
    """A wrapper missed its calls or a bypass assertion failed."""


def _count_term_pairs(counters, args, result):
    counters["linear.lin_compose.term_pairs"] += (
        len(args[0].terms) * len(args[1].terms))


def _count_nnz(counters, args, result):
    counters["functor.functor_matrix.nnz"] += result.nnz()
    # At most one _diagram_matrix lookup per diagram or morphism term.
    counters["functor.functor_matrix.terms"] += len(getattr(args[0], "terms", "d"))


def _count_add_row(counters, args, result):
    counters["linalg.add_row.nnz_in"] += len(args[1])
    counters["linalg.add_row.useful"] += bool(result)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self._stack = []
        self._restore = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count=None, suffix_arg=False):
        """A wrapper recording one span per call of ``fn``; with
        ``suffix_arg`` the span name ends in the first argument."""
        name_id, parent, start, end = (self.name_id, self.parent, self.start,
                                       self.end)
        stack, counters, clock = self._stack, self.counters, time.perf_counter
        fixed = None if suffix_arg else self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(fixed if fixed is not None
                           else self._id("%s.%s" % (name, args[0])))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return wrapper

    def rebind(self, module, attr, name, **options):
        """Replace ``module.attr`` by a traced wrapper in every loaded
        ``brauer`` module that holds the same object."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **options)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "brauer"
                                   or modname.startswith("brauer.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def patch_method(self, cls, attr, name, **options):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, **options))
        self._restore.append((cls, attr, original))

    def install(self):
        self.rebind(diagram, "compose", "diagram.compose")
        self.rebind(diagram, "enumerate_diagrams", "diagram.enumerate_diagrams")
        self.rebind(linear, "lin_compose", "linear.lin_compose",
                    count=_count_term_pairs)
        self.rebind(linear, "lin_tensor", "linear.lin_tensor")
        for attr in ELEMENT_CONSTRUCTORS:
            self.rebind(elements, attr, "elements.construct")
        self.rebind(words, "synthesize_word", "words.synthesize_word")
        self.rebind(words, "evaluate_word", "words.evaluate_word")
        self.rebind(rewrite, "verify_relation_soundness",
                    "rewrite.verify_relation_soundness")
        self.rebind(functor, "functor_matrix", "functor.functor_matrix",
                    count=_count_nnz)
        self.rebind(functor, "functor_matrix_layered",
                    "functor.functor_matrix_layered")
        basis = linalg.EliminationBasis
        self.patch_method(basis, "add_row", "linalg.add_row", count=_count_add_row)
        self.patch_method(basis, "reduced_rows", "linalg.reduced_rows")
        self.patch_method(basis, "nullspace", "linalg.nullspace")
        for attr in INVARIANTS:
            self.rebind(invariants, attr, "invariants." + attr)
        self.rebind(verify, "run_suite", "verify.run_suite", suffix_arg=True)
        self.rebind(cli, "run", "cli.run")

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def totals(self):
        """Per span name: calls, total time and self time."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls, total, self_time = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            duration = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += duration
            self_time[name] += duration - covered[i]
        return calls, total, self_time

    def write(self, path):
        """Spans as one JSON header line, then the name-id and parent arrays
        (int32) and the start and end arrays (float64, seconds)."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name_id:i4", "parent:i4", "start:f8", "end:f8"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def _ratio(num, den):
    return num / den if den else 0.0


def _hit_ratio(info):
    return _ratio(info.hits, info.hits + info.misses)


def layer_metrics(tracer, workload):
    """The per-layer metrics of one traced pass (without trace.overhead_s).

    Raises TraceError when an expected span saw no call, a bypassed layer
    was called, or the library's cache counters show calls the wrappers
    missed."""
    calls, total, self_time = tracer.totals()
    missing = [n for n in EXPECTED_CALLS[workload] if not calls[n]]
    if missing:
        raise TraceError("no calls recorded on %s for: %s"
                         % (workload, ", ".join(missing)))
    leaked = [n for n in EXPECTED_ZERO[workload] if calls[n]]
    if leaked:
        raise TraceError("%s must bypass %s, but recorded %s calls"
                         % (workload, ", ".join(leaked),
                            ", ".join(str(calls[n]) for n in leaked)))
    # Only lin_compose and functor_matrix look up these caches, so the
    # library's own counters expose calls that bypassed a wrapper.
    c = tracer.counters
    compose_cache = linear._compose_diagrams.cache_info()
    matrix_cache = functor._diagram_matrix.cache_info()
    lookups = compose_cache.hits + compose_cache.misses
    if lookups != c["linear.lin_compose.term_pairs"]:
        raise TraceError("compose cache saw %d lookups but traced lin_compose "
                         "calls made %d" % (lookups, c["linear.lin_compose.term_pairs"]))
    lookups = matrix_cache.hits + matrix_cache.misses
    if lookups > c["functor.functor_matrix.terms"]:
        raise TraceError("diagram-matrix cache saw %d lookups but traced "
                         "functor_matrix calls allow at most %d"
                         % (lookups, c["functor.functor_matrix.terms"]))
    values = {
        "diagram.compose.calls": calls["diagram.compose"],
        "diagram.compose.self_s": self_time["diagram.compose"],
        "diagram.enumerate_diagrams.self_s": self_time["diagram.enumerate_diagrams"],
        "linear.lin_compose.calls": calls["linear.lin_compose"],
        "linear.lin_compose.self_s": self_time["linear.lin_compose"],
        "linear.lin_compose.term_pairs": c["linear.lin_compose.term_pairs"],
        "linear.lin_tensor.self_s": self_time["linear.lin_tensor"],
        "linear.compose_cache.hit_ratio": _hit_ratio(compose_cache),
        "linear.compose_cache.size": compose_cache.currsize,
        "elements.construct.calls": calls["elements.construct"],
        "elements.construct.self_s": self_time["elements.construct"],
        "words.synthesize_word.self_s": self_time["words.synthesize_word"],
        "words.evaluate_word.self_s": self_time["words.evaluate_word"],
        "rewrite.verify_relation_soundness.self_s":
            self_time["rewrite.verify_relation_soundness"],
        "functor.functor_matrix.calls": calls["functor.functor_matrix"],
        "functor.functor_matrix.self_s": self_time["functor.functor_matrix"],
        "functor.functor_matrix.nnz": c["functor.functor_matrix.nnz"],
        "functor.functor_matrix_layered.self_s":
            self_time["functor.functor_matrix_layered"],
        "functor.diagram_matrix_cache.hit_ratio": _hit_ratio(matrix_cache),
        "linalg.add_row.calls": calls["linalg.add_row"],
        "linalg.add_row.self_s": self_time["linalg.add_row"],
        "linalg.add_row.nnz_in": c["linalg.add_row.nnz_in"],
        "linalg.add_row.useful_ratio": _ratio(c["linalg.add_row.useful"],
                                              calls["linalg.add_row"]),
        "linalg.reduced_rows.self_s": self_time["linalg.reduced_rows"],
        "linalg.nullspace.self_s": self_time["linalg.nullspace"],
        "cli.run.self_s": self_time["cli.run"],
    }
    for attr in INVARIANTS:
        values["invariants.%s.self_s" % attr] = self_time["invariants." + attr]
    for suite in SUITES:
        values["verify.run_suite.%s.wall_s" % suite] = total["verify.run_suite." + suite]
    return values
