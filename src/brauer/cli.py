"""Command-line front-end: construction, arithmetic, functor evaluation,
rank/kernel computations, and the verification suites.

Results go to standard output as JSON (default) or aligned text
(``--format text``); diagnostics go to standard error.  Exit codes:
0 = success / all checks passed, 1 = a verification failure,
2 = usage or input error.  Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagram import (compose, diagram_count, diagram_from_json,
                      diagram_to_json, star, tensor)
from .elements import d_pq, e_p_formula, phi, sigma
from .functor import (closure_trace, functor_matrix, group_spec,
                      matrix_to_json, trace_check)
from .invariants import (hom_rank, ideal_span_dimension, kernel_basis,
                         kernel_dimension, tensor_ideal_span_dimension)
from .linear import morphism_from_json, morphism_to_json
from .report import all_passed, report_json
from .rings import QQ, QQ_DELTA, PrimeField, TextError, parse_natural
from .verify import SUITE_NAMES, run_suite
from .words import evaluate_word, synthesize_word, word_from_text, word_to_text


def _emit(payload, fmt):
    if fmt == "text":
        sys.stdout.write(_render_text(payload))
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2))
        sys.stdout.write("\n")


def _render_text(payload, indent=""):
    if isinstance(payload, dict):
        out = []
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                out.append("%s%s:\n%s" % (indent, key,
                                          _render_text(value, indent + "  ")))
            else:
                out.append("%s%s: %s\n" % (indent, key, value))
        return "".join(out)
    if isinstance(payload, list):
        out = []
        for item in payload:
            if isinstance(item, (dict, list)):
                out.append("%s-\n%s" % (indent, _render_text(item, indent + "  ")))
            else:
                out.append("%s- %s\n" % (indent, item))
        return "".join(out)
    return "%s%s\n" % (indent, payload)


def _load_json_arg(text):
    """Inline JSON, or the contents of a file when prefixed with '@'.
    Nesting deeper than the interpreter's recursion limit is an input
    error, like any other malformed JSON."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _ring_and_delta(args):
    """Resolve --delta/--modulus into a coefficient ring and loop value."""
    if args.delta == "symbolic":
        if args.modulus is not None:
            raise ValueError("a prime-field run needs a numeric --delta")
        return QQ_DELTA, None
    ring = QQ if args.modulus is None else PrimeField(args.modulus)
    try:
        return ring, ring.parse(args.delta)
    except TextError:
        raise ValueError("--delta expects a rational number or 'symbolic', "
                         "got %r" % args.delta) from None


def _dimension_from_args(args):
    """--m, or 2n for the symplectic shorthand --n; None if neither is given."""
    n = args.n
    if n is None:
        return args.m
    if args.family != "sp":
        raise ValueError("--n is symplectic shorthand for m = 2n; it needs "
                         "--family sp")
    if args.m is not None and args.m != 2 * n:
        raise ValueError("--m %d disagrees with --n %d: --n means m = 2n"
                         % (args.m, n))
    return 2 * n


def _group_from_args(args):
    m = _dimension_from_args(args)
    if args.family is None or m is None:
        raise ValueError("this command needs --family {o|sp} and --m (or --n)")
    return group_spec(args.family, m, modulus=getattr(args, "modulus", None),
                      allow_small_modulus=getattr(args, "allow_small_modulus", False))


def _morphism_or_diagram(obj):
    if isinstance(obj, dict) and "terms" in obj:
        return morphism_from_json(obj)
    return diagram_from_json(obj)


def _natural(text):
    """An integer flag's value, read by :func:`brauer.rings.parse_natural`."""
    try:
        return parse_natural(text)
    except TextError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_group_flags(sub, with_kl=False):
    sub.add_argument("--family", choices=["o", "sp"], help="orthogonal or symplectic")
    sub.add_argument("--m", type=_natural, help="dimension of the natural module")
    sub.add_argument("--n", type=_natural,
                     help="half the dimension (symplectic shorthand: m = 2n)")
    sub.add_argument("--modulus", type=_natural, default=None,
                     help="work over the prime field of this order")
    sub.add_argument("--allow-small-modulus", action="store_true",
                     help="permit a characteristic below m + 2")
    if with_kl:
        sub.add_argument("--k", type=_natural, required=True, help="bottom valency")
        sub.add_argument("--l", type=_natural, required=True, help="top valency")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one stderr line, ``error: ...``,
    like every other input error, and exits 2.  Subcommand parsers inherit
    the class."""

    def error(self, message):
        sys.stderr.write("error: %s\n" % message)
        sys.exit(2)


def _build_parser():
    parser = _Parser(
        prog="brauer",
        description="Exact diagram-category calculator: composition, "
                    "quasi-idempotents, tensor-representation matrices, "
                    "ranks and kernels, and verification suites.")
    parser.add_argument("--format", choices=["json", "text"], default="json",
                        help="output format (default json)")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compose", help="compose two diagrams (second applied first)")
    p.add_argument("upper", help="diagram JSON (inline or @file)")
    p.add_argument("lower", help="diagram JSON (inline or @file)")

    p = subs.add_parser("tensor", help="juxtapose two diagrams side by side")
    p.add_argument("left", help="diagram JSON (inline or @file)")
    p.add_argument("right", help="diagram JSON (inline or @file)")

    p = subs.add_parser("star", help="horizontal flip of a diagram")
    p.add_argument("diagram", help="diagram JSON (inline or @file)")

    p = subs.add_parser("word-eval", help="evaluate a layered generator word")
    p.add_argument("--domain", type=_natural, required=True, help="bottom width")
    p.add_argument("word", help="layers as 'a:Y:b; a:Y:b; ...' with Y in {X, A, U}")

    p = subs.add_parser("word-synth", help="factor a diagram into layers")
    p.add_argument("diagram", help="diagram JSON (inline or @file)")

    p = subs.add_parser("sigma", help="signed symmetry sum on r strands")
    p.add_argument("--eps", choices=["1", "-1"], required=True)
    p.add_argument("--r", type=_natural, required=True)
    p.add_argument("--delta", default="symbolic",
                   help="'symbolic' or an exact rational N or N/D "
                        "(default symbolic)")
    p.add_argument("--modulus", type=_natural, default=None)

    p = subs.add_parser("phi", help="symplectic quasi-idempotent on n + 1 strands")
    p.add_argument("--n", type=_natural, required=True)

    p = subs.add_parser("ep", help="bent antisymmetrizer (orthogonal kernel generator)")
    p.add_argument("--m", type=_natural, required=True)
    p.add_argument("--p", type=_natural, required=True, help="bending index, 0..m+1")

    p = subs.add_parser("dpq", help="paired-box element of the symplectic family")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--p", type=_natural, required=True)
    p.add_argument("--q", type=_natural, required=True)

    p = subs.add_parser("functor-matrix",
                        help="matrix of a diagram or morphism under the functor")
    _add_group_flags(p)
    p.add_argument("input", help="diagram or morphism JSON (inline or @file)")

    p = subs.add_parser("trace", help="matrix trace vs closure-loop prediction")
    _add_group_flags(p)
    p.add_argument("diagram", help="square diagram JSON (inline or @file)")

    p = subs.add_parser("rank", help="rank of the diagram span under the functor")
    _add_group_flags(p, with_kl=True)

    p = subs.add_parser("kernel", help="kernel dimension and basis")
    _add_group_flags(p, with_kl=True)
    p.add_argument("--no-basis", action="store_true", help="dimension only")

    p = subs.add_parser("ideal-span",
                        help="dimension of a two-sided ideal slice")
    _add_group_flags(p)
    p.add_argument("--r", type=_natural, help="degree (square slice) for --gen")
    p.add_argument("--gen", help="generator: 'phi:N', 'ep:M,P', inline JSON, or @file")
    p.add_argument("--slice", dest="slice_kl", metavar="K,L",
                   help="tensor-ideal slice (k, l) of the vanishing symmetrizer")

    p = subs.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=list(SUITE_NAMES), required=True)
    p.add_argument("--family", choices=["o", "sp"], default=None)
    p.add_argument("--m", type=_natural, default=None)
    p.add_argument("--n", type=_natural, default=None)
    p.add_argument("--include-optional", action="store_true",
                   help="include the larger optional cases")
    return parser


def _int_pair(flag, form, text, prefix=""):
    """The two comma-separated integers after prefix in a flag value."""
    try:
        a, b = (parse_natural(t) for t in text[len(prefix):].split(","))
    except ValueError:
        raise ValueError("%s expects %s with two integers, got %r"
                         % (flag, form, text)) from None
    return a, b


def _generator_from_flag(text):
    """The --gen morphism as built or read; ideal_span_dimension brings it
    into the group's field."""
    if text.startswith("phi:"):
        try:
            n = parse_natural(text[4:])
        except ValueError:
            raise ValueError("--gen expects phi:N with one integer, got %r"
                             % text) from None
        return phi(n)
    if text.startswith("ep:"):
        return e_p_formula(*_int_pair("--gen", "ep:M,P", text, "ep:"))
    return morphism_from_json(_load_json_arg(text))


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    fmt = args.format
    try:
        return _dispatch(args, fmt)
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def _dispatch(args, fmt):
    cmd = args.command

    if cmd == "compose":
        upper = diagram_from_json(_load_json_arg(args.upper))
        lower = diagram_from_json(_load_json_arg(args.lower))
        loops, out = compose(upper, lower)
        _emit({"loops": loops, "diagram": diagram_to_json(out)}, fmt)
        return 0

    if cmd == "tensor":
        left = diagram_from_json(_load_json_arg(args.left))
        right = diagram_from_json(_load_json_arg(args.right))
        _emit({"diagram": diagram_to_json(tensor(left, right))}, fmt)
        return 0

    if cmd == "star":
        d = diagram_from_json(_load_json_arg(args.diagram))
        _emit({"diagram": diagram_to_json(star(d))}, fmt)
        return 0

    if cmd == "word-eval":
        word = word_from_text(args.domain, args.word)
        loops, out = evaluate_word(word)
        _emit({"delta_power": loops, "diagram": diagram_to_json(out)}, fmt)
        return 0

    if cmd == "word-synth":
        d = diagram_from_json(_load_json_arg(args.diagram))
        word = synthesize_word(d)
        _emit({"domain": word.domain,
               "layers": [[lay.left, lay.gen, lay.right] for lay in word.layers],
               "text": word_to_text(word)}, fmt)
        return 0

    if cmd == "sigma":
        ring, delta = _ring_and_delta(args)
        x = sigma(int(args.eps), args.r, ring=ring, delta=delta)
        _emit(morphism_to_json(x), fmt)
        return 0

    if cmd == "phi":
        _emit(morphism_to_json(phi(args.n)), fmt)
        return 0

    if cmd == "ep":
        _emit(morphism_to_json(e_p_formula(args.m, args.p)), fmt)
        return 0

    if cmd == "dpq":
        _emit(morphism_to_json(d_pq(args.n, args.p, args.q)), fmt)
        return 0

    if cmd == "functor-matrix":
        spec = _group_from_args(args)
        x = _morphism_or_diagram(_load_json_arg(args.input))
        _emit(matrix_to_json(functor_matrix(x, spec)), fmt)
        return 0

    if cmd == "trace":
        spec = _group_from_args(args)
        d = diagram_from_json(_load_json_arg(args.diagram))
        expected = closure_trace(d, spec)
        agree = trace_check(d, spec)
        _emit({"matrix_trace": str(functor_matrix(d, spec).trace()),
               "closure_trace": str(expected),
               "agree": agree}, fmt)
        return 0 if agree else 1

    if cmd == "rank":
        spec = _group_from_args(args)
        rank = hom_rank(args.k, args.l, spec)
        _emit({"rank": rank, "kernel_dim": diagram_count(args.k, args.l) - rank},
              fmt)
        return 0

    if cmd == "kernel":
        spec = _group_from_args(args)
        if args.no_basis:
            dim = kernel_dimension(args.k, args.l, spec)
            _emit({"dimension": dim}, fmt)
            return 0
        basis = kernel_basis(args.k, args.l, spec)
        _emit({"dimension": len(basis),
               "basis": [morphism_to_json(x) for x in basis]}, fmt)
        return 0

    if cmd == "ideal-span":
        if args.slice_kl is not None and (args.gen is not None
                                          or args.r is not None):
            raise ValueError("ideal-span takes --slice K,L alone, or --gen "
                             "with --r; not both")
        spec = _group_from_args(args)
        if args.slice_kl is not None:
            k, l = _int_pair("--slice", "K,L", args.slice_kl)
            dim = tensor_ideal_span_dimension(k, l, spec)
            _emit({"dimension": dim}, fmt)
            return 0
        if args.gen is None or args.r is None:
            raise ValueError("ideal-span needs --slice K,L, or --gen with --r")
        gen = _generator_from_flag(args.gen)
        _emit({"dimension": ideal_span_dimension(args.r, gen, spec)}, fmt)
        return 0

    if cmd == "verify":
        checks = run_suite(args.suite, family=args.family,
                           m=_dimension_from_args(args),
                           include_optional=args.include_optional)
        payload = {"suite": args.suite,
                   "total": len(checks),
                   "passed": sum(1 for c in checks if c.passed),
                   "checks": report_json(checks)}
        _emit(payload, fmt)
        return 0 if all_passed(checks) else 1

    raise ValueError("unknown command %r" % cmd)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
