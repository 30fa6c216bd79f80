"""End-to-end tests of the command-line interface."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

import brauer
from brauer import Check
from brauer import cli, verify
from brauer.cli import run
from brauer.diagram import max_cells

IDENT1 = '{"k": 1, "l": 1, "pairs": [[0, 1]]}'
CROSS = '{"k": 2, "l": 2, "pairs": [[0, 3], [1, 2]]}'
EBAR = '{"k": 2, "l": 2, "pairs": [[0, 1], [2, 3]]}'
CAP = '{"k": 2, "l": 0, "pairs": [[0, 1]]}'
CUP = '{"k": 0, "l": 2, "pairs": [[0, 1]]}'


def invoke(capsys, *argv):
    rc = run(list(argv))
    out = capsys.readouterr().out
    return rc, out


def invoke_json(capsys, *argv):
    rc, out = invoke(capsys, *argv)
    return rc, json.loads(out)


class TestDiagramCommands:
    def test_compose(self, capsys):
        rc, payload = invoke_json(capsys, "compose", EBAR, EBAR)
        assert rc == 0
        assert payload == {
            "loops": 1,
            "diagram": {"k": 2, "l": 2, "pairs": [[0, 1], [2, 3]]},
        }

    def test_compose_closed_loop(self, capsys):
        rc, payload = invoke_json(capsys, "compose", CAP, CUP)
        assert rc == 0
        assert payload["loops"] == 1
        assert payload["diagram"] == {"k": 0, "l": 0, "pairs": []}

    def test_tensor(self, capsys):
        rc, payload = invoke_json(capsys, "tensor", IDENT1, IDENT1)
        assert rc == 0
        assert payload == {"diagram": {"k": 2, "l": 2, "pairs": [[0, 2], [1, 3]]}}

    def test_star(self, capsys):
        rc, payload = invoke_json(capsys, "star", '{"k": 2, "l": 2, "pairs": [[0, 2], [1, 3]]}')
        assert rc == 0
        assert payload == {"diagram": {"k": 2, "l": 2, "pairs": [[0, 2], [1, 3]]}}

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(CROSS)
        rc, payload = invoke_json(capsys, "star", "@%s" % path)
        assert rc == 0
        assert payload == {"diagram": json.loads(CROSS)}

    def test_missing_file_is_user_error(self, capsys):
        rc, _ = invoke(capsys, "star", "@/nonexistent/diagram.json")
        assert rc == 2

    def test_malformed_json_is_user_error(self, capsys):
        rc, _ = invoke(capsys, "compose", "{not json", EBAR)
        assert rc == 2

    def test_valency_mismatch_is_user_error(self, capsys):
        rc, _ = invoke(capsys, "compose", IDENT1, EBAR)
        assert rc == 2

    @pytest.mark.parametrize("command", [["star"],
                                         ["functor-matrix", "--family", "o",
                                          "--m", "2"]])
    def test_deeply_nested_inline_json_is_user_error(self, capsys, command):
        rc = run(command + ["[" * 5000 + "]" * 5000])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: JSON nested too deeply\n"

    def test_deeply_nested_json_file_is_user_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        rc = run(["star", "@%s" % path])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: JSON nested too deeply\n"

    def test_node_count_without_arcs_is_user_error(self, capsys):
        rc = run(["compose", '{"k": 20000000, "l": 0, "pairs": []}', CUP])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == ("error: 0 arcs cannot cover the 20000000 "
                                "nodes of a (20000000, 0) diagram\n")


class TestWordCommands:
    def test_eval_matches_grammar(self, capsys):
        rc, payload = invoke_json(capsys, "word-eval", "--domain", "2", "0:X:0")
        assert rc == 0
        assert payload == {"delta_power": 0, "diagram": json.loads(CROSS)}

    def test_eval_records_loops(self, capsys):
        rc, payload = invoke_json(capsys, "word-eval", "--domain", "2",
                                  "0:A:0; 0:U:0; 0:A:0")
        assert rc == 0
        assert payload["delta_power"] == 1
        assert payload["diagram"] == {"k": 2, "l": 0, "pairs": [[0, 1]]}

    def test_synth_round_trip(self, capsys):
        rc, payload = invoke_json(capsys, "word-synth", CROSS)
        assert rc == 0
        assert payload["domain"] == 2
        rc2, echo = invoke_json(capsys, "word-eval", "--domain",
                                str(payload["domain"]), payload["text"])
        assert rc2 == 0
        assert echo == {"delta_power": 0, "diagram": json.loads(CROSS)}

    def test_bad_layer_text_is_user_error(self, capsys):
        rc, _ = invoke(capsys, "word-eval", "--domain", "2", "0:Q:0")
        assert rc == 2

    def test_group_dimension_over_budget_is_user_error(self, capsys):
        # the form's m pairs would be built before any matrix is asked for
        m = max_cells() + 1
        rc = run(["rank", "--family", "o", "--m", str(m), "--k", "0",
                  "--l", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "error: the form of dimension %d has %d signed pairs, above the "
            "limit %d; raise BRAUER_MAX_CELLS to allow it\n"
            % (m, m, max_cells()))

    def test_domain_over_budget_is_user_error(self, capsys):
        rc = run(["word-eval", "--domain", "1000000000", ""])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "error: a word of width 1000000000, above the limit %d; raise "
            "BRAUER_MAX_CELLS to allow it\n" % max_cells())

    @pytest.mark.parametrize("text", ["0: X :0", "0 :X:0"])
    def test_space_inside_a_layer_is_user_error(self, capsys, text):
        rc = run(["word-eval", "--domain", "2", text])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == ("error: bad layer %r, no space is allowed "
                                "inside a layer\n" % text)

    def test_non_integer_layer_position_is_user_error(self, capsys):
        rc = run(["word-eval", "--domain", "2", "0:X:x"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == ("error: bad layer '0:X:x', expected integers "
                                "a and b in a:Y:b\n")


class TestElementCommands:
    def test_sigma(self, capsys):
        rc, payload = invoke_json(capsys, "sigma", "--eps", "1", "--r", "2")
        assert rc == 0
        assert payload["ring"] == "PolynomialsInDelta"
        assert payload["delta"] == "symbolic"
        coeffs = {json.dumps(t["diagram"], sort_keys=True): t["coeff"]
                  for t in payload["terms"]}
        assert sorted(coeffs.values()) == ["-1", "1"]

    def test_sigma_numeric_delta_and_modulus(self, capsys):
        rc, payload = invoke_json(capsys, "sigma", "--eps", "-1", "--r", "2",
                                  "--delta", "-2")
        assert rc == 0
        assert payload["ring"] == "Rationals"
        assert payload["delta"] == "-2"
        rc, payload = invoke_json(capsys, "sigma", "--eps", "-1", "--r", "2",
                                  "--delta", "3", "--modulus", "5")
        assert rc == 0
        assert payload["ring"] == "PrimeField(5)"

    def test_sigma_fractional_delta_mod_p(self, capsys):
        # 1/2 = 4 in F_7
        rc, payload = invoke_json(capsys, "sigma", "--eps", "1", "--r", "2",
                                  "--delta", "1/2", "--modulus", "7")
        assert rc == 0
        assert payload["ring"] == "PrimeField(7)"
        assert payload["delta"] == "4"
        rc = run(["sigma", "--eps", "1", "--r", "2", "--delta", "1/7",
                  "--modulus", "7"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: division by zero in PrimeField(7)\n"

    def test_phi_degree_one(self, capsys):
        rc, payload = invoke_json(capsys, "phi", "--n", "1")
        assert rc == 0
        assert payload["k"] == payload["l"] == 2
        assert payload["delta"] == "-2"
        assert payload["ring"] == "Rationals"
        terms = {json.dumps(t["diagram"]["pairs"]): t["coeff"]
                 for t in payload["terms"]}
        assert terms == {
            "[[0, 1], [2, 3]]": "1",
            "[[0, 2], [1, 3]]": "1",
            "[[0, 3], [1, 2]]": "1",
        }

    def test_ep(self, capsys):
        rc, payload = invoke_json(capsys, "ep", "--m", "2", "--p", "1")
        assert rc == 0
        assert payload["k"] == payload["l"] == 3
        assert payload["delta"] == "2"

    def test_dpq(self, capsys):
        rc, payload = invoke_json(capsys, "dpq", "--n", "1", "--p", "1", "--q", "0")
        assert rc == 0
        assert payload["k"] == payload["l"] == 2
        assert payload["delta"] == "-2"
        assert all(t["coeff"] == "2" for t in payload["terms"])

    @pytest.mark.parametrize("delta", ["1/0", "abc", "0.5", "1e99999999"],
                             ids=["zero-den", "text", "decimal", "exponent"])
    def test_malformed_delta_is_user_error(self, capsys, delta):
        rc = run(["sigma", "--eps", "1", "--r", "2", "--delta", delta])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == ("error: --delta expects a rational number or "
                                "'symbolic', got %r\n" % delta)

    def test_sigma_over_term_budget_is_user_error(self, capsys):
        # 12! = 479001600 permutation terms, above the default 10^7 budget
        rc = run(["sigma", "--eps", "1", "--r", "12"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("argv,count", [
        (["sigma", "--eps", "1", "--r", "10"],
         "a sum over Sym_10 has 10! terms of 20 nodes"),
        (["phi", "--n", "7"],
         "phi(7) sums the 15!! diagrams of B_8, of 16 nodes each"),
    ], ids=["sigma-r10", "phi-n7"])
    def test_terms_times_nodes_over_budget_is_user_error(self, capsys, argv,
                                                          count):
        # 10! * 20 = 72576000 and 15!! * 16 = 32432400 node cells, above the
        # default 10^7 budget; r = 9 and n = 6 fit
        rc = run(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "error: %s, above the limit %d; raise BRAUER_MAX_CELLS to allow "
            "it\n" % (count, max_cells()))

    def test_bad_parameters_are_user_errors(self, capsys):
        assert invoke(capsys, "phi", "--n", "0")[0] == 2
        assert invoke(capsys, "ep", "--m", "2", "--p", "5")[0] == 2
        assert invoke(capsys, "dpq", "--n", "1", "--p", "0", "--q", "1")[0] == 2

    @pytest.mark.parametrize("argv", [
        ["ep", "--m", "0", "--p", "0"],
        ["ideal-span", "--family", "o", "--m", "2", "--gen", "ep:0,0",
         "--r", "3"],
    ], ids=["ep-m0", "gen-ep-m0"])
    def test_bent_antisymmetrizer_below_degree_one_is_user_error(self, capsys,
                                                                 argv):
        rc = run(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: E_p requires m >= 1")

    def test_ep_over_term_budget_is_user_error(self, capsys):
        # 10! terms of 20 nodes = 72576000 cells, refused before any block
        # acts; m = 8 (9! * 18 cells) is the largest that fits
        rc = run(["ep", "--m", "9", "--p", "5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "error: E_5 in degree 10 has up to 10! terms of 20 nodes, above "
            "the limit %d; raise BRAUER_MAX_CELLS to allow it\n" % max_cells())

    def test_dpq_over_term_budget_is_refused_before_the_bend(self, capsys):
        # the bend's node maps would hold 4 * 10^9 entries
        rc = run(["dpq", "--n", "1000000000", "--p", "0", "--q", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "error: a sum over Sym_2000000001 has 2000000001! terms of "
            "4000000002 nodes, above the limit %d; raise BRAUER_MAX_CELLS to "
            "allow it\n" % max_cells())

    def test_phi_over_term_budget_is_user_error(self, capsys):
        # |B_10| = 19!! = 654729075 terms, refused before enumerating
        rc = run(["phi", "--n", "9"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "above the limit %d" % max_cells() in captured.err


class TestFunctorCommands:
    def test_functor_matrix_identity(self, capsys):
        rc, payload = invoke_json(capsys, "functor-matrix", "--family", "o",
                                  "--m", "2", IDENT1)
        assert rc == 0
        assert payload == {
            "rows": 2, "cols": 2, "ring": "Rationals",
            "entries": [[0, 0, "1"], [1, 1, "1"]],
        }

    def test_functor_matrix_of_morphism(self, capsys):
        morphism = json.dumps({
            "k": 2, "l": 2, "ring": "Rationals", "delta": "-2",
            "terms": [{"coeff": "1", "diagram": json.loads(EBAR)}],
        })
        rc, payload = invoke_json(capsys, "functor-matrix", "--family", "sp",
                                  "--n", "1", morphism)
        assert rc == 0
        assert payload["rows"] == payload["cols"] == 4
        assert len(payload["entries"]) == 4

    def test_functor_matrix_brings_a_morphism_into_the_prime_field(
            self, capsys):
        sp2_f5 = ["functor-matrix", "--family", "sp", "--m", "2",
                  "--modulus", "5"]
        # Phi_1, over QQ, is reduced mod 5 and still dies in Sp(2)
        _, text = invoke(capsys, "phi", "--n", "1")
        rc, payload = invoke_json(capsys, *sp2_f5, text)
        assert rc == 0
        assert payload == {"rows": 4, "cols": 4, "ring": "PrimeField(5)",
                           "entries": []}
        # the symbolic Sigma_-1 is specialized at -2 and reduced: the same
        # matrix as Sigma_-1 built over F_5 at delta = 3
        _, symbolic = invoke(capsys, "sigma", "--eps", "-1", "--r", "2")
        _, over_f5 = invoke(capsys, "sigma", "--eps", "-1", "--r", "2",
                            "--delta", "3", "--modulus", "5")
        rc, payload = invoke_json(capsys, *sp2_f5, symbolic)
        assert rc == 0
        assert payload["entries"]
        assert (rc, payload) == invoke_json(capsys, *sp2_f5, over_f5)

    def test_trace(self, capsys):
        rc, payload = invoke_json(capsys, "trace", "--family", "o", "--m", "2", IDENT1)
        assert rc == 0
        assert payload == {"agree": True, "closure_trace": "2", "matrix_trace": "2"}

    def test_trace_rejects_rectangular(self, capsys):
        rc, _ = invoke(capsys, "trace", "--family", "o", "--m", "2", CAP)
        assert rc == 2

    def test_trace_reports_disagreement(self, capsys, monkeypatch):
        import brauer.cli as cli_mod

        monkeypatch.setattr(cli_mod, "trace_check", lambda d, spec: False)
        rc, payload = invoke_json(capsys, "trace", "--family", "o", "--m", "2", IDENT1)
        assert rc == 1
        assert payload["agree"] is False

    def test_rank(self, capsys):
        rc, payload = invoke_json(capsys, "rank", "--family", "sp", "--m", "2",
                                  "--k", "2", "--l", "2")
        assert rc == 0
        assert payload == {"rank": 2, "kernel_dim": 1}

    def test_kernel_with_basis(self, capsys):
        rc, payload = invoke_json(capsys, "kernel", "--family", "sp", "--m", "2",
                                  "--k", "2", "--l", "2")
        assert rc == 0
        assert payload["dimension"] == 1
        (elt,) = payload["basis"]
        coeffs = {json.dumps(t["diagram"]["pairs"]): t["coeff"]
                  for t in elt["terms"]}
        assert coeffs == {
            "[[0, 1], [2, 3]]": "1",
            "[[0, 2], [1, 3]]": "1",
            "[[0, 3], [1, 2]]": "1",
        }

    def test_kernel_no_basis(self, capsys):
        rc, payload = invoke_json(capsys, "kernel", "--family", "o", "--m", "2",
                                  "--k", "2", "--l", "2", "--no-basis")
        assert rc == 0
        assert payload == {"dimension": 0}

    @pytest.mark.parametrize("argv,expected", [
        (["rank"], {"rank": 0, "kernel_dim": 0}),
        (["kernel", "--no-basis"], {"dimension": 0}),
        (["kernel"], {"dimension": 0, "basis": []}),
        (["ideal-span", "--slice", "2,3"], {"dimension": 0}),
    ], ids=["rank", "kernel-no-basis", "kernel", "ideal-span"])
    def test_odd_valency_is_empty_at_any_dimension(self, capsys, argv,
                                                   expected):
        # B(2, 3) is empty, so no 100^5 cells are needed to answer
        kl = [] if argv[0] == "ideal-span" else ["--k", "2", "--l", "3"]
        rc, payload = invoke_json(capsys, argv[0], "--family", "o", "--m",
                                  "100", *kl, *argv[1:])
        assert rc == 0
        assert payload == expected

    def test_negative_valency_is_user_error(self, capsys):
        rc = run(["functor-matrix", "--family", "sp", "--m", "2",
                  '{"k": -2, "l": 2, "pairs": []}'])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("k", ["-2", "2.9"])
    def test_invalid_morphism_valency_is_user_error(self, capsys, k):
        rc = run(["functor-matrix", "--family", "sp", "--m", "2",
                  '{"k": %s, "l": 2, "ring": "Rationals", "delta": "-2", '
                  '"terms": []}' % k])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_polynomial_morphism_with_numeric_delta_is_user_error(self, capsys):
        rc = run(["functor-matrix", "--family", "o", "--m", "3",
                  '{"k": 1, "l": 1, "ring": "PolynomialsInDelta", "delta": "3", '
                  '"terms": [{"diagram": %s, "coeff": "d"}]}' % IDENT1])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "requires symbolic delta" in captured.err

    @pytest.mark.parametrize("ring,coeff", [("Rationals", "1e-400"),
                                            ("Integers", '"1"')],
                             ids=["float-coeff", "integers-ring"])
    def test_morphism_outside_the_wire_format_is_user_error(self, capsys, ring,
                                                             coeff):
        rc = run(["functor-matrix", "--family", "o", "--m", "2",
                  '{"k": 0, "l": 2, "ring": "%s", "delta": "2", '
                  '"terms": [{"diagram": %s, "coeff": %s}]}' % (ring, CUP, coeff)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("ring,delta,flags", [
        ("Rationals", "2", ()), ("PrimeField(5)", "2", ("--modulus", "5")),
        ("PrimeField(11)", "2", ("--modulus", "11")),
        ("PolynomialsInDelta", "symbolic", ()),
    ])
    @pytest.mark.parametrize("coeff", ["1e5", "0.5", "1_000", "1/0", "", "--3",
                                       "1e99999999", "1/0*d", "d^99999999999",
                                       "d^3000000"])
    def test_coefficient_outside_the_grammar_is_user_error(self, capsys, ring,
                                                            delta, flags, coeff):
        def matrix(c):
            return run(["functor-matrix", "--family", "o", "--m", "2", *flags,
                        '{"k": 0, "l": 2, "ring": "%s", "delta": "%s", "terms": '
                        '[{"diagram": %s, "coeff": "%s"}]}' % (ring, delta, CUP, c)])

        assert matrix("1") == 0
        capsys.readouterr()
        assert matrix(coeff) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_wrong_valency_morphism_term_is_user_error(self, capsys):
        rc = run(["functor-matrix", "--family", "sp", "--m", "2",
                  '{"k": 2, "l": 2, "ring": "Rationals", "delta": "-2", '
                  '"terms": [{"diagram": %s, "coeff": "1"}]}' % IDENT1])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "diagram of valency (1, 1) in a (2, 2) morphism" in captured.err

    def test_rank_over_row_budget_is_user_error(self, capsys):
        # 2^22 cells per diagram fit the budget, but the 21!! diagrams of
        # B(11, 11) hold 2^11 nonzeros each; refused before enumerating
        rc = run(["rank", "--family", "o", "--m", "2", "--k", "11", "--l", "11"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "error: computation needs 21!! * 2^11 row nonzeros, above the "
            "limit %d; raise BRAUER_MAX_CELLS to allow it\n" % max_cells())

    @pytest.mark.parametrize("argv,line", [
        (["rank", "--family", "sp", "--m", "2", "--k", "-1", "--l", "3"],
         "error: argument --k: malformed integer '-1': expected "
         "ASCII decimal digits"),
        (["kernel", "--family", "sp", "--m", "2", "--k", "-2", "--l", "2"],
         "error: argument --k: malformed integer '-2': "
         "expected ASCII decimal digits"),
        (["ideal-span", "--family", "sp", "--m", "2", "--slice=-2,2"],
         "error: --slice expects K,L with two integers, got '-2,2'"),
    ], ids=["rank", "kernel", "ideal-span"])
    def test_negative_valency_on_rank_path_is_user_error(self, capsys, argv,
                                                         line):
        # A valency is read as ASCII digits, so a sign never reaches the
        # library; the parser's refusal and the library's share one shape.
        rc = run(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == line + "\n"

    def test_modulus_guard(self, capsys):
        rc, _ = invoke(capsys, "rank", "--family", "o", "--m", "3",
                       "--modulus", "3", "--k", "1", "--l", "1")
        assert rc == 2
        rc, payload = invoke_json(capsys, "rank", "--family", "o", "--m", "3",
                                  "--modulus", "3", "--allow-small-modulus",
                                  "--k", "1", "--l", "1")
        assert rc == 0
        assert payload["rank"] == 1


class TestIdealSpan:
    def test_named_generators(self, capsys):
        rc, payload = invoke_json(capsys, "ideal-span", "--family", "sp", "--m", "2",
                                  "--gen", "phi:1", "--r", "2")
        assert rc == 0
        assert payload == {"dimension": 1}
        rc, payload = invoke_json(capsys, "ideal-span", "--family", "o", "--m", "2",
                                  "--gen", "ep:2,1", "--r", "3")
        assert rc == 0
        assert payload == {"dimension": 5}

    def test_slice(self, capsys):
        rc, payload = invoke_json(capsys, "ideal-span", "--family", "sp", "--m", "2",
                                  "--slice", "3,1")
        assert rc == 0
        assert payload == {"dimension": 1}

    def test_slice_with_six_boundary_points(self, capsys):
        # kernel_dimension(4, 2) over Sp(2): |B_3| - C_3 = 15 - 5
        rc, payload = invoke_json(capsys, "ideal-span", "--family", "sp", "--m", "2",
                                  "--slice", "4,2")
        assert rc == 0
        assert payload == {"dimension": 10}

    @pytest.mark.parametrize("flags,message", [
        (["--slice", "4"], "--slice expects K,L with two integers, got '4'"),
        (["--slice", "1,2,3"],
         "--slice expects K,L with two integers, got '1,2,3'"),
        (["--slice", "a,2"], "--slice expects K,L with two integers, got 'a,2'"),
        (["--gen", "ep:3", "--r", "3"],
         "--gen expects ep:M,P with two integers, got 'ep:3'"),
        (["--gen", "ep:3,2,1", "--r", "3"],
         "--gen expects ep:M,P with two integers, got 'ep:3,2,1'"),
        (["--gen", "phi:x", "--r", "3"],
         "--gen expects phi:N with one integer, got 'phi:x'"),
    ], ids=["slice-one", "slice-three", "slice-not-int", "ep-one", "ep-three",
            "phi-not-int"])
    def test_malformed_pair_flags_are_user_errors(self, capsys, flags, message):
        rc = run(["ideal-span", "--family", "o", "--m", "3"] + flags)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message

    def test_degree_over_budget_is_user_error(self, capsys):
        # |B(12, 12)|^2 = (23!!)^2 cells; without the budget this enumerates
        # B(12, 12) until memory runs out
        rc = run(["ideal-span", "--family", "sp", "--m", "2", "--gen", "phi:1",
                  "--r", "12"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: computation needs")

    def test_symplectic_kernel_at_degree_five(self, capsys):
        rc, payload = invoke_json(capsys, "ideal-span", "--family", "sp", "--m", "2",
                                  "--gen", "phi:1", "--r", "5")
        assert rc == 0
        assert payload == {"dimension": 903}

    def test_slice_three_three_fits_the_budget(self, capsys):
        # bends to (0, 6): |B(0, 6)|^2 = 15^2 cells; kernel_dimension(3, 3) = 10
        rc, payload = invoke_json(capsys, "ideal-span", "--family", "sp", "--m", "2",
                                  "--slice", "3,3")
        assert rc == 0
        assert payload == {"dimension": 10}

    def test_slice_over_budget_is_user_error(self, capsys):
        # bends to (0, 12): |B(0, 12)|^2 = 10395^2 cells
        rc = run(["ideal-span", "--family", "sp", "--m", "2", "--slice", "6,6"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_slice_of_sp8_at_degree_five_is_one_dimensional(self, capsys):
        # bends to (0, 10): |B(0, 10)|^2 = 945^2 cells, inside the budget;
        # one dimension, the line of bent Phi_4
        rc, payload = invoke_json(capsys, "ideal-span", "--family", "sp", "--m", "8",
                                  "--slice", "5,5")
        assert rc == 0
        assert payload == {"dimension": 1}

    @pytest.mark.parametrize("flags,count", [
        (["--gen", "phi:1", "--r", "3000"], "(5999!!)^2"),
        (["--slice", "1500,1500"], "(2999!!)^2"),
        (["--gen", "phi:1", "--r", "300000"], "(599999!!)^2"),
        (["--slice", "300000,300000"], "(599999!!)^2"),
    ], ids=["gen-r3000", "slice-1500", "gen-r300000", "slice-300000"])
    def test_huge_count_gets_the_budget_message(self, capsys, flags, count):
        # counts far too long for "%d" are named by formula and never formed
        rc = run(["ideal-span", "--family", "sp", "--m", "2"] + flags)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "error: computation needs %s matrix cells, above the limit %d; "
            "raise BRAUER_MAX_CELLS to allow it\n" % (count, max_cells()))

    def test_generator_over_another_prime_field_is_refused(self, capsys,
                                                           tmp_path):
        # -E_2 reduced mod 7 has coefficients 6; read mod 5 they would be
        # 1, and the span of E_2 (dimension 82) came out
        _, text = invoke(capsys, "ep", "--m", "3", "--p", "2")
        e2 = brauer.morphism_from_json(json.loads(text))
        path = tmp_path / "f7.json"
        path.write_text(json.dumps(brauer.morphism_to_json(
            brauer.reduce_mod_p(brauer.lin_scale(-1, e2), 7))))
        rc = run(["ideal-span", "--family", "o", "--m", "3", "--modulus",
                  "5", "--gen", "@%s" % path, "--r", "4"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == ("error: morphism ring PrimeField(7) does not "
                                "match group field PrimeField(5)\n")
        rc, payload = invoke_json(capsys, "ideal-span", "--family", "o", "--m",
                                  "3", "--modulus", "5", "--gen", "ep:3,2",
                                  "--r", "4")
        assert rc == 0
        assert payload == {"dimension": 14}

    def test_requires_generator_or_slice(self, capsys):
        rc, _ = invoke(capsys, "ideal-span", "--family", "sp", "--m", "2")
        assert rc == 2


class TestIgnoredFlagsAreRefused:
    """Flag combinations that would otherwise be silently ignored exit 2."""

    @pytest.mark.parametrize("argv,message", [
        (["rank", "--family", "o", "--n", "2", "--k", "2", "--l", "2"],
         "--n is symplectic shorthand for m = 2n; it needs --family sp"),
        (["rank", "--family", "sp", "--m", "4", "--n", "3", "--k", "2",
          "--l", "2"],
         "--m 4 disagrees with --n 3: --n means m = 2n"),
        (["verify", "--suite", "pau", "--family", "sp", "--m", "4", "--n", "3"],
         "--m 4 disagrees with --n 3: --n means m = 2n"),
        (["verify", "--suite", "pau", "--n", "1"],
         "--n is symplectic shorthand for m = 2n; it needs --family sp"),
        (["ideal-span", "--family", "sp", "--m", "2", "--slice", "4,0",
          "--gen", "phi:1", "--r", "3"],
         "ideal-span takes --slice K,L alone, or --gen with --r; not both"),
        (["ideal-span", "--family", "sp", "--m", "2", "--slice", "4,0",
          "--r", "3"],
         "ideal-span takes --slice K,L alone, or --gen with --r; not both"),
    ], ids=["n-with-o", "m-n-disagree", "verify-m-n-disagree", "verify-n-alone",
            "slice-with-gen", "slice-with-r"])
    def test_refused_with_message(self, capsys, argv, message):
        rc = run(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message

    def test_agreeing_m_and_n_are_accepted(self, capsys):
        rc, payload = invoke_json(capsys, "rank", "--family", "sp", "--m", "4",
                                  "--n", "2", "--k", "2", "--l", "2")
        assert rc == 0
        assert payload == {"rank": 3, "kernel_dim": 0}


class TestParserErrors:
    """A command line the parser refuses gives one stderr line, the same
    shape as every other input error, and exit 2; --help is unchanged."""

    @pytest.mark.parametrize("argv,message", [
        (["rank", "--family", "sp", "--m", "2", "--k", "-1", "--l", "3"],
         "argument --k: malformed integer '-1': expected ASCII decimal digits"),
        (["rank", "--family", "sp", "--m", "2", "--bogus", "--k", "1",
          "--l", "3"],
         "unrecognized arguments: --bogus"),
        (["rank", "--family", "sp", "--m", "2", "--l", "3"],
         "the following arguments are required: --k"),
    ], ids=["negative-k", "unknown-flag", "missing-k"])
    def test_one_error_line(self, capsys, argv, message):
        rc = run(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message

    def test_help_is_unchanged(self, capsys):
        rc = run(["rank", "--help"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.startswith("usage: brauer rank ")
        assert captured.err == ""


class TestVerify:
    def test_relations_suite_passes(self, capsys):
        rc, payload = invoke_json(capsys, "verify", "--suite", "relations")
        assert rc == 0
        assert payload["suite"] == "relations"
        assert payload["total"] == payload["passed"] > 0
        assert all(c["pass"] for c in payload["checks"])

    def test_pau_suite_restricted(self, capsys):
        rc, payload = invoke_json(capsys, "verify", "--suite", "pau",
                                  "--family", "sp", "--m", "2")
        assert rc == 0
        assert payload["passed"] == payload["total"]

    def test_failing_check_sets_exit_code(self, capsys, monkeypatch):
        import brauer.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "run_suite",
            lambda name, **kw: [Check(case="forced", passed=False,
                                      expected="0", computed="1")])
        rc, payload = invoke_json(capsys, "verify", "--suite", "relations")
        assert rc == 1
        assert payload["passed"] == 0

    @pytest.mark.parametrize("suite", ["pau", "ep", "kernel"])
    @pytest.mark.parametrize("m", [2.9, 3.0, "3", True])
    def test_suite_dimension_is_not_truncated(self, suite, m):
        with pytest.raises(ValueError, match="not a non-negative integer"):
            verify.run_suite(suite, m=m)

    def test_misspelled_option_is_a_type_error(self):
        with pytest.raises(TypeError):
            verify.run_suite("pau", famly="o")

    @pytest.mark.parametrize("family", ["orthogonal", "O"])
    def test_family_aliases_select_the_same_groups(self, family):
        assert verify.run_suite("ep", family=family, m=2) == \
            verify.run_suite("ep", family="o", m=2)

    @pytest.mark.parametrize("suite,options,message", [
        ("pau", {"family": "u"}, "unknown family 'u'"),
        ("nope", {}, "unknown suite 'nope'"),
        ("sigma", {"m": 2}, "suite sigma takes no --family, --m or --n"),
    ])
    def test_library_refusals(self, suite, options, message):
        with pytest.raises(ValueError, match=message):
            verify.run_suite(suite, **options)

    def test_all_runs_each_suite_through_the_module_global(self, monkeypatch):
        # A traced run_suite records one span per suite only if "all"
        # looks run_suite up on the module for each of them.
        real = verify.run_suite
        calls = []

        def recording(name, **options):
            calls.append((name, options))
            return []

        monkeypatch.setattr(verify, "run_suite", recording)
        assert real("all", include_optional=True) == []
        assert calls == [(name, {"include_optional": name == "ep"})
                         for name in verify.SUITE_NAMES if name != "all"]


# One value of each verify filter flag, and the (suite, flag) pairings the
# flag rules accept: --family/--m/--n go to pau, ep and kernel when they
# select one of the suite's groups, --include-optional to ep and all.
VERIFY_FLAGS = {
    "family": ["--family", "sp"],
    "m": ["--m", "2"],
    "n": ["--family", "sp", "--n", "1"],
    "include-optional": ["--include-optional"],
}
VERIFY_ACCEPTED = {
    ("pau", "family"), ("pau", "m"), ("pau", "n"),
    ("ep", "m"), ("ep", "include-optional"),
    ("kernel", "family"), ("kernel", "m"), ("kernel", "n"),
    ("all", "include-optional"),
}


class TestVerifyFlagRules:
    @pytest.mark.parametrize("flag", sorted(VERIFY_FLAGS))
    @pytest.mark.parametrize("suite", verify.SUITE_NAMES)
    def test_each_pairing_runs_or_exits_two(self, capsys, suite, flag):
        rc = run(["verify", "--suite", suite] + VERIFY_FLAGS[flag])
        captured = capsys.readouterr()
        if (suite, flag) in VERIFY_ACCEPTED:
            assert rc == 0
            payload = json.loads(captured.out)
            assert payload["total"] == payload["passed"] >= 1
            return
        assert rc == 2
        assert captured.out == ""
        if flag == "include-optional":
            accepting = "only ep and all do"
        elif suite == "ep":
            accepting = "selects none of the groups of suite ep: O(2), O(3)"
        else:
            accepting = "only pau, ep and kernel do"
        assert captured.err.startswith("error: ")
        assert accepting in captured.err

    @pytest.mark.parametrize("argv,message", [
        (["pau", "--family", "o", "--m", "5"],
         "--family o --m 5 selects none of the groups of suite pau: "
         "O(2), O(3), Sp(2), Sp(4)"),
        (["ep", "--family", "sp"],
         "--family sp selects none of the groups of suite ep: O(2), O(3)"),
        (["ep", "--m", "4"],
         "--m 4 selects none of the groups of suite ep: O(2), O(3)"),
        (["ep", "--m", "6", "--include-optional"],
         "--m 6 selects none of the groups of suite ep: O(2), O(3), O(4), O(5)"),
        (["kernel", "--m", "7"],
         "--m 7 selects none of the groups of suite kernel: "
         "O(2), O(3), Sp(2), Sp(4)"),
        (["kernel", "--family", "sp", "--n", "3"],
         "--family sp --m 6 selects none of the groups of suite kernel: "
         "O(2), O(3), Sp(2), Sp(4)"),
        (["phi", "--family", "sp", "--m", "2"],
         "suite phi takes no --family, --m or --n; only pau, ep and kernel do"),
        (["charp", "--family", "o", "--m", "3"],
         "suite charp takes no --family, --m or --n; only pau, ep and kernel do"),
        (["all", "--family", "sp"],
         "suite all takes no --family, --m or --n; only pau, ep and kernel do"),
        (["relations", "--include-optional"],
         "suite relations takes no --include-optional; only ep and all do"),
    ])
    def test_refusal_message(self, capsys, argv, message):
        rc = run(["verify", "--suite"] + argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message

    def test_optional_groups_can_be_selected(self, capsys):
        rc, payload = invoke_json(capsys, "verify", "--suite", "ep", "--m", "4",
                                  "--include-optional")
        assert rc == 0
        assert payload["total"] == payload["passed"] == 6
        assert all(c["case"].startswith("m=4:") for c in payload["checks"])


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


class TestGoldenOutput:
    """JSON output of integer-coefficient commands, of functor matrices
    and of the full verification report, pinned byte for byte."""

    @pytest.mark.parametrize("name,argv", [
        ("phi_n3.json", ["phi", "--n", "3"]),
        ("ep_m3_p2.json", ["ep", "--m", "3", "--p", "2"]),
        ("dpq_n2_p2_q1.json", ["dpq", "--n", "2", "--p", "2", "--q", "1"]),
        ("dpq_n3_p3_q1.json", ["dpq", "--n", "3", "--p", "3", "--q", "1"]),
        ("kernel_o3_k4_l4.json",
         ["kernel", "--family", "o", "--m", "3", "--k", "4", "--l", "4"]),
        ("kernel_sp4_k4_l4_p101.json",
         ["kernel", "--family", "sp", "--m", "4", "--k", "4", "--l", "4",
          "--modulus", "101"]),
        ("verify_all.json", ["verify", "--suite", "all"]),
        ("functor_sp4_k2_l2.json",
         ["functor-matrix", "--family", "sp", "--m", "4", CROSS]),
        ("functor_o3_k1_l3_p7.json",
         ["functor-matrix", "--family", "o", "--m", "3", "--modulus", "7",
          '{"k": 1, "l": 3, "pairs": [[0, 2], [1, 3]]}']),
    ])
    def test_output_matches_golden_file(self, capsys, name, argv):
        rc, out = invoke(capsys, *argv)
        assert rc == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")


class TestIntegerText:
    """Every integer in command-line text is read as ASCII decimal digits:
    no sign, space, underscore or digit of another script."""

    MALFORMED = ["\u0663", "1_0", " 3", "+3", "3.0", "-1"]

    def test_every_integer_flag_reads_ascii_digits_only(self, capsys):
        parser = cli._build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        flags = []
        for name, sub in commands.items():
            for action in sub._actions:
                # Every other flag takes text; its integers are read by
                # the same reader (see test_integer_text_is_refused).
                assert action.type in (None, cli._natural), (name, action.dest)
                if action.type is None:
                    continue
                flag = action.option_strings[0]
                flags.append((name, flag))
                assert action.type("12") == 12
                for text in self.MALFORMED:
                    rc = run([name, "%s=%s" % (flag, text)])
                    captured = capsys.readouterr()
                    assert rc == 2
                    assert captured.out == ""
                    assert ("error: argument %s: malformed integer %r"
                            % (flag, text)) in captured.err
        assert {("rank", "--k"), ("kernel", "--m"), ("word-eval", "--domain"),
                ("sigma", "--r"), ("ideal-span", "--r"), ("dpq", "--q"),
                ("verify", "--n")} <= set(flags)

    @pytest.mark.parametrize("argv", [
        ["rank", "--family", "o", "--m", "\u0663", "--k", "2", "--l", "2"],
        ["rank", "--family", "o", "--m", "1_0", "--k", "2", "--l", "2"],
        ["ep", "--m", "-1", "--p", "0"],
        ["ideal-span", "--family", "sp", "--m", "2", "--slice", "\u0663,1"],
        ["ideal-span", "--family", "o", "--m", "2", "--gen", "ep:-1,0",
         "--r", "3"],
        ["ideal-span", "--family", "sp", "--m", "2", "--gen", "phi:1_0",
         "--r", "3"],
        ["word-eval", "--domain", "2", "0_0:X:0"],
        ["sigma", "--eps", "\u0661", "--r", "2"],
        ["sigma", "--eps", "+1", "--r", "2"],
    ], ids=["m-arabic-indic", "m-underscore", "ep-m-1", "slice-arabic-indic",
            "gen-ep-m-1", "gen-phi-underscore", "word-underscore",
            "eps-arabic-indic", "eps-plus"])
    def test_integer_text_is_refused(self, capsys, argv):
        rc = run(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "error: " in captured.err
        assert "Traceback" not in captured.err

    def test_cell_budget_text_is_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("BRAUER_MAX_CELLS", "1_000_000_0")
        rc = run(["sigma", "--eps", "1", "--r", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == ("error: BRAUER_MAX_CELLS must be an integer in "
                                "ASCII decimal digits: '1_000_000_0'\n")


class TestHarness:
    def test_text_format(self, capsys):
        rc, out = invoke(capsys, "--format", "text", "rank", "--family", "sp",
                         "--m", "2", "--k", "2", "--l", "2")
        assert rc == 0
        assert "rank: 2" in out
        assert "kernel_dim: 1" in out

    def test_argparse_errors_exit_two(self, capsys):
        assert run(["no-such-command"]) == 2
        assert run(["sigma", "--r", "2"]) == 2  # missing --eps

    def test_output_is_deterministic(self, capsys):
        _, first = invoke(capsys, "kernel", "--family", "sp", "--m", "2",
                          "--k", "2", "--l", "2")
        _, second = invoke(capsys, "kernel", "--family", "sp", "--m", "2",
                           "--k", "2", "--l", "2")
        assert first == second

    def test_module_entry_point(self, tmp_path):
        # The child must import the same package as this process, from any
        # working directory: put its absolute location first on PYTHONPATH.
        package_root = str(pathlib.Path(brauer.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "brauer.cli", "rank", "--family", "sp",
             "--m", "2", "--k", "2", "--l", "2"],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"rank": 2, "kernel_dim": 1}

    def test_benchmark_probe_reports_backend(self, tmp_path):
        # perfbench/one_pass.py reads brauer.ops.BACKEND for its info line.
        repo = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, str(repo / "perfbench" / "one_pass.py"), "ideals",
             "0", "probe"],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["backend"] == "python"
