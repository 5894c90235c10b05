"""Tests for the `knit` command-line front end."""

import json

import pytest

from knit.braid import parse_braid
from knit.cli import CROSSING_LIMIT_ENV, CommandResult, main, run
from knit.diagram import closure_plat, closure_trace
from knit.jones import jones_polynomial
from knit.laurent import LaurentPoly
from knit.qsim import approx_jones
from knit.su2q import colored_invariant


class TestExamples:
    def test_jones_trefoil_trace_closure(self):
        res = run(["jones", "s1^3", "-n", "2", "--closure", "trace"])
        assert res.exit_code == 0
        expected = jones_polynomial(closure_trace(parse_braid("s1^3", 2)))
        rebuilt = LaurentPoly.from_json_terms(res.payload["polynomial"]["terms"])
        assert rebuilt == expected

    def test_eq_braid_relation(self):
        res = run(["eq", "s1 s2 s1", "s2 s1 s2", "-n", "3"])
        assert res.exit_code == 0
        assert res.payload == {"equal": True}

    def test_eq_detects_difference(self):
        res = run(["eq", "s1", "s1^-1", "-n", "2"])
        assert res.exit_code == 0
        assert res.payload == {"equal": False}

    def test_out_of_range_generator_is_a_parse_error(self):
        res = run(["jones", "s2", "-n", "2"])
        assert res.exit_code == 2
        assert "out of range" in res.payload["error"]
        assert res.payload["kind"] == "parse"


class TestUsage:
    def test_unknown_subcommand(self):
        res = run(["frobnicate"])
        assert res.exit_code == 2
        assert "usage" in res.rendered.lower()

    def test_unknown_flag(self):
        res = run(["jones", "s1", "-n", "2", "--frobnicate"])
        assert res.exit_code == 2
        assert "usage" in res.rendered.lower()

    def test_missing_subcommand(self):
        res = run([])
        assert res.exit_code == 2


class TestParse:
    def test_reports_word_data(self):
        res = run(["parse", "s1 s2^-1", "-n", "3"])
        assert res.exit_code == 0
        assert res.payload["strands"] == 3
        assert res.payload["length"] == 2
        assert res.payload["exponent_sum"] == 0
        assert res.payload["letters"] == [[1, 1], [2, -1]]
        assert res.payload["permutation"] == [3, 1, 2]

    def test_strand_count_inferred_from_largest_generator(self):
        res = run(["parse", "s3^2"])
        assert res.exit_code == 0
        assert res.payload["strands"] == 4

    def test_empty_word(self):
        res = run(["parse", "", "-n", "2"])
        assert res.exit_code == 0
        assert res.payload["length"] == 0


class TestNormalForm:
    def test_braid_relator_is_trivial(self):
        res = run(["nf", "s1 s2 s1 s2^-1 s1^-1 s2^-1", "-n", "3"])
        assert res.exit_code == 0
        assert res.payload["trivial"] is True
        assert res.payload["canonical_length"] == 0

    def test_half_twist_power_of_inverse(self):
        res = run(["nf", "s1^-1", "-n", "2"])
        assert res.exit_code == 0
        assert res.payload["half_twist_power"] == -1


class TestClosureInfo:
    def test_trace_closure_of_trefoil_word(self):
        res = run(["closure-info", "s1^3", "-n", "2"])
        assert res.exit_code == 0
        assert res.payload["components"] == 1
        assert res.payload["crossings"] == 3
        assert res.payload["writhe"] == 3

    def test_plat_closure_of_hopf_word(self):
        res = run(["closure-info", "s2^2", "-n", "4", "--closure", "plat"])
        assert res.exit_code == 0
        assert res.payload["components"] == 2
        assert res.payload["linking_sum"] in (-1, 1)

    def test_plat_needs_even_strand_count(self):
        res = run(["closure-info", "s1", "-n", "3", "--closure", "plat"])
        assert res.exit_code == 1


class TestJones:
    def test_plat_and_trace_agree_on_trefoil(self):
        plat = run(["jones", "s2^3", "-n", "4", "--closure", "plat"])
        trace = run(["jones", "s1^3", "-n", "2", "--closure", "trace"])
        assert plat.exit_code == trace.exit_code == 0
        assert plat.payload["polynomial"]["terms"] == trace.payload["polynomial"]["terms"]

    def test_at_root_value(self):
        res = run(["jones", "s1^3", "-n", "2", "--at-root", "5"])
        assert res.exit_code == 0
        at = res.payload["value_at_root"]
        from knit.laurent import evaluate_at_root

        expected = evaluate_at_root(
            jones_polynomial(closure_trace(parse_braid("s1^3", 2))), 5
        )
        assert at["re"] == pytest.approx(expected.real)
        assert at["im"] == pytest.approx(expected.imag)

    def test_bad_root_is_domain_error(self):
        res = run(["jones", "s1^3", "-n", "2", "--at-root", "0"])
        assert res.exit_code == 1

    def test_crossing_limit_env_triggers_resource_exit(self, monkeypatch):
        monkeypatch.setenv(CROSSING_LIMIT_ENV, "2")
        res = run(["jones", "s1^3", "-n", "2"])
        assert res.exit_code == 3

    def test_crossing_limit_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv(CROSSING_LIMIT_ENV, "many")
        res = run(["jones", "s1^3", "-n", "2"])
        assert res.exit_code == 1

    def test_crossing_limit_env_must_be_nonnegative(self, monkeypatch):
        monkeypatch.setenv(CROSSING_LIMIT_ENV, "-1")
        res = run(["jones", "s1^3", "-n", "2", "--json"])
        assert res.exit_code == 1
        assert res.payload["kind"] == "domain"

    def test_round_trip_through_json_rendering(self):
        res = run(["jones", "s1 s2^-1 s1 s2^-1", "-n", "3", "--json"])
        assert res.exit_code == 0
        parsed = json.loads(res.rendered)
        rebuilt = LaurentPoly.from_json_terms(parsed["polynomial"]["terms"])
        expected = jones_polynomial(closure_trace(parse_braid("s1 s2^-1 s1 s2^-1", 3)))
        assert rebuilt == expected


class TestColored:
    def test_matches_library_value(self):
        res = run(["colored", "s2^3", "-n", "4", "--colors", "1", "--root", "7"])
        assert res.exit_code == 0
        expected = colored_invariant(parse_braid("s2^3", 4), [1], 7)
        assert complex(res.payload["value_re"], res.payload["value_im"]) == (
            pytest.approx(expected)
        )
        assert res.payload["normalization"] == "none"

    def test_ambient_normalization_ignores_kinks(self):
        base = run(
            ["colored", "s2^3", "-n", "4", "--colors", "1", "--root", "5",
             "--normalize", "ambient"]
        )
        kinked = run(
            ["colored", "s2^3 s1", "-n", "4", "--colors", "1", "--root", "5",
             "--normalize", "ambient"]
        )
        assert base.exit_code == kinked.exit_code == 0
        assert complex(
            kinked.payload["value_re"], kinked.payload["value_im"]
        ) == pytest.approx(
            complex(base.payload["value_re"], base.payload["value_im"])
        )

    def test_regular_normalization_sees_kinks(self):
        base = run(
            ["colored", "s2^3", "-n", "4", "--colors", "1", "--root", "5",
             "--normalize", "regular"]
        )
        kinked = run(
            ["colored", "s2^3 s1", "-n", "4", "--colors", "1", "--root", "5",
             "--normalize", "regular"]
        )
        assert complex(
            kinked.payload["value_re"], kinked.payload["value_im"]
        ) != pytest.approx(
            complex(base.payload["value_re"], base.payload["value_im"])
        )

    def test_wrong_color_count_is_domain_error(self):
        res = run(["colored", "s2^3", "-n", "4", "--colors", "1,1", "--root", "7"])
        assert res.exit_code == 1

    def test_malformed_colors_are_a_parse_error(self):
        res = run(["colored", "s2^3", "-n", "4", "--colors", "1,x", "--root", "7"])
        assert res.exit_code == 2

    def test_numerical_breakdown_is_a_limit_error_not_nan(self):
        res = run(["colored", "s1", "-n", "2", "--colors", "300", "--root", "400", "--json"])
        assert res.exit_code == 3
        assert res.payload["kind"] == "limit"
        assert "NaN" not in res.rendered
        assert "NaN" not in json.dumps(res.payload)


class TestApprox:
    def test_matches_library_call_bit_for_bit(self):
        res = run(
            ["approx", "s2^3", "-n", "4", "--root", "5", "--delta", "0.2",
             "--seed", "11"]
        )
        assert res.exit_code == 0
        expected = approx_jones(parse_braid("s2^3", 4), 5, 0.2, 0.75, 11)
        assert res.payload == expected.to_json_dict()

    def test_deterministic_across_invocations(self):
        argv = ["approx", "s2^3", "-n", "4", "--root", "5", "--delta", "0.3",
                "--seed", "7", "--json"]
        first, second = run(argv), run(argv)
        assert first.payload == second.payload
        assert first.rendered == second.rendered

    def test_seed_changes_the_estimate(self):
        base = ["approx", "s2^3", "-n", "4", "--root", "5", "--delta", "0.3"]
        a = run(base + ["--seed", "1"])
        b = run(base + ["--seed", "2"])
        assert a.payload["Z_re"] != b.payload["Z_re"]

    def test_tractable_root_warns(self):
        res = run(["approx", "s2^3", "-n", "4", "--root", "6", "--delta", "0.3"])
        assert res.exit_code == 0
        assert res.payload["tractable_root"] is True
        assert any("tractable" in note for note in res.diagnostics)

    def test_degenerate_root_is_domain_error(self):
        res = run(["approx", "s2^3", "-n", "4", "--root", "2", "--delta", "0.1"])
        assert res.exit_code == 1

    def test_zero_delta_is_domain_error(self):
        res = run(["approx", "s2^3", "-n", "4", "--root", "5", "--delta", "0"])
        assert res.exit_code == 1


class TestInvarianceTest:
    def test_all_families_pass(self):
        res = run(["invariance-test", "--trials", "3", "--seed", "5"])
        assert res.exit_code == 0
        assert res.payload["all_passed"] is True
        assert set(res.payload["results"]) == {
            "markov-conjugate",
            "markov-stabilize",
            "RI",
            "RII",
            "RIII",
        }
        for row in res.payload["results"].values():
            assert row == {"passed": 3, "trials": 3}

    def test_deterministic_given_seed(self):
        argv = ["invariance-test", "--trials", "2", "--seed", "9"]
        assert run(argv).payload == run(argv).payload

    def test_rejects_nonpositive_trials(self):
        res = run(["invariance-test", "--trials", "0"])
        assert res.exit_code == 1


class TestMainEntryPoint:
    def test_prints_rendered_output(self, capsys):
        code = main(["eq", "s1 s2 s1", "s2 s1 s2", "-n", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "equal"

    def test_json_flag_prints_json(self, capsys):
        code = main(["eq", "s1 s2 s1", "s2 s1 s2", "-n", "3", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out) == {"equal": True}

    def test_errors_go_to_stderr(self, capsys):
        code = main(["jones", "s2", "-n", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "out of range" in captured.err
        assert captured.out == ""

    def test_diagnostics_go_to_stderr(self, capsys):
        code = main(
            ["approx", "s2^3", "-n", "4", "--root", "6", "--delta", "0.4"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "tractable" in captured.err

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()


class TestCommandResult:
    def test_zero_exit_iff_no_error(self):
        ok = run(["parse", "s1"])
        bad = run(["parse", "s1 x"])
        assert ok.exit_code == 0 and "error" not in ok.payload
        assert bad.exit_code != 0 and "error" in bad.payload

    def test_is_a_plain_record(self):
        res = CommandResult(0, {"k": 1})
        assert res.diagnostics == []
        assert res.rendered == ""
