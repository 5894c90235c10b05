"""Tests for the `knit` command-line front end."""

import cmath
import io
import json
import math
import random
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import pytest

from knit import cli, su2q
from knit.braid import LETTER_LIMIT, STRAND_LIMIT, parse_braid, random_braid
from knit.cli import TRIAL_LIMIT, CommandResult, main, run
from knit.diagram import closure_plat, closure_trace, plat_profile
from knit.jones import CROSSING_LIMIT_ENV, jones_polynomial
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


class TestLetterLimit:
    @pytest.mark.parametrize("power", ["99999999999999999999999", str(LETTER_LIMIT + 1)])
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    @pytest.mark.parametrize(
        "command", [["parse", "s1^{p}"], ["nf", "s1^-{p}"], ["eq", "s1", "s1^{p}"]]
    )
    def test_huge_power_is_a_limit_error(self, command, mode, power):
        argv = [arg.format(p=power) for arg in command] + ["-n", "2"] + mode
        res = run(argv)
        assert res.exit_code == 3
        assert res.payload["kind"] == "limit"
        assert f"{LETTER_LIMIT} letters" in res.payload["error"]
        assert res.rendered == f"error: {res.payload['error']}"


class TestStrandLimit:
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    @pytest.mark.parametrize("strands", [[], ["-n", "3"]])
    @pytest.mark.parametrize(
        "command", [["parse", "s1 s{g}"], ["nf", "s{g}^-1"], ["eq", "s1", "s{g}"]]
    )
    def test_huge_generator_is_a_typed_error(self, command, strands, mode):
        argv = [arg.format(g="9" * 5000) for arg in command] + strands + mode
        res = run(argv)
        # past the range of -n it is a bad word; inferred it needs too many strands
        kind, code = ("parse", 2) if strands else ("limit", 3)
        assert (res.exit_code, res.payload["kind"]) == (code, kind)
        assert res.rendered == f"error: {res.payload['error']}"
        assert len(res.payload["error"]) < 200  # the digits are not echoed

    @pytest.mark.parametrize(
        "command", [["parse", "s1"], ["nf", "s1"], ["eq", "s1", "s1"]]
    )
    def test_strand_count_past_the_limit_is_refused_cheaply(self, command):
        tracemalloc.start()
        try:
            res = run(command + ["-n", str(STRAND_LIMIT + 1)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (res.exit_code, res.payload["kind"]) == (3, "limit")
        assert f"{STRAND_LIMIT} strands" in res.payload["error"]
        assert peak < 1_000_000

    @pytest.mark.parametrize("command", [["parse", "s1"], ["eq", "s1", "s1"]])
    @pytest.mark.parametrize(
        "strands, shown",
        [("9" * 4000, "of 4000 digits"), ("1" + "0" * 20, "of 21 digits"),
         ("9" * 20, "9" * 20)],
        ids=["4000-digits", "21-digits", "20-digits"],
    )
    def test_long_strand_count_is_named_by_its_digits(self, command, strands, shown):
        res = run(command + ["-n", strands])
        assert (res.exit_code, res.payload["kind"]) == (3, "limit")
        assert res.payload["error"] == f"braid index {shown} is past {STRAND_LIMIT} strands"

    def test_inferred_strand_count_at_the_limit(self):
        res = run(["parse", f"s{STRAND_LIMIT - 1}", "--json"])
        assert res.exit_code == 0
        assert res.payload["strands"] == STRAND_LIMIT
        assert res.payload["permutation"][-2:] == [STRAND_LIMIT, STRAND_LIMIT - 1]

    def test_eq_lifts_the_narrower_word(self):
        res = run(["eq", "s1 s2 s1", "s2 s1 s2"])
        assert res.payload == {"equal": True}
        res = run(["eq", "s1 s1^-1", "s3 s3^-1"])
        assert res.payload == {"equal": True}
        res = run(["eq", "s1", "s1 s3 s3^-1"])
        assert res.payload == {"equal": True}
        res = run(["eq", "s1", "s3"])
        assert res.payload == {"equal": False}


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


class TestStandardInput:
    @staticmethod
    def _stdin(monkeypatch, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))

    def test_a_long_word_is_read_from_standard_input(self, monkeypatch):
        # 200,000 B8 tokens are about 930 KB, past the 128 KB one
        # command-line argument may hold
        rng = random.Random(8)
        word = " ".join(
            f"s{rng.randrange(1, 8)}" + rng.choice(("", "^-1", "^2")) for _ in range(200_000)
        )
        assert len(word) > 900_000
        self._stdin(monkeypatch, word + "\n")
        piped = run(["parse", "-", "-n", "8", "--json"])
        assert piped.exit_code == 0
        assert piped.payload == run(["parse", word, "-n", "8", "--json"]).payload

    def test_jones_of_standard_input(self, monkeypatch):
        word = "s1 s2^-1 s1 s2^-1 s3 s2"
        self._stdin(monkeypatch, word)
        piped = run(["jones", "-", "--json"])
        assert piped.exit_code == 0
        assert piped.rendered == run(["jones", word, "--json"]).rendered

    def test_eq_with_one_word_from_standard_input(self, monkeypatch):
        self._stdin(monkeypatch, "s2 s1 s2")
        assert run(["eq", "s1 s2 s1", "-"]).payload == {"equal": True}

    def test_eq_cannot_read_both_words_from_standard_input(self, monkeypatch):
        self._stdin(monkeypatch, "s1 s2 s1")
        res = run(["eq", "-", "-"])
        assert (res.exit_code, res.payload["kind"]) == (2, "usage")
        assert res.rendered == f"error: {res.payload['error']}"
        assert "\n" not in res.rendered and len(res.rendered) < 200

    def test_a_malformed_token_has_its_position_in_standard_input(self, monkeypatch):
        self._stdin(monkeypatch, "s1 s2\n  s1x s2")
        res = run(["parse", "-"])
        assert (res.exit_code, res.payload["kind"]) == (2, "parse")
        assert res.payload["position"] == 8

    def test_standard_input_that_does_not_decode_is_one_usage_line(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"s1 \xff s2"), "utf-8"))
        res = run(["parse", "-"])
        assert (res.exit_code, res.payload["kind"]) == (2, "usage")
        assert res.rendered == "error: standard input is not utf-8 text"

    def test_standard_input_past_its_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(cli, "STDIN_LIMIT", 8)
        self._stdin(monkeypatch, "s1 s2 s1 s2")
        res = run(["parse", "-"])
        assert (res.exit_code, res.payload["kind"]) == (3, "limit")
        assert res.rendered == "error: standard input is past 8 characters"
        self._stdin(monkeypatch, "s1 s2 s1")
        assert run(["parse", "-"]).exit_code == 0


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

    @pytest.mark.parametrize(
        "command",
        [["nf", "s1^1000000", "-n", "1000"], ["eq", "s1^2000", "s1", "-n", "1000"],
         ["nf", "s1^5000 s3^5000", "-n", "4", "--json"]],
    )
    def test_cost_guard_exits_3_without_a_traceback(self, command, capsys):
        code = main(command)
        err = capsys.readouterr().err
        assert code == 3
        assert "cost estimate" in err and "Traceback" not in err


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

    def test_trace_figures_read_off_the_word_match_the_closure(self):
        # the word answers without building the closure; the figures must
        # be the closure's, strands that no letter touches included
        rng = random.Random(2506)
        for _ in range(600):
            n = rng.randint(1, 9)
            letters = " ".join(
                f"s{rng.randint(1, n - 1)}^{rng.choice((1, -1))}"
                for _ in range(rng.randint(0, 12) if n > 1 else 0)
            )
            res = run(["closure-info", letters, "-n", str(n), "--json"])
            d = closure_trace(parse_braid(letters, n))
            assert res.exit_code == 0
            assert (res.payload["components"], res.payload["crossings"], res.payload["writhe"]) == (
                d.component_count(), d.crossing_count(), d.writhe()
            ), (letters, n)


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

    def test_huge_root_order_gives_a_finite_value(self, capsys):
        r = 10**399 + 7
        code = main(["jones", "s1 s1 s1", "-n", "2", "--at-root", str(r), "--json"])
        out, err = capsys.readouterr()
        assert code == 0 and "Traceback" not in err
        at = json.loads(out)["value_at_root"]
        assert at["r"] == r
        # q is 1 to double precision, and V(1) = 1 for a knot
        assert (at["re"], at["im"]) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_long_crossing_limit_is_quoted_in_short(self, monkeypatch, capsys):
        # int() refuses this value on every Python, unlike a long run of digits
        monkeypatch.setenv(CROSSING_LIMIT_ENV, "x" * 5000)
        code = main(["jones", "s1^3"])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert CROSSING_LIMIT_ENV in err and "5000" in err
        assert all(len(line) < 200 for line in err.splitlines())

    def test_long_negative_crossing_limit_is_named_by_its_digits(self, monkeypatch):
        monkeypatch.setenv(CROSSING_LIMIT_ENV, "-" + "9" * 4000)
        res = run(["jones", "s1^3"])
        assert (res.exit_code, res.payload["kind"]) == (1, "domain")
        assert res.payload["error"] == (
            f"{CROSSING_LIMIT_ENV} must be nonnegative, got a negative number of 4000 digits"
        )

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

    @pytest.mark.parametrize(
        "closure", [["--closure", "trace"], ["--closure", "plat", "-n", "2"]], ids=["trace", "plat"]
    )
    def test_over_cap_word_is_refused_before_its_closure(self, monkeypatch, closure):
        def refuse(w):
            raise AssertionError("the closure was built")

        monkeypatch.setattr(cli, "closure_trace", refuse)
        monkeypatch.setattr(cli, "closure_plat", refuse)
        res = run(["jones", "s1^1000000", *closure, "--json"])
        assert res.exit_code == 3
        assert res.payload == {
            "error": "state sum over 1000000 crossings exceeds the limit 20",
            "kind": "limit",
        }

    def test_odd_index_plat_over_the_cap_is_still_a_domain_error(self):
        res = run(["jones", "s1^30", "-n", "3", "--closure", "plat", "--json"])
        assert res.exit_code == 1
        assert res.payload["kind"] == "domain"
        assert "even braid index" in res.payload["error"]

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

    def test_ambient_is_the_plain_value_over_the_balanced_denominator(self):
        rng = random.Random(2507)
        for _ in range(300):
            n, r = rng.choice((2, 4, 6)), rng.choice((5, 7, 10))
            w = random_braid(n, rng.randint(0, 8), rng.randrange(10**6))
            colors = [rng.choice((1, 2))] * plat_profile(w).component_count
            argv = ["colored", str(w), "-n", str(n), "--colors", ",".join(map(str, colors)),
                    "--root", str(r), "--normalize", "ambient", "--json"]
            res = run(argv)
            half = cmath.exp(1j * math.pi / r)
            want = colored_invariant(w, colors, r) / (half - 1 / half)
            assert res.exit_code == 0
            assert abs(complex(res.payload["value_re"], res.payload["value_im"]) - want) < 1e-12

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

    @pytest.mark.parametrize("colors", ["7" * 5000, "1," + "x" * 5000], ids=["digits", "malformed"])
    def test_overlong_color_is_a_short_parse_error(self, colors, capsys):
        argv = ["colored", "s1", "-n", "2", "--colors", colors, "--root", "5", "--json"]
        res = run(argv)
        assert res.exit_code == 2
        assert res.payload["kind"] == "parse"
        assert len(res.payload["error"]) < 200
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert all(len(line) < 200 for line in err.splitlines())

    def test_numerical_breakdown_is_a_limit_error_not_nan(self):
        res = run(["colored", "s1", "-n", "2", "--colors", "300", "--root", "400", "--json"])
        assert res.exit_code == 3
        assert res.payload["kind"] == "limit"
        assert "NaN" not in res.rendered
        assert "NaN" not in json.dumps(res.payload)

    def test_numerical_breakdown_is_one_line_without_a_numpy_warning(self, capsys):
        # built afresh, the twist tables of this request hold NaN (about 4 s)
        su2q._twist.cache_clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["colored", "s2", "-n", "4", "--colors", "64", "--root", "1000"]) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: plat contraction broke down numerically")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_non_finite_payload_is_a_limit_error(self, monkeypatch, mode):
        monkeypatch.setattr(su2q, "colored_invariant", lambda w, colors, r: complex("nan"))
        res = run(["colored", "s2^3", "-n", "4", "--colors", "1", "--root", "7", *mode])
        assert res.exit_code == 3
        assert res.payload["kind"] == "limit"
        assert "nan" not in res.rendered.lower()


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

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_infinite_delta_is_domain_error(self, mode):
        res = run(["approx", "s1^2", "-n", "2", "--root", "5", "--delta", "inf", *mode])
        assert res.exit_code == 1
        assert res.payload == {
            "error": "additive error target must be finite, got inf",
            "kind": "domain",
        }


NINES = "9" * 5000  # past the ~4,300 digits int() reads


class TestLongValues:
    """A bad value from outside the program is quoted short, never in full."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["jones", "s1", "-n", NINES],
            ["eq", "s1", "s1", "-n", NINES],
            ["jones", "s1", "--at-root", NINES],
            ["colored", "s1", "-n", "2", "--colors", "1", "--root", NINES],
            ["approx", "s1", "-n", "2", "--root", NINES, "--delta", "0.5"],
            ["approx", "s1", "-n", "2", "--root", "5", "--delta", "0.5", "--seed", NINES],
            ["invariance-test", "--seed", NINES],
            ["invariance-test", "--trials", NINES],
        ],
        ids=["strands", "eq-strands", "at-root", "colored-root", "approx-root",
             "approx-seed", "invariance-seed", "trials"],
    )
    def test_long_int_option_is_a_short_usage_error(self, argv):
        res = run(argv)
        assert (res.exit_code, res.payload["kind"]) == (2, "usage")
        assert "invalid int value: '999999999'... (5000 characters)" in res.payload["error"]
        assert len(res.rendered.splitlines()[0]) < 200

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["parse", "s1", "-n", "-" + "9" * 4000], "braid index must be >= 1"),
            (["invariance-test", "--trials", "-" + "9" * 4000], "trial count must be positive"),
            (["colored", "s1", "-n", "2", "--colors", "1", "--root", "-" + "9" * 4000],
             "root parameter too small: need r >= 3"),
        ],
        ids=["strands", "trials", "colored-root"],
    )
    def test_long_negative_value_is_named_by_its_sign_and_digits(self, argv, message, capsys):
        res = run(argv)
        assert (res.exit_code, res.payload["kind"]) == (1, "domain")
        assert res.payload["error"] == f"{message}, got a negative number of 4000 digits"
        assert main(argv) == 1
        assert all(len(line) < 200 for line in capsys.readouterr().err.splitlines())

    @pytest.mark.parametrize("value", ["x" * 20, "1" * 19 + "x"])
    def test_bad_value_of_twenty_characters_is_quoted_in_full(self, value):
        res = run(["jones", "s1", "-n", value])
        assert res.payload["error"] == f"argument -n/--strands: invalid int value: {value!r}"

    def test_long_malformed_token_is_a_short_parse_error(self, capsys):
        argv = ["parse", "s" + "1" * 5000 + "x"]
        res = run(argv)
        assert (res.exit_code, res.payload["kind"]) == (2, "parse")
        assert res.payload["error"] == (
            "malformed token 's11111111'... (5002 characters) (at position 0)"
        )
        assert main(argv) == 2
        assert all(len(line) < 200 for line in capsys.readouterr().err.splitlines())

    @pytest.mark.parametrize(
        "argv",
        [
            ["jones", "s1^3", "--at-root", "1" + "0" * 400],
            ["approx", "s2^3", "-n", "4", "--root", "5", "--delta", "0.3", "--seed", "9" * 30],
            ["invariance-test", "--trials", "1", "--seed", "9" * 4300],
        ],
        ids=["at-root", "approx-seed", "invariance-seed"],
    )
    def test_long_values_int_reads_are_still_accepted(self, argv):
        assert run(argv).exit_code == 0


class TestHugeRoot:
    @pytest.mark.parametrize(
        "argv",
        [
            ["colored", "s1", "-n", "2", "--colors", "1", "--root", "1" + "0" * 400],
            ["approx", "s1", "-n", "2", "--root", "1" + "0" * 400, "--delta", "0.5"],
        ],
        ids=["colored", "approx"],
    )
    def test_root_past_float_range_is_a_limit_error(self, argv, capsys):
        res = run(argv)
        assert (res.exit_code, res.payload["kind"]) == (3, "limit")
        assert res.payload["error"] == "root parameter of 401 digits is past float range"
        assert main(argv) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["colored", "s1", "-n", "2", "--colors", "1", "--root", str(10**20)],
            ["approx", "s1", "-n", "2", "--root", str(10**20), "--delta", "0.5"],
        ],
        ids=["colored", "approx"],
    )
    def test_root_of_twenty_one_digits_still_answers(self, argv):
        assert run(argv).exit_code == 0


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

    @pytest.mark.parametrize(
        "trials", [TRIAL_LIMIT + 1, 10**6, int("9" * 4000)], ids=["cap+1", "1e6", "4000-digits"]
    )
    def test_trials_past_the_cap_are_refused_before_any_trial(self, monkeypatch, trials):
        def no_trial(family, seed_text):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "_invariance_trial", no_trial)
        res = run(["invariance-test", "--trials", str(trials)])
        assert (res.exit_code, res.payload["kind"]) == (3, "limit")
        assert res.payload["error"].endswith(f"is past {TRIAL_LIMIT}")
        assert len(res.rendered) < 200

    def test_trials_at_the_cap_are_run(self, monkeypatch):
        monkeypatch.setattr(cli, "_invariance_trial", lambda family, seed_text: True)
        res = run(["invariance-test", "--trials", str(TRIAL_LIMIT), "--json"])
        assert res.exit_code == 0
        assert res.payload["results"]["RIII"] == {"passed": TRIAL_LIMIT, "trials": TRIAL_LIMIT}


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


# One request per command and per kind of error: usage, parse, domain, limit.
CORPUS = (
    ["parse", "s1 s2^-1", "-n", "3"],
    ["parse", "s3^2", "--json"],
    ["parse", "", "-n", "2"],
    ["nf", "s1 s2 s1 s2^-1 s1^-1 s2^-1", "-n", "3"],
    ["nf", "s1^-1 s2 s3^2", "--json"],
    ["eq", "s1 s2 s1", "s2 s1 s2", "-n", "3"],
    ["eq", "s1", "s3", "--json"],
    ["closure-info", "s1^3", "-n", "2"],
    ["closure-info", "s2^2", "-n", "4", "--closure", "plat", "--json"],
    ["jones", "s1^3"],
    ["jones", "s2^3", "-n", "4", "--closure", "plat", "--at-root", "5", "--json"],
    ["jones", "s1 s2^-1 s1 s2^-1", "-n", "3", "--at-root", "7"],
    ["colored", "s2^3", "-n", "4", "--colors", "1", "--root", "7"],
    ["colored", "s2^3 s1", "-n", "4", "--colors", "1", "--root", "5",
     "--normalize", "ambient", "--json"],
    ["approx", "s2^3", "-n", "4", "--root", "5", "--delta", "0.3", "--seed", "7"],
    ["approx", "s2^3", "-n", "4", "--root", "6", "--delta", "0.4", "--json"],
    ["invariance-test", "--trials", "1", "--seed", "3"],
    [],
    ["frobnicate"],
    ["jones", "s1", "-n", "2", "--frobnicate"],
    ["jones", "s1", "--closure", "knot"],
    ["jones", "s1", "--at-root", "five", "--json"],
    ["colored", "s2^3", "-n", "4", "--root", "7"],
    ["eq", "s1"],
    ["jones", "s2", "-n", "2"],
    ["parse", "s1 x", "--json"],
    ["colored", "s2^3", "-n", "4", "--colors", "1,x", "--root", "7"],
    ["closure-info", "s1", "-n", "3", "--closure", "plat"],
    ["jones", "s1^3", "-n", "2", "--at-root", "0", "--json"],
    ["invariance-test", "--trials", "0"],
    ["approx", "s2^3", "-n", "4", "--root", "2", "--delta", "0.1"],
    ["parse", f"s1^{LETTER_LIMIT + 1}", "-n", "2"],
    ["nf", "s1^1000000", "-n", "1000", "--json"],
    ["parse", "s1", "-n", str(STRAND_LIMIT + 1)],
    ["colored", "s1", "-n", "2", "--colors", "300", "--root", "400", "--json"],
)


def _seeded_requests(count: int, seed: int) -> list[list[str]]:
    """Small parse, nf, eq, closure-info and jones requests, reproducible."""
    rng = random.Random(seed)
    requests = []
    for _ in range(count):
        n = rng.choice((2, 4, 6)) if rng.random() < 0.3 else rng.randint(2, 5)
        word = str(random_braid(n, rng.randint(0, 8), rng.randrange(2**32)))
        strands = ["-n", str(n)] if rng.random() < 0.8 else []
        mode = ["--json"] if rng.random() < 0.5 else []
        command = rng.choice(("parse", "nf", "eq", "closure-info", "jones"))
        if command == "eq":
            other = str(random_braid(n, rng.randint(0, 6), rng.randrange(2**32)))
            args = [word, other]
        elif command in ("closure-info", "jones"):
            closure = rng.choice(("trace", "plat")) if n % 2 == 0 else "trace"
            args = [word, "--closure", closure]
            if command == "jones" and rng.random() < 0.4:
                args += ["--at-root", str(rng.choice((3, 5, 7, 10)))]
        else:
            args = [word]
        requests.append([command, *args, *strands, *mode])
    return requests


def _record(res: CommandResult) -> tuple:
    return (res.exit_code, res.payload, res.diagnostics, res.command, res.rendered)


class TestParserReuse:
    """``run`` builds its parser once per process; no call may see another's."""

    def test_the_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_options_return_to_their_defaults(self):
        res = run(["jones", "s2^3", "-n", "4", "--closure", "plat", "--at-root", "5"])
        assert res.payload["closure"] == "plat" and "value_at_root" in res.payload
        res = run(["jones", "s1^3", "--json"])
        assert res.payload["closure"] == "trace" and "value_at_root" not in res.payload
        run(["closure-info", "s2^2", "-n", "4", "--closure", "plat"])
        assert run(["closure-info", "s1^3"]).payload["closure"] == "trace"
        args = cli._build_parser().parse_args(["jones", "s1"])
        assert (args.closure_kind, args.at_root, args.strands, args.json) == (
            "trace", None, None, False)

    def test_usage_text_is_the_same_on_every_call(self):
        cli._build_parser.cache_clear()
        argvs = (["jones", "s1", "--frobnicate"], ["colored", "s1"], ["frobnicate"], [])
        first = [run(argv) for argv in argvs]
        for argv in CORPUS[:6]:
            run(argv)
        later = [run(argv) for argv in argvs]
        assert [r.rendered for r in later] == [r.rendered for r in first]
        assert [r.payload for r in later] == [r.payload for r in first]
        assert all(r.exit_code == 2 and "usage: knit" in r.rendered for r in first)

    def test_help_exits_and_later_requests_still_work(self, capsys):
        before = run(["jones", "s1^3", "--json"])
        assert main(["--help"]) == 0
        assert main(["jones", "--help"]) == 0
        assert "usage: knit jones" in capsys.readouterr().out
        after = run(["jones", "s1^3", "--json"])
        assert _record(after) == _record(before)
        assert run(["eq", "s1"]).exit_code == 2

    def test_concurrent_requests_match_sequential_ones(self):
        requests = list(CORPUS[:12]) + _seeded_requests(60, 7)
        expected = [run(argv).rendered for argv in requests]
        workers = 4  # more threads than the cores a CI runner has
        got = [None] * len(requests)
        start = threading.Barrier(workers)

        def serve(offset):
            start.wait()
            for k in range(offset, len(requests), workers):
                got[k] = run(requests[k]).rendered

        threads = [threading.Thread(target=serve, args=(k,)) for k in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside parse_args
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    def test_reused_parser_answers_as_a_fresh_one(self, monkeypatch):
        requests = list(CORPUS) + _seeded_requests(300, 2024)
        reused = [_record(run(argv)) for argv in requests]
        # the undecorated builder makes a new parser for every request
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [_record(run(argv)) for argv in requests]
        assert reused == fresh
        assert {r[0] for r in reused} == {0, 1, 2, 3}


# (argv, exit code, rendered text, diagnostics) of every CORPUS request,
# recorded once from a known-good tree. A change that alters what knit
# prints must show up here: mend the program, never the table.
PINNED = json.loads((Path(__file__).parent / "cli_corpus_output.json").read_text())


def _same_json(got, want) -> bool:
    """Equal documents, floats within 1e-12."""
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same_json(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same_json, got, want))
    return type(got) is type(want) and got == want


class TestPinnedOutput:
    def test_the_table_covers_the_corpus(self):
        assert [row[0] for row in PINNED] == [list(argv) for argv in CORPUS]

    @pytest.mark.parametrize(
        "argv, exit_code, rendered, diagnostics", PINNED, ids=[" ".join(row[0]) for row in PINNED]
    )
    def test_prints_the_pinned_text(self, monkeypatch, argv, exit_code, rendered, diagnostics):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
        res = run(argv)
        assert (res.exit_code, res.diagnostics) == (exit_code, diagnostics)
        if "--json" in argv and exit_code == 0:
            assert _same_json(json.loads(res.rendered), json.loads(rendered))
        else:
            assert res.rendered == rendered
