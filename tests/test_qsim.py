"""Tests for the sampled estimation of plat invariants."""

import math

import numpy as np
import pytest

from knit import qsim, su2q
from knit.braid import BraidWord, parse_braid
from knit.cli import main, run
from knit.diagram import closure_plat
from knit.errors import DomainError, LimitError
from knit.jones import jones_polynomial
from knit.laurent import evaluate_at_root
from knit.qsim import (
    GENERATOR_ID,
    TraceEstimate,
    _sampled_overlap,
    approx_jones,
    estimate_markov_trace,
    plan_samples,
)
from knit.su2q import (
    braiding_operator_for_word,
    colored_invariant,
    jones_value_from_plat,
    q_integer,
)

HALF = 1  # spin 1/2, as a doubled spin

# Three-component plat word in B_6 whose closure is the Borromean rings.
BORROMEAN_PLAT = "s2 s1 s4^-1 s3 s4^-1 s3 s2^-1 s4^-1"

TREFOIL_PLAT = parse_braid("s2^3", 4)
IDENTITY_B2 = BraidWord(2, ())


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, upper = np.linalg.qr(raw)
    return q * (np.diagonal(upper) / np.abs(np.diagonal(upper)))


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return raw / np.linalg.norm(raw)


class TestHadamardTestSample:
    """The readings of ``_sampled_overlap`` for a state and its image under U.

    Reading k of quadrature p is seeded with (seed, p, k), so a budget of
    n readings per quadrature gives the mean of n independent ±1 readings
    in each of the real and imaginary parts.
    """

    def test_identity_always_plus_one(self):
        psi = random_state(4, 20)
        overlap = _sampled_overlap(psi, np.eye(4) @ psi, 10_000, 20)
        assert overlap.real == 1.0
        # the imaginary part of a real overlap is a fair coin
        assert abs(overlap.imag) < 0.05

    def test_minus_identity_always_minus_one(self):
        psi = random_state(4, 21)
        assert _sampled_overlap(psi, -np.eye(4) @ psi, 50, 21).real == -1.0

    def test_i_identity_real_part_is_a_fair_coin(self):
        psi = random_state(3, 22)
        assert abs(_sampled_overlap(psi, 1j * psi, 10_000, 22).real) < 0.05

    def test_i_identity_imag_part_always_plus_one(self):
        psi = random_state(3, 23)
        assert _sampled_overlap(psi, 1j * psi, 50, 23).imag == 1.0

    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_unbiased_against_direct_matrix_element(self, part):
        dim, count = 5, 10_000
        U = random_unitary(dim, 24)
        psi = random_state(dim, 25)
        overlap = complex(np.vdot(psi, U @ psi))
        sampled = _sampled_overlap(psi, U @ psi, count, 26)
        got, expected = (
            (sampled.real, overlap.real) if part == "real" else (sampled.imag, overlap.imag)
        )
        assert abs(got - expected) < 5 / math.sqrt(count)

    def test_deterministic_per_seed(self):
        U = random_unitary(4, 27)
        psi = random_state(4, 28)
        a = _sampled_overlap(psi, U @ psi, 100, 29)
        assert a == _sampled_overlap(psi, U @ psi, 100, 29)
        assert a != _sampled_overlap(psi, U @ psi, 100, 30)


class TestPlanSamples:
    def test_unit_error_at_default_confidence(self):
        assert plan_samples(1, 0.75) == 6
        assert plan_samples(1.0) == 6

    def test_halving_delta_quadruples_within_ceiling(self):
        coarse = plan_samples(0.1, 0.75)
        fine = plan_samples(0.05, 0.75)
        assert 4 * coarse - 4 <= fine <= 4 * coarse

    def test_monotone_decreasing_in_delta(self):
        plans = [plan_samples(d, 0.8) for d in (0.02, 0.05, 0.1, 0.5, 1.0)]
        assert plans == sorted(plans, reverse=True)

    def test_grows_as_confidence_rises(self):
        assert plan_samples(0.1, 0.99) > plan_samples(0.1, 0.75)

    @pytest.mark.parametrize("delta", [0, -0.5, 0.0])
    def test_rejects_nonpositive_delta(self, delta):
        with pytest.raises(DomainError):
            plan_samples(delta, 0.75)

    @pytest.mark.parametrize("confidence", [0.5, 1.0, 0.0, 1.5, -1.0])
    def test_rejects_confidence_outside_open_interval(self, confidence):
        with pytest.raises(DomainError):
            plan_samples(0.1, confidence)

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(DomainError):
            plan_samples(delta, 0.75)

    @pytest.mark.parametrize("delta", [10**400, 2**1024])
    def test_rejects_int_delta_beyond_float_range(self, delta):
        with pytest.raises(DomainError, match="finite"):
            plan_samples(delta, 0.75)
        with pytest.raises(DomainError, match="finite"):
            approx_jones(TREFOIL_PLAT, 5, delta)

    @pytest.mark.parametrize("delta", [10.0, 1e150, 1e300, 1.7e308, 10**200, 2**1023])
    def test_plans_at_least_one_reading(self, delta):
        assert plan_samples(delta, 0.75) == 1

    # the square of the first two underflows to 0; near 1e-160 the bound is inf
    TINY_DELTAS = [1e-300, 1e-200, 1e-160]

    @pytest.mark.parametrize("delta", TINY_DELTAS + [5e-324])
    def test_tiny_delta_is_a_limit_error(self, delta):
        with pytest.raises(LimitError, match="past float range"):
            plan_samples(delta, 0.75)

    @pytest.mark.parametrize("estimate", [
        lambda delta: approx_jones(TREFOIL_PLAT, 5, delta),
        lambda delta: estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, delta),
        lambda delta: TraceEstimate(
            value=0j, delta=delta, confidence=0.75, samples_used=2, seed=0,
            r=5, scale=1.0, crossing_steps=0,
        ),
    ], ids=["approx_jones", "estimate_markov_trace", "TraceEstimate"])
    @pytest.mark.parametrize("delta", TINY_DELTAS)
    def test_entry_points_refuse_a_tiny_delta_with_a_limit_error(self, estimate, delta):
        with pytest.raises(LimitError, match="past float range"):
            estimate(delta)

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_cli_refuses_a_tiny_delta_with_exit_3(self, mode, capsys):
        argv = ["approx", "s1^3", "-n", "2", "--root", "5", "--delta", "1e-300", *mode]
        res = run(argv)
        assert (res.exit_code, res.payload["kind"]) == (3, "limit")
        assert res.rendered == f"error: {res.payload['error']}"
        assert main(argv) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("estimate", [
        lambda delta: approx_jones(TREFOIL_PLAT, 5, delta),
        lambda delta: estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, delta),
    ], ids=["approx_jones", "estimate_markov_trace"])
    def test_a_delta_that_underflows_on_the_sampling_scale_is_a_limit_error(self, estimate):
        # 5e-324 is positive, but times the scale (< 1) it rounds to 0
        with pytest.raises(LimitError, match="error target 5e-324 underflows"):
            estimate(5e-324)

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_cli_names_the_delta_that_underflows(self, mode, capsys):
        argv = ["approx", "s2^3", "-n", "4", "--root", "5", "--delta", "5e-324", *mode]
        res = run(argv)
        assert (res.exit_code, res.payload["kind"]) == (3, "limit")
        assert "error target 5e-324 underflows" in res.rendered
        assert main(argv) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("estimate", [
        lambda delta: approx_jones(TREFOIL_PLAT, 5, delta),
        lambda delta: estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, delta),
    ], ids=["approx_jones", "estimate_markov_trace"])
    @pytest.mark.parametrize("delta", [1e-310, 1e-300])
    def test_a_budget_past_float_range_names_the_callers_delta(self, estimate, delta):
        # delta * scale is positive but so small that the bound is inf;
        # the message names the delta passed in, not the scaled target
        with pytest.raises(LimitError, match="past float range") as info:
            estimate(delta)
        message = str(info.value)
        assert f"error target {delta} on the sampling scale" in message
        scale = float(message.split("sampling scale ")[1].split(" ")[0])
        assert 0 < scale < 1
        assert repr(delta * scale) not in message

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_cli_names_the_delta_whose_budget_is_past_float_range(self, mode, capsys):
        argv = ["approx", "s2^3", "-n", "4", "--root", "5", "--delta", "1e-310", *mode]
        res = run(argv)
        assert (res.exit_code, res.payload["kind"]) == (3, "limit")
        assert "error target 1e-310 on the sampling scale" in res.payload["error"]
        assert "past float range" in res.payload["error"]
        assert res.payload["error"] in res.rendered
        assert main(argv) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_sample_limit_admits_up_to_its_budget_and_refuses_past_it(self, monkeypatch):
        # the trefoil plat at r = 5 plans 2,499,894 readings per quadrature
        # at delta 0.003408 (the worst request admitted) and 2,501,362 at
        # 0.003407; the readings are stubbed, so only the planning runs
        monkeypatch.setattr(qsim, "_plus_readings", lambda p, seed, part, start, stop: 0)
        argv = ["approx", "s2^3", "-n", "4", "--root", "5", "--json", "--delta"]
        for delta, planned in (("0.01", 290_350), ("0.003408", 2_499_894)):
            res = run([*argv, delta])
            assert res.exit_code == 0 and res.payload["samples"] == 2 * planned
        res = run([*argv, "0.003407"])
        assert (res.exit_code, res.payload["kind"]) == (3, "limit")
        assert res.payload["error"] == (
            "sample budget 2501362 per quadrature exceeds the limit 2500000; "
            "loosen delta or confidence"
        )

    @pytest.mark.parametrize("estimate", [
        lambda delta: approx_jones(TREFOIL_PLAT, 5, delta),
        lambda delta: estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, delta),
    ], ids=["approx_jones", "estimate_markov_trace"])
    def test_estimators_reject_infinite_delta_and_sample_a_huge_one(self, estimate):
        with pytest.raises(DomainError, match="finite"):
            estimate(math.inf)
        est = estimate(1e300)
        assert est.samples_used == 2
        assert math.isfinite(abs(est.value))

    @pytest.mark.parametrize("delta, confidence", [
        (np.float32(0.1), 0.75),
        (np.int64(1), 0.75),
        (0.1, np.float32(0.9)),
        (np.float64(0.1), 0.75),
        (np.int32(2), np.float16(0.75)),
    ])
    def test_accepts_numpy_real_scalars(self, delta, confidence):
        assert plan_samples(delta, confidence) == plan_samples(float(delta), float(confidence))

    def test_numpy_float64_plans_as_its_float(self):
        assert plan_samples(np.float64(0.1)) == plan_samples(0.1) == 555

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), np.bool_(False), 0.1 + 0j, "0.1", None])
    def test_rejects_bools_and_non_reals(self, value):
        with pytest.raises(DomainError, match="error target must be a number"):
            plan_samples(value, 0.75)
        with pytest.raises(DomainError, match="confidence must be a number"):
            plan_samples(0.1, value)

    def test_estimators_take_numpy_scalars_as_floats(self):
        est = approx_jones(TREFOIL_PLAT, 5, np.float32(0.25), np.float32(0.8), seed=3)
        assert est == approx_jones(TREFOIL_PLAT, 5, float(np.float32(0.25)), float(np.float32(0.8)), seed=3)
        assert type(est.delta) is float and type(est.confidence) is float
        est = estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, np.int64(1), seed=3)
        assert est == estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, 1.0, seed=3)


class TestEstimateMarkovTrace:
    def test_identity_word_lands_on_quantum_dimension(self):
        est = estimate_markov_trace(IDENTITY_B2, [HALF], 5, 0.05, seed=1)
        assert abs(est.value - q_integer(2, 5)) <= 0.05
        assert est.exact == pytest.approx(q_integer(2, 5))
        assert est.crossing_steps == 0

    def test_trefoil_hits_exact_on_most_seeds(self):
        exact = colored_invariant(TREFOIL_PLAT, [HALF], 5)
        hits = 0
        for seed in range(40):
            est = estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, 0.1, seed=seed)
            assert est.exact == pytest.approx(exact)
            hits += abs(est.value - exact) <= 0.1
        assert hits >= 30

    def test_zero_delta_is_rejected(self):
        with pytest.raises(DomainError):
            estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, 0.0, seed=0)

    def test_bad_confidence_and_seed_are_rejected(self):
        with pytest.raises(DomainError):
            estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, 0.1, confidence=1.0)
        with pytest.raises(DomainError):
            estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, 0.1, seed=-3)
        with pytest.raises(DomainError):
            estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, 0.1, seed=1.5)

    def test_crossing_steps_equal_word_length(self):
        for word in ["s1", "s2 s2", BORROMEAN_PLAT]:
            w = parse_braid(word, 6)
            est = estimate_markov_trace(w, [HALF] * plat_components(w), 7, 0.5, seed=2)
            assert est.crossing_steps == len(w.letters)

    def test_samples_match_planner_at_rescaled_error(self):
        est = estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, 0.1, seed=4)
        assert est.samples_used == 2 * plan_samples(0.1 * est.scale, est.confidence)

    def test_scale_reflects_contraction_prefactor(self):
        est = estimate_markov_trace(IDENTITY_B2, [HALF], 5, 0.05, seed=5)
        prefactor = abs(q_integer(2, 5))
        assert est.scale == pytest.approx(1.0 / (prefactor * math.sqrt(2.0)))

    def test_distinct_colors_move_the_reference_space(self):
        w = parse_braid(BORROMEAN_PLAT, 6)
        colors = [1, 2, 3]
        exact = colored_invariant(w, colors, 10)
        est = estimate_markov_trace(w, colors, 10, 0.5, seed=6)
        assert est.exact == pytest.approx(exact)
        assert abs(est.value - exact) <= 0.5

    def test_bitwise_deterministic(self):
        a = estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, 0.1, seed=7)
        b = estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, 0.1, seed=7)
        assert a.value == b.value
        assert a.to_json_dict() == b.to_json_dict()

    def test_different_seeds_give_different_readings(self):
        a = estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, 0.1, seed=8)
        b = estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, 0.1, seed=9)
        assert a.value != b.value

    def test_matches_public_sampling_primitive(self):
        # rebuild the estimate from the dense operator between the bend
        # rows, reading by reading on the (seed, quadrature, k) seeds
        seed, delta = 9, 0.3
        est = estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, delta, seed=seed)
        op = braiding_operator_for_word(TREFOIL_PLAT, [HALF] * 4, 5)
        reference = su2q._bend(op.codomain.doubled, 5)
        branch = op.matrix[:, su2q._bend(op.domain.doubled, 5).argmax()]
        overlap = complex(np.vdot(reference, branch))
        prefactor = est.exact / overlap
        planned = est.samples_used // 2
        means = []
        for index, phase in enumerate((1.0, -1.0j)):
            upper = 0.5 * (reference + phase * branch)
            p_plus = min(1.0, float(np.vdot(upper, upper).real))
            readings = [
                1 if np.random.default_rng((seed, index, k)).random() < p_plus else -1
                for k in range(planned)
            ]
            means.append(sum(readings) / planned)
        rebuilt = prefactor * complex(means[0], means[1])
        assert est.value == pytest.approx(rebuilt, abs=1e-9)

    def test_propagates_closure_errors(self):
        with pytest.raises(DomainError):
            estimate_markov_trace(parse_braid("s1", 3), [HALF], 5, 0.1)
        with pytest.raises(DomainError):
            estimate_markov_trace(TREFOIL_PLAT, [HALF, HALF], 5, 0.1)

    def test_tiny_delta_trips_the_sample_limit(self):
        with pytest.raises(LimitError):
            estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, 1e-4, seed=0)

    def test_json_schema_keys(self):
        est = estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, 0.2, seed=10)
        payload = est.to_json_dict()
        for key in (
            "Z_re",
            "Z_im",
            "delta",
            "confidence",
            "samples",
            "seed",
            "r",
            "exact_available",
            "exact_re",
            "exact_im",
            "scale",
            "generator",
            "crossing_steps",
        ):
            assert key in payload
        assert payload["exact_available"] is True
        assert payload["generator"] == GENERATOR_ID
        assert payload["samples"] == est.samples_used

    def test_error_bound_flag(self):
        est = estimate_markov_trace(TREFOIL_PLAT, [HALF], 5, 0.1, seed=3)
        assert est.error_bound_held() is True

    def test_pinned_spin_one_readings(self):
        # literal values: the per-reading seeding must reproduce them bit for bit
        w = parse_braid("s2 s1^-1 s3 s2 s2 s1", 4)
        est = estimate_markov_trace(w, [2], 7, 0.3, seed=0)
        assert est.value == complex(-1.2570734405791697, -2.3746440671091857)
        assert est.samples_used == 6284
        assert est.exact == pytest.approx(colored_invariant(w, [2], 7), abs=1e-12)

    def test_numerical_breakdown_raises_instead_of_sampling_nan(self):
        with pytest.raises(LimitError):
            estimate_markov_trace(parse_braid("s1", 2), [300], 400, 0.3)


def plat_components(w):
    from knit.diagram import plat_profile

    return plat_profile(w).component_count


class TestApproxJones:
    def test_unknot_normalizes_to_one(self):
        est = approx_jones(IDENTITY_B2, 5, 0.1, seed=1)
        assert abs(est.value - 1.0) <= 0.1
        assert est.exact == pytest.approx(1.0)

    def test_kinked_unknot_still_one(self):
        est = approx_jones(parse_braid("s1", 2), 7, 0.1, seed=2)
        assert abs(est.value - 1.0) <= 0.1
        assert est.exact == pytest.approx(1.0)

    def test_trefoil_matches_polynomial_oracle(self):
        root = 5
        poly = jones_polynomial(closure_plat(TREFOIL_PLAT))
        oracle = evaluate_at_root(poly, root)
        est = approx_jones(TREFOIL_PLAT, root, 0.1, seed=3)
        assert est.exact == pytest.approx(oracle, abs=1e-12)
        assert abs(est.value - oracle) <= 0.1

    def test_most_seeds_hit_within_delta(self):
        exact = jones_value_from_plat(TREFOIL_PLAT, 5)
        hits = sum(
            abs(approx_jones(TREFOIL_PLAT, 5, 0.1, seed=s).value - exact) <= 0.1
            for s in range(10)
        )
        assert hits >= 7

    @pytest.mark.parametrize("root", [3, 4, 6])
    def test_tractable_roots_are_flagged(self, root):
        est = approx_jones(IDENTITY_B2, root, 0.3, seed=4)
        assert est.tractable_root is True
        assert est.to_json_dict()["tractable_root"] is True

    def test_generic_root_is_not_flagged(self):
        assert approx_jones(IDENTITY_B2, 5, 0.3, seed=5).tractable_root is False

    def test_second_root_is_rejected(self):
        with pytest.raises(DomainError):
            approx_jones(TREFOIL_PLAT, 2, 0.1)

    def test_deterministic_per_seed(self):
        a = approx_jones(TREFOIL_PLAT, 5, 0.1, seed=6)
        b = approx_jones(TREFOIL_PLAT, 5, 0.1, seed=6)
        assert a.value == b.value and a.to_json_dict() == b.to_json_dict()

    @pytest.mark.parametrize(
        "seed,value",
        [
            (0, complex(-0.7928684678019426, 1.3426084557246158)),
            (1, complex(-0.815813149028072, 1.3477202439221536)),
            (2, complex(-0.8191496730815497, 1.3230270490812943)),
        ],
    )
    def test_pinned_trefoil_readings(self, seed, value):
        # literal values: the per-reading seeding must reproduce them bit for bit
        est = approx_jones(TREFOIL_PLAT, 5, 0.1, seed=seed)
        assert est.value == value
        assert est.samples_used == 5808

    def test_borromean_rings_estimate(self):
        w = parse_braid(BORROMEAN_PLAT, 6)
        exact = jones_value_from_plat(w, 7)
        est = approx_jones(w, 7, 0.4, seed=7)
        assert est.exact == pytest.approx(exact)
        assert abs(est.value - exact) <= 0.4
        assert est.crossing_steps == 8


class TestTraceEstimateInvariants:
    def test_samples_cannot_undercut_planner(self):
        with pytest.raises(DomainError):
            TraceEstimate(
                value=0j,
                delta=0.1,
                confidence=0.75,
                samples_used=3,
                seed=0,
                r=5,
                scale=1.0,
                crossing_steps=0,
            )

    def test_confidence_bounds_enforced(self):
        with pytest.raises(DomainError):
            TraceEstimate(
                value=0j,
                delta=0.5,
                confidence=0.5,
                samples_used=100,
                seed=0,
                r=5,
                scale=1.0,
                crossing_steps=0,
            )
