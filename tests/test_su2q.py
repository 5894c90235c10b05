"""Tests for the quantum SU(2) braiding machinery and colored invariants."""

import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knit import su2q
from knit.braid import BraidWord, parse_braid, random_braid
from knit.cli import run
from knit.diagram import closure_plat, plat_profile
from knit.errors import DomainError, LimitError
from knit.jones import jones_polynomial
from knit.laurent import evaluate_at_root
from knit.qsim import estimate_markov_trace
from knit.su2q import (
    BraidingOperator,
    ColoredSpace,
    DegenerateColorError,
    braiding_operator_for_word,
    colored_invariant,
    jones_value_from_plat,
    plat_branch,
    q_integer,
    r_matrix,
)

# Three-component plat word in B_6 whose closure is the Borromean rings:
# each pair of components is unlinked, all three are not.
BORROMEAN_PLAT = "s2 s1 s4^-1 s3 s4^-1 s3 s2^-1 s4^-1"


# every B4-B8 space at spin 1/2 and 1 up to 353 paths; (8, 2, 10) has 883
ENGINE_SPACES = [
    c for c in itertools.product((4, 6, 8), (1, 2), (5, 7, 10)) if c != (8, 2, 10)
]


def unit_root(r):
    return cmath.exp(2j * math.pi / r)


def channel_phases(twice_j, r):
    """The phase a positive letter applies on each coupling channel of two
    equal colors, keyed by the channel: the diagonal of ``r_matrix``."""
    op = r_matrix(twice_j, twice_j, r)
    return {path[-1]: phase for path, phase in zip(op.domain.paths(), np.diag(op.matrix))}


def oracle_value(word, n, r):
    w = parse_braid(word, n)
    return evaluate_at_root(jones_polynomial(closure_plat(w)), r)


def refused_at_every_entry_point(color, match):
    """Each su2q entry point, and the sampler through them, refuses ``color``."""
    calls = [
        lambda: colored_invariant(parse_braid("s2^3", 4), [color], 7),
        lambda: r_matrix(color, 1, 7),
        lambda: r_matrix(1, color, 7),
        lambda: braiding_operator_for_word(parse_braid("s1", 2), [1, color], 7),
        lambda: ColoredSpace([color], 7),
        lambda: estimate_markov_trace(parse_braid("s2^3", 4), [color], 7, 0.5),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=match):
            call()


class TestColorLabel:
    """A color is the doubled spin 2j, a nonnegative int, and nothing else."""

    def test_an_int_color_is_the_doubled_spin(self):
        # any iterable of ints is read as given; two spin-1 strands couple
        # to spins 0, 1 and 2
        assert ColoredSpace(iter([1, 4]), 7).doubled == (1, 4)
        assert [path[-1] for path in r_matrix(2, 2, 7).domain.paths()] == [0, 2, 4]

    def test_rejects_bad_spins(self):
        for color in (Fraction(1, 2), 0.5, 1.0, True, "1/2", np.int64(1)):
            refused_at_every_entry_point(color, r"an int doubled spin 2j \(1 is spin 1/2\)")
        refused_at_every_entry_point(-1, "a nonnegative doubled spin 2j, got -1")
        # a long bad value is quoted short
        refused_at_every_entry_point([1] * 1000, r"got '\[1, 1, 1,'\.\.\. \(3000 characters\)$")

    @pytest.mark.parametrize("spin", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_rejects_non_finite_spins(self, spin):
        refused_at_every_entry_point(spin, r"\(1 is spin 1/2\), got '(nan|inf|-inf|np\.float64\(nan\))'")

    def test_admissibility_bound(self):
        # j <= r exists but has no braiding headroom; j > r does not exist
        with pytest.raises(DegenerateColorError, match=r"j = 5 is degenerate at r = 5"):
            ColoredSpace((2 * 5,), 5)
        with pytest.raises(DomainError, match=r"j = 11/2 is not admissible at r = 5") as info:
            ColoredSpace((2 * 5 + 1,), 5)
        assert not isinstance(info.value, DegenerateColorError)


class TestQInteger:
    def test_one_is_one(self):
        for r in (3, 5, 11):
            assert q_integer(1, r) == pytest.approx(1)

    def test_golden_ratio_at_five(self):
        assert q_integer(2, 5).real == pytest.approx(2 * math.cos(math.pi / 5), abs=1e-12)
        assert q_integer(2, 5).real == pytest.approx(1.6180339887, abs=1e-9)

    def test_vanishes_at_the_root(self):
        for r in (3, 5, 7, 10):
            assert abs(q_integer(r, r)) < 1e-12

    def test_matches_sine_ratio(self):
        for r in (3, 7, 12):
            for m in range(1, 2 * r):
                want = math.sin(m * math.pi / r) / math.sin(math.pi / r)
                assert q_integer(m, r) == pytest.approx(want, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            q_integer(1, 2)
        with pytest.raises(DomainError):
            q_integer(0, 5)
        with pytest.raises(DomainError):
            q_integer(-2, 5)


class TestRMatrix:
    def test_two_trivial_colors(self):
        op = r_matrix(0, 0, 5)
        assert op.matrix.shape == (1, 1)
        assert op.matrix[0, 0] == pytest.approx(1)

    def test_eigenphase_ratio(self):
        r = 7
        phases = channel_phases(1, r)
        ratio = phases[0] / phases[2]
        assert ratio == pytest.approx(-unit_root(r), abs=1e-12)

    def test_diagonal_on_coupled_basis(self):
        op = r_matrix(1, 2, 10)
        off = op.matrix - np.diag(np.diag(op.matrix))
        assert np.abs(off).max() == 0

    @pytest.mark.parametrize("r", [5, 7, 10])
    def test_unitary_grid(self, r):
        for t1 in range(0, 4):
            for t2 in range(0, 4):
                op = r_matrix(t1, t2, r)
                assert op.unitarity_defect() < 1e-10

    def test_inverse_cancels(self):
        op = r_matrix(1, 2, 7)
        back = braiding_operator_for_word(parse_braid("s1 s1^-1", 2), (1, 2), 7)
        eye = np.eye(back.matrix.shape[0])
        assert np.abs(op.matrix.conj().T @ op.matrix - eye).max() < 1e-10
        assert np.abs(back.matrix - eye).max() < 1e-10
        assert back.domain == back.codomain == op.domain

    def test_spaces(self):
        op = r_matrix(1, 2, 10)
        assert op.domain.doubled == (1, 2)
        assert op.codomain.doubled == (2, 1)

    def test_dense_limit(self):
        # the limit bounds the coupled dimension: 16 spin-1/2 strands have
        # C(16, 8) fusion paths, while 63/2 and 65/2 couple through four
        # channels at r = 70
        with pytest.raises(LimitError, match="dense limit exceeded: 12870 > 4096"):
            braiding_operator_for_word(BraidWord(16, ()), [1] * 16, 100)
        op = r_matrix(63, 65, 70)
        assert op.matrix.shape == (4, 4)
        assert op.unitarity_defect() <= 1e-10

    def test_rejects_inadmissible(self):
        with pytest.raises(DomainError):
            r_matrix(11, 0, 5)

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateColorError):
            r_matrix(4, 4, 5)


class TestColoredSpace:
    def test_coupled_dimension_counts_paths(self):
        space = ColoredSpace((1,) * 4, 10)
        # spin-1/2 strands: walks on the truncated ladder returning anywhere
        assert space.coupled_dimension == len(space.paths())
        assert space.paths()[0] == (0, 1, 0, 1, 0)

    def test_rejects_inadmissible_factor(self):
        with pytest.raises(DomainError):
            ColoredSpace((11,), 5)

    def test_bend_index_is_the_cap_path(self):
        space = ColoredSpace((1, 1, 2, 2), 10)
        assert space.paths()[su2q._bend(space.doubled, 10).argmax()] == (0, 1, 0, 2, 0)
        for unpaired in ((1, 2, 2, 1), (1, 2, 1, 2)):
            with pytest.raises(ValueError):
                su2q._bend(unpaired, 10)

    def test_basis_is_one_small_int_array(self):
        # 41,473 paths of 13 labels: one int16 array, not a tuple per path
        su2q._paths.cache_clear()
        tracemalloc.start()
        try:
            paths = su2q._paths((2,) * 12, 10)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 2e6
        assert paths.shape == (41473, 13) and not paths.flags.writeable

    def test_wide_labels_keep_their_dtype(self):
        # 2j = 80,000 takes labels past int16; the unknot is still [2j + 1]
        r = 10**6
        value = colored_invariant(parse_braid("", 2), [80000], r)
        assert value == pytest.approx(q_integer(80001, r), abs=1e-9)


class TestBraidingOperatorForWord:
    def test_yang_baxter_with_color_tracking(self):
        for colors in [(1, 1, 1), (1, 2, 1), (2, 1, 3), (3, 2, 1)]:
            left = braiding_operator_for_word(parse_braid("s1 s2 s1", 3), colors, 10)
            right = braiding_operator_for_word(parse_braid("s2 s1 s2", 3), colors, 10)
            assert left.codomain == right.codomain
            assert np.abs(left.matrix - right.matrix).max() < 1e-10

    def test_far_commutation(self):
        one = braiding_operator_for_word(parse_braid("s1 s3", 4), (1, 2, 1, 3), 10)
        other = braiding_operator_for_word(parse_braid("s3 s1", 4), (1, 2, 1, 3), 10)
        assert np.abs(one.matrix - other.matrix).max() < 1e-10

    def test_rejects_nan_matrix(self):
        space = ColoredSpace((1, 1), 5)
        with pytest.raises(DomainError):
            BraidingOperator(np.full((2, 2), np.nan), space, space)

    def test_unitarity_of_random_words(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            length = int(rng.integers(0, 8))
            letters = " ".join(
                f"s{int(rng.integers(1, n))}" + ("" if rng.random() < 0.5 else "^-1")
                for _ in range(length)
            )
            w = parse_braid(letters, n)
            colors = tuple(int(rng.integers(0, 3)) for _ in range(n))
            op = braiding_operator_for_word(w, colors, 7)
            assert op.unitarity_defect() < 1e-10

    def test_wrong_color_count(self):
        with pytest.raises(DomainError):
            braiding_operator_for_word(parse_braid("s1", 2), (1,), 5)


class TestBraidingOperatorForPlat:
    """The dense operator of a plat word and the bend rows it is read between."""

    def test_identity_word_gives_identity(self):
        op = braiding_operator_for_word(parse_braid("", 4), (1, 1, 2, 2), 7)
        assert np.abs(op.matrix - np.eye(op.matrix.shape[0])).max() == 0

    def test_inverse_pair_gives_identity(self):
        op = braiding_operator_for_word(parse_braid("s1 s1^-1", 2), (1, 1), 5)
        assert np.abs(op.matrix - np.eye(op.matrix.shape[0])).max() < 1e-10

    def test_codomain_follows_the_permutation(self):
        w = parse_braid(BORROMEAN_PLAT, 6)
        op = braiding_operator_for_word(w, (2, 2, 1, 1, 3, 3), 10)
        # the word swaps the first two cap pairs and fixes the third
        assert op.codomain.doubled == (1, 1, 2, 2, 3, 3)
        bend = su2q._bend(op.codomain.doubled, 10)
        assert op.codomain.paths()[bend.argmax()] == (0, 1, 0, 2, 0, 3, 0)

    def test_rejects_odd_index(self):
        with pytest.raises(DomainError):
            plat_branch(parse_braid("s1", 3), (1, 1), 5)

    def test_rejects_top_color_mismatch(self):
        with pytest.raises(ValueError):
            su2q._bend((1, 2, 2, 1), 7)

    def test_rejects_bottom_color_mismatch(self):
        op = braiding_operator_for_word(parse_braid("s2", 4), (1, 1, 2, 2), 7)
        su2q._bend(op.domain.doubled, 7)
        with pytest.raises(ValueError):
            su2q._bend(op.codomain.doubled, 7)


class TestColoredInvariant:
    @pytest.mark.parametrize(
        "r, digits",
        [(10**400, 401), (10**400 - 1, 400), (10**5000, 5001), (2**1024, 309)],
        ids=["1e400", "1e400-1", "1e5000", "2^1024"],
    )
    def test_root_past_float_range_is_a_limit_error(self, r, digits):
        with pytest.raises(LimitError, match=f"root parameter of {digits} digits is past float range"):
            colored_invariant(parse_braid("s1", 2), [1], r)

    def test_root_of_twenty_one_digits_still_answers(self):
        value = colored_invariant(parse_braid("s1", 2), [1], 10**20)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_unknot_is_quantum_dimension_at_five(self):
        value = colored_invariant(parse_braid("", 2), [1], 5)
        assert value.real == pytest.approx(1.6180339887, abs=1e-9)
        assert abs(value.imag) < 1e-12

    def test_unknot_all_colors_at_ten(self):
        r = 10
        for tj in range(0, 9):  # up to the degeneracy edge 2j = r - 2
            value = colored_invariant(parse_braid("", 2), [tj], r)
            assert value == pytest.approx(q_integer(tj + 1, r), abs=1e-10)

    def test_crossed_unknot_still_quantum_dimension(self):
        for tj in (1, 2, 3, 4):
            value = colored_invariant(parse_braid("s2", 4), [tj], 10)
            assert value == pytest.approx(q_integer(tj + 1, 10), abs=1e-10)

    def test_kink_appends_do_not_change_the_value(self):
        r = 10
        base = "s2 s2"
        reference = colored_invariant(parse_braid(base, 4), [1, 2], r)
        for extra in ("s1", "s1^-1", "s3", "s3^-1", "s1^2", "s3^-2"):
            value = colored_invariant(parse_braid(base + " " + extra, 4), [1, 2], r)
            assert value == pytest.approx(reference, abs=1e-10)

    def test_disjoint_union_multiplies(self):
        r = 10
        value = colored_invariant(parse_braid("", 6), [1, 2, 3], r)
        want = q_integer(2, r) * q_integer(3, r) * q_integer(4, r)
        assert value == pytest.approx(want, abs=1e-10)

    def test_braid_relation_rewrite_fixed(self):
        for tj in (1, 2):
            one = colored_invariant(parse_braid("s1 s2 s1 s3", 4), [tj], 10)
            two = colored_invariant(parse_braid("s2 s1 s2 s3", 4), [tj], 10)
            assert one == pytest.approx(two, abs=1e-8)

    def test_far_commutation_rewrite_fixed(self):
        moved = "s2 s4^-1 s1 s3 s4^-1 s3 s2^-1 s4^-1"
        for colors in [(1, 1, 1), (1, 2, 1), (1, 2, 3)]:
            one = colored_invariant(parse_braid(BORROMEAN_PLAT, 6), colors, 10)
            two = colored_invariant(parse_braid(moved, 6), colors, 10)
            assert one == pytest.approx(two, abs=1e-8)

    def test_hopf_link_weights(self):
        # positive and negative doubly-crossed pairs against the known
        # closed form [ (2j+1)(2k+1) ]_q, conjugate for the mirror
        for r in (7, 10):
            for tj, tk in ((1, 1), (1, 2), (2, 2), (1, 3)):
                if tj + tk > r - 2:
                    continue
                plus = colored_invariant(parse_braid("s2^2", 4), [tj, tk], r)
                minus = colored_invariant(parse_braid("s2^-2", 4), [tj, tk], r)
                want = q_integer((tj + 1) * (tk + 1), r)
                assert abs(abs(plus) - abs(want)) < 1e-10
                assert plus == pytest.approx(minus.conjugate(), abs=1e-10)

    def test_spin_half_reduction_on_named_links(self):
        r = 7
        for word, n in [("s2^3", 4), ("s2^2", 4), (BORROMEAN_PLAT, 6)]:
            w = parse_braid(word, n)
            value = jones_value_from_plat(w, r)
            want = oracle_value(word, n, r)
            assert value == pytest.approx(want, abs=1e-8)

    def test_spin_half_reduction_across_roots(self):
        cases = [
            ("", 2),
            ("s1^3", 2),
            ("s1^-2", 2),
            ("s2 s1^-1 s3 s2^-1", 4),
            ("s1 s3 s5", 6),
            ("s3 s2 s4 s3", 6),
            (BORROMEAN_PLAT, 6),
        ]
        for r in (5, 7, 10):
            for word, n in cases:
                w = parse_braid(word, n)
                assert jones_value_from_plat(w, r) == pytest.approx(
                    oracle_value(word, n, r), abs=1e-8
                )

    def test_high_spin_unknot_stays_exact(self):
        for word in ("", "s1", "s1^-1 s1^-1"):
            value = colored_invariant(parse_braid(word, 2), [150], 200)
            assert value == pytest.approx(q_integer(151, 200), abs=1e-12)

    def test_numerical_breakdown_is_a_limit_error(self):
        with pytest.raises(LimitError):
            colored_invariant(parse_braid("s1", 2), [300], 400)

    @pytest.mark.parametrize("n,twice_j,r", ENGINE_SPACES)
    def test_engine_matches_the_dense_operator(self, n, twice_j, r):
        for seed in range(3):
            w = random_braid(n, 4 + 3 * seed, seed=100 * n + 10 * twice_j + r + seed)
            colors = [twice_j] * plat_profile(w).component_count
            op = braiding_operator_for_word(w, [twice_j] * n, r)
            bottom, top = (su2q._bend(s.doubled, r).argmax() for s in (op.codomain, op.domain))
            element = op.matrix[bottom, top]
            prefactor = plat_branch(w, colors, r)[0]
            want = prefactor * element
            assert colored_invariant(w, colors, r) == pytest.approx(want, abs=1e-12)

    def test_more_components_than_the_root_answer(self):
        # the level rule alone bounds a plat: the spin-1/2 unlink of k
        # components is [2]_q^k at any r >= 3
        assert colored_invariant(parse_braid("", 8), [1] * 4, 3) == pytest.approx(1, abs=1e-12)
        assert colored_invariant(parse_braid("", 10), [1] * 5, 4) == pytest.approx(
            4 * math.sqrt(2), abs=1e-12
        )
        assert 4 * math.sqrt(2) == pytest.approx(q_integer(2, 4) ** 5, abs=1e-12)
        plats = 0
        for seed in range(240):
            w = random_braid((8, 10)[seed % 2], 2 + seed % 5, seed)
            count = plat_profile(w).component_count
            plats += count > 3
            for r in range(3, count):
                want = evaluate_at_root(jones_polynomial(closure_plat(w)), r)
                assert jones_value_from_plat(w, r) == pytest.approx(want, abs=1e-12)
        assert plats >= 100

    def test_rejects_wrong_color_count(self):
        with pytest.raises(DomainError):
            colored_invariant(parse_braid("", 4), [1], 7)

    def test_rejects_degenerate_color(self):
        with pytest.raises(DegenerateColorError):
            colored_invariant(parse_braid("", 2), [4], 5)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 6),
        st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])), max_size=6),
    )
    def test_random_words_match_the_oracle(self, seed, letters):
        n = 4
        word = BraidWord(n, tuple((g, s) for g, s in letters))
        value = jones_value_from_plat(word, 7)
        want = evaluate_at_root(jones_polynomial(closure_plat(word)), 7)
        assert value == pytest.approx(want, abs=1e-8)


class TestTwist:
    @pytest.mark.parametrize(
        "colors,r",
        [
            pytest.param(colors, r, id=f"{''.join(map(str, colors))}-r{r}")
            for colors, r in [((twice_j,) * n, r) for n, twice_j, r in ENGINE_SPACES]
            + [((1, 1, 2, 2), 7), ((2, 2, 1, 1, 2, 2, 1, 1), 10)]
        ],
    )
    def test_gather_form_matches_the_dense_twist(self, colors, r):
        # a vector and an identity block take the two branches of the braiding loop
        rng = np.random.default_rng(len(colors) * r + sum(colors))
        size = len(su2q._paths(colors, r))
        v = rng.normal(size=size) + 1j * rng.normal(size=size)
        v /= np.linalg.norm(v)
        for position in range(1, len(colors)):
            for sign in (1, -1):
                swapped, idx, wts = su2q._twist(colors, position, sign, r)
                letter = BraidWord(len(colors), ((position, sign),))
                op = braiding_operator_for_word(letter, colors, r)
                assert op.codomain.doubled == swapped
                gathered = (wts * v[idx]).sum(axis=1)
                assert np.abs(gathered - op.matrix @ v).max() < 1e-12
                assert idx.shape[1] <= min(colors[position - 1], colors[position]) + 1

    @pytest.mark.parametrize("twice_j", [1, 2, 3])
    @pytest.mark.parametrize("r", [5, 7, 10])
    def test_one_letter_spectrum_is_the_channel_phases(self, twice_j, r):
        # equal colors: the letter is diagonal in the channel basis of its
        # pair, so its eigenvalues are the channel phases, without any
        # reference to the gather layout
        phases = np.array(list(channel_phases(twice_j, r).values()))
        for n in range(2, 6):
            for position in range(1, n):
                for sign in (1, -1):
                    w = BraidWord(n, ((position, sign),))
                    op = braiding_operator_for_word(w, (twice_j,) * n, r)
                    want = phases if sign == 1 else phases.conj()
                    for value in np.linalg.eigvals(op.matrix):
                        assert np.abs(want - value).min() < 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_word_operator_composes_its_letters(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        r = int(rng.choice((5, 7, 10)))
        colors = tuple(int(c) for c in rng.integers(1, min(3, r - 2) + 1, size=n))
        w = random_braid(n, int(rng.integers(1, 9)), seed=seed)
        op = braiding_operator_for_word(w, colors, r)
        composite = np.eye(op.matrix.shape[1])
        space = op.domain
        for letter in w.letters:
            step = braiding_operator_for_word(BraidWord(n, (letter,)), space.doubled, r)
            assert step.domain == space
            composite = step.matrix @ composite
            space = step.codomain
        assert op.codomain == space
        assert np.abs(op.matrix - composite).max() < 1e-12

    @pytest.mark.parametrize("seed", range(32))
    def test_sources_differ_from_the_target_only_between_the_strands(self, seed):
        # read off the tuple bases, independent of how the tables are built
        rng = np.random.default_rng(900 + seed)
        r = int(rng.integers(5, 11))
        size = int(rng.integers(2, 7))
        colors = tuple(int(c) for c in rng.integers(0, min(4, r - 2) + 1, size=size))
        sources = ColoredSpace(colors, r).paths()
        for position in range(1, len(colors)):
            outside = {}
            for k, path in enumerate(sources):
                outside.setdefault(path[:position] + path[position + 1 :], []).append(k)
            for sign in (1, -1):
                swapped, idx, wts = su2q._twist(colors, position, sign, r)
                assert idx.shape[1] <= min(colors[position - 1 : position + 1]) + 1
                for row, path in enumerate(ColoredSpace(swapped, r).paths()):
                    want = outside[path[:position] + path[position + 1 :]]
                    assert idx[row, : len(want)].tolist() == want
                    assert not idx[row, len(want) :].any() and not wts[row, len(want) :].any()

    def test_tables_are_read_only(self):
        _, idx, wts = su2q._twist((2, 2, 1, 1), 2, 1, 7)
        for table in (idx, wts):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0
        bend = su2q._bend((2, 2, 1, 1), 7)
        assert not bend.flags.writeable
        with pytest.raises(ValueError):
            bend[0] = 0
        # the plat engine hands out the cached bend state itself
        _, reference, _ = plat_branch(parse_braid("s2^2", 4), (2, 1), 7)
        assert reference is su2q._bend((2, 2, 1, 1), 7)

    def test_engine_value_is_pinned(self):
        # recorded from the dense per-letter engine
        value = colored_invariant(random_braid(8, 30, 0), [2], 10)
        assert value == pytest.approx(-3.303991995634293 + 2.5660968818663488j, abs=1e-12)

    def test_cold_contraction_allocates_no_dense_twist(self):
        # 883 fusion paths: one dense D x D complex twist alone is 12.5 MB
        w = random_braid(8, 30, 0)
        for cached in (su2q._twist, su2q._paths, su2q._recoupling):
            cached.cache_clear()
        tracemalloc.start()
        try:
            colored_invariant(w, [2], 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def colored_cli(word, n, colors, r, normalize):
    """``knit colored`` with ``--normalize``: its exit code and its value."""
    res = run(["colored", word, "-n", str(n), "--colors", colors, "--root", str(r),
               "--normalize", normalize, "--json"])
    return res.exit_code, complex(res.payload.get("value_re", 0), res.payload.get("value_im", 0))


class TestNormalizeAmbient:
    # ``knit colored --normalize ambient`` divides the invariant by
    # q^(1/2) - q^(-1/2)

    def test_zero_stays_zero(self):
        # the spin-1/2 Hopf link vanishes at r = 4, where q^2 = -1
        assert colored_cli("s2^2", 4, "1,1", 4, "none")[1] == pytest.approx(0, abs=1e-12)
        assert colored_cli("s2^2", 4, "1,1", 4, "ambient")[1] == pytest.approx(0, abs=1e-12)

    def test_zero_writhe_divides_by_the_balanced_denominator(self):
        r = 7
        q = unit_root(r)
        w = parse_braid("s2 s1^-1 s3 s2^-1", 4)
        assert plat_profile(w).writhe == 0
        want = colored_invariant(w, [1, 1], r) / (q**0.5 - q**-0.5)
        assert colored_cli(str(w), 4, "1,1", r, "ambient") == (0, pytest.approx(want, abs=1e-12))

    def test_kink_invariance_through_the_pipeline(self):
        # the rescaled output must not move when the diagram picks up kinks
        reference = colored_cli("s2 s2", 4, "1,2", 7, "ambient")[1]
        for extra in ("s1", "s1^-1", "s3^2"):
            kinked = colored_cli("s2 s2 " + extra, 4, "1,2", 7, "ambient")[1]
            assert kinked == pytest.approx(reference, abs=1e-10)

    def test_rejects_small_root(self):
        assert colored_cli("s1", 2, "1", 2, "ambient")[0] == 1


class TestGridProperties:
    @pytest.mark.parametrize("r", [5, 7, 10])
    def test_quantum_yang_baxter_and_unitarity_full_grid(self, r):
        worst_u = worst_y = 0.0
        for colors in itertools.product(range(4), repeat=3):
            left = braiding_operator_for_word(parse_braid("s1 s2 s1", 3), colors, r)
            right = braiding_operator_for_word(parse_braid("s2 s1 s2", 3), colors, r)
            worst_y = max(worst_y, float(np.abs(left.matrix - right.matrix).max()))
            pair = r_matrix(colors[0], colors[1], r)
            worst_u = max(worst_u, pair.unitarity_defect())
        assert worst_u < 1e-10
        assert worst_y < 1e-10
