import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from knit import garside
from knit.braid import BraidWord, parse_braid, random_braid
from knit.errors import DomainError, LimitError
from knit.garside import (
    NormalForm,
    _left_weight_pair,
    _positive_lift_word,
    is_trivial,
    normal_form,
    words_equal,
)


def descents(targets):
    return {i + 1 for i in range(len(targets) - 1) if targets[i] > targets[i + 1]}


def inverse_targets(targets):
    inv = [0] * len(targets)
    for i, t in enumerate(targets):
        inv[t - 1] = i + 1
    return tuple(inv)


def check_left_canonical(nf: NormalForm):
    """Independent check of the structural invariants of the form."""
    n = nf.index
    half_twist = tuple(range(n, 0, -1))
    for f in nf.factors:
        assert f != tuple(range(1, n + 1)), "factors must be nontrivial"
        assert f != half_twist, "factors must be proper simples"
    for a, b in zip(nf.factors, nf.factors[1:]):
        starting = descents(b)
        finishing = descents(inverse_targets(a))
        assert starting <= finishing, f"pair not left-weighted: {a} | {b}"


def _sweep_normal_form(w: BraidWord) -> NormalForm:
    """Test-only oracle: the form by whole-word left-weighting sweeps.

    Every letter becomes a simple factor (a negative one after a Delta^-1),
    the Delta powers are pushed to the front, and left-weighting passes run
    over all adjacent pairs until none changes; then identity factors are
    dropped and leading Delta factors join the infimum.  A pair (x, y) is
    repaired by sliding the smallest generator that can start y but cannot
    end x, until there is none; x is held by its inverse, so that both
    slides swap two adjacent positions.
    """
    n = w.index
    identity, delta = list(range(n)), list(range(n - 1, -1, -1))

    def inverse(t):
        inv = [0] * n
        for i, v in enumerate(t):
            inv[v] = i
        return inv

    powers, factors = [], []
    for gen, sign in w.letters:
        f = identity[:] if sign > 0 else delta[:]
        a, b = f.index(gen - 1), f.index(gen)
        f[a], f[b] = f[b], f[a]
        powers.append(0 if sign > 0 else -1)
        factors.append(f)
    total = 0
    for k in range(len(factors) - 1, -1, -1):
        if total % 2:
            factors[k] = [n - 1 - factors[k][n - 1 - i] for i in range(n)]
        total += powers[k]
    changed = True
    while changed:
        changed = False
        for k in range(len(factors) - 1):
            x_inv, y = inverse(factors[k]), factors[k + 1][:]
            moved = False
            while movable := [
                i for i in range(n - 1) if y[i] > y[i + 1] and x_inv[i] < x_inv[i + 1]
            ]:
                i = movable[0]
                x_inv[i], x_inv[i + 1] = x_inv[i + 1], x_inv[i]
                y[i], y[i + 1] = y[i + 1], y[i]
                moved = True
            if moved:
                factors[k], factors[k + 1] = inverse(x_inv), y
                changed = True
    factors = [f for f in factors if f != identity]
    while factors and factors[0] == delta:
        factors.pop(0)
        total += 1
    return NormalForm(n, total, tuple(tuple(v + 1 for v in f) for f in factors))


def _slide_left_weight_pair(x, y):
    """Test-only oracle: left-weight the pair (x, y) of 0-based image tuples
    one generator at a time, recomputing both generator sets after every
    slide; None when the pair is already left-weighted."""
    def starting(t):
        return {i for i in range(len(t) - 1) if t[i] > t[i + 1]}

    def finishing(t):
        return starting([t.index(v) for v in range(len(t))])

    moved = False
    while movable := starting(y) - finishing(x):
        i = min(movable)
        x = tuple(i + 1 if v == i else i if v == i + 1 else v for v in x)
        y = y[:i] + (y[i + 1], y[i]) + y[i + 2:]
        moved = True
    return (x, y) if moved else None


def insert_relator(w: BraidWord, rng: random.Random) -> BraidWord:
    """Insert a defining relator or a cancelling pair at a random spot."""
    n = w.index
    choices = []
    for i in range(1, n - 1):
        # braid relation as a trivial word
        choices.append(
            [(i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1)]
        )
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            choices.append([(i, 1), (j, 1), (i, -1), (j, -1)])
    for i in range(1, n):
        for s in (1, -1):
            choices.append([(i, s), (i, -s)])
    piece = rng.choice(choices)
    pos = rng.randrange(len(w.letters) + 1)
    letters = w.letters[:pos] + tuple(piece) + w.letters[pos:]
    return BraidWord(n, letters)


def test_braid_relation():
    assert normal_form(parse_braid("s1 s2 s1", 3)) == normal_form(
        parse_braid("s2 s1 s2", 3)
    )


def test_far_commutation():
    assert words_equal(parse_braid("s1 s3", 4), parse_braid("s3 s1", 4))


def test_identity_forms():
    nf = normal_form(parse_braid("s1 s1^-1", 2))
    assert nf.infimum == 0 and nf.factors == ()
    assert is_trivial(parse_braid("", 5))
    assert is_trivial(parse_braid("s1 s3 s1^-1 s3^-1", 4))


def test_single_negative_letter_b2():
    # in B_2 the half twist is s1 itself, so s1^-1 is a bare Delta inverse
    nf = normal_form(parse_braid("s1^-1", 2))
    assert nf.infimum == -1
    assert nf.factors == ()
    assert nf.canonical_length() == 0


def test_b2_is_infinite_cyclic():
    for k in range(-4, 5):
        w = BraidWord(2, ((1, 1 if k >= 0 else -1),) * abs(k))
        nf = normal_form(w)
        assert nf.infimum == k
        assert nf.factors == ()


def test_b1_has_only_the_empty_word():
    # the word refuses every letter, so the normal form needs no check
    with pytest.raises(DomainError, match="out of range for braid index 1"):
        BraidWord(1, ((1, 1),))
    nf = normal_form(BraidWord(1, ()))
    assert (nf.index, nf.infimum, nf.factors) == (1, 0, ())
    assert is_trivial(BraidWord(1, ()))


def test_nontrivial_words():
    assert not is_trivial(parse_braid("s1^2", 2))
    assert not words_equal(parse_braid("s1", 3), parse_braid("s2", 3))
    assert not words_equal(parse_braid("s1", 3), parse_braid("s1^-1", 3))


def test_words_equal_requires_same_index():
    with pytest.raises(DomainError):
        words_equal(parse_braid("s1", 2), parse_braid("s1", 3))


def test_half_twist_powers():
    d = parse_braid("s1 s2 s1", 3)
    w = d * d * d
    nf = normal_form(w)
    assert nf.infimum == 3 and nf.factors == ()
    nf = normal_form(w.inverse())
    assert nf.infimum == -3 and nf.factors == ()


def test_relator_insertions_preserve_form():
    rng = random.Random(20240)
    for trial in range(40):
        n = rng.randint(2, 5)
        w = random_braid(n, rng.randint(0, 20), seed=rng.randrange(10**6))
        reference = normal_form(w)
        mutated = w
        for _ in range(rng.randint(1, 4)):
            mutated = insert_relator(mutated, rng)
        assert normal_form(mutated) == reference
        assert words_equal(mutated, w)


def test_output_is_left_canonical():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 6)
        w = random_braid(n, rng.randint(0, 25), seed=rng.randrange(10**6))
        check_left_canonical(normal_form(w))


words3 = st.builds(
    lambda letters: BraidWord(3, tuple(letters)),
    st.lists(st.tuples(st.integers(1, 2), st.sampled_from((-1, 1))), max_size=14),
)


@settings(max_examples=60, deadline=None)
@given(words3, words3)
def test_equality_respects_concatenation(a, b):
    # words_equal is a congruence: a = a' implies ab = a'b
    shuffled = insert_relator(a, random.Random(1))
    assert words_equal(a, shuffled)
    assert words_equal(a * b, shuffled * b)


@settings(max_examples=60, deadline=None)
@given(words3)
def test_inverse_gives_trivial_product(w):
    assert is_trivial(w * w.inverse())
    assert is_trivial(w.inverse() * w)


@settings(max_examples=40, deadline=None)
@given(words3)
def test_exponent_sum_is_form_invariant(w):
    nf = normal_form(w)
    # half twist in B_3 has three letters
    assert 3 * nf.infimum + sum(
        len(descents_word(f)) for f in nf.factors
    ) == w.exponent_sum()


def descents_word(targets):
    # letter count of the positive lift = inversion number
    n = len(targets)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if targets[i] > targets[j]
    ]


@st.composite
def words_b2_b8(draw, max_size=40):
    n = draw(st.integers(2, 8))
    letters = draw(
        st.lists(
            st.tuples(st.integers(1, n - 1), st.sampled_from((-1, 1))),
            max_size=max_size,
        )
    )
    return BraidWord(n, tuple(letters))


@settings(max_examples=150, deadline=None)
@given(words_b2_b8())
def test_form_matches_sweep_oracle(w):
    assert normal_form(w) == _sweep_normal_form(w)


def test_form_matches_sweep_oracle_on_seeded_corpus():
    rng = random.Random(9050)
    for _ in range(3000):
        w = random_braid(rng.randint(2, 8), rng.randint(0, 60), seed=rng.randrange(10**6))
        assert normal_form(w) == _sweep_normal_form(w), str(w)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_long_b6_words(seed):
    w = random_braid(6, 300, seed)
    check_left_canonical(normal_form(w))
    assert is_trivial(w * w.inverse())
    assert is_trivial(w.inverse() * w)


def test_pair_matches_slide_oracle_on_all_of_s4():
    perms = list(itertools.permutations(range(4)))
    for x in perms:
        for y in perms:
            assert _left_weight_pair(x, y) == _slide_left_weight_pair(x, y), (x, y)


def test_pair_matches_slide_oracle_on_seeded_pairs():
    rng = random.Random(9051)
    for _ in range(2400):
        n = rng.randint(5, 8)
        x, y = list(range(n)), list(range(n))
        rng.shuffle(x)
        rng.shuffle(y)
        x, y = tuple(x), tuple(y)
        assert _left_weight_pair(x, y) == _slide_left_weight_pair(x, y), (x, y)


def test_pair_matches_slide_oracle_on_all_of_s5():
    perms = list(itertools.permutations(range(5)))
    for x in perms:
        for y in perms:
            assert _left_weight_pair(x, y) == _slide_left_weight_pair(x, y), (x, y)


def test_pair_matches_slide_oracle_on_seeded_wide_pairs():
    rng = random.Random(9052)
    for n in range(10, 65):
        delta = tuple(range(n - 1, -1, -1))
        for _ in range(3):
            x, y = list(range(n)), list(range(n))
            rng.shuffle(x)
            rng.shuffle(y)
            x, y = tuple(x), tuple(y)
            for pair in ((x, y), (x, delta), (delta, y), (delta, delta)):
                assert _left_weight_pair(*pair) == _slide_left_weight_pair(*pair), pair


def test_form_matches_sweep_oracle_on_seeded_b9_to_b12_words():
    rng = random.Random(9053)
    for _ in range(150):
        w = random_braid(rng.randint(9, 12), rng.randint(0, 40), seed=rng.randrange(10**6))
        assert normal_form(w) == _sweep_normal_form(w), str(w)


@pytest.mark.parametrize(
    "text, n, detour",
    [("s1 s2^-1", 100, "s3 s60"), ("s1 s999 s500^-3", 1000, "s2 s998")],
)
def test_wide_words_are_left_canonical(text, n, detour):
    w, x = parse_braid(text, n), parse_braid(detour, n)
    nf = normal_form(w)
    check_left_canonical(nf)
    assert normal_form(w * x * x.inverse()) == nf


def test_b2_forms_are_the_exponent_sum():
    # B_2 is infinite cyclic, so even the longest word is cheap
    assert normal_form(parse_braid("s1^-1000000", 2)) == NormalForm(2, -1000000, ())
    assert normal_form(parse_braid("s1^3 s1^-1", 2)) == NormalForm(2, 2, ())


def _stated_cost(w):
    letters = len(w.letters)
    inverse = sum(1 for _, sign in w.letters if sign < 0)
    return letters * (letters * (w.index + 16) + 2 * inverse * w.index**2)


def test_cost_guard_uses_the_stated_estimate(monkeypatch):
    w = parse_braid("s1 s3^-1 s2 s3", 5)
    cost = _stated_cost(w)
    assert cost == 4 * (4 * 21 + 2 * 25)
    monkeypatch.setattr(garside, "COST_LIMIT", cost)
    assert normal_form(w) == _sweep_normal_form(w)
    monkeypatch.setattr(garside, "COST_LIMIT", cost - 1)
    with pytest.raises(LimitError, match=f"cost estimate {cost}"):
        normal_form(w)


@pytest.mark.parametrize(
    "text, n",
    [("s1^2000", 1000), ("s1^1000000", 1000), ("s1^5000 s3^5000", 4),
     (" ".join(["s500 s500^-1"] * 16), 1000), ("s1^-60", 300)],
)
def test_cost_guard_refuses_expensive_words(text, n):
    w = parse_braid(text, n)
    assert _stated_cost(w) > garside.COST_LIMIT
    with pytest.raises(LimitError):
        normal_form(w)
    with pytest.raises(LimitError):
        words_equal(w, parse_braid("", n))


def test_cost_guard_admits_the_test_and_bench_sizes():
    # w w^-1 of test_long_words, the widest word above, a word longer than any bench word
    w = random_braid(8, 800, 8)
    for word in (w * w.inverse(), parse_braid("s1 s999 s500^-3", 1000), random_braid(8, 300, 1)):
        assert _stated_cost(word) <= garside.COST_LIMIT


def test_lift_word_strips_the_smallest_starting_generator_first():
    for n in range(1, 7):
        for targets in itertools.permutations(range(1, n + 1)):
            t, expected = list(targets), []
            while starting := descents(t):
                i = min(starting)
                t[i - 1], t[i] = t[i], t[i - 1]
                expected.append(i)
            assert _positive_lift_word(targets) == expected, targets
    assert len(_positive_lift_word(tuple(range(300, 0, -1)))) == 300 * 299 // 2


def test_half_twist_moves_past_a_factor_in_one_step():
    delta = (4, 3, 2, 1, 0)
    for x in itertools.permutations(range(5)):
        if x == delta:
            continue
        tau_x = tuple(4 - v for v in reversed(x))
        assert _left_weight_pair(x, delta) == (delta, tau_x)
        assert _slide_left_weight_pair(x, delta) == (delta, tau_x)
    assert _left_weight_pair(delta, delta) is None


@pytest.mark.parametrize("n", [6, 8])
def test_long_words(n):
    w = random_braid(n, 800, seed=n)
    check_left_canonical(normal_form(w))
    assert is_trivial(w * w.inverse())
    assert is_trivial(w.inverse() * w)


def _run_piece(rng, n):
    """A same-sign word with long runs whose positive lifts are simple: the
    positive lift of a random permutation, a power sk^m, Delta^2 or
    (s1 .. s(n-1))^n, either positive or as the inverse of one."""
    kind = rng.randrange(4)
    if kind == 0:
        targets = list(range(1, n + 1))
        rng.shuffle(targets)
        gens = _positive_lift_word(tuple(targets))
    elif kind == 1:
        gens = [rng.randrange(1, n)] * rng.randint(2, 8)
    elif kind == 2:
        gens = _positive_lift_word(tuple(range(n, 0, -1))) * 2
    else:
        gens = list(range(1, n)) * n
    if rng.random() < 0.5:
        return [(g, 1) for g in gens]
    return [(g, -1) for g in reversed(gens)]


def _staircase_piece(rng, n, longest):
    """One to three ascending or descending staircases s(a) s(a+1) .. s(b)
    of at most ``longest`` letters, anywhere in B_n, all of one sign."""
    letters = []
    sign = rng.choice((1, -1))
    for _ in range(rng.randint(1, 3)):
        a = rng.randrange(1, n)
        b = min(n - 1, a + rng.randrange(longest))
        gens = range(a, b + 1) if rng.random() < 0.5 else range(b, a - 1, -1)
        letters += [(g, sign) for g in gens]
    return letters


def test_form_matches_sweep_oracle_on_long_runs_and_half_twists():
    # B3-B12, weighted toward few strands to keep the oracle fast; the
    # widest words get one piece.  Then staircases at n = 50-200.
    rng = random.Random(9054)
    lifted = 0
    for _ in range(2000):
        n = 3 + min(rng.randrange(10), rng.randrange(10))
        letters = []
        for _ in range(rng.randint(1, 2 if n <= 7 else 1)):
            letters += _run_piece(rng, n)
        if rng.random() < 0.5:
            x = [(rng.randrange(1, n), rng.choice((1, -1))) for _ in range(rng.randint(1, 4))]
            pos = rng.randrange(len(letters) + 1)
            letters[pos:pos] = x + [(g, -s) for g, s in reversed(x)]
        w = BraidWord(n, tuple(letters))
        nf = normal_form(w)
        assert nf == _sweep_normal_form(w), str(w)
        lifted += nf.infimum > 0
    assert lifted > 400  # the corpus makes many half twists
    # same-sign staircases at any width; a sign change makes the oracle
    # slide ~n^2/2 generators at O(n) each, so it is tried at n = 50 only
    wide_factors = 0
    for n in (50, 51, 100, 150, 200):
        for _ in range(4):
            letters = _staircase_piece(rng, n, 24)
            if n == 50:
                letters += _staircase_piece(rng, n, 4)
            w = BraidWord(n, tuple(letters))
            nf = normal_form(w)
            assert nf == _sweep_normal_form(w), str(w)
            wide_factors += nf.canonical_length()
    assert wide_factors > 20


def test_wide_staircase_is_one_cycle():
    # s1 s2 .. s399 in B_1000 is one simple factor: strand 1 moves to
    # position 400 and strands 2..400 each move one place left
    nf = normal_form(parse_braid(" ".join(f"s{i}" for i in range(1, 400)), 1000))
    assert nf.infimum == 0 and len(nf.factors) == 1
    assert nf.factors[0] == (400, *range(1, 400), *range(401, 1001))


@pytest.mark.parametrize(
    "text, n, infimum, factors",
    [
        ("", 1, 0, 0),
        ("", 2, 0, 0),
        ("s1 s1^-1 s1^-1 s1", 2, 0, 0),
        ("s1^3 s1^-5", 2, -2, 0),
        ("s1 s2 s1", 3, 1, 0),  # one run that is Delta
        ("s1^-1 s2^-1 s1^-1", 3, -1, 0),  # Delta^-1 times the identity
        ("s1 s2 s1 s1^-1 s2^-1 s1^-1", 3, 0, 0),
        ("s1 s2 s1 s2 s1 s2", 3, 2, 0),
        ("s1 s2 s3 s1 s2 s1", 4, 1, 0),
        ("s2 s1 s2^-1 s1 s2 s1", 3, 0, 2),
        ("s1^-1 s3 s2 s1 s2", 4, 0, 1),  # s3 s2 s1
    ],
)
def test_edge_words_match_sweep_oracle(text, n, infimum, factors):
    w = parse_braid(text, n)
    nf = normal_form(w)
    assert nf == _sweep_normal_form(w)
    assert (nf.infimum, nf.canonical_length()) == (infimum, factors)
