import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from knit import braid
from knit.braid import (
    LETTER_LIMIT,
    STRAND_LIMIT,
    BraidWord,
    parse_braid,
    random_braid,
)
from knit.errors import DomainError, LimitError, ParseError
from knit.garside import is_trivial, words_equal


def compose(a, b):
    """The image tuple of the permutation acting as a first, then b."""
    return tuple(b[t - 1] for t in a)


def test_parse_expands_powers():
    w = parse_braid("s3^-1 s2 s3^-1 s2 s1^3 s2^-1 s1 s2^-2", 4)
    assert len(w) == 11
    assert w.letters[:2] == ((3, -1), (2, 1))
    assert w.letters[4:7] == ((1, 1), (1, 1), (1, 1))
    assert w.letters[-2:] == ((2, -1), (2, -1))


def test_parse_empty_is_identity():
    w = parse_braid("", 3)
    assert len(w) == 0
    assert w.permutation() == (1, 2, 3)
    assert str(w) == ""


def test_parse_simple():
    w = parse_braid("s3^-1 s2 s1^3", 4)
    assert w.letters == ((3, -1), (2, 1), (1, 1), (1, 1), (1, 1))


def test_parse_rejects_bad_token():
    with pytest.raises(ParseError) as err:
        parse_braid("s1 t2", 3)
    assert err.value.position == 3


def test_parse_rejects_zero_power():
    with pytest.raises(ParseError):
        parse_braid("s1^0", 3)


def test_parse_rejects_out_of_range_generator():
    with pytest.raises(ParseError):
        parse_braid("s3", 3)
    with pytest.raises(ParseError):
        parse_braid("s0", 3)


def test_exponent_sum():
    w = parse_braid("s3^-1 s2 s3^-1 s2 s1^3 s2^-1 s1 s2^-2", 4)
    assert w.exponent_sum() == 1
    assert parse_braid("s1^3", 2).exponent_sum() == 3


def test_concat_and_length():
    a = parse_braid("s1 s2", 3)
    b = parse_braid("s2^-1", 3)
    assert len(a * b) == 3
    with pytest.raises(DomainError):
        a * parse_braid("s1", 4)


def test_inverse_cancels():
    w = parse_braid("s1 s2^-1 s1^2", 3)
    assert is_trivial(w * w.inverse())
    assert w.inverse().letters == ((1, -1), (1, -1), (2, 1), (1, -1))


def test_permutation_underlying():
    # s1 s2 in B_3 sends strand 1 -> 3: position 1 swaps first, then position 2
    w = parse_braid("s1 s2", 3)
    p = w.permutation()
    assert p == (3, 1, 2)
    assert w.inverse().permutation() == (2, 3, 1)
    assert compose(p, w.inverse().permutation()) == (1, 2, 3)


def test_permutation_is_homomorphism():
    a = parse_braid("s1^2 s3 s2^-1", 4)
    b = parse_braid("s2 s1^-1", 4)
    assert (a * b).permutation() == compose(a.permutation(), b.permutation())


def test_markov_conjugate():
    w = parse_braid("s1^3", 2)
    a = parse_braid("s1", 2)
    c = w.conjugate_by(a)
    assert c.letters == ((1, 1),) * 4 + ((1, -1),)
    assert words_equal(c, w)


def test_markov_stabilize():
    w = parse_braid("s1^3", 2)
    up = w.stabilize(1)
    assert up.index == 3
    assert up.letters == ((1, 1), (1, 1), (1, 1), (2, 1))
    down = w.stabilize(-1)
    assert down.letters[-1] == (2, -1)


def test_random_braid_deterministic():
    a = random_braid(4, 20, seed=7)
    b = random_braid(4, 20, seed=7)
    assert a == b
    assert len(a) == 20
    assert a != random_braid(4, 20, seed=8)


def test_random_braid_letters_in_range():
    w = random_braid(5, 200, seed=0)
    assert all(1 <= g <= 4 and s in (-1, 1) for g, s in w.letters)


def test_str_round_trip():
    w = parse_braid("s2^-2 s1 s3", 4)
    assert parse_braid(str(w), 4) == w


words = st.builds(
    lambda letters: BraidWord(4, tuple(letters)),
    st.lists(st.tuples(st.integers(1, 3), st.sampled_from((-1, 1))), max_size=30),
)


@given(words)
def test_round_trip_any_word(w):
    assert parse_braid(str(w), 4) == w


@given(words)
def test_inverse_involution(w):
    assert w.inverse().inverse() == w
    assert is_trivial(w * w.inverse())


@given(words)
def test_exponent_sum_negates_under_inverse(w):
    assert w.inverse().exponent_sum() == -w.exponent_sum()


@given(words, words)
def test_permutation_homomorphism_property(a, b):
    assert (a * b).permutation() == compose(a.permutation(), b.permutation())


def test_power_up_to_the_letter_limit_parses():
    w = parse_braid(f"s1^-{LETTER_LIMIT}", 2)
    assert len(w) == LETTER_LIMIT and w.letters[0] == (1, -1)
    assert parse_braid("s1^0003", 2) == parse_braid("s1 s1 s1", 2)


@pytest.mark.parametrize(
    "power",
    [str(LETTER_LIMIT + 1), f"-{LETTER_LIMIT + 1}", "9" * 23, "-" + "9" * 23, "9" * 5000],
)
def test_power_past_the_letter_limit_is_refused_before_expanding(power):
    tracemalloc.start()
    try:
        with pytest.raises(LimitError, match="letters"):
            parse_braid(f"s1^{power}", 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # the letters of the power were never stored


def test_letter_limit_counts_the_whole_word(monkeypatch):
    monkeypatch.setattr(braid, "LETTER_LIMIT", 10)
    assert len(parse_braid("s1^4 s2^-3 s1 s2^2", 3)) == 10
    with pytest.raises(LimitError):
        parse_braid("s1^4 s2^-3 s1 s2^3", 3)


def test_index_inferred_from_the_largest_generator():
    assert parse_braid("s3^2 s1^-1") == parse_braid("s3^2 s1^-1", 4)
    assert parse_braid("").index == 1
    w = parse_braid(f"s{STRAND_LIMIT - 1}")
    assert w.index == STRAND_LIMIT
    assert w.permutation()[STRAND_LIMIT - 1] == STRAND_LIMIT - 1


@pytest.mark.parametrize("index", [None, 3])
@pytest.mark.parametrize("gen", [str(STRAND_LIMIT), "9" * 5000])
def test_generator_past_the_strand_limit_is_refused(gen, index):
    # with an index the generator is out of its range; without one it
    # would ask for more strands than the limit
    error = ParseError if index else LimitError
    with pytest.raises(error, match="out of range" if index else "strands"):
        parse_braid(f"s1 s{gen}", index)


def test_index_past_the_strand_limit_is_refused_before_any_work():
    tracemalloc.start()
    try:
        with pytest.raises(LimitError, match="strands"):
            parse_braid("s1", STRAND_LIMIT + 1)
        with pytest.raises(LimitError):
            parse_braid("s1", 10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_permutation_matches_the_product_of_transpositions():
    # the word's letters composed one transposition at a time
    for seed in range(200):
        w = random_braid(2 + seed % 9, seed % 41, seed=seed)
        p = list(range(1, w.index + 1))
        for gen, _ in w.letters:
            # then the transposition (gen, gen + 1)
            p = [gen + 1 if t == gen else gen if t == gen + 1 else t for t in p]
        assert w.permutation() == tuple(p), w


# Malformed inputs, each with its error type, message and position (None
# for a LimitError, which has no position attribute).
_LONG = "1" * 5000
_MALFORMED = [
    ("xs1", None, ParseError, "expected generator token, found 'x' (at position 0)", 0),
    ("s1 s2 $", 3, ParseError, "expected generator token, found '$' (at position 6)", 6),
    ("s1 s1x", 3, ParseError, "malformed token 's1x' (at position 3)", 3),
    ("s1^", 3, ParseError, "malformed token 's1^' (at position 0)", 0),
    ("s1^--1", 3, ParseError, "malformed token 's1^' (at position 0)", 0),
    ("s^2", 3, ParseError, "expected generator token, found 's' (at position 0)", 0),
    ("s1 s0", 3, ParseError, "generator index must be >= 1, got s0 (at position 3)", 3),
    ("s1 s00^2", None, ParseError, "generator index must be >= 1, got s0 (at position 3)", 3),
    ("s1^0", 3, ParseError, "zero power is not a letter (at position 0)", 0),
    ("s2 s1^-0", None, ParseError, "zero power is not a letter (at position 3)", 3),
    ("s1 s3", 3, ParseError, "generator s3 out of range for braid index 3 (at position 3)", 3),
    ("s1 s2^-2 s4^-1", 4, ParseError,
     "generator s4 out of range for braid index 4 (at position 9)", 9),
    ("s1 s999 s1000^2", None, LimitError,
     "the generator at position 8 takes the word past 1000 strands", None),
    ("s1 s1^-1000000", 2, LimitError,
     "the power at position 3 takes the word past 1000000 letters", None),
    (f"s1 s{_LONG}", 3, ParseError,
     "generator s111111111... out of range for braid index 3 (at position 3)", 3),
    (f"s1 s{_LONG}", None, LimitError,
     "the generator at position 3 takes the word past 1000 strands", None),
    (f"s1 s{_LONG}x", 3, ParseError,
     "malformed token 's11111111'... (5002 characters) (at position 3)", 3),
    ("s1\u200bs2", 3, ParseError, "malformed token 's1\\u200b' (at position 0)", 0),
]


@pytest.mark.parametrize("text, index, error, message, position", _MALFORMED)
def test_malformed_input_names_its_error_and_position(text, index, error, message, position):
    with pytest.raises(error) as err:
        parse_braid(text, index)
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "position", None) == position
    assert len(str(err.value)) < 200  # a long token is quoted short


def test_every_unicode_space_separates_tokens():
    text = "s1\ts2\ns1\x1cs2\u00a0s1\u2003s2\r\x0bs1\x0c \x85s2"
    assert parse_braid(text, 3).letters == ((1, 1), (2, 1)) * 4
    assert parse_braid("\u2003 s2^-2 \n") == BraidWord(3, ((2, -1), (2, -1)))


@pytest.mark.parametrize(
    "valid, bad, index, error, message",
    [
        ("s1", "s1y", 3, ParseError, "malformed token 's1y'"),
        ("s2^-1", "s3", 3, ParseError, "generator s3 out of range for braid index 3"),
        ("s2^-1", "s0", None, ParseError, "generator index must be >= 1, got s0"),
        ("s2^2", "s1^0", None, ParseError, "zero power is not a letter"),
    ],
)
def test_bad_token_after_many_repeats_of_a_valid_one(valid, bad, index, error, message):
    text = " ".join([valid] * 5000 + [bad, valid])
    position = 5000 * (len(valid) + 1)
    with pytest.raises(error) as err:
        parse_braid(text, index)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_letter_limit_is_checked_at_each_repeat(monkeypatch):
    monkeypatch.setattr(braid, "LETTER_LIMIT", 10)
    assert len(parse_braid("s1 " * 10, 2)) == 10
    with pytest.raises(LimitError) as err:
        parse_braid("s1 " * 11, 2)
    assert str(err.value) == "the power at position 30 takes the word past 10 letters"
    with pytest.raises(LimitError, match="at position 10 "):
        parse_braid("s1^4 s1^4 s1^4", 2)


def test_seeded_long_word_parses_to_its_letters():
    rng = random.Random(2027)
    letters, tokens = [], []
    for _ in range(200_000):
        gen, power = rng.randrange(1, 8), rng.choice((1, 1, 1, -1, -1, 2, -2, 3, -3))
        letters += [(gen, 1 if power > 0 else -1)] * abs(power)
        tokens.append(f"s{gen}" if power == 1 else f"s{gen}^{power}")
        tokens.append(rng.choice((" ", " ", "\t", "\n  ")))
    text = "".join(tokens)
    assert parse_braid(text, 8).letters == tuple(letters)
    assert parse_braid(text) == BraidWord(8, tuple(letters))
