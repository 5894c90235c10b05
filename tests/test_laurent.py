import cmath

import numpy as np
import pytest
from hypothesis import given, strategies as st

from knit.errors import DomainError, LimitError, ParseError
from knit.laurent import LaurentPoly, evaluate_at_root


def poly(d):
    return LaurentPoly.from_dict(d)


def test_zero_and_one():
    assert poly({}).terms == poly({3: 0}).terms == ()
    assert LaurentPoly.monomial(1, 0).terms == ((0, 1),)
    assert (LaurentPoly.monomial(1, 0) + LaurentPoly.monomial(-1, 0)).terms == ()


def test_monomial_denominators():
    assert LaurentPoly.monomial(2, 1) .terms == ((4, 2),)
    assert LaurentPoly.monomial(1, 1, 2).terms == ((2, 1),)
    assert LaurentPoly.monomial(1, -3, 4).terms == ((-3, 1),)
    assert LaurentPoly.monomial(0, 5).terms == ()
    with pytest.raises(DomainError):
        LaurentPoly.monomial(1, 1, 3)


def test_addition_cancels():
    p = poly({4: 1, 0: 2})
    q = poly({4: -1, -4: 5})
    assert (p + q).terms == ((-4, 5), (0, 2))


def test_multiplication():
    # (t - 1)(t + 1) = t^2 - 1
    p = poly({4: 1, 0: -1})
    q = poly({4: 1, 0: 1})
    assert (p * q).terms == ((0, -1), (8, 1))


def test_evaluate_at_root_integer_powers():
    # t^r = 1 at the r-th root
    p = poly({4 * 5: 1})
    assert abs(evaluate_at_root(p, 5) - 1) < 1e-12
    p = poly({4: 1})
    assert abs(evaluate_at_root(p, 4) - 1j) < 1e-12


def test_evaluate_at_root_quarter_powers():
    # t^(1/4) at r = 8 is the primitive 32nd root
    p = poly({1: 1})
    assert abs(evaluate_at_root(p, 8) - cmath.exp(2j * cmath.pi / 32)) < 1e-12


def test_evaluate_matches_generic():
    p = poly({-4: 2, 2: -3, 7: 1})
    q = cmath.exp(2j * cmath.pi / 7)
    generic = sum(c * q ** (n / 4) for n, c in p.terms)
    assert abs(evaluate_at_root(p, 7) - generic) < 1e-10


@pytest.mark.parametrize("r", [0, -3, True, False, 2.0, float("nan"), float("inf"), "5", None])
def test_evaluate_at_root_rejects_a_bad_root_order(r):
    with pytest.raises(DomainError):
        evaluate_at_root(poly({-4: 2, 2: -3}), r)


def test_evaluate_at_root_takes_any_integral_order():
    p = poly({-4: 2, 2: -3, 7: 1})
    assert evaluate_at_root(p, np.int64(7)) == evaluate_at_root(p, 7)
    # at r = 1 the variable is 1, so integer powers sum their coefficients
    assert evaluate_at_root(poly({-4: 2, 8: -3}), 1) == pytest.approx(-1, abs=1e-12)


@pytest.mark.parametrize("terms", [{0: 10**400}, {0: 10**308, 4: 10**308}])
def test_coefficients_past_the_float_range_are_a_limit_error(terms):
    with pytest.raises(LimitError, match="float range"):
        evaluate_at_root(poly(terms), 1)


def test_evaluate_at_root_of_a_huge_order_is_finite():
    # q = exp(2 pi i / r) is 1 to double precision, so p(q) is the coefficient sum
    p = poly({-4: 2, 3: 5, 8: -3})
    for r in (10**400, 10**400 + 1, 10**5000):
        value = evaluate_at_root(p, r)
        assert cmath.isfinite(value)
        assert value == pytest.approx(4, abs=1e-12)


def test_json_round_trip():
    p = poly({-16: -1, 0: 7, 2: 3})
    items = p.to_json_terms()
    assert items[0] == {"num": -16, "den": 4, "coeff": "-1"}
    assert LaurentPoly.from_json_terms(items) == p


def test_json_rejects_malformed():
    with pytest.raises(ParseError):
        LaurentPoly.from_json_terms([{"num": 1, "den": 3, "coeff": "1"}])
    with pytest.raises(ParseError):
        LaurentPoly.from_json_terms([{"num": "x", "den": 4, "coeff": "1"}])


@pytest.mark.parametrize("term", [
    {"num": 1.5, "den": 4, "coeff": "1"},
    {"num": True, "den": 4.0, "coeff": "1"},
    {"num": 1, "den": 4.0, "coeff": "1"},
    {"num": "1" * 5000, "den": 4, "coeff": "1"},
    {"num": 1, "den": 4, "coeff": "1" * 5000},
    {"num": 1, "den": 4, "coeff": 10**5000},
], ids=["float-num", "bool-num", "float-den", "long-num", "long-coeff", "huge-coeff"])
def test_json_refuses_a_non_int_exponent_and_names_a_long_value_briefly(term):
    with pytest.raises(ParseError) as err:
        LaurentPoly.from_json_terms([term])
    assert str(err.value).startswith("malformed polynomial term {'num': ")
    assert len(str(err.value)) < 200


def test_str_forms():
    assert str(poly({})) == "0"
    assert str(poly({0: -3})) == "-3"
    assert str(poly({-16: -1, -12: 1, -4: 1})) == "-t^-4 + t^-3 + t^-1"
    assert str(poly({2: 2})) == "2*t^1/2"


coeffs = st.integers(-9, 9)
polys = st.builds(
    lambda d: LaurentPoly.from_dict(d),
    st.dictionaries(st.integers(-20, 20), coeffs, max_size=6),
)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p * LaurentPoly.monomial(1, 0) == p
    assert (p + p * LaurentPoly.monomial(-1, 0)).terms == ()


@given(polys, polys)
def test_evaluation_is_ring_map(p, q):
    lhs = evaluate_at_root(p * q, 9)
    rhs = evaluate_at_root(p, 9) * evaluate_at_root(q, 9)
    assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs), abs(rhs))


@given(polys)
def test_json_round_trip_property(p):
    assert LaurentPoly.from_json_terms(p.to_json_terms()) == p
