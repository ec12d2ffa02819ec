"""The divided power algebra of the operator-level oracle in conftest.py, and
the canonical monomial order ``dp_basis``."""

import random

import pytest

from conftest import dp_add, dp_mul, dp_partial, dp_poly
from cartaninv.errors import ParameterError
from cartaninv.modular import FieldParams, dp_basis

P3 = FieldParams(3, 2, (1, 1))
P5 = FieldParams(5, 2, (1, 1))


def rand_dp(rng, params, nterms=3):
    basis = dp_basis(params)
    terms = {}
    for _ in range(nterms):
        terms[basis[rng.randrange(len(basis))]] = rng.randrange(1, params.p)
    return dp_poly(params, terms)


def test_dp_basis_small():
    assert dp_basis(FieldParams(3, 1, (1,))) == ((0,), (1,), (2,))
    b = dp_basis(P3)
    assert len(b) == 9 and b[0] == (0, 0) and b[-1] == (2, 2)
    assert len(dp_basis(P5)) == 25
    # graded-lex: degrees never decrease
    degs = [sum(a) for a in b]
    assert degs == sorted(degs)


def test_mul_examples():
    x10, x11 = {(1, 0): 1}, {(1, 1): 1}
    assert dp_mul(P3, x10, x11) == {(2, 1): 2}
    assert dp_mul(P3, {(2, 0): 1}, x10) == {}  # exponent beyond delta truncates
    y = {(1, 0): 1}
    assert dp_mul(P5, y, y) == {(2, 0): 2}


def test_partial_examples():
    f = {(2, 1): 1}
    assert dp_partial(P3, f, 0) == {(1, 1): 1}
    assert dp_partial(P3, {(2, 0): 1}, 1) == {}
    assert dp_partial(P3, dp_partial(P3, {(2, 0): 1}, 0), 0) == {(0, 0): 1}
    with pytest.raises(ParameterError):
        dp_partial(P3, f, 2)


def test_params_mismatch():
    # a polynomial of P5 read under P3: its index (4, 4) lies past P3's delta
    with pytest.raises(ParameterError):
        dp_mul(P3, {(0, 0): 1}, {(4, 4): 1})


def test_out_of_range_index_rejected():
    with pytest.raises(ParameterError):
        dp_poly(P3, {(3, 0): 1})
    with pytest.raises(ParameterError):
        dp_poly(P3, {(1, 0, 0): 1})


@pytest.mark.parametrize("params", [P3, P5])
def test_commutative_associative(params):
    rng = random.Random(11)
    for _ in range(25):
        f, g, h = (rand_dp(rng, params) for _ in range(3))
        assert dp_mul(params, f, g) == dp_mul(params, g, f)
        assert (dp_mul(params, dp_mul(params, f, g), h)
                == dp_mul(params, f, dp_mul(params, g, h)))


@pytest.mark.parametrize("params", [P3, P5, FieldParams(3, 2, (2, 1))])
def test_partials_commute_and_leibniz(params):
    rng = random.Random(13)
    for _ in range(20):
        f, g = rand_dp(rng, params), rand_dp(rng, params)
        assert (dp_partial(params, dp_partial(params, f, 0), 1)
                == dp_partial(params, dp_partial(params, f, 1), 0))
        lhs = dp_partial(params, dp_mul(params, f, g), 0)
        assert lhs == dp_add(params, (1, dp_mul(params, dp_partial(params, f, 0), g)),
                             (1, dp_mul(params, f, dp_partial(params, g, 0))))


@pytest.mark.parametrize("params", [P3, FieldParams(3, 1, (2,))])
def test_partial_nilpotent(params):
    # d_i applied p^{m_i} times kills everything
    rng = random.Random(17)
    for _ in range(10):
        f = rand_dp(rng, params)
        for axis in range(params.n):
            g = f
            for _ in range(params.p ** params.m[axis]):
                g = dp_partial(params, g, axis)
            assert g == {}


def test_add_sub_scale():
    rng = random.Random(19)
    f = rand_dp(rng, P3)
    assert dp_add(P3, (1, f), (-1, f)) == {}
    assert dp_add(P3, (0, f)) == {}
    assert dp_add(P3, (1, f), (1, f)) == dp_add(P3, (2, f))
