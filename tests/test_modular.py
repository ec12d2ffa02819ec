import random

import pytest

from cartaninv.algebras import build_hbar
from cartaninv.errors import ParameterError
from cartaninv.modular import (
    FieldParams,
    delta_of,
    mi_add,
    mi_sub,
    multi_binom_int,
    p_valuation,
)


def test_delta_of_examples():
    assert delta_of(FieldParams(3, 2, (1, 1))) == (2, 2)
    assert delta_of(FieldParams(5, 2, (1, 1))) == (4, 4)
    assert delta_of(FieldParams(3, 1, (2,))) == (8,)


def test_binom_lucas_examples():
    # one-component binomials mod p, as Lucas's theorem gives them
    assert multi_binom_int((2,), (1,)) % 3 == 2
    assert multi_binom_int((4,), (2,)) % 5 == 1  # C(4,2) = 6
    assert multi_binom_int((3,), (1,)) % 3 == 0  # C(3,1) = 3
    assert multi_binom_int((2,), (5,)) % 3 == 0  # b > a


def test_multi_binom_examples():
    assert multi_binom_int((2, 1), (1, 1)) % 3 == 2
    assert multi_binom_int((2, 1), (0, 0)) % 3 == 1
    assert multi_binom_int((2, 2), (1, 0)) % 3 == 2  # C(delta,a) = (-1)^|a|


@pytest.mark.parametrize("p", [3, 5])
def test_top_binomial_sign_identity(p):
    # C(delta, a) = (-1)^|a| mod p for every a <= delta, n = 2, m = (1, 1)
    delta = (p - 1, p - 1)
    for a0 in range(p):
        for a1 in range(p):
            want = (-1) ** (a0 + a1) % p
            assert multi_binom_int(delta, (a0, a1)) % p == want


@pytest.mark.parametrize("p", [3, 5])
def test_multi_binom_symmetry(p):
    for a0 in range(p):
        for a1 in range(p):
            for b0 in range(a0 + 1):
                for b1 in range(a1 + 1):
                    alpha, beta = (a0, a1), (b0, b1)
                    comp = mi_sub(alpha, beta)
                    assert (multi_binom_int(alpha, beta) % p
                            == multi_binom_int(alpha, comp) % p)


def test_multi_binom_int_lift():
    assert multi_binom_int((4, 2), (2, 1)) == 12
    assert multi_binom_int((1, 1), (2, 0)) == 0


def test_mi_ops():
    delta = (2, 2)
    assert mi_add((1, 0), (1, 1), delta) == (2, 1)
    assert mi_add((2, 0), (1, 0), delta) is None  # truncation overflow
    assert mi_sub((2, 1), (0, 1)) == (2, 0)
    assert mi_sub((0, 1), (1, 0)) is None


def _mi_add_reference(alpha, beta, delta):
    out = tuple(a + b for a, b in zip(alpha, beta))
    if any(o > d for o, d in zip(out, delta)):
        return None
    return out


def test_mi_add_bounds():
    delta = (2, 8, 4, 4)
    assert mi_add((1, 3, 0, 4), (1, 5, 4, 0), delta) == delta  # exactly at delta
    for axis in range(4):
        beta = tuple(d - a + (t == axis) for t, (a, d) in enumerate(zip((1, 3, 0, 4), delta)))
        assert mi_add((1, 3, 0, 4), beta, delta) is None  # one component over
    rng = random.Random(41)
    for n in (1, 2, 4):
        delta = tuple(rng.choice((2, 4, 8, 24)) for _ in range(n))
        for _ in range(500):
            alpha = tuple(rng.randint(0, d) for d in delta)
            beta = tuple(rng.randint(0, d) for d in delta)
            assert mi_add(alpha, beta, delta) == _mi_add_reference(alpha, beta, delta)


def test_field_params_validation():
    with pytest.raises(ParameterError):
        FieldParams(4, 2, (1, 1))
    with pytest.raises(ParameterError):
        FieldParams(3, 0, ())
    with pytest.raises(ParameterError):
        FieldParams(3, 2, (1,))
    with pytest.raises(ParameterError):
        FieldParams(3, 2, (1, 0))


@pytest.mark.parametrize("p, n, m", [(7, 2, (1.0, 1)), (3, 2.0, (1, 1)),
                                     (7.0, 2, (1, 1)), (3, True, (1,)),
                                     (3, 2, (1, True))])
def test_field_params_refuse_non_int_entries(p, n, m):
    # 1.0 == 1 with the same hash: accepted, it would share the honest key of
    # the parameter caches and leave a float delta there for every later build
    with pytest.raises(ParameterError):
        FieldParams(p, n, m)
    assert build_hbar(FieldParams(7, 2, (1, 1))).dim == 48


def test_field_params_convert_m_to_a_tuple():
    # any iterable of heights is taken as a tuple; a bare int is refused
    with pytest.raises(ParameterError):
        FieldParams(3, 1, 1)
    assert FieldParams(3, 2, [1, 1]).m == (1, 1)


def test_p_valuation():
    assert p_valuation(45, 3) == 2
    assert p_valuation(7, 3) == 0
    with pytest.raises(ValueError):
        p_valuation(0, 3)
