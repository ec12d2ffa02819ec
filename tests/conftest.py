from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from cartaninv.algebras import build_hbar, build_s, build_w
from cartaninv.errors import BudgetExceededError
from cartaninv.modular import FieldParams
from cartaninv.pipeline import conjecture_sweep, delta_star
from cartaninv.symalg import SymPolynomial

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name):
    return json.loads((FIXTURES / name).read_text())


def random_poly(rng, algebra, max_degree=3, nterms=4, ring="modp"):
    """Random sparse polynomial with coefficients in [1, p)."""
    terms = {}
    for _ in range(nterms):
        d = rng.randint(1, max_degree)
        mono = {}
        for _ in range(d):
            v = rng.randrange(algebra.dim)
            mono[v] = mono.get(v, 0) + 1
        terms[tuple(sorted(mono.items()))] = rng.randrange(1, algebra.params.p)
    return SymPolynomial(algebra, ring, terms)


class TripClock:
    """Budget clock stub that raises on its ``trip``-th checkpoint."""

    def __init__(self, trip=None):
        self.trip = trip
        self.checkpoints = 0

    def charge(self, nterms):
        self.checkpoint()

    def checkpoint(self):
        self.checkpoints += 1
        if self.checkpoints == self.trip:
            raise BudgetExceededError("stub budget tripped")


def ad_index_oracle(F, idx, sign=1):
    """The tuple-key ad kernel: the derivation of S(L) extending ad of the
    idx-th basis element, one monomial rebuilt per term update."""
    alg = F.algebra
    rows = alg.row_mod if F.ring == "modp" else alg.row_int
    out = {}
    for mono, c in F.terms.items():
        for t, (v, e) in enumerate(mono):
            row = rows(idx, v)
            if not row:
                continue
            base = mono[:t] + (((v, e - 1),) if e > 1 else ()) + mono[t + 1:]
            ce = c * e * sign
            for k, rc in row:
                raised = dict(base)
                raised[k] = raised.get(k, 0) + 1
                m = tuple(sorted(raised.items()))
                s = out.get(m, 0) + ce * rc
                if s:
                    out[m] = s
                else:
                    del out[m]
    if F.ring == "modp":
        p = alg.params.p
        out = {m: c % p for m, c in out.items() if c % p}
    return SymPolynomial(alg, F.ring, out)


def random_derivation(rng, algebra):
    out = None
    for _ in range(rng.randint(1, 3)):
        b = algebra.basis[rng.randrange(algebra.dim)].derivation
        b = b.scale(rng.randrange(1, algebra.params.p))
        out = b if out is None else out + b
    return out


@pytest.fixture(scope="session")
def params3():
    return FieldParams(3, 2, (1, 1))


@pytest.fixture(scope="session")
def params5():
    return FieldParams(5, 2, (1, 1))


@pytest.fixture(scope="session")
def w1_p3():
    return build_w(FieldParams(3, 1, (1,)))


@pytest.fixture(scope="session")
def w2_p3(params3):
    return build_w(params3)


@pytest.fixture(scope="session")
def w2_p5(params5):
    return build_w(params5)


@pytest.fixture(scope="session")
def s2_p3(params3):
    return build_s(params3)


@pytest.fixture(scope="session")
def s2_p5(params5):
    return build_s(params5)


@pytest.fixture(scope="session")
def hbar_p3(params3):
    return build_hbar(params3)


@pytest.fixture(scope="session")
def hbar_p5(params5):
    return build_hbar(params5)


@pytest.fixture(scope="session")
def record_p3(hbar_p3):
    result = delta_star(2, hbar_p3)
    assert result.status == "ok"
    return result.record


@pytest.fixture(scope="session")
def results_p5(hbar_p5):
    """The three pipeline runs of the p = 5 series, computed once."""
    return {i: delta_star(i, hbar_p5) for i in (2, 4, 6)}


@pytest.fixture(scope="session")
def sweep_p5_checkpoints():
    """The number of budget checkpoints one untripped p = 5 sweep makes."""
    clock = TripClock()
    assert conjecture_sweep(5, clock).completed
    return clock.checkpoints
