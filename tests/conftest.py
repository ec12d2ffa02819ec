from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from cartaninv import symalg
from cartaninv.algebras import build_hbar, build_s, build_w, decompose, derivation_bracket
from cartaninv.errors import Budget, BudgetExceededError, ParameterError
from cartaninv.modular import FieldParams, delta_of, dp_basis, mi_add, multi_binom_int
from cartaninv.pipeline import conjecture_sweep, delta_star
from cartaninv.symalg import SymPolynomial, ad_action, d_delta, d_gamma

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


class TaggedOperator(list):
    """An ad operator that carries the element it was built from."""


def tag_ad_operators(monkeypatch):
    """Make every ad operator ``symalg`` builds carry its element, as a list
    of (basis index, coefficient) pairs, in ``.element``, so that a patched
    ``_ad_pass`` can tell which element each pass applies."""
    build = symalg._ad_operator

    def tagged(F, element, width):
        op = TaggedOperator(build(F, element, width))
        op.element = list(element)
        return op

    monkeypatch.setattr(symalg, "_ad_operator", tagged)


def vec_sum(p, *terms):
    """sum c * vec over the (c, vec) pairs: a sparse vector of nonzero
    residues mod p, for derivation vectors and coordinate maps alike."""
    out = {}
    for c, vec in terms:
        for k, x in vec.items():
            out[k] = (out.get(k, 0) + c * x) % p
    return {k: x for k, x in out.items() if x}


def random_derivation(rng, algebra):
    """A random element of the algebra's span, as a derivation vector."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        b = algebra.basis[rng.randrange(algebra.dim)].vector
        terms.append((rng.randrange(1, algebra.params.p), b))
    return vec_sum(algebra.params.p, *terms)


# -- the operator-level oracle ------------------------------------------------
#
# A divided-power polynomial is a dict {alpha: residue}, and a derivation is
# the vector {(axis, alpha): residue} that stands for sum c x^(alpha) d_axis.
# These functions apply a derivation to a polynomial by the product rule
# x^(a) x^(b) = C(a+b, a) x^(a+b), zero past delta, and the special
# derivative d_i x^(a) = x^(a - e_i).  They never call ``bracket``: the tests
# compare ``bracket`` with the commutator of two ``dp_apply`` calls.

def dp_poly(params, terms):
    """{alpha: c} reduced mod p with the zero terms dropped; an index of the
    wrong length or past delta raises ParameterError."""
    delta = delta_of(params)
    out = {}
    for alpha, c in terms.items():
        if c % params.p:
            if len(alpha) != params.n or any(a > d for a, d in zip(alpha, delta)):
                raise ParameterError(f"index {alpha} out of range for delta={delta}")
            out[alpha] = c % params.p
    return out


def dp_add(params, *terms):
    """sum c * f over the (c, f) pairs."""
    return dp_poly(params, vec_sum(params.p, *terms))


def dp_mul(params, f, g):
    """The divided-power product; terms beyond delta vanish."""
    f, g = dp_poly(params, f), dp_poly(params, g)
    delta = delta_of(params)
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            s = mi_add(a, b, delta)
            if s is not None:
                out[s] = out.get(s, 0) + ca * cb * (multi_binom_int(s, a) % params.p)
    return dp_poly(params, out)


def dp_partial(params, f, axis):
    """The special derivative d_axis (0-based axis)."""
    if not 0 <= axis < params.n:
        raise ParameterError(f"axis {axis} out of range for n={params.n}")
    return {a[:axis] + (a[axis] - 1,) + a[axis + 1:]: c
            for a, c in dp_poly(params, f).items() if a[axis]}


def dp_apply(params, vec, f):
    """The derivation sum c x^(alpha) d_axis of ``vec`` applied to f."""
    return dp_add(params, *((1, dp_mul(params, {alpha: c}, dp_partial(params, f, axis)))
                            for (axis, alpha), c in vec.items()))


def commutation_expansion_check(D, F):
    """Verify ad(D) d^(delta) F = sum_g (-1)^|g| C(delta,g) d^(delta-g) ad(d^(g) D) F
    for a derivation vector D in the span of F's algebra.

    Here d^(g)(D) is the g-fold iterated bracket of D with the coordinate
    derivations, an element of the algebra.  Deep consistency test tying
    together the bracket, the structure constants and the operator calculus.
    """
    alg = F.algebra
    assert F.ring == "modp", "the expansion identity is a mod-p statement"
    params = alg.params
    delta = delta_of(params)
    lhs = ad_action(decompose(D, alg), d_delta(F))
    partials = [{(axis, (0,) * params.n): 1} for axis in range(params.n)]
    iterated = {(0,) * params.n: D}

    def it_bracket(gamma):
        got = iterated.get(gamma)
        if got is None:
            axis = next(i for i, g in enumerate(gamma) if g > 0)
            prev = gamma[:axis] + (gamma[axis] - 1,) + gamma[axis + 1:]
            got = derivation_bracket(partials[axis], it_bracket(prev), params)
            iterated[gamma] = got
        return got

    rhs = SymPolynomial.zero(alg, F.ring)
    for gamma in dp_basis(params):
        dg = it_bracket(gamma)
        if not dg:
            continue
        inner = ad_action(decompose(dg, alg), F)
        if not inner:
            continue
        rest = tuple(d - g for d, g in zip(delta, gamma))
        term = d_gamma(inner, rest)
        sign = -1 if sum(gamma) % 2 else 1
        rhs = rhs + term.scale(sign * multi_binom_int(delta, gamma))
    return lhs == rhs


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
def sweep_p7():
    """The p = 7 sweep, computed once: four records and Delta_10_star refuted."""
    return conjecture_sweep(7, budget=Budget(max_terms=10_000_000, max_seconds=600))


@pytest.fixture(scope="session")
def sweep_p5_checkpoints():
    """The number of budget checkpoints one untripped p = 5 sweep makes."""
    clock = TripClock()
    assert conjecture_sweep(5, clock).completed
    return clock.checkpoints
