"""Truncated divided power algebra in n variables over F_p.

Elements are sparse maps from bounded multi-indices to nonzero residues.
The monomial product is x^(a) * x^(b) = C(a+b, a) x^(a+b), truncated to zero
whenever a component of a+b exceeds delta, and the special derivative lowers
one index with no multiplying factor: d_i x^(a) = x^(a - e_i).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ParameterError
from .modular import FieldParams, delta_of, mi_add, mi_leq, multi_binom


@lru_cache(maxsize=None)
def dp_basis(params: FieldParams):
    """All multi-indices alpha <= delta, ordered by (|alpha|, lex).

    This order is the canonical basis order used everywhere downstream.
    """
    delta = delta_of(params)
    idxs = [()]
    for d in delta:
        idxs = [t + (i,) for t in idxs for i in range(d + 1)]
    idxs.sort(key=lambda a: (sum(a), a))
    return tuple(idxs)


class DPPolynomial:
    """Sparse element of the divided power algebra."""

    __slots__ = ("params", "terms")

    def __init__(self, params: FieldParams, terms=None):
        self.params = params
        p = params.p
        clean = {}
        if terms:
            delta = delta_of(params)
            for alpha, c in terms.items():
                c %= p
                if c == 0:
                    continue
                if len(alpha) != params.n or not mi_leq(alpha, delta):
                    raise ParameterError(f"index {alpha} out of range for delta={delta}")
                clean[alpha] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, params):
        return cls(params)

    @classmethod
    def one(cls, params):
        return cls(params, {(0,) * params.n: 1})

    @classmethod
    def monomial(cls, params, alpha, coeff=1):
        return cls(params, {tuple(alpha): coeff})

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, DPPolynomial)
            and self.params == other.params
            and self.terms == other.terms
        )

    __hash__ = None

    # -- ring operations ---------------------------------------------------
    def _check(self, other):
        if self.params is not other.params and self.params != other.params:
            raise ParameterError("parameter mismatch between operands")

    def __add__(self, other):
        self._check(other)
        p = self.params.p
        out = dict(self.terms)
        for a, c in other.terms.items():
            s = (out.get(a, 0) + c) % p
            if s:
                out[a] = s
            else:
                out.pop(a, None)
        res = DPPolynomial.__new__(DPPolynomial)
        res.params, res.terms = self.params, out
        return res

    def __neg__(self):
        p = self.params.p
        res = DPPolynomial.__new__(DPPolynomial)
        res.params = self.params
        res.terms = {a: p - c for a, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int) -> "DPPolynomial":
        p = self.params.p
        c %= p
        res = DPPolynomial.__new__(DPPolynomial)
        res.params = self.params
        res.terms = {} if c == 0 else {a: x * c % p for a, x in self.terms.items()}
        return res

    def __mul__(self, other):
        """Divided-power product; terms beyond delta vanish.

        Part of the operator-level path (``Derivation.apply``) that the tests
        check ``bracket`` against; only the tests reach it.
        """
        self._check(other)
        params = self.params
        p = params.p
        delta = delta_of(params)
        out = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                s = mi_add(a, b, delta)
                if s is None:
                    continue
                c = ca * cb * multi_binom(s, a, p) % p
                if c == 0:
                    continue
                t = (out.get(s, 0) + c) % p
                if t:
                    out[s] = t
                else:
                    out.pop(s, None)
        res = DPPolynomial.__new__(DPPolynomial)
        res.params, res.terms = params, out
        return res

    def partial(self, axis: int) -> "DPPolynomial":
        """The special derivative d_axis (0-based axis)."""
        if not 0 <= axis < self.params.n:
            raise ParameterError(f"axis {axis} out of range for n={self.params.n}")
        out = {}
        for a, c in self.terms.items():
            if a[axis] == 0:
                continue
            out[a[:axis] + (a[axis] - 1,) + a[axis + 1:]] = c
        res = DPPolynomial.__new__(DPPolynomial)
        res.params, res.terms = self.params, out
        return res

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for a in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[a]
            mono = "x^(%s)" % ",".join(map(str, a))
            bits.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(bits)
