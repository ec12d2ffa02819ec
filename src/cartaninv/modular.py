"""Field parameters, exact binomials, the divided-power monomial basis and
bounded multi-index arithmetic.

Multi-indices are plain tuples of non-negative ints.  Every index that refers
to a truncated algebra is bounded componentwise by delta_i = p^{m_i} - 1.
Coefficient arithmetic that must stay exact is done with Python ints, which
are arbitrary precision; multi-index entries themselves are small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add, le

from .errors import ParameterError

MultiIndex = tuple  # alias for readability in signatures


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldParams:
    """Characteristic p, number of variables n, and heights m = (m_1..m_n)."""

    p: int
    n: int
    m: tuple

    def __post_init__(self):
        if not isinstance(self.m, tuple):
            try:
                object.__setattr__(self, "m", tuple(self.m))
            except TypeError:
                raise ParameterError(
                    f"m must be a sequence of ints, got {self.m!r}") from None
        # a float or bool equal to an int would share its hash, and so the
        # entries of delta_of's lru_cache
        if any(type(x) is not int for x in (self.p, self.n, *self.m)):
            raise ParameterError(
                f"p, n and every m_i must be ints, got {self.p!r}, {self.n!r}, {self.m!r}")
        # no build finishes past it (W_1(1) has dimension p): is_prime stays fast
        if self.p >= 1 << 31:
            raise ParameterError(f"p must be below 2^31, got {self.p}")
        if not is_prime(self.p):
            raise ParameterError(f"p must be prime, got {self.p}")
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if len(self.m) != self.n:
            raise ParameterError(f"m must have length n={self.n}, got {self.m}")
        if any(mi < 1 for mi in self.m):
            raise ParameterError(f"every m_i must be >= 1, got {self.m}")


def validate_for_kind(params: FieldParams, kind: str) -> None:
    """Kind-specific constraints: S needs n >= 2, H and Hbar need n even and
    an odd prime (the symplectic form's signs +1 and -1 coincide mod 2)."""
    if kind == "S" and params.n < 2:
        raise ParameterError("S requires n >= 2")
    if kind in ("H", "Hbar") and params.n % 2 != 0:
        raise ParameterError(f"{kind} requires even n, got n={params.n}")
    if kind in ("H", "Hbar") and params.p < 3:
        raise ParameterError(f"{kind} requires an odd prime p, got p={params.p}")


@lru_cache(maxsize=None)
def delta_of(params: FieldParams) -> MultiIndex:
    """The top multi-index delta with delta_i = p^{m_i} - 1 (cached: every
    divided-power product reads it)."""
    return tuple(params.p ** mi - 1 for mi in params.m)


def dp_walk(params: FieldParams):
    """Yield the multi-indices alpha <= delta in (|alpha|, lex) order, one at
    a time: the canonical basis order used everywhere downstream."""
    delta = delta_of(params)
    for total in range(sum(delta) + 1):
        yield from _graded(delta, total)


def _graded(delta, total):
    """The alpha <= delta with |alpha| = total, in lex order."""
    if len(delta) == 1:
        yield (total,)
        return
    d, rest = delta[0], delta[1:]
    for a in range(max(0, total - sum(rest)), min(d, total) + 1):
        for tail in _graded(rest, total - a):
            yield (a,) + tail


def dp_basis(params: FieldParams):
    """All multi-indices alpha <= delta, in the order of ``dp_walk``."""
    return tuple(dp_walk(params))


def multi_binom_int(alpha: MultiIndex, beta: MultiIndex) -> int:
    """Exact integer product of componentwise binomials (the Z-lift)."""
    r = 1
    for a, b in zip(alpha, beta):
        if b < 0 or b > a:
            return 0
        r *= math.comb(a, b)
    return r


def mi_add(alpha: MultiIndex, beta: MultiIndex, delta: MultiIndex):
    """Componentwise sum, or None when any component overflows delta.

    Overflow is the signaled outcome that callers map to the zero product
    (the truncation x_i^{p^{m_i}} = 0).
    """
    out = tuple(map(add, alpha, beta))
    return out if all(map(le, out, delta)) else None


def mi_sub(alpha: MultiIndex, beta: MultiIndex):
    """Componentwise difference, or None when any component goes negative."""
    out = tuple(a - b for a, b in zip(alpha, beta))
    if any(o < 0 for o in out):
        return None
    return out


def p_valuation(x: int, p: int) -> int:
    """Largest e with p^e dividing x; x must be nonzero."""
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e
