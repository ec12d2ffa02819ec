"""Sparse linear algebra over the prime field F_p.

Vectors are dicts ``{key: coeff}`` over any hashable keys: basis indices,
``(axis, alpha)`` derivation coordinates or monomials.  Rows are reduced on
Python ints, so the arithmetic is exact, and a reduction only touches the
rows whose pivot key the vector holds.
"""

from __future__ import annotations


def _sub_scaled(dst, f, src, p):
    """dst -= f * src over F_p, in place, dropping the entries that vanish."""
    for k, c in src.items():
        nc = (dst.get(k, 0) - f * c) % p
        if nc:
            dst[k] = nc
        else:
            dst.pop(k, None)


class SpanSolver:
    """Incremental sparse Gauss-Jordan elimination with expression tracking.

    ``insert`` keeps a vector when it is independent of the span so far;
    ``solve`` expresses a vector as a combination of the inserted independent
    vectors (keyed by insertion order), returning None when it lies outside
    the span.  Coordinates and relations come out in insertion order.

    The stored rows are kept fully reduced against each other, so no row
    holds another row's pivot key and one pass over a vector's pivot keys
    reduces it completely.  The pivot is the first key of the residual; every
    result a caller reads (independence, ``solve`` coordinates, relations,
    rank) is the same whichever key is chosen.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows = {}  # pivot key -> (unit-pivot row, {inserted index: coeff})
        self.ninserted = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec):
        # returns (residual, expr) with residual = vec + sum expr[k] * inserted_k
        p = self.p
        vec = {k: c % p for k, c in vec.items() if c % p}
        expr = {}
        for key in [k for k in vec if k in self.rows]:
            x = vec[key]
            row, rexpr = self.rows[key]
            _sub_scaled(vec, x, row, p)
            _sub_scaled(expr, x, rexpr, p)
        return vec, expr

    def insert(self, vec) -> bool:
        """Add a vector to the span; True iff it was independent."""
        return self.insert_or_relation(vec) is None

    def insert_or_relation(self, vec):
        """Add a vector; None when independent, else the linear relation.

        The relation is a dict {inserted index: coeff} with
        sum coeff * inserted_k = 0, including this vector's own index.
        """
        p = self.p
        red, expr = self._reduce(vec)
        mine = self.ninserted
        self.ninserted += 1
        if not red:
            relation = {k: expr[k] for k in sorted(expr)}
            relation[mine] = 1
            return relation
        pivot = next(iter(red))
        inv = pow(red[pivot], p - 2, p)
        row = {k: x * inv % p for k, x in red.items()}
        rexpr = {k: c * inv % p for k, c in expr.items()}
        rexpr[mine] = inv
        # back-substitute into existing rows to keep them fully reduced
        for orow, oexpr in self.rows.values():
            f = orow.get(pivot)
            if f is not None:
                _sub_scaled(orow, f, row, p)
                _sub_scaled(oexpr, f, rexpr, p)
        self.rows[pivot] = (row, rexpr)
        return None

    def solve(self, vec):
        """Coefficients over inserted vectors with sum = vec, or None."""
        red, expr = self._reduce(vec)
        if red:
            return None
        return {k: -expr[k] % self.p for k in sorted(expr)}


def kernel_basis(rows, width: int, p: int):
    """Basis of the right kernel {v : M v = 0} of the matrix with given rows."""
    solver = SpanSolver(p)
    out = []
    for j in range(width):
        rel = solver.insert_or_relation({i: row[j] for i, row in enumerate(rows)})
        if rel is not None:
            out.append([rel.get(k, 0) for k in range(width)])
    return out
