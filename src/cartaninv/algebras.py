"""Finite-dimensional Cartan-type Lie algebras W, S, H and Hbar.

Each algebra is materialized as an ordered basis of special derivations of
the divided power algebra, together with a Z-grading and a sparse tensor of
integer structure constants.  The integer constants are canonical lifts
built from divided-power binomials (Poisson-bracket closed forms for the
Hamiltonian family); reducing them mod p recovers the honest bracket, which
is re-verified derivation-by-derivation during construction.

Basis conventions:
  * W: monomial derivations x^(a) d_i, grade |a| - 1.
  * S: fields D_{i,j}(a) = d_i(x^(a)) d_j - d_j(x^(a)) d_i, grade |a| - 2.
    For n = 2, D_{1,2}(a) is the divided Hamiltonian field D(a), so S_2 is
    Hbar_2's divided table, top element included, under S labels.  For
    n >= 3 the basis is an independent subset selected by row reduction in
    (a, i, j) order.
  * H / Hbar: Hamiltonian fields of monomials, grade |a| - 2.  When every
    m_i = 1 the basis element for a is the field of the ordinary monomial
    x1^a1 ... xn^an (labelled u_{a}); this factorial rescaling of the
    divided-power field D(a) is what matches the classical presentation
    [u_a, u_b] = (a1*b2 - a2*b1) u_{a+b-e1-e2} and the printed invariants.
    For general m the basis is D(a) itself (labelled D(a)).  The form is
    fixed: x_{2k} pairs with x_{2k+1}.  H is Hbar without its top element.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .errors import UNLIMITED, Budget, ClosureError, NotInSpanError, ParameterError
from .gflinalg import SpanSolver
from .modular import (
    FieldParams,
    delta_of,
    dp_walk,
    mi_add,
    mi_sub,
    multi_binom_int,
    validate_for_kind,
)


class BasisElement(NamedTuple):
    label: str
    vector: dict  # the derivation sum c x^(alpha) d_axis as {(axis, alpha): c}
    grade: int


class _Frame:
    """One build's packed multi-indices.  alpha is packed as the int
    sum alpha_t << shift_t; field t is one bit wider than delta_t + 1 needs,
    and its top bit is a guard.

    ``bias`` fills each field to one below its guard bit past delta_t, so for
    a packed g with every g_t <= 2 delta_t, ``(g + bias) & guard`` is 0
    exactly when g <= delta: no field carries into the next.  Each field of
    ``bias`` is at least 1, so taking one from each borrows nothing and
    moves the bound to delta + 1.
    ``binoms[g, a]`` is C(g, a), computed for the pairs this build meets, and
    the frame lives only as long as its build."""

    def __init__(self, params):
        self.p = params.p
        self.delta = delta_of(params)
        self.fields, self.units, self.masks = [], [], []  # fields: (shift, mask)
        self.guard = self.bias = offset = 0
        for d in self.delta:
            width = (d + 1).bit_length() + 1
            top = 1 << (width - 1)
            self.fields.append((offset, (1 << width) - 1))
            self.units.append(1 << offset)
            self.masks.append(((1 << width) - 1) << offset)
            self.guard |= top << offset
            self.bias += (top - 1 - d) << offset
            offset += width
        self.binoms = _Binomials(self.fields)

    def pack_alpha(self, alpha):
        if len(alpha) != len(self.delta) or not all(
                0 <= a <= d for a, d in zip(alpha, self.delta)):
            raise ValueError(f"multi-index {alpha} is not between 0 and {self.delta}")
        return sum(a << shift for a, (shift, _) in zip(alpha, self.fields))

    def pack(self, vec):
        """A derivation vector {(axis, alpha): c} with packed alphas."""
        return {(axis, self.pack_alpha(alpha)): c for (axis, alpha), c in vec.items()}

    def unpack(self, vec):
        """The derivation vector {(axis, alpha): c} of a packed one."""
        return {(axis, tuple(g >> shift & mask for shift, mask in self.fields)): c
                for (axis, g), c in vec.items()}


class _Binomials(dict):
    """C(g, a) = prod_t C(g_t, a_t) of two packed multi-indices, keyed (g, a)
    and computed on first use."""

    def __init__(self, fields):
        super().__init__()
        self.fields = fields

    def __missing__(self, key):
        g, a = key
        c = 1
        for shift, mask in self.fields:
            c *= math.comb(g >> shift & mask, a >> shift & mask)
        self[key] = c
        return c


def bracket(u, v, frame):
    """[u, v] of two derivations given as vectors {(axis, alpha): coeff} whose
    alphas ``frame`` packed.

    The k-th coefficient is sum_i (f_i d_i g_k - g_i d_i f_k), where
    x^(a) x^(b) = C(a+b, a) x^(a+b), zero past delta.  Exact integers are
    accumulated and reduced mod p once; the result holds the nonzero residues.
    This is the generic divided-power rule: it never reads a closed form.
    """
    units, masks, bias, guard = frame.units, frame.masks, frame.bias, frame.guard
    binoms = frame.binoms
    out = {}
    for x, y, sign in ((u, v, 1), (v, u, -1)):
        # x^(a) d_i applied to the coefficient x^(b) of d_k: the index
        # g = a + (b - e_i), which is kept when no field of g passes delta
        for (i, a), ca in x.items():
            # a - e_i may borrow from the next field; a + (b - e_i) does not
            mask, base = masks[i], a - units[i]
            for (k, b), cb in y.items():
                if b & mask:
                    g = base + b
                    if not (g + bias) & guard:
                        key = (k, g)
                        out[key] = out.get(key, 0) + sign * ca * cb * binoms[g, a]
    p = frame.p
    return {key: c % p for key, c in out.items() if c % p}


def derivation_bracket(u, v, params):
    """[u, v] of two derivation vectors {(axis, alpha): coeff}: ``bracket``
    on a frame made for this one call."""
    frame = _Frame(params)
    return frame.unpack(bracket(frame.pack(u), frame.pack(v), frame))


def _floor(vec):
    """The componentwise minimum of the alphas of a derivation vector."""
    return tuple(map(min, zip(*(alpha for _, alpha in vec))))


def _pairs(floors, frame, budget):
    """Yield (i, j, alive) for the pairs i < j of elements with these floors,
    in row order; ``budget.checkpoint()`` runs once per row i, before its pairs.

    A pair that is not alive brackets to 0: some t has a_t + b_t > delta_t + 1
    for every term x^(a) d_i of one and x^(b) d_k of the other, so each product
    x^(a) x^(b - e_i) and x^(b) x^(a - e_k) has t-th index past delta_t and
    vanishes.  The closed forms pass basis alphas as floors: x^(a) d_i has the
    floor a, and each Hamiltonian pair term g = a + b - e_s - e_t has
    g_t >= a_t + b_t - 1.  With the floors packed by ``frame``, the bound on
    every t is one guard-bit test of their sum.
    """
    packed = [frame.pack_alpha(floor) for floor in floors]
    guard, room = frame.guard, frame.bias - sum(frame.units)
    for i, floor in enumerate(packed):
        budget.checkpoint()
        lift = floor + room
        for j in range(i + 1, len(packed)):
            yield i, j, not (lift + packed[j]) & guard


def _table(floors, params, budget, rule):
    """The structure-constant table {(i, j): row}: each nonzero ``rule(i, j)``
    over the alive pairs of ``_pairs``, in row order.  The dead pairs bracket
    to 0 and are not stored."""
    rows = {}
    for i, j, alive in _pairs(floors, _Frame(params), budget):
        if alive and (row := rule(i, j)):
            rows[(i, j)] = row
    return rows


def _alphas(params, budget):
    """The multi-indices of ``dp_walk(params)`` in order, with
    ``budget.checkpoint()`` before each: the one basis walk of the builders,
    so a deadline trips while the basis is made, not after it."""
    for alpha in dp_walk(params):
        budget.checkpoint()
        yield alpha


def _combine(row, vecs, p):
    """sum c * vecs[k] over the (k, c) of ``row``, as nonzero residues mod p."""
    out = {}
    for k, c in row:
        for key, x in vecs[k].items():
            out[key] = out.get(key, 0) + c * x
    return {key: c % p for key, c in out.items() if c % p}


class CartanAlgebra:
    """A constructed algebra: ordered basis, grading, integer constants."""

    def __init__(self, kind, params, basis, rows_int, h_subalgebra=None,
                 verify=True, budget: Budget = UNLIMITED):
        self.kind = kind
        self.params = params
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.index = {b.label: i for i, b in enumerate(self.basis)}
        if any(i >= j for i, j in rows_int):
            raise ClosureError(f"{kind} table holds a pair (i, j) with i >= j")
        self.rows_int = rows_int
        self.grades = tuple(b.grade for b in self.basis)
        self.r = max(self.grades)
        self.h_subalgebra = h_subalgebra
        self._mod_rows = {}
        self._solver = None
        self._generators = None
        self._delta_annihilators = None
        self.partial_coords = tuple(self._locate_partial(ax) for ax in range(params.n))
        if verify:
            self._verify_closure(budget)

    # -- bookkeeping ---------------------------------------------------------
    @property
    def sign_tag(self) -> str:
        if self.kind in ("H", "Hbar"):
            n = self.params.n
            pi = ",".join(str((i ^ 1) + 1) for i in range(n))
            signs = ",".join("-1" if i % 2 else "+1" for i in range(n))
            scale = "monomial" if _scaled(self.params) else "divided"
            return f"pi=({pi});signs=({signs});basis={scale}"
        return "basis=divided"

    def row_int(self, i: int, j: int):
        """Integer row for [b_i, b_j]: stored for i < j, negated otherwise."""
        if i < j:
            return self.rows_int.get((i, j), ())
        return tuple((k, -c) for k, c in self.rows_int.get((j, i), ()))

    def stored_rows(self):
        """(i, j, row) for each stored pair i < j with a nonempty integer row,
        in row order."""
        return [(i, j, row) for (i, j), row in sorted(self.rows_int.items()) if row]

    def row_mod(self, i: int, j: int):
        """The same row reduced mod p (cached)."""
        key = (i, j)
        row = self._mod_rows.get(key)
        if row is None:
            p = self.params.p
            row = tuple((k, c % p) for k, c in self.row_int(i, j) if c % p)
            self._mod_rows[key] = row
        return row

    def lie_generators(self):
        """Basis indices, ascending, of a set that generates the algebra under
        the mod-p bracket.

        Starts from every grade -1 index and, while the bracket closure is
        not the whole algebra, adds the highest basis index outside it
        (u_{0,1}, u_{1,0}, u_{p-1,p-2} for H_2(1,1) at p >= 5).  Computed on
        first use and cached on the instance.
        """
        if self._generators is None:
            gens = [i for i, g in enumerate(self.grades) if g == -1]
            while True:
                span = self._bracket_closure(gens)
                if span.rank == self.dim:
                    break
                gens.append(next(i for i in reversed(range(self.dim))
                                 if span.solve({i: 1}) is None))
            self._generators = tuple(sorted(gens))
        return self._generators

    def delta_annihilators(self) -> frozenset:
        """The basis indices idx of the partials d_a = c b_idx, all or none,
        for which the mod-p rows prove ad(b_idx) d^(delta)(F) = 0 on S(L).

        Write D_a for the derivation of S(L) extending ad(d_a); a derivation
        is fixed by its values on L, so two checks on the basis suffice:
        (1) D_a D_b z = D_b D_a z for every pair of partials, and
        (2) D_a^(delta_a+1) z = 0.  In characteristic p, D_a^(delta_a+1) =
        D_a^(p^m_a) is a derivation, so (2) makes it zero on S(L), and with (1)

            ad(b_idx) d^(delta)(F) = c^-1 (prod over b != a of D_b^delta_b) D_a^(delta_a+1)(F) = 0.

        Jacobi and the truncation make both hold for every honest table; a
        planted row can break either.  Computed on first use and cached on
        the instance.
        """
        if self._delta_annihilators is None:
            ad = self._ad_mod
            idxs = [i for i, _ in self.partial_coords]

            def killed(i, k, z):
                vec = {z: 1}
                for _ in range(k):
                    vec = ad(i, vec)
                return not vec

            commute = all(ad(a, ad(b, {z: 1})) == ad(b, ad(a, {z: 1}))
                          for a, b in combinations(idxs, 2) for z in range(self.dim))
            nilpotent = all(killed(i, d + 1, z)
                            for i, d in zip(idxs, delta_of(self.params))
                            for z in range(self.dim))
            self._delta_annihilators = frozenset(idxs if commute and nilpotent else ())
        return self._delta_annihilators

    def _ad_mod(self, g, vec):
        """ad(b_g) of the coordinate vector ``vec``, read off the mod-p rows:
        its nonzero residues."""
        p = self.params.p
        out = {}
        for k, c in vec.items():
            for t, rc in self.row_mod(g, k):
                out[t] = (out.get(t, 0) + c * rc) % p
        return {t: c for t, c in out.items() if c}

    def _bracket_closure(self, gens):
        """SpanSolver over F_p spanning the subalgebra generated by ``gens``.

        The subalgebra is spanned by the nested brackets [g1, [g2, ... gk]], so
        closing the span under ad(g) for each generator g suffices.
        """
        span = SpanSolver(self.params.p)
        fresh = [v for v in ({g: 1} for g in gens) if span.insert(v)]
        while fresh:
            vec = fresh.pop()
            for g in gens:
                out = self._ad_mod(g, vec)
                if span.insert(out):
                    fresh.append(out)
        return span

    def __eq__(self, other):
        return (
            isinstance(other, CartanAlgebra)
            and self.kind == other.kind
            and self.params == other.params
            and [b.label for b in self.basis] == [b.label for b in other.basis]
            and self.rows_int == other.rows_int
        )

    __hash__ = None

    def __repr__(self):
        pr = self.params
        return f"<{self.kind}_{pr.n}{pr.m} p={pr.p} dim={self.dim} r={self.r}>"

    # -- coordinates ---------------------------------------------------------
    def _get_solver(self):
        if self._solver is None:
            solver = SpanSolver(self.params.p)
            for b in self.basis:
                if not solver.insert(b.vector):
                    raise ClosureError(f"stored basis of {self.kind} is dependent")
            self._solver = solver
        return self._solver

    def _locate_partial(self, axis):
        """(index, +1 or -1): d_axis is one signed basis element."""
        unit = {(axis, (0,) * self.params.n): 1}
        (i, c), *rest = decompose(unit, self).items()
        if rest or c not in (1, self.params.p - 1):
            raise ClosureError(f"d_{axis + 1} is not a signed basis element")
        return (i, 1 if c == 1 else -1)

    # -- construction-time verification ---------------------------------------
    def _verify_closure(self, budget: Budget = UNLIMITED):
        """Check each grade against its derivation (x^(alpha) d_axis has grade
        |alpha| - 1), then the closed-form rows against honest derivation
        brackets; ``budget.checkpoint()`` runs once per row i, before its pairs.

        The rows need no grade scan: the basis is independent and homogeneous,
        so a row equal to its bracket is graded.  A pair the truncation kills
        (see ``_pairs``) has the bracket 0, so ``bracket`` is not called and
        only a row stored for it is read.  A bracket must equal its row
        expanded in derivation coordinates, which fixes the row mod p as the
        basis is independent; only a mismatch is solved on the basis, to name
        the failure.  One ``_Frame`` packs the basis vectors for the whole
        check, and ``bracket`` is called once per alive pair."""
        for b in self.basis:
            if any(sum(alpha) - 1 != b.grade for _, alpha in b.vector):
                raise ClosureError(f"grade of {b.label} does not match its derivation")
        p = self.params.p
        solver = self._get_solver()
        frame = _Frame(self.params)
        vecs = [frame.pack(b.vector) for b in self.basis]
        floors = [_floor(b.vector) for b in self.basis]
        for i, j, alive in _pairs(floors, frame, budget):
            if alive:
                got = bracket(vecs[i], vecs[j], frame)
            elif (i, j) in self.rows_int:
                got = {}
            else:
                continue
            # the integer row, expanded and reduced mod p: row_mod would cache
            # every pair's residues, and only a mismatch needs them
            if got != _combine(self.rows_int.get((i, j), ()), vecs, p):
                coords = solver.solve(frame.unpack(got))
                if coords is None:
                    raise ClosureError(
                        f"[{self.basis[i].label}, {self.basis[j].label}] "
                        f"left the {self.kind} span"
                    )
                raise ClosureError(
                    f"structure constants disagree with the bracket of "
                    f"{self.basis[i].label}, {self.basis[j].label}: "
                    f"{dict(self.row_mod(i, j))} vs {coords}"
                )


def decompose(vec, algebra: CartanAlgebra):
    """Coordinates of a derivation vector {(axis, alpha): coeff} in the ordered
    basis, over F_p: the sparse map {basis index: nonzero residue}, in
    ascending index order.  A vector with a key no basis element holds, such
    as an axis >= n or an alpha past delta, lies outside the span."""
    sol = algebra._get_solver().solve(vec)
    if sol is None:
        raise NotInSpanError(f"derivation outside the span of {algebra.kind}")
    return sol


def filtration_basis(algebra: CartanAlgebra, i: int):
    """Indices of basis elements of grade >= i; i = r+1 gives the empty list."""
    if i < -1 or i > algebra.r + 1:
        raise ValueError(f"filtration index {i} outside [-1, {algebra.r + 1}]")
    return [k for k, g in enumerate(algebra.grades) if g >= i]


# -- W ---------------------------------------------------------------------

def _w_label(alpha, axis):
    return "x^(%s)d_%d" % (",".join(map(str, alpha)), axis + 1)


def build_w(params: FieldParams, verify: bool = True,
            budget: Budget = UNLIMITED) -> CartanAlgebra:
    """General algebra: all x^(a) d_i, dimension n p^(m_1+..+m_n)."""
    delta = delta_of(params)
    keys = [(alpha, ax) for alpha in _alphas(params, budget) for ax in range(params.n)]
    basis = [BasisElement(_w_label(a, ax), {(ax, a): 1}, sum(a) - 1) for a, ax in keys]
    pos = {k: i for i, k in enumerate(keys)}
    eps = [tuple(1 if t == ax else 0 for t in range(params.n)) for ax in range(params.n)]

    def rule(i, j):
        (a, ai), (b, aj) = keys[i], keys[j]
        out = {}
        bs = mi_sub(b, eps[ai])
        if bs is not None:
            g = mi_add(a, bs, delta)
            if g is not None:
                out[(g, aj)] = out.get((g, aj), 0) + multi_binom_int(g, a)
        asub = mi_sub(a, eps[aj])
        if asub is not None:
            g = mi_add(asub, b, delta)
            if g is not None:
                out[(g, ai)] = out.get((g, ai), 0) - multi_binom_int(g, b)
        return tuple((pos[k], c) for k, c in out.items() if c)

    rows = _table([a for a, _ in keys], params, budget, rule)
    return CartanAlgebra("W", params, basis, rows, verify=verify, budget=budget)


# -- H and Hbar --------------------------------------------------------------

def _scaled(params):
    """Whether H and Hbar take the monomial basis u_a: when every m_i = 1."""
    return all(mi == 1 for mi in params.m)


def _ham_label(alpha, scaled):
    body = ",".join(map(str, alpha))
    return "u_{%s}" % body if scaled else "D(%s)" % body


def hamiltonian_field(params, alpha, scaled):
    """The basis derivation for alpha: u_alpha (scaled) or D(alpha).

    The form is the standard one: x_{2k} pairs with x_{2k+1}, and the field of
    f is the sum of d_{2k}(f) d_{2k+1} - d_{2k+1}(f) d_{2k} over the pairs.
    """
    c = _multi_factorial(alpha) if scaled else 1  # a unit mod p: each a_i < p
    p = params.p
    return {(i ^ 1, alpha[:i] + (a - 1,) + alpha[i + 1:]): (-c if i % 2 else c) % p
            for i, a in enumerate(alpha) if a}


def _multi_factorial(alpha):
    """alpha! = alpha_1! ... alpha_n!"""
    return math.prod(math.factorial(a) for a in alpha)


def _ham_pair_coeff(a, b, i, j, delta, scaled):
    """Integer coefficient of the {i,j} pair term in [basis_a, basis_b].

    It is a_i b_j - a_j b_i for u_a, and that times g!/(a! b!) for D(a), where
    g = a + b - e_i - e_j: C(g, a-e_i) - C(g, a-e_j) = (a_i b_j - a_j b_i) g!/(a! b!).
    """
    g = tuple(
        x + y - (1 if t in (i, j) else 0) for t, (x, y) in enumerate(zip(a, b))
    )
    if any(x < 0 for x in g) or any(x > d for x, d in zip(g, delta)):
        return None, 0
    if all(x == 0 for x in g):
        return None, 0
    c = a[i] * b[j] - a[j] * b[i]
    if not scaled:
        c = c * _multi_factorial(g) // (_multi_factorial(a) * _multi_factorial(b))
    return g, c


def _build_hamiltonian(params, scaled, budget=UNLIMITED):
    """Hbar's basis and integer rows, in the monomial (``scaled``) or divided
    basis; the top element, the field of delta, is the last basis element."""
    delta = delta_of(params)
    alphas, basis = [], []
    for a in _alphas(params, budget):
        if any(a):
            alphas.append(a)
            basis.append(BasisElement(
                _ham_label(a, scaled), hamiltonian_field(params, a, scaled), sum(a) - 2))
    pos = {a: i for i, a in enumerate(alphas)}
    pairs = [(s, s + 1) for s in range(0, params.n, 2)]

    def rule(i, j):
        out = {}
        for s, t in pairs:
            g, c = _ham_pair_coeff(alphas[i], alphas[j], s, t, delta, scaled)
            if c:
                out[g] = out.get(g, 0) + c
        return tuple((pos[g], c) for g, c in out.items() if c)

    return basis, _table(alphas, params, budget, rule)


def _ham_alpha(vector):
    """The alpha of a Hamiltonian field, read off any of its terms: the term
    on d_k is x^(alpha - e_i) for i = k ^ 1."""
    axis, beta = next(iter(vector))
    i = axis ^ 1
    return beta[:i] + (beta[i] + 1,) + beta[i + 1:]


def _h_from_hbar(params, basis, rows, budget=UNLIMITED):
    """H from Hbar's tables, unverified: the top element and its row entries
    dropped.  H is a subalgebra, so every dropped entry of an H bracket is 0
    mod p, and Hbar's closure check covers every H bracket.  H's pairs are
    walked with the floors of Hbar's table, the alphas of its fields without
    delta, which the basis walk puts last, so a pair the walk skips holds no
    Hbar row."""
    p = params.p
    top = len(basis) - 1

    def rule(i, j):
        row = rows.get((i, j), ())
        if any(k == top and c % p for k, c in row):
            raise ClosureError(f"[{basis[i].label}, {basis[j].label}] has a top "
                               f"coefficient nonzero mod {p}")
        return tuple((k, c) for k, c in row if k != top)

    floors = [_ham_alpha(b.vector) for b in basis[:top]]
    h_rows = _table(floors, params, budget, rule)
    return CartanAlgebra("H", params, basis[:-1], h_rows, verify=False)


def build_h(params: FieldParams, verify: bool = True,
            budget: Budget = UNLIMITED) -> CartanAlgebra:
    """Hamiltonian algebra: fields of monomials for 0 < a < delta; Hbar's."""
    validate_for_kind(params, "H")
    return build_hbar(params, verify, budget).h_subalgebra


def build_hbar(params: FieldParams, verify: bool = True,
               budget: Budget = UNLIMITED) -> CartanAlgebra:
    """Extension of H by the top field u (the field of the monomial at delta)."""
    validate_for_kind(params, "Hbar")
    basis, rows = _build_hamiltonian(params, _scaled(params), budget)
    sub = _h_from_hbar(params, basis, rows, budget)
    return CartanAlgebra("Hbar", params, basis, rows, h_subalgebra=sub,
                         verify=verify, budget=budget)


# -- S -----------------------------------------------------------------------

def _s_label(alpha, i, j):
    return "D_{%d,%d}(%s)" % (i + 1, j + 1, ",".join(map(str, alpha)))


def _s_field(params, alpha, i, j):
    """D_{i,j}(alpha) = d_i(x^(alpha)) d_j - d_j(x^(alpha)) d_i as a vector."""
    d = {}
    if alpha[i]:
        d[(j, alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:])] = 1
    if alpha[j]:
        d[(i, alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:])] = params.p - 1
    return d


def build_s(params: FieldParams, verify: bool = True,
            budget: Budget = UNLIMITED) -> CartanAlgebra:
    """Special algebra: span of D_{i,j}(a), basis chosen in (a, i, j) order."""
    validate_for_kind(params, "S")
    if params.n == 2:
        # D_{1,2}(a) is the divided Hamiltonian field D(a): Hbar_2's table,
        # relabelled from D(a) to D_{1,2}(a)
        basis, rows = _build_hamiltonian(params, False, budget)
        basis = [b._replace(label="D_{1,2}" + b.label[1:]) for b in basis]
        return CartanAlgebra("S", params, basis, rows, verify=verify,
                             budget=budget)
    # n >= 3: no closed integral form is used; decompose the honest bracket
    # over F_p and store least non-negative residues; only the chosen fields
    # are inserted, so the solver keys each bracket by basis index
    solver = SpanSolver(params.p)
    basis = []
    for alpha in _alphas(params, budget):
        for i, j in combinations(range(params.n), 2):
            d = _s_field(params, alpha, i, j)
            if d and solver.solve(d) is None:
                solver.insert(d)
                basis.append(BasisElement(_s_label(alpha, i, j), d, sum(alpha) - 2))
    frame = _Frame(params)
    vecs = [frame.pack(b.vector) for b in basis]

    def rule(i, j):
        sol = solver.solve(frame.unpack(bracket(vecs[i], vecs[j], frame)))
        if sol is None:
            raise ClosureError("S bracket left the computed span")
        return tuple(sol.items())

    rows = _table([_floor(b.vector) for b in basis], params, budget, rule)
    return CartanAlgebra("S", params, basis, rows, verify=verify, budget=budget)


_BUILDERS = {"W": build_w, "S": build_s, "H": build_h, "Hbar": build_hbar}


def build(kind: str, params: FieldParams, verify: bool = True,
          budget: Budget = UNLIMITED):
    """Dispatch on the algebra kind tag; ``budget`` bounds the basis walk, one
    checkpoint per multi-index, and the structure-constant table and the
    closure check, one checkpoint per row."""
    if kind not in _BUILDERS:
        raise ParameterError(f"unknown algebra kind {kind!r}")
    return _BUILDERS[kind](params, verify=verify, budget=budget)
