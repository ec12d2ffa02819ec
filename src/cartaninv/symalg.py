"""Sparse symmetric algebra S(L) with the adjoint action as a derivation.

A polynomial is a sparse map from exponent multisets over basis indices to
nonzero coefficients.  The coefficient ring is either "int" (exact integers,
acting through the canonical integral structure constants) or "modp"
(least non-negative residues).  Reducing an "int" computation mod p agrees
with running the same computation in "modp".

Monomial keys are tuples of (basis index, exponent) pairs, sorted by index,
with all exponents positive.  The empty tuple is the constant monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .algebras import CartanAlgebra, decompose, filtration_basis
from .errors import UNLIMITED, Budget, ParameterError
from .modular import delta_of

RINGS = ("int", "modp")


_exponent = itemgetter(1)


def mono_degree(mono) -> int:
    return sum(map(_exponent, mono))


def _mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


class SymPolynomial:
    """Element of S(L) over the integers or over F_p."""

    __slots__ = ("algebra", "ring", "terms")

    def __init__(self, algebra: CartanAlgebra, ring: str, terms=None):
        if ring not in RINGS:
            raise ParameterError(f"unknown ring {ring!r}")
        self.algebra = algebra
        self.ring = ring
        clean = {}
        if terms:
            p = algebra.params.p
            dim = algebra.dim
            for mono, c in terms.items():
                if ring == "modp":
                    c %= p
                if c == 0:
                    continue
                mono = tuple(mono)
                if any(e <= 0 or not 0 <= v < dim for v, e in mono):
                    raise ParameterError(f"bad monomial {mono}")
                # factors in strictly increasing basis order, each index once
                if any(a[0] >= b[0] for a, b in zip(mono, mono[1:])):
                    mono = tuple(sorted(mono))
                    if any(a[0] == b[0] for a, b in zip(mono, mono[1:])):
                        raise ParameterError(f"repeated basis index in {mono}")
                clean[mono] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, algebra, ring="modp"):
        return cls(algebra, ring)

    @classmethod
    def one(cls, algebra, ring="modp"):
        return cls(algebra, ring, {(): 1})

    @classmethod
    def variable(cls, algebra, idx, ring="modp"):
        return cls(algebra, ring, {((idx, 1),): 1})

    @classmethod
    def from_label(cls, algebra, label, ring="modp"):
        return cls.variable(algebra, algebra.index[label], ring)

    def _bare(self, terms):
        out = SymPolynomial.__new__(SymPolynomial)
        out.algebra, out.ring, out.terms = self.algebra, self.ring, terms
        return out

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, SymPolynomial)
            and self.ring == other.ring
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    __hash__ = None

    def degrees(self):
        return set(map(mono_degree, self.terms))

    def homogeneous_degree(self):
        """Total degree when homogeneous, else None (0 for the zero element)."""
        ds = self.degrees()
        if not ds:
            return 0
        return ds.pop() if len(ds) == 1 else None

    def sorted_terms(self):
        """Terms in the canonical order: by total degree, then by the index
        list with each index repeated by its exponent, lexicographically.

        Two monomials of one degree first differ there at the first index v
        where their exponents differ, and the one with more copies of v comes
        first.  So within a degree the order is the descending order of the
        exponent vectors, and the packed key, index 0 in the top field, keeps
        that order.
        """
        unit = _units(_width(self), self.algebra.dim)

        def key(term):
            degree = packed = 0
            for v, e in term[0]:
                degree += e
                packed += e * unit[v]
            return degree, -packed

        return sorted(self.terms.items(), key=key)

    # -- ring operations -----------------------------------------------------
    def _norm(self, c):
        return c % self.algebra.params.p if self.ring == "modp" else c

    def _check(self, other):
        if self.algebra != other.algebra:
            raise ParameterError("operands live over different algebras")
        if self.ring != other.ring:
            raise ParameterError("operands live over different rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = self._norm(out.get(m, 0) + c)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return self._bare(out)

    def __neg__(self):
        return self._bare({m: self._norm(-c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self._norm(c)
        if c == 0:
            return self._bare({})
        return self._bare({m: self._norm(x * c) for m, x in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                s = self._norm(out.get(m, 0) + ca * cb)
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return self._bare(out)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = SymPolynomial.one(self.algebra, self.ring)
        for _ in range(k):
            out = out * self
        return out

    def reduce_mod(self) -> "SymPolynomial":
        """Reinterpret an integer polynomial mod p."""
        if self.ring == "modp":
            return self
        return SymPolynomial(self.algebra, "modp", self.terms)

    def with_algebra(self, target: CartanAlgebra) -> "SymPolynomial":
        """Reinterpret over another algebra sharing a basis-label prefix."""
        for m in self.terms:
            for v, _ in m:
                if (
                    v >= target.dim
                    or target.basis[v].label != self.algebra.basis[v].label
                ):
                    raise ParameterError(
                        f"variable {self.algebra.basis[v].label} has no slot in target"
                    )
        return SymPolynomial(target, self.ring, self.terms)

    def __repr__(self):
        return render_text(self)


def render_text(F: SymPolynomial) -> str:
    """Human-readable canonical rendering, e.g. 2*u_{0,1}*u_{2,1} + u_{1,1}^2."""
    if F.is_zero():
        return "0"
    bits = []
    for mono, c in F.sorted_terms():
        facs = [
            F.algebra.basis[v].label + (f"^{e}" if e > 1 else "") for v, e in mono
        ]
        body = "*".join(facs)
        if not facs:
            piece = str(c)
        elif c == 1:
            piece = body
        elif c == -1:
            piece = f"-{body}"
        elif c < 0:
            piece = f"-{-c}*{body}"
        else:
            piece = f"{c}*{body}"
        if not bits:
            bits.append(piece)
        elif piece.startswith("-"):
            bits.append("- " + piece[1:])
        else:
            bits.append("+ " + piece)
    return " ".join(bits)


# -- adjoint action ----------------------------------------------------------
#
# The ad passes run on packed keys: over an algebra of dimension dim, the
# monomial ((v, e), ...) becomes the integer sum of e * unit[v], with unit =
# _units(width, dim) and width the bit length of the largest total degree (1
# for constants): index 0 in the top field, so reading a key top field first
# through _fields meets its factors in ascending index.  A pass keeps every
# monomial's degree, so no exponent outgrows its field, and moving one power
# from factor v to factor k is one addition of unit[k] - unit[v].  Packing
# never leaves this layer: every SymPolynomial keeps tuple keys.

def _width(F: SymPolynomial) -> int:
    top = max(map(mono_degree, F.terms), default=0)
    return top.bit_length() or 1


def _units(width: int, dim: int):
    """The packed key of each variable to the first power: index 0 in the top
    field."""
    return [1 << (width * f) for f in reversed(range(dim))]


def _fields(width: int, per_variable):
    """For each bit length of a packed key: its top field's shift, the items
    of the tuple ``per_variable`` holds for that field's variable, and the
    mask of the fields below it.  Field f from the bottom holds variable
    dim - 1 - f."""
    return [None] + [(width * f, *per_variable[-1 - f], (1 << (width * f)) - 1)
                     for f in range(len(per_variable)) for _ in range(width)]


def _pack_terms(F: SymPolynomial, width: int):
    """(packed key, coefficient) pairs for the terms of F."""
    unit = _units(width, F.algebra.dim)
    return [(sum(e * unit[v] for v, e in m), c) for m, c in F.terms.items()]


def _unpack(key: int, fields):
    """The monomial tuple of a packed key, peeling off its top field, the
    lowest index left, as the ad kernel does; ``fields`` maps each field to
    its variable's shared (index, exponent) pairs, indexed by exponent."""
    mono = []
    while key:
        s, pairs, below = fields[key.bit_length()]
        try:
            mono.append(pairs[key >> s])
        except IndexError:
            mono.append((pairs[0][0], key >> s))
        key &= below
    return tuple(mono)


def _unpacked(F: SymPolynomial, width: int, terms) -> SymPolynomial:
    """The tuple-keyed polynomial over F's algebra and ring of ``terms``, a
    map from packed keys to coefficients.  The pairs of exponents below 2^8
    are made once here and shared by every monomial; a higher one gets its own."""
    fields = _fields(width, [([(v, e) for e in range(1 << min(width, 8))],)
                             for v in range(F.algebra.dim)])
    return F._bare({_unpack(m, fields): c for m, c in terms.items()})


# the input terms an ad pass walks between two budget checks
_STRIDE = 4096


def _ad_operator(F: SymPolynomial, element, width: int):
    """The ad operator, on packed keys of ``width`` over F's algebra and
    ring, of the element of L with sparse coordinates ``element``: a
    re-iterable sequence of (basis index, coefficient) pairs, such as a list
    or ``dict.items()``, walked once per variable.  It is a list of layers,
    one per entry of the longest step row, where variable v's step row
    holds the move from v to k and its coefficient c * rc for each pair
    (idx, c) of the element and each entry (k, rc) of the row [idx, v].

    Layer r is ``(live, fields)``: ``live`` is the mask of the fields of the
    variables whose row has an r-th entry, and ``fields`` the ``_fields``
    table of that entry, (shift, step, coefficient, mask below).  An H or
    Hbar basis element moves each variable to at most one other, so its
    operator is one layer."""
    alg = F.algebra
    rows = alg.row_mod if F.ring == "modp" else alg.row_int
    unit = _units(width, alg.dim)
    steps = [tuple((unit[k] - unit[v], c * rc) for idx, c in element
                   for k, rc in rows(idx, v))
             for v in range(alg.dim)]
    full = (1 << width) - 1
    return [(sum(unit[v] * full for v, row in enumerate(steps) if len(row) > r),
             _fields(width, [row[r] if len(row) > r else (0, 0) for row in steps]))
            for r in range(max(map(len, steps)))]


def _ad_pass(F: SymPolynomial, op, packed, budget: Budget = UNLIMITED):
    """One pass of the ad operator ``op`` (see ``_ad_operator``) over
    ``packed``, an iterable of (packed key, coefficient) pairs in F's algebra
    and ring, walked once per layer, so re-iterable when ``op`` has more
    than one.  Returns the packed image, a map from packed keys to
    coefficients free of zero terms.

    In each layer the factors are read off each key top field first, in
    ascending index, as ``_unpack`` reads them, after masking the key to the
    layer's ``live`` fields, and each live field makes one update.  A dead
    field is never read, and a key with no live field costs one ``&``.

    Over F_p the sums are kept as residues and a sum that cancels is dropped
    at once (``pop``: a contribution of 0 mod p may land on an absent key).
    Every ``_STRIDE`` input terms of each layer ``budget`` gets a checkpoint
    and the image's current size."""
    modp = F.ring == "modp"
    p = F.algebra.params.p
    out = {}
    get = out.get
    pop = out.pop
    for live, fields in op:
        for n, (key, c) in enumerate(packed):
            if n and not n % _STRIDE:
                budget.checkpoint()
                budget.charge(len(out))
            rest = key & live
            while rest:
                s, step, rc, below = fields[rest.bit_length()]
                m = key + step
                if modp:
                    x = (get(m, 0) + c * rc * (rest >> s)) % p
                    if x:
                        out[m] = x
                    else:
                        pop(m, None)
                else:
                    out[m] = get(m, 0) + c * rc * (rest >> s)
                rest &= below
    if modp:
        return out
    return {m: c for m, c in out.items() if c}


def _ad_images(F: SymPolynomial, budget: Budget = UNLIMITED):
    """The map from an element of L, as (basis index, coefficient) pairs, to its
    ad image of F.  F is packed once for every image; ``budget.checkpoint()``
    runs before each image's pass."""
    width = _width(F)
    packed = _pack_terms(F, width)

    def image(element):
        budget.checkpoint()
        op = _ad_operator(F, element, width)
        return _unpacked(F, width, _ad_pass(F, op, packed, budget))

    return image


def ad_action(b, F: SymPolynomial) -> SymPolynomial:
    """The derivation of S(L) extending ad(b); b is a basis index or a
    coordinate map {basis index: coeff}, such as ``decompose`` returns,
    applied in one pass over its coordinates."""
    return _ad_images(F)([(b, 1)] if isinstance(b, int) else b.items())


def ad_partial(F: SymPolynomial, axis: int) -> SymPolynomial:
    """ad(d_axis): d_gamma with the unit gamma at ``axis``."""
    gamma = [0] * F.algebra.params.n
    gamma[axis] = 1  # an axis outside the algebra raises IndexError
    return d_gamma(F, gamma)


def _d_gamma_packed(F: SymPolynomial, gamma, width: int, packed, budget: Budget):
    """The passes of d_gamma(F), gamma not zero, chained on packed keys from
    ``packed``, F's (key, coefficient) pairs at ``width``: the packed image.
    Each pass reads the pairs of the one before; nothing is unpacked.  Each
    axis's operator is built once for all its passes.  ``budget.charge``
    sees the term count after every pass."""
    for axis, g in enumerate(gamma):
        if not g:
            continue
        op = _ad_operator(F, [F.algebra.partial_coords[axis]], width)
        for _ in range(g):
            terms = _ad_pass(F, op, packed, budget)
            budget.charge(len(terms))
            if not terms:
                return terms
            packed = terms.items()
    return terms


def d_gamma(F: SymPolynomial, gamma, budget: Budget = UNLIMITED) -> SymPolynomial:
    """Iterated operator ad(d_1)^g1 ... ad(d_n)^gn applied to F.

    The passes chain on packed keys, and only the last image is unpacked;
    ``budget.charge`` sees the term count after every pass.
    """
    n = F.algebra.params.n
    if (not isinstance(gamma, (tuple, list)) or len(gamma) != n
            or any(type(g) is not int or g < 0 for g in gamma)):
        raise ParameterError(f"gamma must be {n} non-negative ints, got {gamma!r}")
    if not any(gamma):
        return F
    width = _width(F)
    return _unpacked(F, width, _d_gamma_packed(F, gamma, width,
                                               _pack_terms(F, width), budget))


def d_delta(F: SymPolynomial, budget: Budget = UNLIMITED) -> SymPolynomial:
    """The composite operator with gamma = delta; kills p-th powers' factors
    one step at a time and is independent of the factor order."""
    return d_gamma(F, delta_of(F.algebra.params), budget)


# -- invariance and generator criteria ----------------------------------------

@dataclass
class InvarianceReport:
    """Outcome of the annihilator test; witness present iff not invariant."""

    is_invariant: bool
    witness: Optional[tuple] = None  # (basis index, nonzero ad image)


def _invariance(F: SymPolynomial, width: int, packed, budget: Budget,
                proven=frozenset()) -> InvarianceReport:
    """The annihilator test on ``packed``, the re-iterable (packed key,
    coefficient) pairs of a mod-p polynomial over F's algebra; only a
    witness's image is unpacked.  See ``is_invariant``.  A basis index in
    ``proven`` has a zero image, proven by the caller, and gets no pass on
    ``packed``."""
    gens = F.algebra.lie_generators()

    def image(idx):
        budget.checkpoint()
        if idx in proven:
            return {}
        return _ad_pass(F, _ad_operator(F, [(idx, 1)], width), packed, budget)

    for g in gens:
        img = image(g)
        if img:
            for idx in range(g):
                if idx not in gens and (earlier := image(idx)):
                    g, img = idx, earlier
                    break
            return InvarianceReport(False, (g, _unpacked(F, width, img)))
    return InvarianceReport(True)


def is_invariant(F: SymPolynomial, budget: Budget = UNLIMITED) -> InvarianceReport:
    """Check ad(b)(F) = 0 for every basis element b of F's algebra.

    The witness is the first basis index, in basis order, whose image is
    nonzero.  The annihilator {x : ad(x)F = 0} is a subalgebra, so only the
    algebra's Lie generators are checked; when generator g fails, the indices
    below g that are not generators are scanned for an earlier witness.  Only
    the mod-p ring is accepted: the integral lifts of the structure constants
    need not satisfy Jacobi over Z.  ``budget.checkpoint()`` precedes each pass.
    """
    if F.ring != "modp":
        raise ParameterError("invariance is a mod-p statement")
    width = _width(F)
    return _invariance(F, width, _pack_terms(F, width), budget)


def checked_d_delta(F: SymPolynomial, budget: Budget = UNLIMITED):
    """(d^(delta)(F), its ``is_invariant`` report) for a mod-p F.

    The check walks the packed pairs of the chain's last pass; the image is
    unpacked only when it passes, and is None otherwise.  A zero image is
    returned unchecked.  ``budget`` sees the chain and the check.

    The partials' indices in ``F.algebra.delta_annihilators()`` get no pass:
    the table proves their ad zero on every d^(delta) image.
    """
    if F.ring != "modp":
        raise ParameterError("invariance is a mod-p statement")
    alg = F.algebra
    width = _width(F)
    terms = _d_gamma_packed(F, delta_of(alg.params), width, _pack_terms(F, width),
                            budget)
    if not terms:
        return _unpacked(F, width, terms), InvarianceReport(True)
    rep = _invariance(F, width, terms.items(), budget, alg.delta_annihilators())
    if not rep.is_invariant:
        return None, rep
    return _unpacked(F, width, terms), rep


@dataclass
class GeneratorCheck:
    """Boolean verdict plus the failed conditions (label, defect polynomial)."""

    ok: bool
    failures: tuple = ()


def _filtration_failures(F: SymPolynomial, k: int):
    """F's ad image map, and (description, image) for each basis element of
    grade >= k, in basis order, whose image is nonzero; F must be mod p."""
    if F.ring != "modp":
        raise ParameterError("the generator criteria are mod-p statements")
    image = _ad_images(F)
    fails = [(f"L{k}({F.algebra.basis[idx].label}) != 0", img)
             for idx in filtration_basis(F.algebra, k) if (img := image([(idx, 1)]))]
    return image, fails


def check_generator_w(F: SymPolynomial) -> GeneratorCheck:
    """W-type generator criterion: the filtration component of grade >= 1
    annihilates F and ad(x_i d_j)(F) = -delta_{i,j} F."""
    alg = F.algebra
    if alg.kind != "W":
        raise ParameterError("check_generator_w needs a W-type algebra")
    image, fails = _filtration_failures(F, 1)
    n = alg.params.n
    for i in range(n):
        eps = tuple(1 if t == i else 0 for t in range(n))
        for j in range(n):
            (idx, _), = decompose({(j, eps): 1}, alg).items()  # x_i d_j
            defect = image([(idx, 1)])
            if i == j:
                defect += F
            if defect:
                fails.append((f"ad({alg.basis[idx].label}) eigenvalue defect", defect))
    return GeneratorCheck(not fails, tuple(fails))


def check_generator_sh(F: SymPolynomial) -> GeneratorCheck:
    """S/H/Hbar generator criterion: grade >= 0 components annihilate F."""
    alg = F.algebra
    if alg.kind not in ("S", "H", "Hbar"):
        raise ParameterError("check_generator_sh needs an S, H or Hbar algebra")
    _, fails = _filtration_failures(F, 0)
    return GeneratorCheck(not fails, tuple(fails))
