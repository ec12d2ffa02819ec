"""The Delta series: integral d^(delta)(u^i), restriction at u = 0, the
p-power normalization phi, lambda-grading and independence bookkeeping.

The whole series runs over exact integers and reduces mod p only at the end:
dividing a coefficient gcd by p^m is only well defined on the integral lift.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .algebras import CartanAlgebra, build_hbar
from .errors import UNLIMITED, Budget, BudgetExceededError, ParameterError
from .gflinalg import SpanSolver
from .modular import FieldParams, delta_of, p_valuation
from .symalg import SymPolynomial, checked_d_delta, d_delta, is_invariant


# -- the Delta series ------------------------------------------------------------

def compute_delta(power: int, algebra: CartanAlgebra,
                  budget: Budget = UNLIMITED) -> SymPolynomial:
    """d^(delta)(u^power) over the integers, u the top basis element of Hbar.

    Invariance holds for any power (the top power annihilates under the
    grade >= 0 action); nontriviality is only guaranteed for power <= p - 1.
    """
    if algebra.kind != "Hbar":
        raise ParameterError("compute_delta needs an Hbar-type algebra")
    if power < 2:
        raise ParameterError(f"power out of range: {power} < 2")
    u = SymPolynomial.variable(algebra, algebra.dim - 1, "int")
    return d_delta(u ** power, budget)


def restrict_u_zero(F: SymPolynomial) -> SymPolynomial:
    """Drop every monomial containing u, the last basis element; the rest
    lives over the H subalgebra, whose basis is Hbar's without u."""
    alg = F.algebra
    if alg.kind != "Hbar":
        raise ParameterError("restriction at u = 0 needs an Hbar-type algebra")
    u_idx = alg.dim - 1
    kept = {m: c for m, c in F.terms.items() if all(v != u_idx for v, _ in m)}
    return SymPolynomial(alg.h_subalgebra, F.ring, kept)


def phi_normalize(F: SymPolynomial):
    """Divide out the maximal p-power of the coefficient gcd, reduce mod p.

    Returns (the nonzero mod-p polynomial, the removed exponent m).
    """
    if F.ring != "int":
        raise ParameterError("phi_normalize needs an integer-ring polynomial")
    if F.is_zero():
        raise ParameterError("phi_normalize of the zero polynomial")
    p = F.algebra.params.p
    m = min(p_valuation(c, p) for c in F.terms.values())
    q = p ** m
    reduced = SymPolynomial(F.algebra, "modp", {k: c // q for k, c in F.terms.items()})
    return reduced, m


# -- lambda grading ---------------------------------------------------------------

def lambda_of_variable(algebra: CartanAlgebra, idx: int) -> int:
    """lambda of a basis variable: |delta| - |alpha| for the slot of alpha,
    read from its grade |alpha| - 2.

    The variable for alpha is (a scalar multiple of) the |delta - alpha|-fold
    derivative of u, and each derivative step raises lambda by one.
    """
    if algebra.kind not in ("H", "Hbar"):
        raise ParameterError("lambda grading lives on Hamiltonian algebras")
    return sum(delta_of(algebra.params)) - 2 - algebra.grades[idx]


def lambda_homogeneity(F: SymPolynomial) -> Optional[int]:
    """The common lambda of all monomials, or None when mixed."""
    if not F.terms:
        return 0
    alg = F.algebra
    weights = [lambda_of_variable(alg, v) for v in range(alg.dim)]
    vals = {sum(e * weights[v] for v, e in m) for m in F.terms}
    return vals.pop() if len(vals) == 1 else None


# -- records ----------------------------------------------------------------------

@dataclass
class InvariantRecord:
    """A verified symmetric invariant together with its generator."""

    label: str
    power: int
    invariant: SymPolynomial
    generator: SymPolynomial
    lambda_value: Optional[int]
    term_count: int
    p_power_m: int

    def verify(self, hbar: CartanAlgebra, budget: Budget = UNLIMITED) -> None:
        """Re-derive the record with ``delta_star`` over ``hbar`` and compare
        every field, in declaration order; raises ValueError naming the first
        field that differs, with both values unless they are polynomials.

        The stored invariant is proven invariant by equalling the fresh one,
        which passed delta_star's invariance check.  ``budget`` bounds the
        re-derivation.
        """
        fresh = delta_star(self.power, hbar, budget)
        if fresh.status != "ok":
            raise ValueError(f"{self.label}: power {self.power} derives no "
                             f"record ({fresh.status}: {fresh.detail})")
        for name in (field.name for field in fields(self)):
            stored, derived = getattr(self, name), getattr(fresh.record, name)
            if stored != derived:
                diff = ("differs from the derived one"  # too long to print
                        if isinstance(stored, SymPolynomial)
                        else f"{stored} != derived {derived}")
                raise ValueError(f"{self.label}: stored {name} {diff}")


@dataclass
class DeltaStarResult:
    """Outcome of one pipeline run; record is None unless status is "ok"."""

    power: int
    label: str
    status: str  # "ok" | "zero" | "not-invariant"
    record: Optional[InvariantRecord] = None
    witness: Optional[tuple] = None
    detail: str = ""


def delta_star(power: int, algebra: CartanAlgebra,
               budget: Budget = UNLIMITED) -> DeltaStarResult:
    """Full pipeline for one power: Delta_i over Z, restrict, phi, d^(delta).

    When Delta_i is already free of u (the power-2 case) it is itself the
    H-invariant and u^i stays its generator; otherwise the phi-image of the
    restriction is the candidate generator and its d^(delta) the candidate
    invariant.  A zero outcome is a recorded null result, and a candidate
    that fails the invariance check is reported with its witness.
    """
    p = algebra.params.p
    if power < 2 or power > 2 * (p - 2) or power % 2:
        raise ParameterError(f"power must be even in [2, {2 * (p - 2)}], got {power}")
    full = compute_delta(power, algebra, budget)
    restricted = restrict_u_zero(full)

    if len(restricted) == len(full):
        # u-free: Delta_i lives in S(H) and keeps its Hbar generator u^i
        label = f"Delta_{power}"
        invariant = restricted.reduce_mod()
        generator = SymPolynomial.variable(algebra, algebra.dim - 1, "modp") ** power
        m = 0
        if invariant.is_zero():
            return DeltaStarResult(power, label, "zero",
                                   detail="Delta vanishes mod p")
        rep = is_invariant(invariant, budget)
    else:
        label = f"Delta_{power}_star"
        if restricted.is_zero():
            return DeltaStarResult(power, label, "zero",
                                   detail="restriction at u = 0 vanishes over Z")
        generator, m = phi_normalize(restricted)
        # checked before it is unpacked; a refused image is never built
        invariant, rep = checked_d_delta(generator, budget)
        if rep.is_invariant and invariant.is_zero():
            return DeltaStarResult(
                power, label, "zero",
                detail=f"d^(delta) of the phi-image vanishes (m = {m})")

    if not rep.is_invariant:
        idx, img = rep.witness
        return DeltaStarResult(
            power, label, "not-invariant", witness=rep.witness,
            detail=f"ad({img.algebra.basis[idx].label}) does not vanish "
                   f"(phi removed p^{m})")
    record = InvariantRecord(
        label=label,
        power=power,
        invariant=invariant,
        generator=generator,
        # each ad(d_a) step raises lambda by one
        lambda_value=lambda_homogeneity(generator) + sum(delta_of(algebra.params)),
        term_count=len(invariant),
        p_power_m=m,
    )
    return DeltaStarResult(power, label, "ok", record=record)


# -- independence bookkeeping -------------------------------------------------------

@dataclass
class CandidateTrace:
    """One monomial in earlier records with the degree of the target."""

    exponents: tuple
    expression: str
    degree: int
    lambda_value: int
    lambda_match: bool


@dataclass
class IndependenceEntry:
    label: str
    degree: int
    lambda_value: int
    candidates: tuple
    decision: str  # "no-candidates" | "lambda-mismatch" | "not-in-span" | "dependent"
    dependency: Optional[dict] = None


@dataclass
class IndependenceReport:
    entries: tuple
    all_independent: bool
    independent_count: int


def _candidate_exponents(degrees, target):
    """All exponent tuples e with sum e_j * degrees[j] = target, degrees > 0."""
    out = []

    def rec(j, left, acc):
        if j == len(degrees):
            if left == 0:
                out.append(tuple(acc))
            return
        top = left // degrees[j]
        for e in range(top + 1):
            rec(j + 1, left - e * degrees[j], acc + [e])

    rec(0, target, [])
    return out


def _product_expr(exps, records):
    return "*".join(
        f"{r.label}^{e}" if e > 1 else r.label
        for e, r in zip(exps, records) if e
    )


def independence_report(records, budget: Budget = UNLIMITED) -> IndependenceReport:
    """The stepwise independence evidence: each record against all earlier ones
    in ascending degree (a stable sort).  A product is at least as high in
    degree as each factor, so the count does not depend on the input order.

    A record is declared independent of its predecessors either vacuously (no
    product of earlier records has its degree), by lambda mismatch (every
    candidate product carries a different lambda), or by a rank computation
    showing it lies outside the span of the lambda-matching products.
    ``budget`` is checked before each candidate product and each insert into
    the rank solver.
    """
    records = list(records)
    if not records:
        return IndependenceReport((), True, 0)
    alg = records[0].invariant.algebra
    degrees = []
    for r in records:
        if r.invariant.algebra != alg:
            raise ParameterError("records live over different algebras")
        if r.lambda_value is None:
            raise ParameterError(f"{r.label} is not lambda-homogeneous")
        degrees.append(r.invariant.homogeneous_degree())
        if not degrees[-1]:
            raise ParameterError(f"{r.label} is not homogeneous of positive degree")
    p = alg.params.p
    order = sorted(range(len(records)), key=degrees.__getitem__)
    records = [records[i] for i in order]
    degrees = [degrees[i] for i in order]
    entries = []
    all_ok = True
    for k, rec in enumerate(records):
        deg = degrees[k]
        earlier = records[:k]
        traces = []
        matching = []
        for exps in _candidate_exponents(degrees[:k], deg):
            lam = sum(e * r.lambda_value for e, r in zip(exps, earlier))
            match = lam == rec.lambda_value
            traces.append(
                CandidateTrace(exps, _product_expr(exps, earlier), deg, lam, match)
            )
            if match:
                matching.append(exps)
        if not traces:
            decision, dependency = "no-candidates", None
        elif not matching:
            decision, dependency = "lambda-mismatch", None
        else:
            # rank test against the lambda-matching candidate products
            products = []
            for exps in matching:
                budget.checkpoint()
                prod = SymPolynomial.one(alg, "modp")
                for e, r in zip(exps, earlier):
                    if e:
                        prod = prod * r.invariant ** e
                products.append(prod)
            solver = SpanSolver(p)
            for f in products:
                budget.checkpoint()
                solver.insert(f.terms)
            combo = solver.solve(rec.invariant.terms)
            if combo is None:
                decision, dependency = "not-in-span", None
            else:
                decision = "dependent"
                dependency = {
                    _product_expr(matching[idx], earlier): c
                    for idx, c in combo.items()
                }
                all_ok = False
        entries.append(
            IndependenceEntry(rec.label, deg, rec.lambda_value, tuple(traces),
                              decision, dependency)
        )
    independent = sum(1 for e in entries if e.decision != "dependent")
    return IndependenceReport(tuple(entries), all_ok, independent)


# -- the conjecture sweep --------------------------------------------------------------

@dataclass
class SweepReport:
    """Evidence from one prime: verified records vs the external index value."""

    p: int
    index_value: int
    results: tuple
    records: tuple
    independence: Optional[IndependenceReport]
    independent_count: int
    matches_index: bool
    completed: bool
    note: str = ""


def conjecture_sweep(p: int, budget: Budget = UNLIMITED) -> SweepReport:
    """Run delta_star for i = 2, 4, .., 2(p-2) over Hbar_2 with m = (1, 1).

    The number of verified, pairwise-independent invariants is compared with
    the externally known index p - 2.  Exploratory: evidence, not proof.
    Budget exhaustion yields a partial report, not an exception.
    """
    results = []
    completed = True
    note = ""
    stage = "in the algebra build"
    try:
        algebra = build_hbar(FieldParams(p, 2, (1, 1)), budget=budget)
        for power in range(2, 2 * (p - 2) + 1, 2):
            stage = f"at power {power}"
            budget.checkpoint()
            results.append(delta_star(power, algebra, budget))
    except BudgetExceededError as exc:
        completed = False
        note = f"budget exhausted {stage}: {exc}"
    records = tuple(r.record for r in results if r.status == "ok")
    independence = None
    if records:
        try:
            independence = independence_report(records, budget)
        except BudgetExceededError as exc:
            completed = False
            note = note or f"budget exhausted in the independence test: {exc}"
    count = independence.independent_count if independence else 0
    return SweepReport(
        p=p,
        index_value=p - 2,
        results=tuple(results),
        records=records,
        independence=independence,
        independent_count=count,
        matches_index=(count == p - 2 and completed),
        completed=completed,
        note=note,
    )
