"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 8 asserts the
published independence claim for the p = 5 series; the computation refutes
one clause of it (the power-4 invariant equals the square of the power-2
one), so that test fails by design and documents the computed relation.
"""

import json
import random
import time
from itertools import combinations_with_replacement

import pytest

from conftest import commutation_expansion_check, load_fixture, tag_ad_operators
from cartaninv import serialize, symalg
from cartaninv.algebras import build, build_hbar, decompose, derivation_bracket
from cartaninv.cli import EX_OK, main
from cartaninv.gflinalg import kernel_basis
from cartaninv.modular import FieldParams, multi_binom_int
from cartaninv.pipeline import (
    compute_delta,
    delta_star,
    independence_report,
    phi_normalize,
    restrict_u_zero,
)
from cartaninv.symalg import (
    SymPolynomial,
    ad_action,
    ad_partial,
    check_generator_sh,
    check_generator_w,
    d_delta,
    d_gamma,
    is_invariant,
)


def test_criterion_1_p3_reproduction(capsys):
    t0 = time.time()
    rc = main(["invariant-compute", "--p", "3", "--power", "2",
               "--output", "structured"])
    out = capsys.readouterr().out
    elapsed = time.time() - t0
    assert rc == EX_OK
    doc = json.loads(out)
    fixture = load_fixture("delta2_p3_invariant.json")
    assert doc["invariant"]["terms"] == fixture["terms"]
    assert doc["invariant"]["p"] == 3 and len(fixture["terms"]) == 4
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"\nACCEPTANCE 1 PASS: p=3 Delta_2 matches the fixture "
              f"coefficient-by-coefficient ({elapsed:.2f}s)")


def test_criterion_2_p5_term_counts(results_p5):
    t0 = time.time()
    counts = {i: r.record.term_count for i, r in results_p5.items()}
    assert counts == {2: 12, 4: 78, 6: 708}
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 PASS: p=5 term counts 12/78/708 ({elapsed:.2f}s)")


def test_criterion_3_p5_generator_fixtures(results_p5):
    fixtures = {
        2: "delta2_gen_p5.json",
        4: "delta4_star_gen_p5.json",
        6: "delta6_star_gen_p5.json",
    }
    for i, name in fixtures.items():
        got = serialize.poly_to_document(results_p5[i].record.generator)
        assert got == load_fixture(name), f"generator mismatch for power {i}"
    print("\nACCEPTANCE 3 PASS: p=5 generators equal u_{4,4}^2 and the two "
          "printed polynomials in canonical serialization")


def _full_basis_witnesses(F):
    """The basis elements whose ad image of F is nonzero; one ad map packs F
    once for the whole basis."""
    image = symalg._ad_images(F)
    return [b for b in range(F.algebra.dim) if image([(b, 1)])]


def test_criterion_4_invariance_suite(record_p3, results_p5):
    checked = 0
    for rec in [record_p3] + [r.record for r in results_p5.values()]:
        inv = rec.invariant
        h = inv.algebra
        assert h.kind == "H"
        witnesses = [h.basis[b].label for b in _full_basis_witnesses(inv)]
        assert witnesses == [], f"{rec.label}: witnesses {witnesses}"
        checked += h.dim
    print(f"\nACCEPTANCE 4 PASS: zero witnesses across the full H_2 basis "
          f"for every record at p in {{3,5}} ({checked} ad images)")


def test_criterion_5_theorem2_property_suite(hbar_p3, w1_p3):
    rng = random.Random(2025)
    p = 3
    # solution space of the grade >= 0 annihilation conditions, per degree
    ge0 = [b for b, g in enumerate(hbar_p3.grades) if g >= 0]
    kernels = {}
    for d in (1, 2):  # degrees <= 3 and coprime to 3
        monos = [
            tuple(sorted({v: c.count(v) for v in c}.items()))
            for c in combinations_with_replacement(range(hbar_p3.dim), d)
        ]
        rows = []
        for b in ge0:
            images = [ad_action(b, SymPolynomial(hbar_p3, "modp", {m: 1}))
                      for m in monos]
            for om in sorted({mm for img in images for mm in img.terms}):
                rows.append([img.terms.get(om, 0) for img in images])
        kernels[d] = (monos, kernel_basis(rows, len(monos), p))
    assert len(kernels[1][1]) == 1 and len(kernels[2][1]) == 2

    passing = 0
    attempts = 0
    while passing < 100 and attempts < 2000:
        attempts += 1
        d = 1 if attempts % 2 else 2
        monos, ker = kernels[d]
        terms = {}
        for vec in ker:
            c = rng.randrange(p)
            for m, x in zip(monos, vec):
                if x:
                    terms[m] = (terms.get(m, 0) + c * x) % p
        F = SymPolynomial(hbar_p3, "modp", terms)
        if F.is_zero():
            continue
        assert check_generator_sh(F).ok
        assert is_invariant(d_delta(F)).is_invariant
        passing += 1
    assert passing >= 100

    violating = 0
    attempts = 0
    while violating < 100 and attempts < 1000:
        attempts += 1
        d = rng.randint(1, 3)
        mono = {}
        for _ in range(d):
            v = rng.randrange(hbar_p3.dim)
            mono[v] = mono.get(v, 0) + 1
        F = SymPolynomial(hbar_p3, "modp", {tuple(sorted(mono.items())): rng.randrange(1, p)})
        check = check_generator_sh(F)
        if check.ok:
            continue
        assert check.failures and all(defect for _, defect in check.failures)
        violating += 1
    assert violating >= 100

    # W_1(1): e_1^2 is a generator, e_1 violates the eigenvalue condition
    e1 = SymPolynomial.from_label(w1_p3, "x^(2)d_1")
    assert check_generator_w(e1 * e1).ok
    assert is_invariant(d_delta(e1 * e1)).is_invariant
    bad = check_generator_w(e1)
    assert not bad.ok
    assert any("eigenvalue" in desc for desc, _ in bad.failures)
    print(f"\nACCEPTANCE 5 PASS: {passing} generator-condition samples map to "
          f"invariants; {violating} violating samples report witnesses; "
          f"W_1(1) e_1^2 / e_1 behave as required")


def _jacobi_all_triples(alg):
    p = alg.params.p
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(j + 1, alg.dim):
                acc = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for t, cc in alg.row_mod(b, c):
                        for s, dd in alg.row_mod(a, t):
                            acc[s] = (acc.get(s, 0) + cc * dd) % p
                if any(acc.values()):
                    return (i, j, k)
    return None


def test_criterion_6_structural_suites(w2_p3, w2_p5, s2_p3, s2_p5,
                                       hbar_p3, hbar_p5):
    t0 = time.time()
    algebras = {
        "W2 p3": w2_p3, "W2 p5": w2_p5,
        "S2 p3": s2_p3, "S2 p5": s2_p5,
        "H2 p3": hbar_p3.h_subalgebra, "H2 p5": hbar_p5.h_subalgebra,
        "Hbar2 p3": hbar_p3, "Hbar2 p5": hbar_p5,
    }
    for name, alg in algebras.items():
        bad = _jacobi_all_triples(alg)
        assert bad is None, f"Jacobi fails in {name} at {bad}"
        p = alg.params.p
        for (i, j), row in alg.rows_int.items():
            for k, c in row:
                if c % p:
                    assert alg.grades[k] == alg.grades[i] + alg.grades[j]
    # closure of S2 and H2 under the bracket, re-checked honestly
    for alg in (s2_p3, s2_p5, hbar_p3.h_subalgebra, hbar_p5.h_subalgebra):
        for i in range(alg.dim):
            for j in range(i + 1, alg.dim):
                br = derivation_bracket(alg.basis[i].vector, alg.basis[j].vector, alg.params)
                # raises if outside the span
                assert decompose(br, alg) == dict(alg.row_mod(i, j))
    assert hbar_p3.h_subalgebra.dim == 3 * 3 - 2 and hbar_p3.dim == 3 * 3 - 1
    assert hbar_p5.h_subalgebra.dim == 25 - 2 and hbar_p5.dim == 25 - 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 6 PASS: Jacobi on all basis triples, grading, closure "
          f"and dimensions for 8 algebras ({elapsed:.1f}s)")


def test_criterion_7_identity_suites(hbar_p3, hbar_p5, w2_p3):
    rng = random.Random(77)
    for p in (3, 5):
        delta = (p - 1, p - 1)
        for a0 in range(p):
            for a1 in range(p):
                assert multi_binom_int(delta, (a0, a1)) % p == (-1) ** (a0 + a1) % p
    from conftest import random_poly
    for alg in (hbar_p3, hbar_p5):
        p = alg.params.p
        for _ in range(6):
            F = random_poly(rng, alg)
            for ax in range(2):
                G = F
                for _ in range(p):
                    G = ad_partial(G, ax)
                assert G.is_zero()
                assert ad_partial(d_delta(F), ax).is_zero()
    top = {(0, (2, 2)): 1}
    for _ in range(5):
        F = random_poly(rng, hbar_p3, max_degree=2, nterms=3)
        assert commutation_expansion_check({(0, (0, 0)): 1}, F)
        assert commutation_expansion_check(hbar_p3.basis[-1].vector, F)
        Fw = random_poly(rng, w2_p3, max_degree=2, nterms=3)
        assert commutation_expansion_check(top, Fw)
    print("\nACCEPTANCE 7 PASS: top-binomial sign identity, nilpotency of "
          "ad(d_i), annihilation of d^(delta) images, commutation expansion")


def test_criterion_7_partials_commute_on_s_of_l(w2_p3, w2_p5, s2_p3, s2_p5,
                                               hbar_p3, hbar_p5):
    # the identity the invariance check's grade -1 certificate rests on:
    # ad(d_a) d_gamma = d_gamma ad(d_a) on S(L), so ad(d_a) d^(delta)(F) is
    # D_a^(delta_a+1)(F) carried through the other factors, and the table
    # proves it zero for every partial
    from conftest import random_poly
    rng = random.Random(71)
    algebras = (w2_p3, w2_p5, s2_p3, s2_p5, hbar_p3.h_subalgebra,
                hbar_p5.h_subalgebra, hbar_p3, hbar_p5)
    for kind, p, m in (("W", 3, (1,)), ("W", 5, (1,)), ("W", 3, (2,)),
                       ("S", 3, (1, 1, 1)), ("H", 3, (2, 1)), ("H", 7, (1, 1))):
        alg = build(kind, FieldParams(p, len(m), m), verify=False)
        assert alg.delta_annihilators() == {i for i, _ in alg.partial_coords}
    for alg in algebras:
        assert alg.delta_annihilators() == {i for i, _ in alg.partial_coords}
        delta = alg.params.p - 1
        nonzero = 0
        for _ in range(6):
            F = random_poly(rng, alg, max_degree=3, nterms=4)
            gamma = (rng.randrange(delta), rng.randrange(delta))
            for a in range(2):
                lhs = ad_partial(d_gamma(F, gamma), a)
                assert lhs == d_gamma(ad_partial(F, a), gamma)
                nonzero += bool(lhs)
        assert nonzero >= 10, f"{alg}: {nonzero} of 12 values nonzero"
    print("\nACCEPTANCE 7b PASS: the partials' ad operators commute on S(L) "
          "for W_2, S_2, H_2 and Hbar_2 at p = 3 and 5")


def test_criterion_8_lambda_and_independence(results_p5):
    records = [results_p5[i].record for i in (2, 4, 6)]
    lams = {r.label: r.lambda_value for r in records}
    assert lams == {"Delta_2": 8, "Delta_4_star": 16, "Delta_6_star": 16}
    report = independence_report(records)
    by_label = {e.label: e for e in report.entries}
    e4, e6 = by_label["Delta_4_star"], by_label["Delta_6_star"]
    # the lambda-mismatch trace for the power-6 invariant holds as published
    assert e6.decision == "lambda-mismatch"
    assert {c.expression: c.lambda_value for c in e6.candidates} == {
        "Delta_2^3": 24, "Delta_2*Delta_4_star": 24}
    # published claim: Delta_4_star is non-proportional to Delta_2^2 and the
    # three records are independent, making the count equal p - 2 = 3.
    # The computation refutes this: Delta_4_star == Delta_2^2 exactly.
    assert report.all_independent, (
        f"computed refutation: {e4.label} is {e4.decision} with relation "
        f"{e4.dependency}; independent count = {report.independent_count}"
    )
    assert report.independent_count == 3
    print("\nACCEPTANCE 8 PASS: lambda values and independence as published")


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_criterion_8_relation_at_every_prime(p):
    # the refutation of criterion 8 is uniform: Delta_4_star = 6*Delta_2^2
    # mod p at every prime tested (6 = 1 at p = 5)
    hbar = build_hbar(FieldParams(p, 2, (1, 1)), verify=False)
    records = [delta_star(i, hbar).record for i in (2, 4)]
    assert [r.label for r in records] == ["Delta_2", "Delta_4_star"]
    entry = independence_report(records).entries[1]
    assert entry.decision == "dependent"
    assert entry.dependency == {"Delta_2^2": 6 % p}
    print(f"\nACCEPTANCE 8b PASS: p={p} Delta_4_star = {6 % p}*Delta_2^2")


def test_criterion_9_p7_exploration(sweep_p7):
    report = sweep_p7
    # completes within budget or reports partial results without raising
    assert report.results
    produced = list(report.records)
    hbar = build_hbar(FieldParams(7, 2, (1, 1)), verify=False)
    for rec in produced:
        assert _full_basis_witnesses(rec.invariant) == [], \
            f"{rec.label} fails invariance at p=7"
        rec.verify(hbar)
    statuses = {r.label: r.status for r in report.results}
    note = f"records {sorted(statuses.items())}"
    if report.completed:
        assert len(report.results) == 5  # powers 2..10
    print(f"\nACCEPTANCE 9 PASS: p=7 sweep "
          f"{'completed' if report.completed else 'partial'}; "
          f"{len(produced)} verified records re-checked over the full basis; "
          f"{note}")


@pytest.fixture(scope="module")
def delta_10_star_p7():
    """The p = 7 Delta_10_star candidate and its full-scan witness."""
    hbar = build_hbar(FieldParams(7, 2, (1, 1)), verify=False)
    generator, _ = phi_normalize(restrict_u_zero(compute_delta(10, hbar)))
    candidate = d_delta(generator)
    for first in range(candidate.algebra.dim):
        img = ad_action(first, candidate)
        if img:
            break
    return candidate, (first, img)


def test_p7_delta_10_star_witness_is_first_in_basis_order(sweep_p7, delta_10_star_p7):
    # the generating-set check must report the witness the full scan finds
    assert sweep_p7.completed
    result = sweep_p7.results[-1]
    assert (result.power, result.status) == (10, "not-invariant")
    candidate, (first, img) = delta_10_star_p7
    assert result.witness == (first, img)
    assert candidate.algebra.basis[first].label == "u_{0,2}"
    print("\nACCEPTANCE 9b PASS: p=7 Delta_10_star witness u_{0,2} is the first "
          "failing basis element")


def test_p7_invariance_passes_on_top_down_generators(monkeypatch, sweep_p7,
                                                      delta_10_star_p7):
    calls = []
    ad_pass = symalg._ad_pass

    def counted(F, op, *args):
        calls.extend(idx for idx, _ in op.element)
        return ad_pass(F, op, *args)

    delta_8 = next(r for r in sweep_p7.records if r.label == "Delta_8_star").invariant
    candidate, witness = delta_10_star_p7
    labels = lambda: [delta_8.algebra.basis[idx].label for idx in calls]
    tag_ad_operators(monkeypatch)
    monkeypatch.setattr(symalg, "_ad_pass", counted)
    assert is_invariant(delta_8).is_invariant
    # a given polynomial gets both grade -1 passes, then the top generator
    assert labels() == ["u_{0,1}", "u_{1,0}", "u_{6,5}"]
    calls.clear()
    rep = is_invariant(candidate)
    # u_{6,5} fails, and the back-scan below it finds the full scan's witness
    assert labels() == ["u_{0,1}", "u_{1,0}", "u_{6,5}", "u_{0,2}"]
    assert rep.witness == witness
