import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import TripClock, load_fixture, random_poly, tag_ad_operators
from cartaninv import errors, pipeline, symalg
from cartaninv.errors import UNLIMITED, BudgetExceededError, ParameterError
from cartaninv.algebras import build_hbar
from cartaninv.modular import FieldParams, delta_of, dp_basis
from cartaninv.pipeline import (
    Budget,
    InvariantRecord,
    compute_delta,
    conjecture_sweep,
    delta_star,
    independence_report,
    lambda_homogeneity,
    lambda_of_variable,
    phi_normalize,
    restrict_u_zero,
)
from cartaninv.serialize import document_to_poly
from cartaninv.symalg import SymPolynomial, is_invariant


def test_compute_delta_integral_p3(hbar_p3):
    D = compute_delta(2, hbar_p3)
    assert D.ring == "int"
    ix = hbar_p3.index
    assert D.terms == {
        ((ix["u_{0,1}"], 1), (ix["u_{2,1}"], 1)): 32,
        ((ix["u_{1,0}"], 1), (ix["u_{1,2}"], 1)): 32,
        ((ix["u_{0,2}"], 1), (ix["u_{2,0}"], 1)): 8,
        ((ix["u_{1,1}"], 2),): 64,
    }


def test_compute_delta_validation(hbar_p3):
    with pytest.raises(ParameterError):
        compute_delta(1, hbar_p3)
    with pytest.raises(ParameterError):
        compute_delta(2, hbar_p3.h_subalgebra)


def test_restrict_examples(hbar_p3):
    u = SymPolynomial.from_label(hbar_p3, "u_{2,2}", "int")
    assert restrict_u_zero(u ** 2).is_zero()
    D = compute_delta(2, hbar_p3)
    R = restrict_u_zero(D)
    assert len(R) == len(D)  # the printed Delta_2 carries no u factor
    assert R.algebra is hbar_p3.h_subalgebra


def test_restriction_drops_exactly_u_monomials(hbar_p3):
    rng = random.Random(37)
    u_idx = hbar_p3.dim - 1
    for _ in range(10):
        F = random_poly(rng, hbar_p3, ring="int", nterms=6)
        R = restrict_u_zero(F)
        dropped = set(F.terms) - set(R.terms)
        kept = set(R.terms)
        assert all(any(v == u_idx for v, _ in m) for m in dropped)
        assert all(all(v != u_idx for v, _ in m) for m in kept)


def test_phi_normalize(hbar_p3):
    h = hbar_p3.h_subalgebra
    F = SymPolynomial(h, "int", {((0, 1),): 3, ((1, 1),): 6})
    G, m = phi_normalize(F)
    assert m == 1 and G.terms == {((0, 1),): 1, ((1, 1),): 2}
    F = SymPolynomial(h, "int", {((0, 1),): 2, ((1, 1),): 4})
    G, m = phi_normalize(F)
    assert m == 0 and G.terms == {((0, 1),): 2, ((1, 1),): 1}
    with pytest.raises(ParameterError):
        phi_normalize(SymPolynomial.zero(h, "int"))
    with pytest.raises(ParameterError):
        phi_normalize(G)  # already mod p
    # idempotence: a second pass removes nothing
    lift = SymPolynomial(h, "int", G.terms)
    _, m2 = phi_normalize(lift)
    assert m2 == 0


def test_delta_star_p3(hbar_p3, record_p3):
    rec = record_p3
    assert rec.label == "Delta_2" and rec.power == 2
    assert rec.term_count == 4 and rec.p_power_m == 0
    assert rec.lambda_value == 4  # 2(p-1)
    fixture = document_to_poly(load_fixture("delta2_p3_invariant.json"),
                               hbar_p3.h_subalgebra)
    assert rec.invariant == fixture
    u = SymPolynomial.from_label(hbar_p3, "u_{2,2}")
    assert rec.generator == u ** 2


def test_delta_star_validation(hbar_p3):
    with pytest.raises(ParameterError):
        delta_star(3, hbar_p3)
    with pytest.raises(ParameterError):
        delta_star(4, hbar_p3)  # above 2(p-2) = 2 at p = 3


def test_delta_star_p5(hbar_p5, results_p5):
    h5 = hbar_p5.h_subalgebra
    counts = {i: r.record.term_count for i, r in results_p5.items()}
    assert counts == {2: 12, 4: 78, 6: 708}
    assert results_p5[2].record.generator == document_to_poly(
        load_fixture("delta2_gen_p5.json"), hbar_p5)
    assert results_p5[4].record.generator == document_to_poly(
        load_fixture("delta4_star_gen_p5.json"), h5)
    assert results_p5[6].record.generator == document_to_poly(
        load_fixture("delta6_star_gen_p5.json"), h5)
    assert [results_p5[i].record.p_power_m for i in (2, 4, 6)] == [0, 0, 1]
    assert [results_p5[i].record.label for i in (2, 4, 6)] == [
        "Delta_2", "Delta_4_star", "Delta_6_star"]


def test_record_laws(hbar_p5, results_p5, sweep_p7):
    hbar_p7 = build_hbar(FieldParams(7, 2, (1, 1)), verify=False)
    records = [(hbar_p5, r.record) for r in results_p5.values()]
    records += [(hbar_p7, rec) for rec in sweep_p7.records]
    assert len(records) == 7
    for hbar, rec in records:
        p = hbar.params.p
        rec.verify(hbar)  # re-derives the record and compares every field
        assert is_invariant(rec.invariant).is_invariant
        # delta_star reads lambda off the generator; the invariant's own
        # terms must agree with it
        assert rec.lambda_value == lambda_homogeneity(rec.invariant)
        assert rec.lambda_value == (lambda_homogeneity(rec.generator)
                                    + sum(delta_of(hbar.params)))
        # not a p-th power: some exponent is not divisible by p
        assert any(
            e % p for mono in rec.invariant.terms for _, e in mono
        )


def test_lambda_values(hbar_p5, results_p5):
    assert lambda_of_variable(hbar_p5, hbar_p5.index["u_{4,4}"]) == 0
    assert lambda_of_variable(hbar_p5, hbar_p5.index["u_{2,3}"]) == 3
    assert lambda_homogeneity(SymPolynomial.from_label(hbar_p5, "u_{2,3}") ** 2) == 6
    lams = {i: r.record.lambda_value for i, r in results_p5.items()}
    assert lams == {2: 8, 4: 16, 6: 16}


@pytest.mark.parametrize("p, m", [(3, (1, 1)), (5, (1, 1)), (7, (1, 1)),
                                  (3, (1, 2)), (3, (1, 1, 1, 1))])
def test_lambda_weights_from_grades(p, m):
    # lambda of the slot of a is |delta| - |a|, in basis order
    params = FieldParams(p, len(m), m)
    hbar = build_hbar(params, verify=False)
    want = [sum(delta_of(params)) - sum(a) for a in dp_basis(params) if any(a)]
    for alg, weights in ((hbar, want), (hbar.h_subalgebra, want[:-1])):
        assert [lambda_of_variable(alg, i) for i in range(alg.dim)] == weights


def test_lambda_homogeneity_mixed(hbar_p5):
    u = SymPolynomial.from_label(hbar_p5, "u_{4,4}")
    v = SymPolynomial.from_label(hbar_p5, "u_{1,1}")
    assert lambda_homogeneity(u + v) is None
    assert lambda_homogeneity(SymPolynomial.zero(hbar_p5)) == 0


def test_independence_p5(results_p5):
    records = [results_p5[i].record for i in (2, 4, 6)]
    report = independence_report(records)
    by_label = {e.label: e for e in report.entries}
    assert by_label["Delta_2"].decision == "no-candidates"
    # computed fact: Delta_4_star IS proportional to Delta_2^2 (they are equal),
    # so the honest report declares dependence with the explicit relation
    e4 = by_label["Delta_4_star"]
    assert e4.decision == "dependent"
    assert e4.dependency == {"Delta_2^2": 1}
    assert [c.expression for c in e4.candidates] == ["Delta_2^2"]
    assert all(c.lambda_match for c in e4.candidates)
    # Delta_6_star is separated by the lambda grading alone
    e6 = by_label["Delta_6_star"]
    assert e6.decision == "lambda-mismatch"
    cands = {c.expression: c.lambda_value for c in e6.candidates}
    assert cands == {"Delta_2^3": 24, "Delta_2*Delta_4_star": 24}
    assert e6.lambda_value == 16
    assert report.independent_count == 2 and not report.all_independent


def test_independence_orders_the_records_by_degree(results_p5):
    # Delta_4_star = Delta_2^2 is found whichever label comes first: each
    # record is tested against the records of lower degree
    records = [results_p5[i].record for i in (2, 4, 6)]
    want = independence_report(records)
    for shuffled in ([records[1], records[0]], records[::-1],
                     [records[2], records[0], records[1]]):
        report = independence_report(shuffled)
        assert report.entries == tuple(e for e in want.entries
                                       if any(r.label == e.label for r in shuffled))
        assert report.independent_count == len(shuffled) - 1
        assert not report.all_independent


def test_independence_direct_comparison(results_p5):
    # the underlying fact behind the dependent verdict
    D2 = results_p5[2].record.invariant
    D4s = results_p5[4].record.invariant
    assert D4s == D2 * D2


def test_independence_toy_dependence(record_p3):
    doubled = InvariantRecord(
        label="twice",
        power=2,
        invariant=record_p3.invariant.scale(2),
        generator=record_p3.generator.scale(2),
        lambda_value=record_p3.lambda_value,
        term_count=record_p3.term_count,
        p_power_m=0,
    )
    report = independence_report([record_p3, doubled])
    assert report.entries[1].decision == "dependent"
    assert report.entries[1].dependency == {"Delta_2": 2}
    assert not report.all_independent


def test_independence_rank_test_finds_a_record_outside_the_span(results_p5):
    # Delta_2^2 with one coefficient changed: the same degree and lambda as
    # the candidate Delta_2^2, so only the rank test can separate them
    delta_2 = results_p5[2].record
    terms = dict((delta_2.invariant * delta_2.invariant).terms)
    mono = next(iter(terms))
    terms[mono] = terms[mono] % 4 + 1  # another nonzero residue mod 5
    invariant = SymPolynomial(delta_2.invariant.algebra, "modp", terms)
    perturbed = InvariantRecord("perturbed", 4, invariant, delta_2.generator,
                                2 * delta_2.lambda_value, len(terms), 0)
    report = independence_report([delta_2, perturbed])
    entry = report.entries[1]
    assert [c.expression for c in entry.candidates] == ["Delta_2^2"]
    assert entry.candidates[0].lambda_match
    assert entry.decision == "not-in-span" and entry.dependency is None
    assert report.all_independent and report.independent_count == 2


def test_independence_rejects_mixed_lambda(hbar_p3, record_p3):
    u = SymPolynomial.from_label(hbar_p3, "u_{2,2}")
    v = SymPolynomial.from_label(hbar_p3, "u_{1,1}")
    broken = InvariantRecord("mixed", 2, (u + v) * u, u, None, 2, 0)
    with pytest.raises(ParameterError):
        independence_report([record_p3, broken])


@pytest.mark.parametrize("alone", [True, False])
@pytest.mark.parametrize("kind", ["not-homogeneous", "zero"])
def test_independence_rejects_a_record_of_no_positive_degree(results_p5, kind,
                                                             alone):
    delta_2 = results_p5[2].record
    alg = delta_2.invariant.algebra
    u = SymPolynomial.from_label(alg, "u_{1,1}")
    invariant = u + u * u if kind == "not-homogeneous" else SymPolynomial.zero(alg)
    broken = InvariantRecord("broken", 2, invariant, u, 4, len(invariant), 0)
    records = [broken] if alone else [delta_2, broken]
    with pytest.raises(ParameterError,
                       match="broken is not homogeneous of positive degree"):
        independence_report(records)


def test_generator_conditions_of_stored_generators(results_p5):
    # generators produced without a p-division satisfy the grade >= 0
    # annihilation conditions; dividing by p (m >= 1) is computed NOT to
    # preserve them, even though the resulting image is still invariant
    # (record laws re-verify invariance directly for exactly this reason)
    from cartaninv.symalg import check_generator_sh

    assert check_generator_sh(results_p5[2].record.generator).ok
    assert check_generator_sh(results_p5[4].record.generator).ok
    rec6 = results_p5[6].record
    assert rec6.p_power_m == 1
    chk = check_generator_sh(rec6.generator)
    assert not chk.ok
    assert is_invariant(rec6.invariant).is_invariant


def test_conjecture_sweep_p3():
    report = conjecture_sweep(3)
    assert report.completed
    assert [r.status for r in report.results] == ["ok"]
    assert report.independent_count == 1 == report.index_value
    assert report.matches_index


def test_conjecture_sweep_budget():
    report = conjecture_sweep(3, budget=Budget(max_terms=1))
    assert not report.completed and "budget" in report.note
    assert report.independent_count == 0


def test_budget_clock_time():
    with pytest.raises(BudgetExceededError):
        Budget(max_seconds=0.0).checkpoint()


def test_budget_clock_starts_when_made(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(errors.time, "monotonic", lambda: now[0])
    budget = Budget(max_seconds=5.0)
    now[0] = 105.0
    budget.checkpoint()  # at the deadline, not past it
    now[0] = 105.5
    with pytest.raises(BudgetExceededError, match="time budget exceeded"):
        budget.charge(1)
    Budget(max_seconds=5.0).checkpoint()  # made now: a deadline of its own


def test_unlimited_budget_never_trips():
    UNLIMITED.charge(10**12)
    UNLIMITED.checkpoint()


class InvarianceProbe(TripClock):
    """Records, per checkpoint, whether it was made inside the invariance
    check that is_invariant and checked_d_delta share."""

    def __init__(self):
        super().__init__()
        self.inside = []

    def checkpoint(self):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "_invariance":
            frame = frame.f_back
        self.inside.append(frame is not None)
        super().checkpoint()


def test_budget_trips_inside_is_invariant(hbar_p5):
    probe = InvarianceProbe()
    assert delta_star(4, hbar_p5, probe).status == "ok"
    inside = [k + 1 for k, hit in enumerate(probe.inside) if hit]
    # one invariance check, the one delta_star makes on its d^(delta) image:
    # a checkpoint before each generator's pass, the grade -1 generator's
    # included, though the table proves its image zero and it gets no pass
    assert len(inside) == len(hbar_p5.h_subalgebra.lie_generators())
    for trip in inside:
        with pytest.raises(BudgetExceededError) as exc:
            delta_star(4, hbar_p5, TripClock(trip))
        names = [entry.name for entry in exc.traceback]
        assert "_invariance" in names
        at = names.index("_invariance")
        assert names[at - 2:at] == ["delta_star", "checked_d_delta"]


def test_independence_report_checkpoints(results_p5):
    records = [results_p5[i].record for i in (2, 4, 6)]
    clock = TripClock()
    want = independence_report(records)
    assert independence_report(records, clock) == want
    # Delta_4_star: one candidate product, built and inserted
    assert clock.checkpoints == 2
    for trip in range(1, clock.checkpoints + 1):
        with pytest.raises(BudgetExceededError):
            independence_report(records, TripClock(trip))


def test_independence_report_reads_each_degree_once(results_p5, monkeypatch):
    records = [results_p5[i].record for i in (2, 4, 6)]
    want = independence_report(records)
    walked = []
    degree = SymPolynomial.homogeneous_degree

    def counted(F):
        walked.append(F)
        return degree(F)

    monkeypatch.setattr(SymPolynomial, "homogeneous_degree", counted)
    assert independence_report(records) == want
    assert len(walked) == len(records)


def test_sweep_budget_trip_in_the_algebra_build():
    report = conjecture_sweep(5, TripClock(1))
    assert report.results == () and report.records == ()
    assert not report.completed and report.independent_count == 0
    assert report.note == ("budget exhausted in the algebra build: "
                           "stub budget tripped")


def test_sweep_budget_trip_in_the_rank_test(sweep_p5_checkpoints):
    # the last checkpoint of the sweep guards the rank test's insert
    report = conjecture_sweep(5, TripClock(sweep_p5_checkpoints))
    assert [r.status for r in report.results] == ["ok"] * 3
    assert not report.completed and not report.matches_index
    assert report.independence is None and report.independent_count == 0
    assert report.note.startswith("budget exhausted in the independence test")


def test_verify_rejects_a_non_invariant_record(hbar_p3, record_p3):
    # one coefficient changed: same terms and lambda, no longer invariant
    (mono, c), *rest = record_p3.invariant.terms.items()
    broken = SymPolynomial(record_p3.invariant.algebra, "modp",
                           {mono: 3 - c, **dict(rest)})
    assert not is_invariant(broken).is_invariant
    record = replace(record_p3, invariant=broken)
    with pytest.raises(ValueError, match=r"^Delta_2: stored invariant differs from "
                                         r"the derived one$"):
        record.verify(hbar_p3)


@pytest.mark.parametrize("power, calls", [(2, 1), (4, 2)])
def test_delta_star_runs_d_delta_once_on_its_generator(monkeypatch, hbar_p5,
                                                       power, calls):
    # Delta_2 keeps u^2 as generator, so compute_delta's chain is the only
    # d^(delta) chain; otherwise the checked chain runs once more, on the
    # generator, and no other chain runs: the table proves the grade -1
    # checks of the image
    seen = []
    chain = symalg._d_gamma_packed

    def counting(F, gamma, *args):
        seen.append((F, tuple(gamma)))
        return chain(F, gamma, *args)

    monkeypatch.setattr(symalg, "_d_gamma_packed", counting)
    result = delta_star(power, hbar_p5)
    assert result.status == "ok"
    delta = delta_of(hbar_p5.params)
    chains = [F for F, gamma in seen if gamma == delta]
    assert len(chains) == calls
    assert chains[0] == SymPolynomial.variable(hbar_p5, hbar_p5.dim - 1, "int") ** power
    assert chains.count(result.record.generator) == calls - 1
    fronts = [(F, gamma) for F, gamma in seen if gamma != delta]
    assert fronts == []


@pytest.mark.parametrize("power, status", [(8, "ok"), (10, "not-invariant")])
def test_delta_star_checks_the_image_before_unpacking_it(monkeypatch, power, status):
    # compute_delta packs u^power and the checked chain the generator; the
    # image is checked on the chain's last pass and never packed again
    hbar = build_hbar(FieldParams(7, 2, (1, 1)), verify=False)
    generator, _ = phi_normalize(restrict_u_zero(compute_delta(power, hbar)))
    packed = []
    pack = symalg._pack_terms

    def counted(F, width):
        packed.append(F)
        return pack(F, width)

    monkeypatch.setattr(symalg, "_pack_terms", counted)
    assert delta_star(power, hbar).status == status
    u = SymPolynomial.variable(hbar, hbar.dim - 1, "int")
    assert packed == [u ** power, generator]


@pytest.mark.parametrize("power", [4, 6])
def test_delta_star_makes_no_partial_pass_in_the_check(monkeypatch, hbar_p5, power):
    # the table proves ad(d_a) of every d^(delta) image zero, so the check
    # passes the other generators over the image and no partial
    checked = []
    ad_pass = symalg._ad_pass

    def counted(F, op, *args):
        if sys._getframe(1).f_back.f_code.co_name == "_invariance":
            checked.append(op.element)
        return ad_pass(F, op, *args)

    tag_ad_operators(monkeypatch)
    monkeypatch.setattr(symalg, "_ad_pass", counted)
    assert delta_star(power, hbar_p5).status == "ok"
    alg = hbar_p5.h_subalgebra
    partials = {idx for idx, _ in alg.partial_coords}
    assert partials == alg.delta_annihilators()
    assert checked == [[(g, 1)] for g in alg.lie_generators() if g not in partials]


def test_delta_star_checks_the_partials_on_the_generator(monkeypatch):
    # ad(d_a) of d^(delta)(F) is D_a^(delta_a+1)(F) carried through the other
    # factors, which the table proves zero, so u_{1,0} and u_{0,1} pass only
    # in the chain from the generator, never on the image
    hbar = build_hbar(FieldParams(7, 2, (1, 1)), verify=False)
    passes = []
    ad_pass = symalg._ad_pass

    def counted(F, op, packed, *args):
        if F.algebra is hbar.h_subalgebra:
            passes.append((F.algebra.basis[op.element[0][0]].label, len(packed)))
        return ad_pass(F, op, packed, *args)

    tag_ad_operators(monkeypatch)
    monkeypatch.setattr(symalg, "_ad_pass", counted)
    for power, image_size in ((8, 35_665), (10, 31_333)):
        passes.clear()
        result = delta_star(power, hbar)
        assert ("u_{6,5}", image_size) in passes  # the one pass on the image
        partials = [n for label, n in passes if label in ("u_{1,0}", "u_{0,1}")]
        assert partials and image_size not in partials
    idx, witness = result.witness
    assert witness.algebra.basis[idx].label == "u_{0,2}" and len(witness) == 114
    assert ("u_{0,2}", 31_333) in passes


@pytest.mark.parametrize("p, total", [(5, 45), (7, 116)])
def test_sweep_checks_each_image_by_one_pass(monkeypatch, p, total):
    # the u-free Delta_2 is a given polynomial and gets every generator's
    # pass; a d^(delta) image gets one, on u_{p-1,p-2}, as the table proves
    # the grade -1 passes zero, and the refused candidate one more for its
    # witness
    passes, checked = [], {}
    ad_pass, run = symalg._ad_pass, pipeline.delta_star

    def counted(F, op, *args):
        passes.append(op.element)
        if sys._getframe(1).f_back.f_code.co_name == "_invariance":
            # the sweep runs its powers in ascending order
            checked[max(checked)].append(F.algebra.basis[op.element[0][0]].label)
        return ad_pass(F, op, *args)

    def per_power(i, *args):
        checked[i] = []
        return run(i, *args)

    tag_ad_operators(monkeypatch)
    monkeypatch.setattr(symalg, "_ad_pass", counted)
    monkeypatch.setattr(pipeline, "delta_star", per_power)
    assert conjecture_sweep(p).completed
    top = f"u_{{{p - 1},{p - 2}}}"
    expected = {i: [top] for i in range(4, 2 * (p - 2) + 1, 2)}
    expected[2] = ["u_{0,1}", "u_{1,0}", top]
    if p == 7:
        expected[10] = [top, "u_{0,2}"]
    assert checked == expected
    assert len(passes) == total


@pytest.fixture(scope="module")
def generators_p7():
    """The p = 7 generators of powers 8 and 10, the last invariant and the
    first refused candidate of the sweep."""
    hbar = build_hbar(FieldParams(7, 2, (1, 1)), verify=False)
    return {power: phi_normalize(restrict_u_zero(compute_delta(power, hbar)))[0]
            for power in (8, 10)}


@pytest.fixture
def unpack_count(monkeypatch):
    """The number of monomials unpacked after the fixture is set up."""
    calls = [0]
    unpack = symalg._unpack

    def counted(key, table):
        calls[0] += 1
        return unpack(key, table)

    monkeypatch.setattr(symalg, "_unpack", counted)
    return calls


def test_checked_d_delta_unpacks_only_what_it_returns(generators_p7, unpack_count):
    # the chain and the check read packed keys: only the returned image, or
    # the witness's image, is unpacked
    image, rep = symalg.checked_d_delta(generators_p7[8])
    assert rep.is_invariant and len(image) == 35_665
    assert unpack_count[0] == 35_665
    unpack_count[0] = 0
    image, rep = symalg.checked_d_delta(generators_p7[10])
    g, witness = rep.witness
    assert image is None and witness.algebra.basis[g].label == "u_{0,2}"
    assert unpack_count[0] == len(witness) == 114


@pytest.mark.parametrize("gamma", [(1, 0), (0, 3), (2, 5), (6, 6)])
def test_d_gamma_unpacks_only_its_result(generators_p7, unpack_count, gamma):
    F = generators_p7[8]
    image = symalg.d_gamma(F, gamma)
    assert image and unpack_count[0] == len(image)


def test_term_budget_trip_inside_a_pass_keeps_its_count():
    # each pass reads a key's factors in ascending index, so the image fills
    # in the same order and a stride check inside a pass sees the same count
    report = conjecture_sweep(7, Budget(max_terms=20_000))
    assert report.note == ("budget exhausted at power 8: "
                           "term budget exceeded: 21558 > 20000")


def test_delta_series_divisible_by_u(hbar_p5):
    # Delta_i minus its restriction is a multiple of u: every term of the
    # difference carries the top variable
    D4 = compute_delta(4, hbar_p5)
    R4 = restrict_u_zero(D4)
    u_idx = hbar_p5.dim - 1
    dropped = set(D4.terms) - set(R4.terms)
    assert dropped and all(any(v == u_idx for v, _ in m) for m in dropped)


def test_readme_library_tour(capsys):
    """The README's "Library tour" block runs as printed."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("\n## Library tour\n", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    assert capsys.readouterr().out.splitlines()[0] == "708"
