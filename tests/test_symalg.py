import gc
import random
import tracemalloc
from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest

from conftest import (
    TripClock,
    ad_index_oracle,
    commutation_expansion_check,
    random_derivation,
    random_poly,
    tag_ad_operators,
)
from cartaninv.algebras import CartanAlgebra, build_hbar, build_s, build_w, decompose
from cartaninv import errors, symalg
from cartaninv.errors import Budget, BudgetExceededError, ParameterError
from cartaninv.modular import FieldParams, delta_of
from cartaninv.symalg import (
    SymPolynomial,
    ad_action,
    ad_partial,
    check_generator_sh,
    check_generator_w,
    d_delta,
    d_gamma,
    is_invariant,
    mono_degree,
)


def test_ring_ops(hbar_p3):
    rng = random.Random(3)
    F = random_poly(rng, hbar_p3)
    assert (F + (-F)).is_zero()
    one = SymPolynomial.one(hbar_p3)
    assert one * F == F
    u = SymPolynomial.from_label(hbar_p3, "u_{2,2}")
    assert (u * u).terms == {((7, 2),): 1}
    assert u ** 3 == u * u * u


def test_mismatch_errors(hbar_p3, hbar_p5):
    F = SymPolynomial.one(hbar_p3)
    with pytest.raises(ParameterError):
        F + SymPolynomial.one(hbar_p5)
    with pytest.raises(ParameterError):
        F + SymPolynomial.one(hbar_p3, "int")
    with pytest.raises(ParameterError):
        F + SymPolynomial.one(hbar_p3.h_subalgebra)


def test_monomial_factors_are_sorted_and_distinct(hbar_p3):
    # out-of-order factors are sorted, as before
    F = SymPolynomial(hbar_p3, "modp", {((3, 1), (0, 2)): 1})
    assert F.terms == {((0, 2), (3, 1)): 1}
    # u_0 * u_0 written as two factors is u_0^2: rejected, not kept apart
    for mono in (((0, 1), (0, 1)), ((3, 1), (0, 1), (0, 2))):
        with pytest.raises(ParameterError, match="repeated basis index"):
            SymPolynomial(hbar_p3, "modp", {mono: 1})


def test_ad_examples(w1_p3):
    const = SymPolynomial.one(w1_p3)
    d = w1_p3.index["x^(0)d_1"]
    assert ad_action(d, const).is_zero()
    e1 = SymPolynomial.from_label(w1_p3, "x^(2)d_1")
    xd = w1_p3.index["x^(1)d_1"]
    assert ad_action(xd, e1 * e1) == (e1 * e1).scale(2)


@pytest.fixture(scope="module")
def kernel_algebras(hbar_p3, hbar_p5, w2_p3, w2_p5, s2_p3, s2_p5):
    """W_1(2), W_2(1,1), S_2(1,1), H and Hbar at p = 3 and p = 5, and
    S_3(1,1,1) at p = 3."""
    out = []
    for p, w2, s2, hbar in ((3, w2_p3, s2_p3, hbar_p3), (5, w2_p5, s2_p5, hbar_p5)):
        out += [build_w(FieldParams(p, 1, (2,))), w2, s2, hbar.h_subalgebra, hbar]
    return out + [build_s(FieldParams(3, 3, (1, 1, 1)))]


def ad_element(F, element):
    """One kernel pass of ``element``, (index, coefficient) pairs, over F."""
    return symalg._ad_images(F)(element)


@pytest.mark.parametrize("ring", ["modp", "int"])
def test_ad_pass_matches_tuple_key_oracle(kernel_algebras, ring):
    rng = random.Random(37)
    layers = Counter()
    for alg in kernel_algebras:
        for _ in range(3):
            F = random_poly(rng, alg, max_degree=5, nterms=5, ring=ring)
            width = symalg._width(F)
            for idx in range(alg.dim):
                for sign in (1, -1):
                    assert ad_element(F, [(idx, sign)]) == ad_index_oracle(F, idx, sign)
                layers[alg.kind, len(symalg._ad_operator(F, [(idx, 1)], width))] += 1
            # a two-pair element is the sum of its pairs' passes
            i, j = rng.sample(range(alg.dim), 2)
            ci, cj = rng.randrange(1, alg.params.p), -rng.randrange(1, alg.params.p)
            assert ad_element(F, [(i, ci), (j, cj)]) == (
                ad_index_oracle(F, i, ci) + ad_index_oracle(F, j, cj))
    # H and Hbar move each variable to at most one other: one layer per
    # element; W and S rows with two entries make two-layer passes
    assert {n for (kind, n) in layers if kind in ("H", "Hbar")} == {1}
    assert {n for (kind, n) in layers if kind in ("W", "S")} == {1, 2}


@pytest.fixture(scope="module")
def h_algebras(hbar_p5):
    """H_2(1,1) and Hbar_2(1,1) at p = 5 and p = 7."""
    hbar_p7 = build_hbar(FieldParams(7, 2, (1, 1)), verify=False)
    return [hbar_p5.h_subalgebra, hbar_p5, hbar_p7.h_subalgebra, hbar_p7]


def moved(alg, ring, element):
    """The variables whose field the ad pass of ``element`` reads: those
    with a nonzero row in the ring."""
    rows = alg.row_mod if ring == "modp" else alg.row_int
    return {v for v in range(alg.dim) if any(rows(idx, v) for idx, _ in element)}


def fill(rng, width, n):
    """n positive exponents whose sum fills a field of exactly ``width`` bits."""
    degree = rng.randrange(1 << (width - 1), 1 << width)
    cuts = sorted(rng.sample(range(1, degree), n - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [degree])]


@pytest.mark.parametrize("ring", ["modp", "int"])
def test_ad_pass_skips_dead_fields_like_the_oracle(h_algebras, ring):
    # monomials whose top field, bottom field or every field the element does
    # not move, with exponents that fill 3-, 4- and 5-bit fields
    rng = random.Random(53)
    for alg in h_algebras:
        p = alg.params.p
        nonzero = 0
        for idx in range(alg.dim):
            element = [(idx, rng.randrange(1, p))]
            live = sorted(moved(alg, ring, element))
            dead = sorted(set(range(alg.dim)).difference(live))
            if not live or not dead:
                continue
            for width in (3, 4, 5):
                cases = []
                if dead[-1] > live[0]:  # a dead top field over a live one
                    top = rng.choice([v for v in dead if v > live[0]])
                    low = rng.choice([v for v in live if v < top])
                    cases.append((low, top))
                if dead[0] < live[-1]:  # a dead bottom field under a live one
                    bottom = rng.choice([v for v in dead if v < live[-1]])
                    high = rng.choice([v for v in live if v > bottom])
                    cases.append((bottom, high))
                for vs in cases:
                    F = SymPolynomial(alg, ring, {
                        tuple(zip(vs, fill(rng, width, 2))): rng.randrange(1, p)})
                    assert symalg._width(F) == width
                    image = ad_element(F, element)
                    assert image == ad_index_oracle(F, *element[0])
                    # an exponent divisible by p leaves nothing mod p
                    nonzero += bool(image)
                # every field dead: the image is empty
                vs = sorted(rng.sample(dead, min(3, len(dead))))
                F = SymPolynomial(alg, ring, {
                    tuple(zip(vs, fill(rng, width, len(vs)))): 1})
                assert symalg._width(F) == width
                assert ad_element(F, element).is_zero()
                assert ad_index_oracle(F, *element[0]).is_zero()
        assert nonzero >= 2 * alg.dim
        # ad(u_{1,0}) moves no u_{k,0}: it kills their products
        xs = [alg.index[f"u_{{{k},0}}"] for k in range(1, p)]
        F = SymPolynomial(alg, ring, {tuple(zip(xs, fill(rng, 5, p - 1))): 1,
                                      tuple(zip(xs[1:3], fill(rng, 4, 2))): 2})
        assert ad_element(F, [(alg.index["u_{1,0}"], 1)]).is_zero()


@pytest.mark.parametrize("ring", ["modp", "int"])
def test_two_pair_element_reads_the_union_of_live_fields(h_algebras, ring):
    # each pair of the element moves a variable the other does not: the pass
    # must read both fields, with a field neither moves on top
    rng = random.Random(59)
    for alg in h_algebras:
        p = alg.params.p
        found = 0
        for i, j in rng.sample(list(combinations(range(alg.dim), 2)), 60):
            ci, cj = rng.randrange(1, p), -rng.randrange(1, p)
            mi, mj = moved(alg, ring, [(i, ci)]), moved(alg, ring, [(j, cj)])
            both = moved(alg, ring, [(i, ci), (j, cj)])
            only_i, only_j = sorted(mi - mj), sorted(mj - mi)
            dead = sorted(set(range(alg.dim)) - both)
            if not (only_i and only_j and dead):
                continue
            assert both == mi | mj and both > mi and both > mj
            found += 1
            vs = sorted({rng.choice(only_i), rng.choice(only_j), dead[-1]})
            width = rng.choice((3, 4, 5))
            F = SymPolynomial(alg, ring, {
                tuple(zip(vs, fill(rng, width, len(vs)))): rng.randrange(1, p)})
            want = ad_index_oracle(F, i, ci) + ad_index_oracle(F, j, cj)
            assert ad_element(F, [(i, ci), (j, cj)]) == want
        assert found >= 10


@pytest.mark.parametrize("e, width", [(7, 3), (8, 4), (15, 4), (16, 5)])
def test_packed_width_boundaries(hbar_p5, e, width):
    # one variable whose exponent fills its field, next to both neighbours
    for v in (0, 1, hbar_p5.dim // 2, hbar_p5.dim - 1):
        F = SymPolynomial(hbar_p5, "modp", {((v, e),): 1})
        assert symalg._width(F) == width
        for idx in range(hbar_p5.dim):
            assert ad_element(F, [(idx, 1)]) == ad_index_oracle(F, idx)
        i, j = v, hbar_p5.dim - 1 - v
        assert ad_element(F, {i: 2, j: 3}.items()) == (
            ad_index_oracle(F, i, 2) + ad_index_oracle(F, j, 3))
    u = SymPolynomial.variable(hbar_p5, hbar_p5.dim - 1, "int") ** e
    want = u
    for axis, g in enumerate(delta_of(hbar_p5.params)):
        idx, sign = hbar_p5.partial_coords[axis]
        for _ in range(g):
            want = ad_index_oracle(want, idx, sign)
    assert d_delta(u) == want


@pytest.mark.parametrize("p", [5, 7])
def test_unpack_round_trip(p):
    # the top-field-first unpack must give the factors in ascending index
    hbar = build_hbar(FieldParams(p, 2, (1, 1)), verify=False)
    dim = hbar.dim
    rng = random.Random(41 + p)
    for _ in range(200):
        size = rng.randint(1, 4)
        ends = rng.sample([0, dim - 1], rng.randint(0, min(2, size)))
        inner = rng.sample(range(1, dim - 1), size - len(ends))
        mono = tuple((v, rng.choice((1, 7, 8, 15, 16))) for v in sorted(ends + inner))
        # from the narrowest field that holds every exponent up to the degree's
        top = max(e for _, e in mono).bit_length()
        for width in range(top, mono_degree(mono).bit_length() + 1):
            (key, _), = symalg._pack_terms(SymPolynomial(hbar, "int", {mono: 1}), width)
            rows = [([(v, e) for e in range(1 << width)],) for v in range(dim)]
            assert symalg._unpack(key, symalg._fields(width, rows)) == mono


def test_residue_pass_matches_the_oracle_on_cancelling_images(record_p3, results_p5,
                                                              sweep_p7):
    # a record's image cancels term by term, so every partial sum of the pass
    # drops out as it reaches 0 mod p; with one extra monomial a little is left
    records = [record_p3, *(r.record for r in results_p5.values()), *sweep_p7.records]
    assert len(records) == 8
    for rec in records:
        F = rec.invariant
        alg = F.algebra
        degree = F.homogeneous_degree()
        extra = next(SymPolynomial(alg, "modp", {((v, degree),): 1})
                     for v in range(alg.dim) if ((v, degree),) not in F.terms)
        image, image_extra = symalg._ad_images(F), symalg._ad_images(F + extra)
        for idx in (*alg.lie_generators(), alg.index["u_{0,2}"]):
            want = ad_index_oracle(F, idx)
            assert want.is_zero()
            assert image([(idx, 1)]) == want
            # the oracle is linear: the image of F + m is F's plus m's
            assert image_extra([(idx, 1)]) == want + ad_index_oracle(extra, idx)


def test_d_delta_shares_equal_factor_pairs(results_p5):
    # every (index, exponent) pair of the output comes from one unpack table
    F = d_delta(results_p5[6].record.generator)
    first = {}
    for mono in F.terms:
        for pair in mono:
            assert first.setdefault(pair, pair) is pair
    assert len(first) < sum(map(len, F.terms)) / 10


def test_d_delta_bytes_retained_per_term(results_p5):
    # what one stored term of the 708-term p = 5 Delta_6_star holds: its dict
    # entry and monomial tuple, its factor pairs being shared (about 135 bytes
    # on CPython 3.11; about 399 when each factor had a pair of its own)
    generator = results_p5[6].record.generator
    d_delta(generator)  # fills the algebra's row caches
    gc.collect()  # empties the free lists, so every allocation is traced
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        F = d_delta(generator)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(F) == 708
    assert retained / len(F) < 160


class ChargeRecorder:
    def __init__(self):
        self.charged = []

    def charge(self, nterms):
        self.charged.append(nterms)


def test_d_gamma_charges_each_pass(hbar_p5):
    rng = random.Random(43)
    u = SymPolynomial.variable(hbar_p5, hbar_p5.dim - 1)
    for F in [u ** 4, u ** 6] + [random_poly(rng, hbar_p5, 4, 6) for _ in range(3)]:
        for gamma in ((4, 4), (2, 3), (0, 2)):
            clock = ChargeRecorder()
            got = d_gamma(F, gamma, clock)
            want, counts = F, []
            for axis, g in enumerate(gamma):
                for _ in range(g):
                    if want:
                        want = ad_partial(want, axis)
                        counts.append(len(want))
            assert got == want
            assert clock.charged == counts


def test_d_delta_builds_one_operator_per_axis(monkeypatch, results_p5):
    # the chain builds each partial's operator once, at the generator's
    # width, and applies it delta_a times
    F = results_p5[6].record.generator
    alg = F.algebra
    delta = delta_of(alg.params)
    ops, passes = [], []
    build, ad_pass = symalg._ad_operator, symalg._ad_pass

    def building(G, element, width):
        ops.append((list(element), width))
        return build(G, element, width)

    def counted(G, op, *args):
        passes.append(op)
        return ad_pass(G, op, *args)

    monkeypatch.setattr(symalg, "_ad_operator", building)
    monkeypatch.setattr(symalg, "_ad_pass", counted)
    image = d_delta(F)
    assert image == results_p5[6].record.invariant
    assert ops == [([alg.partial_coords[axis]], symalg._width(F))
                   for axis in range(alg.params.n)]
    assert len(passes) == sum(delta)
    # an H partial moves each variable to at most one other: one layer
    assert [len(op) for op in passes] == [1] * sum(delta)


def test_ad_leibniz(hbar_p5):
    rng = random.Random(5)
    for _ in range(15):
        F = random_poly(rng, hbar_p5)
        G = random_poly(rng, hbar_p5)
        b = rng.randrange(hbar_p5.dim)
        lhs = ad_action(b, F * G)
        assert lhs == ad_action(b, F) * G + F * ad_action(b, G)


def test_ad_accepts_derivations(hbar_p3, w2_p3, s2_p3):
    rng = random.Random(7)
    F = random_poly(rng, hbar_p3)
    want = ad_action(3, F) + ad_action(4, F).scale(2)
    assert ad_action({3: 1, 4: 2}, F) == want
    # one pass over the coordinates is the sum of the per-index images, in
    # both rings and for random elements with two or more nonzero coordinates
    for alg in (hbar_p3, w2_p3, s2_p3):
        for ring in ("modp", "int"):
            for _ in range(4):
                coords = {}
                while len(coords) < 2:
                    d = random_derivation(rng, alg)
                    coords = decompose(d, alg)
                F = random_poly(rng, alg, ring=ring)
                want = SymPolynomial.zero(alg, ring)
                for idx, c in coords.items():
                    want = want + ad_action(idx, F).scale(c)
                assert ad_action(coords, F) == want


def test_int_ring_reduces_to_modp(hbar_p3, w2_p3):
    rng = random.Random(9)
    for alg in (hbar_p3, w2_p3):
        for _ in range(10):
            Fi = random_poly(rng, alg, ring="int")
            b = rng.randrange(alg.dim)
            assert ad_action(b, Fi).reduce_mod() == ad_action(b, Fi.reduce_mod())
            assert d_delta(Fi).reduce_mod() == d_delta(Fi.reduce_mod())


def test_d_delta_examples(hbar_p3, record_p3):
    assert d_delta(SymPolynomial.one(hbar_p3)).is_zero()
    u = SymPolynomial.from_label(hbar_p3, "u_{2,2}")
    assert d_delta(u).is_zero()
    got = d_delta(u * u).with_algebra(hbar_p3.h_subalgebra)
    assert got == record_p3.invariant


@pytest.mark.parametrize("gamma", [(-1, 0), (-1, 2), (1,), (0, 1, 0), (1, True),
                                   (1.0, 0), 2])
def test_d_gamma_refuses_a_malformed_gamma(hbar_p3, gamma):
    # gamma is n non-negative ints: a negative entry is no power of ad(d_i),
    # and a short gamma must not be padded nor a long one read past n
    u = SymPolynomial.from_label(hbar_p3, "u_{2,2}")
    with pytest.raises(ParameterError, match="gamma must be 2 non-negative ints"):
        d_gamma(u * u, gamma)


def test_d_delta_order_independent(hbar_p3):
    # apply the same multiset of lowering steps in random order
    rng = random.Random(13)
    delta = delta_of(hbar_p3.params)
    for _ in range(8):
        F = random_poly(rng, hbar_p3)
        steps = [ax for ax in range(2) for _ in range(delta[ax])]
        rng.shuffle(steps)
        G = F
        for ax in steps:
            G = ad_partial(G, ax)
        assert G == d_delta(F)


def test_ad_partial_nilpotent_and_kills_images(hbar_p3):
    rng = random.Random(17)
    p = hbar_p3.params.p
    for _ in range(10):
        F = random_poly(rng, hbar_p3)
        for ax in range(2):
            G = F
            for _ in range(p):
                G = ad_partial(G, ax)
            assert G.is_zero()
            assert ad_partial(d_delta(F), ax).is_zero()
        assert ad_partial(F, -1) == ad_partial(F, 1)
        with pytest.raises(IndexError):
            ad_partial(F, 2)


def test_is_invariant(hbar_p3, record_p3):
    assert is_invariant(SymPolynomial.one(hbar_p3)).is_invariant
    rep = is_invariant(SymPolynomial.from_label(hbar_p3, "u_{1,1}"))
    assert not rep.is_invariant
    idx, img = rep.witness
    assert img and not ad_action(idx, SymPolynomial.from_label(hbar_p3, "u_{1,1}")).is_zero()
    assert is_invariant(record_p3.invariant).is_invariant


def full_scan(F):
    """Oracle: the first basis index, in basis order, with a nonzero ad image."""
    for idx in range(F.algebra.dim):
        img = ad_action(idx, F)
        if img:
            return (idx, img)
    return None


def assert_matches_full_scan(F):
    rep = is_invariant(F)
    want = full_scan(F)
    assert rep.is_invariant == (want is None)
    assert rep.witness == want
    return rep


@pytest.mark.parametrize("fix", ["w1_p3", "w2_p3", "s2_p3", "s2_p5", "hbar_p3",
                                 "hbar_p5"])
def test_is_invariant_matches_full_scan(fix, request):
    alg = request.getfixturevalue(fix)
    rng = random.Random(29)
    witnesses = []
    for _ in range(12):
        F = random_poly(rng, alg, max_degree=3, nterms=5)
        # d^(delta) images pass the grade -1 generators, so their witness
        # often sits below a failing generator
        for G in (F, d_delta(F), d_delta(F * F)):
            rep = assert_matches_full_scan(G)
            if not rep.is_invariant:
                witnesses.append(rep.witness[0])
    gens = set(alg.lie_generators())
    assert any(w not in gens for w in witnesses)


def test_is_invariant_matches_full_scan_on_candidates(hbar_p3, hbar_p5, record_p3,
                                                     results_p5):
    records = [record_p3] + [r.record for r in results_p5.values()]
    for rec in records:
        assert assert_matches_full_scan(rec.invariant).is_invariant
        hbar = hbar_p3 if rec.invariant.algebra.params.p == 3 else hbar_p5
        over_hbar = rec.invariant.with_algebra(hbar)
        assert assert_matches_full_scan(over_hbar).is_invariant
        v = SymPolynomial.variable(hbar, 2)
        assert not assert_matches_full_scan(over_hbar + v * v).is_invariant


def test_is_invariant_passes_per_ring(monkeypatch, hbar_p5, results_p5):
    inv = results_p5[6].record.invariant
    h = inv.algebra
    rng = random.Random(31)
    ints = [random_poly(rng, hbar_p5, ring="int") for _ in range(5)]
    calls = []
    ad_pass = symalg._ad_pass

    def counted(F, op, *args):
        calls.extend(idx for idx, _ in op.element)
        return ad_pass(F, op, *args)

    tag_ad_operators(monkeypatch)
    monkeypatch.setattr(symalg, "_ad_pass", counted)
    assert is_invariant(inv).is_invariant
    assert calls == list(h.lie_generators())
    # invariance is a mod-p statement: the integer ring is refused
    for F in [SymPolynomial.one(h, "int")] + ints:
        with pytest.raises(ParameterError, match="mod-p"):
            is_invariant(F)


def test_is_invariant_checkpoints_each_pass(results_p5):
    inv = results_p5[6].record.invariant
    clock = TripClock()
    assert is_invariant(inv, clock).is_invariant
    assert clock.checkpoints == len(inv.algebra.lie_generators())
    with pytest.raises(BudgetExceededError):
        is_invariant(inv, TripClock(trip=3))


def test_budget_trips_inside_one_long_pass(monkeypatch, hbar_p5):
    # a clock that reads the number of input terms the pass has taken: a
    # deadline passed inside a pass trips it at most one stride later
    h = hbar_p5.h_subalgebra
    F = SymPolynomial(h, "modp", {
        tuple(Counter(mono).items()): 1
        for mono in combinations_with_replacement(range(h.dim), 4)})
    assert len(F) > 3 * symalg._STRIDE
    width = symalg._width(F)
    op = symalg._ad_operator(F, [(h.index["u_{1,0}"], 1)], width)
    assert len(op) == 1
    read = [0]

    def counted():
        for key, c in symalg._pack_terms(F, width):
            read[0] += 1
            yield key, c

    monkeypatch.setattr(errors.time, "monotonic", lambda: read[0])
    want = symalg._ad_pass(F, op, counted())
    for deadline in (0, symalg._STRIDE, symalg._STRIDE + 1, 5000, 9000):
        read[0] = 0
        budget = Budget(max_seconds=deadline)
        with pytest.raises(BudgetExceededError, match="time"):
            symalg._ad_pass(F, op, counted(), budget)
        assert 0 <= read[0] - (deadline + 1) <= symalg._STRIDE
        assert read[0] < len(F)
    # the term count of the image so far is charged at the same checks
    read[0] = 0
    with pytest.raises(BudgetExceededError, match="term budget"):
        symalg._ad_pass(F, op, counted(), Budget(max_terms=100))
    assert read[0] == symalg._STRIDE + 1
    read[0] = 0
    assert symalg._ad_pass(F, op, counted(),
                           Budget(max_terms=len(want), max_seconds=len(F))) == want


def test_multi_layer_pass_checks_the_budget_per_stride_in_each_layer(w2_p3):
    # a two-layer operator walks its input once per layer, and each walk
    # checkpoints and charges the budget every _STRIDE terms
    F = SymPolynomial(w2_p3, "modp", {
        tuple(Counter(mono).items()): 1
        for mono in combinations_with_replacement(range(w2_p3.dim), 5)})
    n = len(F)
    assert n > 3 * symalg._STRIDE
    width = symalg._width(F)
    pairs = symalg._pack_terms(F, width)
    idx = next(i for i in range(w2_p3.dim)
               if len(symalg._ad_operator(F, [(i, 1)], width)) == 2)
    op = symalg._ad_operator(F, [(idx, 1)], width)
    read, log = [0], []

    class Walks:
        def __iter__(self):
            for pair in pairs:
                read[0] += 1
                yield pair

    class Log:
        def checkpoint(self):
            log.append(("checkpoint", read[0]))

        def charge(self, nterms):
            log.append(("charge", read[0]))

    image = symalg._ad_pass(F, op, Walks(), Log())
    assert read[0] == 2 * n
    assert log == [(event, r * n + k * symalg._STRIDE + 1)
                   for r in range(2) for k in range(1, (n - 1) // symalg._STRIDE + 1)
                   for event in ("checkpoint", "charge")]
    assert symalg._unpacked(F, width, image) == ad_index_oracle(F, idx)


def planted(alg, rows):
    """``alg``'s table, unverified, with the row [label, other] replaced by
    ``row`` for each ((label, other), row) of ``rows``; a row is a list of
    (label, coefficient) pairs."""
    table = dict(alg.rows_int)
    for (label, other), row in rows.items():
        i, j = alg.index[label], alg.index[other]
        assert i < j
        table[(i, j)] = tuple((alg.index[k], c) for k, c in row)
    return CartanAlgebra(alg.kind, alg.params, alg.basis, table, verify=False)


def test_checked_d_delta_agrees_with_d_delta_and_is_invariant(hbar_p3, hbar_p5,
                                                              results_p5, w2_p3,
                                                              s2_p5):
    rng = random.Random(47)
    polys = [SymPolynomial.one(hbar_p5.h_subalgebra),
             results_p5[6].record.generator]
    for alg in (hbar_p3, hbar_p3.h_subalgebra, hbar_p5.h_subalgebra, w2_p3, s2_p5):
        polys += [random_poly(rng, alg, max_degree=4, nterms=6) for _ in range(8)]
    # ad(d_2) plus the identity on the x^(a,2) d_1, which ad(d_1) preserves:
    # the partials commute, but D_2^3 is not zero, so the table proves
    # nothing and the direct pass finds the witness
    shifted = planted(w2_p3, {
        ("x^(0,0)d_2", f"x^({a},2)d_1"): [(f"x^({a},2)d_1", 1), (f"x^({a},1)d_1", 1)]
        for a in range(3)})
    # ad(d_2) takes x^(1,2) d_1 to x^(1,1) d_1 + x^(1,0) d_2, which ad(d_1)
    # takes to x^(0,1) d_1 + d_2, while ad(d_1) then ad(d_2) gives x^(0,1) d_1:
    # each D_a^3 is still zero, but the partials do not commute, so D_1^3(F)
    # = 0 while ad(d_1) of the image is not zero
    twisted = planted(w2_p3, {
        ("x^(0,0)d_2", "x^(1,2)d_1"): [("x^(1,1)d_1", 1), ("x^(1,0)d_2", 1)]})
    assert shifted.delta_annihilators() == twisted.delta_annihilators() == set()
    planted_polys = [SymPolynomial.from_label(alg, first)
                     * SymPolynomial.from_label(alg, "x^(2,2)d_1")
                     for alg, first in ((shifted, "x^(2,0)d_2"), (twisted, "x^(2,1)d_1"))]
    for F, gamma, front in zip(planted_polys, ((0, 3), (3, 0)), (True, False)):
        assert bool(d_gamma(F, gamma)) == front
    outcomes = set()
    for F in polys + planted_polys:
        image, rep = symalg.checked_d_delta(F)
        want = d_delta(F)
        assert rep == is_invariant(want)
        assert image == (want if rep.is_invariant else None)
        outcomes.add((rep.is_invariant, bool(want)))
    assert outcomes == {(True, False), (True, True), (False, True)}
    for F, axis in zip(planted_polys, (1, 0)):
        g, witness = symalg.checked_d_delta(F)[1].witness
        assert g == F.algebra.partial_coords[axis][0] and witness
    with pytest.raises(ParameterError, match="mod-p"):
        symalg.checked_d_delta(SymPolynomial.one(hbar_p3, "int"))


def test_check_generator_w(w1_p3):
    zero = SymPolynomial.zero(w1_p3)
    assert check_generator_w(zero).ok
    e1 = SymPolynomial.from_label(w1_p3, "x^(2)d_1")
    assert check_generator_w(e1 * e1).ok
    bad = check_generator_w(e1)
    assert not bad.ok and bad.failures


def test_check_generator_w_rejects_other_kinds(hbar_p3):
    with pytest.raises(ParameterError):
        check_generator_w(SymPolynomial.one(hbar_p3))


@pytest.fixture
def pack_count(monkeypatch):
    """The number of _pack_terms calls made after the fixture is set up."""
    calls = []
    pack = symalg._pack_terms

    def counted(F, width):
        calls.append(len(F))
        return pack(F, width)

    monkeypatch.setattr(symalg, "_pack_terms", counted)
    return calls


def test_generator_criteria_pack_once(results_p5, w2_p3, pack_count):
    # each criterion packs F once for all the basis elements it tests
    inv = results_p5[6].record.invariant
    assert check_generator_sh(inv).ok
    assert pack_count == [len(inv)]
    pack_count.clear()
    e = SymPolynomial.from_label(w2_p3, "x^(2,2)d_1")
    assert not check_generator_w(e).ok
    assert pack_count == [1]


def test_generator_criteria_refuse_the_integer_ring(w1_p3, w2_p3, hbar_p3):
    hbar_21 = build_hbar(FieldParams(3, 2, (2, 1)))
    # over Z, ad(D(1,1)) D(8,2) = -6 D(8,2), which is 0 mod 3
    assert check_generator_sh(SymPolynomial.from_label(hbar_21, "D(8,2)")).ok
    e1 = SymPolynomial.from_label(w1_p3, "x^(2)d_1", "int")
    refused = [(check_generator_sh, SymPolynomial.from_label(hbar_21, "D(8,2)", "int")),
               (check_generator_sh, SymPolynomial.one(hbar_p3, "int")),
               (check_generator_w, e1 * e1),
               (check_generator_w, SymPolynomial.variable(w2_p3, 0, "int"))]
    for check, F in refused:
        with pytest.raises(ParameterError, match="mod-p"):
            check(F)


def test_check_generator_sh(hbar_p3):
    u = SymPolynomial.from_label(hbar_p3, "u_{2,2}")
    assert check_generator_sh(u * u).ok
    assert check_generator_sh(SymPolynomial.zero(hbar_p3)).ok
    bad = check_generator_sh(SymPolynomial.from_label(hbar_p3, "u_{1,1}"))
    assert not bad.ok
    # every failure is a grade >= 0 witness with a nonzero defect
    for desc, defect in bad.failures:
        assert defect


def test_commutation_expansion(hbar_p3, w2_p3):
    rng = random.Random(23)
    d1 = {(0, (0, 0)): 1}
    u = hbar_p3.basis[-1].vector
    zdelta = {(0, (2, 2)): 1}
    for _ in range(5):
        F = random_poly(rng, hbar_p3, max_degree=2, nterms=3)
        assert commutation_expansion_check(d1, F)
        assert commutation_expansion_check(u, F)
        Fw = random_poly(rng, w2_p3, max_degree=2, nterms=3)
        assert commutation_expansion_check(zdelta, Fw)


def test_with_algebra_guard(hbar_p3):
    u2 = SymPolynomial.from_label(hbar_p3, "u_{2,2}") ** 2
    with pytest.raises(ParameterError):
        u2.with_algebra(hbar_p3.h_subalgebra)


def test_homogeneous_degree(hbar_p3):
    u = SymPolynomial.from_label(hbar_p3, "u_{2,2}")
    v = SymPolynomial.from_label(hbar_p3, "u_{1,1}")
    assert (u * u).homogeneous_degree() == 2
    assert (u + u * v).homogeneous_degree() is None
    assert SymPolynomial.zero(hbar_p3).homogeneous_degree() == 0


def test_sorted_terms_is_the_expanded_index_order(hbar_p5, results_p5):
    # by degree, then by the index list with each index repeated by its
    # exponent; exponents at the packed field boundaries included
    def expanded(term):
        return mono_degree(term[0]), [v for v, e in term[0] for _ in range(e)]

    rng = random.Random(53)
    dim = hbar_p5.dim
    polys = [r.record.invariant for r in results_p5.values()]
    for _ in range(20):
        terms = {}
        for _ in range(60):
            size = rng.randint(1, 4)
            mono = tuple((v, rng.choice((1, 2, 7, 8, 15, 16)))
                         for v in sorted(rng.sample([0, 1, dim - 2, dim - 1], size)))
            terms[mono] = 1
        polys.append(SymPolynomial(hbar_p5, "modp", terms))
        polys.append(random_poly(rng, hbar_p5, max_degree=6, nterms=60))
    for F in polys:
        assert F.sorted_terms() == sorted(F.terms.items(), key=expanded)
