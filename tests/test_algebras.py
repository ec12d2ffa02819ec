import hashlib
import random
import re
import tracemalloc

import pytest

from conftest import TripClock, dp_add, dp_apply, dp_partial, random_derivation, vec_sum
from cartaninv import algebras
from cartaninv.algebras import (
    CartanAlgebra,
    bracket,
    build_h,
    build_hbar,
    build_s,
    build_w,
    decompose,
    derivation_bracket,
    filtration_basis,
)
from cartaninv.errors import (
    UNLIMITED,
    BudgetExceededError,
    ClosureError,
    NotInSpanError,
    ParameterError,
)
from cartaninv.modular import FieldParams, delta_of, dp_basis
from cartaninv.pipeline import lambda_of_variable
from cartaninv.serialize import dumps_canonical, sc_document


def test_kind_constraints():
    with pytest.raises(ParameterError):
        build_s(FieldParams(3, 1, (1,)))
    with pytest.raises(ParameterError):
        build_h(FieldParams(3, 3, (1, 1, 1)))
    for builder in (build_h, build_hbar):
        with pytest.raises(ParameterError, match="odd prime"):
            builder(FieldParams(2, 2, (1, 1)))


def test_w_and_s_build_at_p2():
    # only the Hamiltonian kinds need an odd prime
    assert build_w(FieldParams(2, 1, (1,))).dim == 2
    assert build_w(FieldParams(2, 2, (1, 1))).dim == 8
    assert build_s(FieldParams(2, 2, (1, 1))).dim == 3
    assert build_s(FieldParams(2, 2, (2, 1))).dim == 7


def test_w1_structure(w1_p3):
    assert w1_p3.dim == 3
    assert [b.label for b in w1_p3.basis] == ["x^(0)d_1", "x^(1)d_1", "x^(2)d_1"]
    assert w1_p3.grades == (-1, 0, 1)
    # the full bracket table, frozen: the pairs i < j only
    assert w1_p3.rows_int == {
        (0, 1): ((0, 1),),
        (0, 2): ((1, 1),),
        (1, 2): ((2, 1),),
    }
    # ad-nilpotency of the grade +-1 elements
    for idx in (0, 2):
        for j in range(3):
            cur = {j: 1}
            for _ in range(3):
                nxt = {}
                for k, c in cur.items():
                    for t, rc in w1_p3.row_mod(idx, k):
                        nxt[t] = (nxt.get(t, 0) + c * rc) % 3
                cur = {k: c for k, c in nxt.items() if c}
            assert cur == {}


def test_dimensions(w2_p3, w2_p5, s2_p3, s2_p5, hbar_p3, hbar_p5):
    assert w2_p3.dim == 2 * 9
    assert w2_p5.dim == 2 * 25
    assert build_w(FieldParams(3, 1, (2,))).dim == 9
    assert hbar_p3.h_subalgebra.dim == 7 and hbar_p3.dim == 8
    assert hbar_p5.h_subalgebra.dim == 23 and hbar_p5.dim == 24
    assert s2_p3.dim == 8 and s2_p5.dim == 24
    # S_3 basis size found by the rank filtering, frozen as a regression value
    assert build_s(FieldParams(3, 3, (1, 1, 1))).dim == 52


def test_h_basis_labels(hbar_p3):
    h = hbar_p3.h_subalgebra
    assert [b.label for b in h.basis] == [
        "u_{0,1}", "u_{1,0}", "u_{0,2}", "u_{1,1}", "u_{2,0}", "u_{1,2}", "u_{2,1}",
    ]
    assert hbar_p3.basis[-1].label == "u_{2,2}" and hbar_p3.basis[-1].grade == 2


def test_hbar_p5_top(hbar_p5):
    assert hbar_p5.basis[-1].label == "u_{4,4}"
    assert hbar_p5.basis[-1].grade == 6 and hbar_p5.r == 6


def test_bracket_examples(w2_p3, hbar_p3):
    params = w2_p3.params
    d1, d2 = {(0, (0, 0)): 1}, {(1, (0, 0)): 1}
    assert derivation_bracket(d1, d2, params) == {}
    assert derivation_bracket(d1, {(0, (2, 0)): 1}, params) == {(0, (1, 0)): 1}
    # [D((1,1)), D((2,0))] is a scalar multiple of D((2,0)): here -2 u_{2,0}
    i, j = hbar_p3.index["u_{1,1}"], hbar_p3.index["u_{2,0}"]
    assert hbar_p3.row_int(i, j) == ((hbar_p3.index["u_{2,0}"], -2),)
    br = derivation_bracket(hbar_p3.basis[i].vector, hbar_p3.basis[j].vector, params)
    assert decompose(br, hbar_p3) == {hbar_p3.index["u_{2,0}"]: 1}


def _random_field(rng, params):
    """A derivation vector with random divided-power coefficients on every axis."""
    monos = dp_basis(params)
    return {(ax, rng.choice(monos)): rng.randrange(1, params.p)
            for ax in range(params.n) for _ in range(rng.randint(1, 4))}


def test_bracket_is_the_operator_commutator():
    # oracle: apply both compositions to every monomial of the divided algebra;
    # heights above 1 are where the binomials mod p matter
    rng = random.Random(23)
    for kind, p, m in [("W", 3, (1, 1)), ("W", 3, (2,)), ("S", 5, (1, 1)),
                       ("Hbar", 5, (1, 1)), ("H", 3, (2, 1)), ("W", 101, (1,))]:
        params = FieldParams(p, len(m), m)
        # unverified: the closure check calls ``bracket`` too, and the oracle
        # alone must catch a wrong rule
        alg = algebras.build(kind, params, verify=False)
        for trial in range(10):
            d1, d2 = _random_field(rng, params), _random_field(rng, params)
            if trial % 2:
                d1 = vec_sum(p, (1, d1), (1, random_derivation(rng, alg)))
            br = derivation_bracket(d1, d2, params)
            for alpha in dp_basis(params):
                f = {alpha: 1}
                want = dp_add(params, (1, dp_apply(params, d1, dp_apply(params, d2, f))),
                              (-1, dp_apply(params, d2, dp_apply(params, d1, f))))
                assert dp_apply(params, br, f) == want, (kind, p, m, d1, d2, alpha)


@pytest.mark.parametrize("p, m", [(3, (1, 1)), (3, (2,)), (5, (2, 1)), (101, (1,))])
def test_packed_truncation_bounds(p, m):
    # mirrors test_mi_add_bounds on the build's packed frame, at delta_t = 2,
    # 8, 24 and 100: [x^(e_1) d_1, x^(delta) d_1] has its one term exactly at
    # delta, (delta_1 - 1) x^(delta) d_1, and it is kept; one more in any
    # field of the first alpha puts both products past delta, and they drop
    params = FieldParams(p, len(m), m)
    delta = delta_of(params)
    frame = algebras._Frame(params)
    unit = [tuple(int(t == s) for t in range(len(m))) for s in range(len(m))]
    top = {(0, delta): 1}
    assert derivation_bracket({(0, unit[0]): 1}, top, params) == {(0, delta): p - 2}
    for s in range(len(m)):
        past = tuple(x + y for x, y in zip(unit[0], unit[s]))
        assert derivation_bracket({(0, past): 1}, top, params) == {}
    # the pair walk's bound: a floor sum of delta_t + 1 is alive, delta_t + 2 not
    for s in range(len(m)):
        one, two = unit[s], tuple(2 * x for x in unit[s])
        walk = list(algebras._pairs([delta, one, two], frame, UNLIMITED))
        assert walk == [(0, 1, True), (0, 2, False), (1, 2, True)]


def test_antisymmetry(hbar_p5):
    rng = random.Random(29)
    for _ in range(10):
        d = random_derivation(rng, hbar_p5)
        assert derivation_bracket(d, d, hbar_p5.params) == {}


@pytest.mark.parametrize("fix", ["w2_p3", "hbar_p5", "s2_p3"])
def test_grading_compatible(fix, request):
    alg = request.getfixturevalue(fix)
    p = alg.params.p
    for (i, j), row in alg.rows_int.items():
        for k, c in row:
            if c % p:
                assert alg.grades[k] == alg.grades[i] + alg.grades[j]


def test_jacobi_small(w1_p3, hbar_p3):
    for alg in (w1_p3, hbar_p3):
        p = alg.params.p
        for i in range(alg.dim):
            for j in range(alg.dim):
                for k in range(alg.dim):
                    acc = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for t, cc in alg.row_mod(b, c):
                            for s, dd in alg.row_mod(a, t):
                                acc[s] = (acc.get(s, 0) + cc * dd) % p
                    assert not any(acc.values()), (i, j, k)


def test_decompose(w2_p3, hbar_p3, s2_p3):
    # nonzero coordinates only, in ascending index order
    assert decompose({(0, (0, 0)): 1}, w2_p3) == {w2_p3.index["x^(0,0)d_1"]: 1}
    assert decompose({}, hbar_p3) == {}
    assert decompose({}, w2_p3) == {}
    d = vec_sum(3, (1, hbar_p3.basis[5].vector), (2, hbar_p3.basis[2].vector))
    assert list(decompose(d, hbar_p3).items()) == [(2, 2), (5, 1)]
    # random bracket rows agree with decompose (self-consistency)
    rng = random.Random(31)
    for _ in range(10):
        i, j = rng.randrange(s2_p3.dim), rng.randrange(s2_p3.dim)
        if i == j:
            continue
        br = derivation_bracket(s2_p3.basis[i].vector, s2_p3.basis[j].vector, s2_p3.params)
        assert decompose(br, s2_p3) == dict(s2_p3.row_mod(i, j))
    # x^(delta) d_1 has divergence x^(delta - e_1) != 0: not in the S span
    with pytest.raises(NotInSpanError):
        decompose({(0, (2, 2)): 1}, s2_p3)
    # a vector carries no parameters: keys outside W_2(1,1) at p = 3 (alpha past
    # delta, an axis >= n, an alpha of the wrong length) lie outside its span
    for key in [(0, (3, 0)), (2, (0, 0)), (0, (0, 0, 0))]:
        with pytest.raises(NotInSpanError):
            decompose({key: 1}, w2_p3)


@pytest.mark.parametrize("p, n, m", [(3, 1, (2,)), (5, 1, (2,)),
                                     (3, 2, (1, 1)), (5, 2, (1, 1))])
def test_decompose_w_gives_monomial_coordinates(p, n, m):
    alg = build_w(FieldParams(p, n, m))

    def label_coords(d):
        # the W basis is the monomial coordinate system: look each term up
        return {alg.index["x^(%s)d_%d" % (",".join(map(str, alpha)), ax + 1)]: c
                for (ax, alpha), c in d.items()}

    for b in alg.basis:
        assert decompose(b.vector, alg) == label_coords(b.vector)
    rng = random.Random(p * 10 + n)
    monos = dp_basis(alg.params)
    for _ in range(20):
        d = {(ax, a): rng.randrange(p) for ax in range(n)
             for a in rng.sample(monos, rng.randint(0, len(monos)))}
        d = {k: c for k, c in d.items() if c}
        assert decompose(d, alg) == label_coords(d)
        d = random_derivation(rng, alg)
        assert decompose(d, alg) == label_coords(d)


def test_partial_coords(hbar_p3, s2_p3, w2_p3):
    # d_1 = -u_{0,1}, d_2 = +u_{1,0} under the standard sign convention
    assert hbar_p3.partial_coords == ((0, -1), (1, 1))
    for alg in (hbar_p3, s2_p3, w2_p3):
        for ax, (idx, sign) in enumerate(alg.partial_coords):
            got = vec_sum(alg.params.p, (sign, alg.basis[idx].vector))
            assert got == {(ax, (0,) * alg.params.n): 1}


def test_filtration(hbar_p3):
    assert filtration_basis(hbar_p3, -1) == list(range(hbar_p3.dim))
    top = filtration_basis(hbar_p3, hbar_p3.r)
    assert [hbar_p3.basis[k].label for k in top] == ["u_{2,2}"]
    assert filtration_basis(hbar_p3, hbar_p3.r + 1) == []
    with pytest.raises(ValueError):
        filtration_basis(hbar_p3, hbar_p3.r + 2)
    with pytest.raises(ValueError):
        filtration_basis(hbar_p3, -2)


def test_divided_basis_for_general_m():
    alg = build_h(FieldParams(3, 2, (1, 2)))
    assert alg.dim == 27 - 2
    assert "basis=divided" in alg.sign_tag
    assert alg.basis[0].label == "D(0,1)"
    assert alg.r == max(alg.grades)


def _first_row(alg):
    return next((i, j) for i in range(alg.dim) for j in range(i + 1, alg.dim)
                if alg.row_mod(i, j))


def _bumped(alg):
    """(a) one stored integer coefficient changed by +1."""
    i, j = _first_row(alg)
    (k, c), *rest = alg.rows_int[(i, j)]
    rows = dict(alg.rows_int)
    rows[(i, j)] = ((k, c + 1), *rest)
    return alg.basis, rows


def _row_removed(alg):
    """(b) one nonzero row (i, j) removed."""
    rows = dict(alg.rows_int)
    del rows[_first_row(alg)]
    return alg.basis, rows


def _element_removed(alg):
    """(c) the first grade-0 element removed and its rows dropped."""
    r = alg.grades.index(0)
    new = {old: k for k, old in enumerate(i for i in range(alg.dim) if i != r)}
    rows = {}
    for (i, j), row in alg.rows_int.items():
        kept = tuple((new[k], c) for k, c in row if k != r)
        if r not in (i, j) and kept:
            rows[(new[i], new[j])] = kept
    return [b for i, b in enumerate(alg.basis) if i != r], rows


@pytest.mark.parametrize("key, row", [
    pytest.param((1, 0), ((0, 0),), id="corrupt-mirror"),
    pytest.param((1, 0), ((0, -1),), id="true-mirror"),
    pytest.param((1, 1), ((1, 1),), id="diagonal")])
def test_table_holds_only_the_pairs_i_below_j(w1_p3, key, row):
    # row_int alone applies [b_j, b_i] = -[b_i, b_j], so the closure check of
    # the pairs i < j covers every row; a stored (j, i) or (i, i) is refused,
    # even a true mirror and even unverified.  The corrupt mirror would give
    # ad(x^(1)d_1) x^(0)d_1 = 0 instead of 2*x^(0)d_1.
    rows = dict(w1_p3.rows_int)
    rows[key] = row
    for verify in (True, False):
        with pytest.raises(ClosureError, match="i >= j"):
            CartanAlgebra("W", w1_p3.params, w1_p3.basis, rows, verify=verify)


@pytest.mark.parametrize("kind, p, m", [
    ("W", 3, (2,)), ("W", 3, (1, 1)), ("S", 3, (1, 1)), ("S", 3, (1, 1, 1)),
    ("H", 3, (1, 1)), ("Hbar", 3, (1, 1)), ("H", 5, (1, 1)), ("Hbar", 5, (1, 1))])
def test_rows_are_antisymmetric(kind, p, m):
    # [b_j, b_i] = -[b_i, b_j] over Z as well as mod p, for every kind of table
    alg = algebras.build(kind, FieldParams(p, len(m), m))
    for i in range(alg.dim):
        assert alg.row_int(i, i) == () and alg.row_mod(i, i) == ()
        for j in range(i + 1, alg.dim):
            assert alg.row_int(j, i) == tuple((k, -c) for k, c in alg.row_int(i, j))
            assert alg.row_mod(j, i) == tuple((k, -c % p) for k, c in alg.row_mod(i, j))


def test_closure_verification_catches_corruption(w1_p3):
    rows = dict(w1_p3.rows_int)
    rows[(0, 1)] = ((1, 1),)  # wrong: [d, xd] = d, not xd
    with pytest.raises(ClosureError, match="disagree"):
        CartanAlgebra("W", w1_p3.params, w1_p3.basis, rows)
    for kind, p in [("W", 3), ("S", 5), ("H", 5), ("Hbar", 5)]:
        alg = algebras.build(kind, FieldParams(p, 2, (1, 1)))
        for corrupt, message in [(_bumped, "disagree"), (_row_removed, "disagree"),
                                 (_element_removed, "left the")]:
            basis, rows = corrupt(alg)
            with pytest.raises(ClosureError, match=message):
                CartanAlgebra(kind, alg.params, basis, rows)


@pytest.mark.parametrize("kind, p, n, label", [
    ("W", 3, 1, "x^(1)d_1"), ("Hbar", 5, 2, "u_{4,4}"), ("H", 5, 2, "u_{0,3}"),
    ("S", 3, 3, "D_{1,2}(0,1,2)")])
def test_closure_check_names_a_planted_grade(monkeypatch, kind, p, n, label):
    # the grade of one basis element is raised as the algebra is built; the
    # check compares each grade with its derivation and names that element,
    # where a scan of the rows would blame a pair (H is checked as Hbar's
    # subalgebra, so Hbar's check names it)
    honest = CartanAlgebra.__init__

    def raised(self, kind, params, basis, rows_int, *args, **kwargs):
        basis = [b._replace(grade=b.grade + 1) if b.label == label else b
                 for b in basis]
        honest(self, kind, params, basis, rows_int, *args, **kwargs)

    monkeypatch.setattr(CartanAlgebra, "__init__", raised)
    message = f"grade of {label} does not match its derivation"
    with pytest.raises(ClosureError, match=re.escape(message)):
        algebras.build(kind, FieldParams(p, n, (1,) * n))


# S_3(1,1,1) stops at p = 5: at p = 7 its table alone is 233,586 solved brackets
@pytest.mark.parametrize("kind, p, m", [
    (kind, p, m) for kind, m in [("W", (2,)), ("W", (1, 1)), ("S", (1, 1)),
                                 ("S", (1, 1, 1)), ("H", (1, 1)), ("Hbar", (1, 1))]
    for p in (3, 5, 7) if (kind, m, p) != ("S", (1, 1, 1), 7)])
def test_closure_skips_only_pairs_whose_bracket_is_zero(monkeypatch, kind, p, m):
    # every pair the closure check does not bracket must bracket to 0, hold no
    # row, and be checked all the same: a row planted on it is refused
    alg = algebras.build(kind, FieldParams(p, len(m), m), verify=False)
    # the check brackets packed vectors: unpacked, each is one basis vector
    index = {frozenset(b.vector.items()): k for k, b in enumerate(alg.basis)}
    called = set()

    def recorded(u, v, frame):
        called.add(tuple(index[frozenset(frame.unpack(w).items())] for w in (u, v)))
        return bracket(u, v, frame)

    monkeypatch.setattr(algebras, "bracket", recorded)
    alg._verify_closure()
    skipped = [(i, j) for i in range(alg.dim) for j in range(i + 1, alg.dim)
               if (i, j) not in called]
    assert len(called) + len(skipped) == alg.dim * (alg.dim - 1) // 2
    for i, j in skipped:
        assert derivation_bracket(alg.basis[i].vector, alg.basis[j].vector, alg.params) == {}
        assert (i, j) not in alg.rows_int
    # none is skipped in the p = 3 tables of H_2(1,1), Hbar_2(1,1) and S_2(1,1)
    assert skipped or (p, m) == (3, (1, 1)) and kind != "W"
    for i, j in skipped[:1]:
        for planted in (1, p + 1):
            rows = dict(alg.rows_int)
            rows[(i, j)] = ((0, planted),)
            with pytest.raises(ClosureError, match="disagree"):
                CartanAlgebra(kind, alg.params, alg.basis, rows)


def test_build_hbar_checks_closure_once(monkeypatch, params3):
    checked = []
    verify = CartanAlgebra._verify_closure

    def counted(self, *args):
        checked.append(self.kind)
        return verify(self, *args)

    monkeypatch.setattr(CartanAlgebra, "_verify_closure", counted)
    build_hbar(params3)
    assert checked == ["Hbar"]
    build_h(params3)  # H is Hbar's subalgebra, covered by Hbar's check
    assert checked == ["Hbar", "Hbar"]


@pytest.mark.parametrize("kind, p, n, rows", [("W", 3, 2, 1), ("S", 5, 2, 1),
                                              ("S", 3, 3, 2), ("H", 5, 2, 1),
                                              ("Hbar", 5, 2, 1)])
def test_build_checkpoints_once_per_row(kind, p, n, rows):
    # one checkpoint per multi-index of the basis walk and per row i of the
    # closed-form table, of the closure check and, for S at n >= 3, of
    # build_s's own bracket table, never one per pair (i, j); ``rows`` counts
    # the passes over the algebra's own basis, and H's closure check walks
    # Hbar's rows, one more than H's
    params = FieldParams(p, n, (1,) * n)
    table = _table_rows(kind, params)
    clock = TripClock()
    alg = algebras.build(kind, params, budget=clock)
    assert clock.checkpoints == table + rows * alg.dim + (kind == "H")
    for trip in (1, clock.checkpoints):
        with pytest.raises(BudgetExceededError) as exc:
            algebras.build(kind, params, budget=TripClock(trip))
        names = [entry.name for entry in exc.traceback]
        assert ("_verify_closure" in names) == (trip > table + (rows - 1) * alg.dim)
    clock = TripClock()
    algebras.build(kind, params, verify=False, budget=clock)
    assert clock.checkpoints == table + (rows - 1) * alg.dim


def _table_rows(kind, params):
    """Checkpoints before the closure check, S's own table at n >= 3 aside:
    one per multi-index of the basis walk, then one per W basis key; one per
    alpha of Hbar's table for H, Hbar and S at n = 2, and for H and Hbar one
    more per row of H that _h_from_hbar walks."""
    monos = len(dp_basis(params))
    if kind == "S" and params.n > 2:
        return monos
    if kind == "W":
        return monos + monos * params.n
    return monos + (monos - 1 if kind == "S" else (monos - 1) + (monos - 2))


@pytest.mark.parametrize("kind, n, table", [
    ("W", 2, "build_w"), ("S", 2, "_build_hamiltonian"), ("S", 3, "build_s"),
    ("H", 2, "_build_hamiltonian"), ("Hbar", 2, "_build_hamiltonian"),
    ("H", 2, "_h_from_hbar"), ("Hbar", 2, "_h_from_hbar")])
def test_budget_trips_inside_the_structure_table(kind, n, table):
    # the first and the last row of each table the build walks trip inside
    # it, after the basis walk and before the closure check has begun; H and
    # Hbar walk Hbar's table, then the rows of H in _h_from_hbar (build_hbar
    # builds that H unverified, under its own budget)
    params = FieldParams(3, n, (1,) * n)
    clock = TripClock()
    algebras.build(kind, params, verify=False, budget=clock)
    monos = len(dp_basis(params))
    first, last = monos + 1, clock.checkpoints
    if kind in ("H", "Hbar"):
        ham = monos + monos - 1
        first, last = (first, ham) if table == "_build_hamiltonian" else (ham + 1, last)
    # every table checkpoints inside the one pair walk of _table
    walk = [table, "_table", "_pairs"]
    for trip in (first, last):
        with pytest.raises(BudgetExceededError) as exc:
            algebras.build(kind, params, budget=TripClock(trip))
        names = [entry.name for entry in exc.traceback]
        assert names[-1 - len(walk):-1] == walk
        assert "_verify_closure" not in names


@pytest.mark.parametrize("kind, n, p", [("W", 2, 101), ("S", 2, 101), ("S", 3, 7),
                                        ("H", 2, 101), ("Hbar", 2, 101)])
def test_budget_trips_inside_the_basis_walk(kind, n, p):
    # the clock is read once per multi-index while the basis is made, so a
    # spent budget trips at the first one, before any table row: at p = 101
    # making Hbar's basis fields alone takes about a tenth of a second
    with pytest.raises(BudgetExceededError) as exc:
        algebras.build(kind, FieldParams(p, n, (1,) * n), budget=TripClock(1))
    names = [entry.name for entry in exc.traceback]
    assert names[-2:] == ["_alphas", "checkpoint"]
    assert "_pairs" not in names


def test_basis_walk_is_lazy_and_keeps_nothing():
    # the first multi-index is made before the first checkpoint, not the
    # 167,281 of p = 409, and no basis list outlives its call
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as exc:
            build_hbar(FieldParams(409, 2, (1, 1)), budget=TripClock(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [entry.name for entry in exc.traceback][-2:] == ["_alphas", "checkpoint"]
    assert peak < 1 << 20
    assert not hasattr(dp_basis, "cache_info")


@pytest.mark.parametrize("p, n, m", [(3, 2, (1, 1)), (5, 2, (1, 1)), (7, 2, (1, 1)),
                                     (3, 2, (2, 1)), (3, 4, (1, 1, 1, 1))])
def test_h_is_hbar_without_its_top_element(p, n, m):
    params = FieldParams(p, n, m)
    h = build_h(params)  # under Hbar's closure check
    sub = build_hbar(params, verify=False).h_subalgebra
    assert h == sub
    assert h.rows_int == sub.rows_int
    assert h.grades == sub.grades
    assert ([lambda_of_variable(h, i) for i in range(h.dim)]
            == [lambda_of_variable(sub, i) for i in range(sub.dim)])


def test_build_hbar_builds_the_tables_once(monkeypatch, params3):
    calls = []
    honest = algebras._build_hamiltonian

    def counted(params, scaled, budget):
        calls.append(params)
        return honest(params, scaled, budget)

    monkeypatch.setattr(algebras, "_build_hamiltonian", counted)
    hbar = build_hbar(params3)
    assert calls == [params3]
    # H's rows are taken from Hbar's, not compared with them
    assert hbar.h_subalgebra._mod_rows == {}


@pytest.mark.parametrize("top_coeff, rejected", [
    pytest.param(1, True, id="nonzero"), pytest.param(3, False, id="zero-mod-p")])
def test_top_coefficient_on_an_h_pair_must_vanish_mod_p(monkeypatch, params3,
                                                        top_coeff, rejected):
    honest = algebras._build_hamiltonian

    def tampered(params, scaled, budget):
        basis, rows = honest(params, scaled, budget)
        top = len(basis) - 1
        i, j = next(ij for ij, row in sorted(rows.items())
                    if top not in ij and all(k != top for k, _ in row))
        rows = dict(rows)
        rows[(i, j)] += ((top, top_coeff),)
        return basis, rows

    want = build_h(params3, verify=False)
    monkeypatch.setattr(algebras, "_build_hamiltonian", tampered)
    for builder in (build_h, build_hbar):
        if rejected:
            with pytest.raises(ClosureError, match="top coefficient"):
                builder(params3)
        else:
            built = builder(params3)
            assert (built if builder is build_h else built.h_subalgebra) == want


def test_equality_and_cache_roundtrip(hbar_p3):
    other = build_hbar(hbar_p3.params)
    assert other == hbar_p3
    assert other != hbar_p3.h_subalgebra


def _generated_dim(alg, gens):
    """Oracle: dimension of the subalgebra generated by the basis elements
    ``gens``, from honest derivation brackets and a rank count over F_p."""
    p = alg.params.p
    pivots = {}  # pivot column -> reduced row with unit pivot

    def insert(coords):
        vec = [coords.get(k, 0) % p for k in range(alg.dim)]
        for col, row in pivots.items():
            if vec[col]:
                f = vec[col]
                vec = [(x - f * y) % p for x, y in zip(vec, row)]
        col = next((c for c, x in enumerate(vec) if x), None)
        if col is None:
            return False
        inv = pow(vec[col], p - 2, p)
        row = [x * inv % p for x in vec]
        for c, other in pivots.items():
            if other[col]:
                f = other[col]
                pivots[c] = [(x - f * y) % p for x, y in zip(other, row)]
        pivots[col] = row
        return True

    elems = [alg.basis[g].vector for g in gens]
    span = [d for d in elems if insert(decompose(d, alg))]
    fresh = list(span)
    while fresh:
        new = []
        for x in fresh:
            for g in elems:
                br = derivation_bracket(g, x, alg.params)
                if insert(decompose(br, alg)):
                    new.append(br)
        fresh = new
    return len(pivots)


@pytest.mark.parametrize("fix", ["w1_p3", "w2_p3", "s2_p3", "s2_p5", "hbar_p3",
                                 "hbar_p5", "h_p3", "h_p5"])
def test_lie_generators_generate(fix, request):
    if fix.startswith("h_"):
        alg = request.getfixturevalue("hbar" + fix[1:]).h_subalgebra
    else:
        alg = request.getfixturevalue(fix)
    gens = alg.lie_generators()
    assert list(gens) == sorted(set(gens))
    assert _generated_dim(alg, gens) == alg.dim


def generator_labels(alg):
    return [alg.basis[g].label for g in alg.lie_generators()]


@pytest.mark.parametrize("p", [5, 7])
def test_lie_generators_of_h(p):
    # the whole grade -1 part, then the highest index outside the closure
    hbar = build_hbar(FieldParams(p, 2, (1, 1)), verify=False)
    h = hbar.h_subalgebra
    assert generator_labels(h) == [
        "u_{0,1}", "u_{1,0}", f"u_{{{p - 1},{p - 2}}}"]
    assert generator_labels(hbar) == [
        "u_{0,1}", "u_{1,0}", f"u_{{{p - 1},{p - 1}}}"]
    for alg in (h, hbar):
        assert _generated_dim(alg, alg.lie_generators()) == alg.dim


def test_lie_generators_top_down(w2_p5, s2_p5, hbar_p3):
    assert generator_labels(w2_p5) == [
        "x^(0,0)d_1", "x^(0,0)d_2", "x^(4,4)d_1", "x^(4,4)d_2"]
    assert generator_labels(s2_p5) == ["D_{1,2}(0,1)", "D_{1,2}(1,0)", "D_{1,2}(4,4)"]
    # at p = 3 the top element u_{2,1} leaves u_{1,2} outside the closure
    h = hbar_p3.h_subalgebra
    assert generator_labels(h) == ["u_{0,1}", "u_{1,0}", "u_{1,2}", "u_{2,1}"]
    for alg in (w2_p5, s2_p5, h):
        assert _generated_dim(alg, alg.lie_generators()) == alg.dim


# W_3(1,1,1) and S_3(1,1,1) at p = 7 are left out: their unverified builds
# alone take about 2 s each
GENERATOR_ALGEBRAS = [
    (kind, p, m)
    for p in (3, 5, 7)
    for kind, m in [("W", (1,)), ("W", (2,)), ("W", (1, 1)), ("W", (1, 1, 1)),
                    ("S", (1, 1)), ("S", (1, 1, 1)), ("H", (1, 1)), ("Hbar", (1, 1))]
    if not (p == 7 and len(m) == 3)
] + [("H", 3, (2, 1))]


@pytest.mark.parametrize("kind, p, m", GENERATOR_ALGEBRAS)
def test_lie_generators_keep_one_grade_minus_one_element(kind, p, m):
    # the set holds the whole grade -1 part, which is exactly the partials
    # whose passes the table proves zero on every d^(delta) image
    alg = algebras.build(kind, FieldParams(p, len(m), m), verify=False)
    gens = alg.lie_generators()
    minus_one = {i for i, g in enumerate(alg.grades) if g == -1}
    assert minus_one <= set(gens)
    assert alg._bracket_closure(gens).rank == alg.dim
    assert alg.delta_annihilators() == minus_one


def test_lie_generators_lazy_and_cached(monkeypatch):
    calls = []
    closure = CartanAlgebra._bracket_closure

    def counted(self, gens):
        calls.append(tuple(gens))
        return closure(self, gens)

    monkeypatch.setattr(CartanAlgebra, "_bracket_closure", counted)
    alg = build_s(FieldParams(3, 2, (1, 1)))
    assert calls == []  # not computed at build time
    first = alg.lie_generators()
    made = len(calls)
    assert made >= 1
    assert alg.lie_generators() is first and len(calls) == made


@pytest.mark.parametrize("p, m", [(2, (1, 1)), (3, (2, 1)), (5, (1, 1))])
def test_s2_is_the_divided_hamiltonian_table(p, m):
    params = FieldParams(p, 2, m)
    s = build_s(params)  # with S's own closure check
    _, rows = algebras._build_hamiltonian(params, scaled=False)
    assert s.rows_int == rows
    alphas = [a for a in dp_basis(params) if any(a)]  # the top element included
    assert [b.label for b in s.basis] == [
        "D_{1,2}(%s)" % ",".join(map(str, a)) for a in alphas]
    for b, a in zip(s.basis, alphas):
        # the special field D_{1,2}(a) = d_1(x^(a)) d_2 - d_2(x^(a)) d_1
        f = {a: 1}
        want = {(1, g): c for g, c in dp_partial(params, f, 0).items()}
        want.update({(0, g): -c % p for g, c in dp_partial(params, f, 1).items()})
        assert b.vector == want
        assert b.grade == sum(a) - 2


# SHA-256 of dumps_canonical(sc_document(...)), frozen: each kind's table stays
# byte for byte whatever builds it
@pytest.mark.parametrize("kind, p, m, sha", [
    ("W", 2, (1,), "12305c67e2a78cbbf94fdbbd02ef5c812c7959e6761ec9a295f151bb0220b843"),
    ("W", 3, (2,), "6f6686f0fac652ce742268f44be0844a89ddfa6c228ca4005395ad444422b670"),
    ("W", 3, (1, 1), "12da691535921dbc3e611b66b8662fc5c0f5856f914147c68e7d01d9d2f4e6b2"),
    ("S", 2, (1, 1), "5f160e9e7437bf4cb8272e7dd42274c9336271f298adb8ff8ceb61f7911cd2b4"),
    ("S", 2, (2, 1), "06211b77186e1bb8f46ae6481c5e137fe2d231a684c7b6cebf732f77d97ebb32"),
    ("S", 3, (1, 1), "5f84d5ccb684dcec7c1b8f7c724e04b1495afaf42342f2b82a8029fea5bd9085"),
    ("S", 3, (2, 1), "7c9f468f184f3c990deedf5d314008bdce785be3c48f36a3cc16fecf7fd8dda7"),
    ("S", 5, (1, 1), "3e12596973b0931941b984757a300b40e386e9f35127c7607bf9146e195462ae"),
    ("S", 3, (1, 1, 1), "5c0c090b92b140a7f4585224016e217ca427cfb0381ff61c08ed41631a41eba3"),
    ("H", 3, (1, 1), "23dbcf24aee44fa4f5a4f432c0a0cf602a409ecb4ee8a280eb0c84bf74788965"),
    ("H", 5, (1, 1), "525a7f316c04f015aed389717764539e610efbb2efc1c36d0c160af251b97566"),
    ("H", 3, (2, 1), "39f67344b962393f21a0dfee29be523595710d6fd1bcc28d835d2bda4e23f91c"),
    ("H", 3, (1, 1, 1, 1),
     "c3dda3a39d0685c40d594887b898d87a0771147f689e7cb60bb2a72020821ef2"),
    ("Hbar", 3, (1, 1), "1f7419c975072cdc9a3747450d40f88536ce869113f8c9f06d10227510fa23b6"),
    ("Hbar", 5, (1, 1), "b56052fdf57ea67cd873a2dbbb409137dd439cc2349a65cce5eead0bb09e584b"),
    ("Hbar", 7, (1, 1), "c115597d0635297452f2d6abf5760352731c1b2dfb5473ca2afbdb5bf8a7796e"),
    ("Hbar", 3, (1, 2), "7f17c70c4c5f6057a3875d8cfb25d8836220cb3c162b5e0bef22581c3de03d4f"),
    ("Hbar", 3, (1, 1, 1, 1),
     "faec0ce6d4b3647449682823c0a6d288a78ec3e36adbd1fbe722ac5c8c4838c3"),
])
def test_structure_constant_documents_pinned(kind, p, m, sha):
    alg = algebras.build(kind, FieldParams(p, len(m), m), verify=False)
    doc = dumps_canonical(sc_document(alg))
    assert hashlib.sha256(doc.encode()).hexdigest() == sha
