"""SpanSolver and kernel_basis against brute-force enumeration of F_p^width."""

import itertools
import random

import pytest

from cartaninv.gflinalg import SpanSolver, kernel_basis

# keys of every shape the library uses: basis indices, (axis, alpha)
# derivation coordinates and monomial tuples
MIXED_KEYS = [3, (0, (1, 2)), ((0, 2), (4, 1)), 0, (1, (0, 0)), ((5, 1),)]


def as_dict(vec, keys):
    return {k: c for k, c in zip(keys, vec) if c}


def combine(coeffs, vectors, p, width):
    return tuple(sum(c * v[j] for c, v in zip(coeffs, vectors)) % p
                 for j in range(width))


def brute_coords(vectors, p, width):
    """Every combination of ``vectors``, mapped to the coefficient tuples giving it."""
    out = {}
    for coeffs in itertools.product(range(p), repeat=len(vectors)):
        out.setdefault(combine(coeffs, vectors, p, width), []).append(coeffs)
    return out


def random_vectors(rng, p, width):
    """Random vectors, some of them combinations of earlier ones or zero."""
    vecs = []
    for _ in range(rng.randint(1, width + 2)):
        roll = rng.random()
        if vecs and roll < 0.3:
            coeffs = [rng.randrange(p) for _ in vecs]
            vecs.append(combine(coeffs, vecs, p, width))
        elif roll < 0.4:
            vecs.append((0,) * width)
        else:
            vecs.append(tuple(rng.randrange(p) for _ in range(width)))
    return vecs


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_span_solver_against_brute_force(p, width):
    rng = random.Random(100 * p + width)
    for _ in range(12):
        keys = rng.sample(MIXED_KEYS, width)
        vecs = random_vectors(rng, p, width)
        solver = SpanSolver(p)
        independent = []  # (insertion index, vector)
        for idx, vec in enumerate(vecs):
            span = brute_coords([v for _, v in independent], p, width)
            # unshifted residues: the solver reduces mod p itself
            raw = {k: c + p * rng.randint(-2, 2) for k, c in zip(keys, vec)}
            rel = solver.insert_or_relation(raw)
            if rel is None:
                assert vec not in span
                independent.append((idx, vec))
            else:
                # the unique relation over the earlier independent vectors
                (coeffs,) = span[tuple(-x % p for x in vec)]
                want = {i: c for (i, _), c in zip(independent, coeffs) if c}
                want[idx] = 1
                assert rel == want
                assert combine(rel.values(), [vecs[i] for i in rel], p, width) \
                    == (0,) * width
            assert solver.rank == len(independent)
        span = brute_coords([v for _, v in independent], p, width)
        assert len(span) == p ** solver.rank
        for target in itertools.product(range(p), repeat=width):
            got = solver.solve(as_dict(target, keys))
            if target not in span:
                assert got is None
                continue
            (coeffs,) = span[target]
            assert got == {i: c for (i, _), c in zip(independent, coeffs) if c}
            assert combine(got.values(), [vecs[i] for i in got], p, width) == target


def test_zero_vector():
    solver = SpanSolver(5)
    assert solver.solve({}) == {}
    assert solver.insert_or_relation({}) == {0: 1}
    assert solver.insert_or_relation({"x": 10, 7: -5}) == {1: 1}  # 0 mod 5
    assert solver.insert({(0, (1,)): 2})
    assert not solver.insert({})
    assert solver.solve({(0, (1,)): 0}) == {}
    assert solver.rank == 1 and solver.ninserted == 4


@pytest.mark.parametrize("p", [3, 5, 7])
def test_results_do_not_depend_on_keys_or_key_order(p):
    rng = random.Random(p)
    width = 6
    for _ in range(20):
        vecs = random_vectors(rng, p, width)
        targets = [tuple(rng.randrange(p) for _ in range(width)) for _ in range(10)]
        targets += [combine([rng.randrange(p) for _ in vecs], vecs, p, width)
                    for _ in range(10)]
        outcomes = []
        for keys, shuffle in ((range(width), False), (MIXED_KEYS, False),
                              (MIXED_KEYS, True)):
            def vector(vec):
                items = list(as_dict(vec, keys).items())
                if shuffle:
                    rng.shuffle(items)
                return dict(items)

            solver = SpanSolver(p)
            rels = [solver.insert_or_relation(vector(v)) for v in vecs]
            sols = [solver.solve(vector(t)) for t in targets]
            outcomes.append((rels, sols, solver.rank))
        assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_kernel_basis_against_brute_force(p):
    rng = random.Random(7 * p)
    for _ in range(15):
        width = rng.randint(1, 4)
        rows = [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(width)]
                for _ in range(rng.randint(1, 4))]
        kernel = {v for v in itertools.product(range(p), repeat=width)
                  if all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in rows)}
        basis = kernel_basis(rows, width, p)
        assert all(tuple(v) in kernel for v in basis)
        span = brute_coords([tuple(v) for v in basis], p, width)
        assert set(span) == kernel
        assert len(span) == p ** len(basis)  # the basis is independent
