import itertools
import random
from fractions import Fraction

import pytest

import evolalg as ev
from evolalg import (
    associator,
    membership,
    multiply,
    new_evolution_algebra,
    power_subspace,
    principal_power,
    product_subspace,
    subspace_from_vectors,
)
from evolalg.classify import change_basis
from evolalg.core import full_space

from conftest import elements_of, naive_multiply


def n46(field):
    return new_evolution_algebra(field, [[0, 1, 1, 0], [0, 0, 0, 1],
                                         [0, 0, 0, -1], [0, 0, 0, 0]])


def test_construction_validates(Q):
    A = new_evolution_algebra(Q, [[0, 1], [0, 0]])
    assert A.n == 2 and A.rows[0][1] == 1
    assert new_evolution_algebra(Q, [[0]]).n == 1
    assert n46(Q).n == 4
    with pytest.raises(ev.ShapeError):
        new_evolution_algebra(Q, [[0, 1], [0, 0], [0, 0]])
    with pytest.raises(ev.ShapeError):
        new_evolution_algebra(Q, [])
    # string entries parse in the field
    B = new_evolution_algebra(Q, [["1/2", "0"], ["0", "-3"]])
    assert B.rows[0][0] == Fraction(1, 2)


def test_multiply_basis_products(Q):
    A = n46(Q)
    e1, e2 = A.unit(0), A.unit(1)
    assert multiply(A, e1, e1) == ev.element(A, [0, 1, 1, 0])
    assert multiply(A, e1, e2) == A.zero_element()
    x = ev.element(A, [1, 1, 0, 0])
    assert multiply(A, x, x) == ev.element(A, [0, 1, 1, 1])
    assert multiply(A, x, x) == naive_multiply(A, x, x)


def test_multiply_agrees_with_naive_oracle(Q, F7):
    for field in (Q, F7):
        rng = random.Random(3)
        for _ in range(1000):
            n = rng.randint(1, 6)
            if field.kind == "prime":
                A = new_evolution_algebra(
                    field, [[rng.randrange(7) for _ in range(n)] for _ in range(n)])
                x = tuple(rng.randrange(7) for _ in range(n))
                y = tuple(rng.randrange(7) for _ in range(n))
            else:
                A = new_evolution_algebra(
                    field, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                             for _ in range(n)] for _ in range(n)])
                x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
                y = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
            assert multiply(A, x, y) == naive_multiply(A, x, y)
            assert multiply(A, x, y) == multiply(A, y, x)


def test_multiply_dimension_mismatch(Q):
    A = n46(Q)
    with pytest.raises(ev.DimensionMismatch):
        multiply(A, (Q.zero,) * 3, A.zero_element())


def test_principal_powers(Q):
    A = n46(Q)
    x = ev.element(A, [1, 1, 0, 0])
    assert principal_power(A, x, 1) == x
    x3 = principal_power(A, x, 3)
    # independent expansion: x^2 = e2+e3+e4, then (x^2)x term by term
    assert x3 == naive_multiply(A, naive_multiply(A, x, x), x)
    assert x3 == ev.element(A, [0, 0, 0, 1])
    assert principal_power(A, x, 4) == A.zero_element()
    with pytest.raises(ValueError):
        principal_power(A, x, 0)


def test_third_power_associativity_exhaustive_f7(F7):
    # x^2 x = x x^2 on every element of every F7 algebra of dim <= 2
    for n in (1, 2):
        for entries in itertools.product(range(7), repeat=n * n):
            rows = [list(entries[i * n:(i + 1) * n]) for i in range(n)]
            A = new_evolution_algebra(F7, rows)
            for x in elements_of(F7, n):
                x2 = multiply(A, x, x)
                assert multiply(A, x2, x) == multiply(A, x, x2)


def test_associator_examples(Q):
    A = n46(Q)
    e1, e2 = A.unit(0), A.unit(1)
    assert associator(A, e1, e1, e2) == ev.element(A, [0, 0, 0, 1])
    assert associator(A, A.zero_element(), e1, e2) == A.zero_element()
    B = new_evolution_algebra(Q, [[0, 1], [0, 0]])
    assert associator(B, B.unit(0), B.unit(0), B.unit(0)) == B.zero_element()


def test_subspace_construction(Q):
    U = subspace_from_vectors(Q, 2, [(1, 0), (0, 1)])
    assert U.dim == 2 and U.basis == ((Fraction(1), Fraction(0)),
                                      (Fraction(0), Fraction(1)))
    V = subspace_from_vectors(Q, 2, [(2, 4), (1, 2)])
    assert V.dim == 1 and V.basis == ((Fraction(1), Fraction(2)),)
    Z = subspace_from_vectors(Q, 3, [])
    assert Z.dim == 0


def test_subspace_equality_is_canonical(Q):
    rng = random.Random(5)
    vecs = [(1, 2, 0, 1), (0, 1, 1, 0), (1, 3, 1, 1), (2, 4, 0, 2)]
    U = subspace_from_vectors(Q, 4, vecs)
    for _ in range(20):
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        scaled = []
        for v in shuffled:
            f = Fraction(rng.choice([1, 2, 3, -1]))
            scaled.append(tuple(f * c for c in v))
        assert subspace_from_vectors(Q, 4, scaled) == U


def test_product_subspace(Q):
    A = n46(Q)
    E = full_space(A)
    E2 = product_subspace(A, E, E)
    assert E2.dim == 2
    assert membership(E2, ev.element(A, [0, 1, 1, 0]))
    assert membership(E2, ev.element(A, [0, 0, 0, 1]))
    zero = subspace_from_vectors(Q, 4, [])
    assert product_subspace(A, E, zero).dim == 0
    # the plenary square E^2 E^2 vanishes for this algebra: (e2+e3)^2 =
    # e4 - e4 = 0 and every other basis product of E^2 dies in ann
    assert product_subspace(A, E2, E2).dim == 0
    assert multiply(A, ev.element(A, [0, 1, 1, 0]), A.unit(3)) == A.zero_element()


def test_power_subspace(Q):
    A = n46(Q)
    assert power_subspace(A, 1).dim == 4
    assert power_subspace(A, 3).dim == 1
    assert power_subspace(A, 4).dim == 0
    B = new_evolution_algebra(Q, [[0, 0, 1], [0, 0, 1], [0, 0, 0]])  # N_{3,3}(1)
    assert power_subspace(B, 3).dim == 0
    assert power_subspace(B, 2).dim == 1


def test_power_subspace_monotone(F7):
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 5)
        A = new_evolution_algebra(
            F7, [[rng.randrange(7) for _ in range(n)] for _ in range(n)])
        dims = [power_subspace(A, k).dim for k in range(1, 9)]
        shrunk = False
        for a, b in zip(dims, dims[1:]):
            assert b <= a
            if b < a:
                shrunk = True
            if shrunk and b == a:
                # stabilized: must stay there
                idx = dims.index(b)
                assert all(d == b for d in dims[idx:])
                break


def test_membership(Q):
    A = n46(Q)
    ann, idx = ev.annihilator(A)
    assert idx == (3,)
    assert membership(ann, A.zero_element())
    assert membership(ann, A.unit(3))
    assert not membership(ann, A.unit(0))
    with pytest.raises(ev.DimensionMismatch):
        membership(ann, (Q.zero,) * 3)


# ---------------------------------------------------------------------------
# exact linear algebra, checked against oracles that never call evolalg.core:
# plain ints mod 7 (Laplace determinants, brute force over F_7^m) and sympy


def _det7(M):
    """Laplace expansion along the first row, in plain ints mod 7."""
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * _det7([r[:j] + r[j + 1:] for r in M[1:]])
               for j in range(len(M))) % 7


def _combos7(vecs, k):
    """Every vector of span(vecs) in F_7^k, with all coefficient tuples reaching it."""
    out = {}
    for c in itertools.product(range(7), repeat=len(vecs)):
        v = tuple(sum(a * w[i] for a, w in zip(c, vecs)) % 7 for i in range(k))
        out.setdefault(v, []).append(c)
    return out


def _random_vecs(rng, m, k, pool):
    return [tuple(rng.choice(pool) for _ in range(k)) for _ in range(m)]


def _square7(A, x):
    """x^2 = sum_i x_i^2 e_i^2, in plain ints mod 7."""
    return tuple(sum(x[i] * x[i] * A.rows[i][k] for i in range(A.n)) % 7
                 for k in range(A.n))


def _natural_basis(field, A, rng, pool):
    """Permuted, scaled units plus arbitrary multiples of annihilator units.

    Distinct rows share no index with a nonzero square, so every cross
    product vanishes; the rows may still be dependent.
    """
    n = A.n
    ann = [i for i in range(n) if all(field.is_zero(a) for a in A.rows[i])]
    sigma = list(range(n))
    rng.shuffle(sigma)
    rows = []
    for i in range(n):
        v = [field.zero] * n
        v[sigma[i]] = field.coerce(rng.choice([c for c in pool if c != 0]))
        for k in ann:
            if k != sigma[i]:
                v[k] = field.coerce(rng.choice(pool))
        rows.append(tuple(v))
    return rows


def test_rref_rank_and_span_fp(F7):
    rng = random.Random(21)
    for _ in range(300):
        m, k = rng.randint(1, 3), rng.randint(1, 4)
        vecs = _random_vecs(rng, m, k, [0, 0, 1, 2, 3, 6])
        span = _combos7(vecs, k)
        R = ev.core.rref(F7, vecs)
        assert 7 ** len(R) == len(span)
        assert set(_combos7(R, k)) == set(span)
        for r, row in enumerate(R):
            piv = next(c for c, v in enumerate(row) if v)
            assert row[piv] == 1
            assert all(R[s][piv] == 0 for s in range(len(R)) if s != r)


def test_solve_in_span_fp_brute_force(F7):
    rng = random.Random(22)
    for _ in range(300):
        m, k = rng.randint(1, 3), rng.randint(1, 4)
        vecs = _random_vecs(rng, m, k, [0, 0, 1, 2, 5])
        target = tuple(rng.choice([0, 1, 3, 4]) for _ in range(k))
        if rng.random() < 0.5:
            # a target in the span, reached through a random combination
            c = [rng.randrange(7) for _ in range(m)]
            target = tuple(sum(a * w[i] for a, w in zip(c, vecs)) % 7
                           for i in range(k))
        got = ev.core.solve_in_span(F7, vecs, target)
        sols = _combos7(vecs, k).get(target)
        if sols is None:
            assert got is None
            continue
        # vectors already in the span of the earlier ones get coefficient 0
        redundant = [j for j in range(m) if vecs[j] in _combos7(vecs[:j], k)]
        expected = [c for c in sols if all(c[j] == 0 for j in redundant)]
        assert len(expected) == 1
        assert tuple(got) == expected[0]


def test_solve_in_span_edge_cases(Q, F7):
    # inconsistent system
    assert ev.core.solve_in_span(F7, [(1, 0, 0), (0, 1, 0)], (0, 0, 1)) is None
    # dependent spanning set: only the first vector of each new direction counts
    vecs = [(1, 2, 0), (2, 4, 0), (0, 0, 1), (1, 2, 1)]
    assert tuple(ev.core.solve_in_span(F7, vecs, (3, 6, 1))) == (3, 0, 1, 0)
    vq = [tuple(Q.coerce(c) for c in v) for v in vecs]
    got = ev.core.solve_in_span(Q, vq, (Q.coerce(3), Q.coerce(6), Q.coerce(1)))
    assert tuple(got) == (3, 0, 1, 0)
    # an empty spanning set reaches only zero
    assert ev.core.solve_in_span(F7, [], (0, 0)) == []
    assert ev.core.solve_in_span(F7, [], (0, 1)) is None


def test_mat_inverse_fp_against_laplace(F7):
    rng = random.Random(23)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        M = [[rng.choice([0, 0, 1, 2, 3, 6]) for _ in range(n)] for _ in range(n)]
        inv = ev.core.mat_inverse(F7, M)
        if _det7(M) == 0:
            assert inv is None
            singular += 1
            continue
        assert all(sum(M[i][t] * inv[t][j] for t in range(n)) % 7 == (i == j)
                   for i in range(n) for j in range(n))
    assert singular > 20
    assert ev.core.mat_inverse(F7, [[1, 2], [2, 4]]) is None


def test_change_basis_fp_against_plain_ints(F7):
    rng = random.Random(24)
    changed = singular = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        A = new_evolution_algebra(F7, [[rng.choice([0, 0, 0, 1, 3, 5]) for _ in range(n)]
                                       for _ in range(n)])
        P = _natural_basis(F7, A, rng, [0, 1, 2, 4])
        if _det7([list(r) for r in P]) == 0:
            with pytest.raises(ev.InternalConsistency):
                change_basis(A, P)
            singular += 1
            continue
        C = change_basis(A, P)
        # row i holds the coordinates of f_i^2 over the new basis
        for i in range(n):
            assert tuple(sum(C.rows[i][j] * P[j][k] for j in range(n)) % 7
                         for k in range(n)) == _square7(A, P[i])
        changed += 1
    assert changed > 100 and singular > 0
    # dependent rows are refused, and so is a basis that is not natural
    A = new_evolution_algebra(F7, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ev.InternalConsistency):
        change_basis(A, [(1, 0, 0), (0, 1, 0), (0, 3, 0)])
    with pytest.raises(ev.InternalConsistency):
        change_basis(A, [(1, 1, 0), (1, 0, 0), (0, 0, 1)])


def _sym(sympy, rows):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in r]
                         for r in rows])


Q_POOL = [0, 0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2)]


def test_linear_algebra_q_against_sympy(Q):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(25)
    for _ in range(200):
        m, k = rng.randint(1, 4), rng.randint(1, 4)
        vecs = [tuple(Q.coerce(c) for c in v) for v in _random_vecs(rng, m, k, Q_POOL)]
        target = tuple(Q.coerce(rng.choice(Q_POOL)) for _ in range(k))
        if rng.random() < 0.5:
            c = [Q.coerce(rng.choice(Q_POOL)) for _ in range(m)]
            target = tuple(sum((a * w[i] for a, w in zip(c, vecs)), Fraction(0))
                           for i in range(k))
        V = _sym(sympy, vecs).T           # columns are the spanning vectors
        b = _sym(sympy, [target]).T
        R = ev.core.rref(Q, vecs)
        assert len(R) == V.rank()
        if R:
            assert _sym(sympy, R) == V.T.rref()[0][:len(R), :]
        got = ev.core.solve_in_span(Q, vecs, target)
        if V.row_join(b).rank() > V.rank():
            assert got is None
            continue
        piv = [j for j in range(m) if V[:, :j + 1].rank() > V[:, :j].rank()]
        W = V[:, piv]
        x = (W.T * W).inv() * W.T * b
        expected = [0] * m
        for j, xj in zip(piv, x):
            expected[j] = xj
        assert [sympy.Rational(c.numerator, c.denominator) for c in got] == expected
    for _ in range(200):
        n = rng.randint(1, 4)
        M = [tuple(Q.coerce(rng.choice(Q_POOL)) for _ in range(n)) for _ in range(n)]
        S = _sym(sympy, M)
        inv = ev.core.mat_inverse(Q, M)
        if S.det() == 0:
            assert inv is None
        else:
            assert _sym(sympy, inv) == S.inv()


def test_change_basis_q_against_sympy(Q):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(26)
    for _ in range(150):
        n = rng.randint(1, 4)
        A = new_evolution_algebra(Q, [[rng.choice(Q_POOL) for _ in range(n)]
                                      for _ in range(n)])
        P = _natural_basis(Q, A, rng, Q_POOL)
        SP = _sym(sympy, P)
        if SP.det() == 0:
            with pytest.raises(ev.InternalConsistency):
                change_basis(A, P)
            continue
        squares = _sym(sympy, [naive_multiply(A, f, f) for f in P])
        assert _sym(sympy, change_basis(A, P).rows) == squares * SP.inv()
    # N_{4,5}(2,2) -> N_{4,5}(1,1) through f2, f3 = (e2 +- e3)/2
    half = Fraction(1, 2)
    A = new_evolution_algebra(Q, [[0, 1, 2, 2], [0, 0, 0, 1], [0, 0, 0, 1], [0] * 4])
    P = [tuple(Q.coerce(c) for c in r) for r in
         ((1, 0, 0, 0), (0, half, half, 0), (0, half, -half, 0), (0, 0, 0, 1))]
    C = change_basis(A, P)
    squares = _sym(sympy, [naive_multiply(A, f, f) for f in P])
    assert _sym(sympy, C.rows) == squares * _sym(sympy, P).inv()
