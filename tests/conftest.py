"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own multiply/check code
paths: products are expanded term by term from the structure matrix, and
power-associativity is tested element by element over the whole prime
field, so library results are checked against a second route.
"""

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import evolalg as ev  # noqa: E402


@pytest.fixture(scope="session")
def Q():
    return ev.make_field("Q")


@pytest.fixture(scope="session")
def F7():
    return ev.make_field("Fp", 7)


def naive_multiply(A, x, y):
    """Oracle: xy = sum_i x_i y_i e_i^2, expanded one basis term at a time."""
    field = A.field
    acc = [field.zero] * A.n
    for i in range(A.n):
        coeff = field.mul(x[i], y[i])
        for k in range(A.n):
            acc[k] = field.add(acc[k], field.mul(coeff, A.rows[i][k]))
    return tuple(acc)


def elements_of(field, n):
    """Every coordinate vector over a prime field."""
    return itertools.product(range(field.p), repeat=n)


def fp_pa4_violation(A, exhaustive_limit=3, rng=None, tries=3000):
    """Element with x^2 x^2 != x^4 over a prime field, or None.

    Exhaustive up to ``exhaustive_limit`` dimensions; above that, searches
    basis vectors, pair sums and random elements.
    """
    field = A.field
    p = field.p
    n = A.n

    def violates(x):
        x2 = naive_multiply(A, x, x)
        x3 = naive_multiply(A, x2, x)
        x4 = naive_multiply(A, x3, x)
        return naive_multiply(A, x2, x2) != x4

    if n <= exhaustive_limit:
        for x in elements_of(field, n):
            if violates(x):
                return x
        return None
    for i in range(n):
        x = tuple(1 if k == i else 0 for k in range(n))
        if violates(x):
            return x
    for i in range(n):
        for j in range(i + 1, n):
            for c in range(1, p):
                x = tuple(1 if k == i else (c if k == j else 0) for k in range(n))
                if violates(x):
                    return x
    rng = rng or random.Random(0)
    for _ in range(tries):
        x = tuple(rng.randrange(p) for _ in range(n))
        if violates(x):
            return x
    return None


def assoc_violation(A):
    """Oracle for the associativity witness: the first i != j in row-major
    order with a_ij != 0 and r_j != 0, as (i, j, a_ij r_j), or None."""
    field = A.field
    for i in range(A.n):
        for j in range(A.n):
            a = A.rows[i][j]
            if i == j or a == field.zero:
                continue
            if any(v != field.zero for v in A.rows[j]):
                return i, j, tuple(field.mul(a, v) for v in A.rows[j])
    return None


def fp_all_cubes_zero(A):
    """Oracle: x^3 = 0 for every element of a prime-field algebra."""
    for x in elements_of(A.field, A.n):
        x2 = naive_multiply(A, x, x)
        if any(v % A.field.p for v in naive_multiply(A, x2, x)):
            return False
    return True


def random_fp_matrix(field, n, rng):
    return ev.new_evolution_algebra(
        field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])


def monomial_disguise(field, A, rng):
    """Random permutation-and-scaling image, unit scale on idempotent axes."""
    n = A.n
    sigma = list(range(n))
    rng.shuffle(sigma)
    lam = []
    q_pool = ["1", "-1", "2", "-2", "3", "1/2", "-1/2", "1/3", "2/3", "3/2"]
    for i in range(n):
        if not field.is_zero(A.rows[sigma[i]][sigma[i]]):
            lam.append(field.one)
        elif field.kind == "prime":
            lam.append(rng.randrange(1, field.p))
        else:
            lam.append(field.parse(rng.choice(q_pool)))
    rows = [[field.div(field.mul(field.mul(lam[i], lam[i]),
                                 A.rows[sigma[i]][sigma[j]]), lam[j])
             for j in range(n)] for i in range(n)]
    return ev.new_evolution_algebra(field, rows)


def recursive_wedderburn_s(A):
    """Oracle for the idempotent count: peel one extension idempotent at a
    time through the Peirce null space, as the existence proof does."""
    if A.n == 0 or ev.is_nil(A).verdict:
        return 0
    u, i = ev.extract_idempotent(A)
    rest = [j for j in range(A.n) if j != i]
    rows = tuple(tuple(A.rows[r][c] for c in rest) for r in rest)
    sub = ev.EvolutionAlgebra(A.field, rows)
    return 1 + recursive_wedderburn_s(sub)


def first_catalog_instance(field, fam, grid=(1, 2, 3, -1)):
    for combo in itertools.product(grid, repeat=fam.nparams):
        try:
            return ev.catalog.instantiate(fam, field, combo), tuple(
                field.coerce(c) for c in combo)
        except ev.EvolalgError:
            continue
    raise AssertionError(f"no instance of {fam.name()} on {grid}")
