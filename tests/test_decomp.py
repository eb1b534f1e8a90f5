import random
from fractions import Fraction

import pytest

import evolalg as ev
from evolalg import (
    decomposability_hint,
    extract_idempotent,
    graph_components,
    new_evolution_algebra,
    peirce,
    wedderburn,
)

from conftest import first_catalog_instance, monomial_disguise, recursive_wedderburn_s


def test_peirce_two_dim(Q):
    A = new_evolution_algebra(Q, [[1, 0], [0, 0]])  # E_{2,3}
    dec = peirce(A, A.unit(0))
    assert dec.E1.dim == 1 and dec.Ehalf.dim == 0 and dec.E0.dim == 1
    assert ev.membership(dec.E1, A.unit(0))
    assert ev.membership(dec.E0, A.unit(1))


def test_peirce_one_dim_full(Q):
    A = new_evolution_algebra(Q, [[1]])
    dec = peirce(A, A.unit(0))
    assert dec.E1.dim == 1 and dec.Ehalf.dim == 0 and dec.E0.dim == 0


def test_peirce_eigenvector_property(F7):
    A = ev.canonical_algebra(ev.make_label(5, 21, (3,)), F7)
    u, _ = extract_idempotent(A)
    dec = peirce(A, u)
    assert dec.Ehalf.dim == 0  # extraction idempotents have no half space
    for row in dec.E1.basis:
        assert ev.multiply(A, u, row) == row
    for row in dec.E0.basis:
        assert ev.multiply(A, u, row) == A.zero_element()


def test_peirce_rejects(Q):
    A = new_evolution_algebra(Q, [[1, 0], [0, 0]])
    with pytest.raises(ev.NotIdempotent):
        peirce(A, ev.element(A, [1, 1]))
    with pytest.raises(ev.NotIdempotent):
        peirce(A, A.zero_element())
    bad = new_evolution_algebra(Q, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert not ev.is_power_associative(bad).verdict
    with pytest.raises(ev.NotPowerAssociative):
        peirce(bad, bad.unit(0))


def test_peirce_dimensions_invariant_under_disguise(F7):
    rng = random.Random(17)
    A = ev.canonical_algebra(ev.make_label(4, 11, ()), F7)  # E22 + N22
    u, _ = extract_idempotent(A)
    base = peirce(A, u)
    for _ in range(25):
        B = monomial_disguise(F7, A, rng)
        v, _ = extract_idempotent(B)
        dec = peirce(B, v)
        assert (dec.E1.dim, dec.Ehalf.dim, dec.E0.dim) == \
            (base.E1.dim, base.Ehalf.dim, base.E0.dim)


def test_extract_idempotent(Q):
    A = new_evolution_algebra(Q, [[1]])
    u, i = extract_idempotent(A)
    assert u == (Q.one,) and i == 0
    B = new_evolution_algebra(Q, [[1, 1], [0, 0]])  # e1^2 = e1 + e2
    u, i = extract_idempotent(B)
    assert u == ev.element(B, [1, 1]) and i == 0
    assert ev.multiply(B, u, u) == u
    for j in range(B.n):
        if j != i:
            assert ev.multiply(B, u, B.unit(j)) == B.zero_element()
    N46 = ev.canonical_algebra(ev.make_label(4, 6, ()), Q)
    assert extract_idempotent(N46) is None


def test_wedderburn_mixed_entry(Q):
    A = ev.canonical_algebra(ev.make_label(5, 21, (3,)), Q)
    wd = wedderburn(A)
    assert wd.s == 2
    assert wd.radical_indices == (2, 3, 4)
    expected = ev.canonical_algebra(ev.make_label(3, 3, (3,)), Q)
    assert wd.radical.rows == expected.rows
    # all stated invariants, exactly
    for a in range(wd.s):
        assert ev.multiply(A, wd.idempotents[a], wd.idempotents[a]) == wd.idempotents[a]
        for b in range(a + 1, wd.s):
            assert ev.multiply(A, wd.idempotents[a], wd.idempotents[b]) == \
                A.zero_element()
        for m in wd.radical_indices:
            assert ev.multiply(A, wd.idempotents[a], A.unit(m)) == A.zero_element()
    assert ev.is_nil(wd.radical).verdict
    assert ev.is_power_associative(wd.radical).verdict
    from evolalg.core import mat_inverse
    assert mat_inverse(Q, wd.basis_change) is not None


def test_wedderburn_reassembly_is_isomorphism(Q, F7):
    # the direct sum (idempotent lines + radical) pulled back through
    # basis_change reproduces the original multiplication exactly
    from evolalg.core import mat_inverse, mat_transpose
    from evolalg.classify import verify_isomorphism
    import itertools
    for field in (Q, F7):
        for dim in range(1, 6):
            for fam in ev.families_of_dim(dim):
                if fam.s == 0:
                    continue
                for combo in itertools.product([1, 2], repeat=fam.nparams):
                    try:
                        A = ev.catalog.instantiate(fam, field, combo)
                    except ev.EvolalgError:
                        continue
                    wd = wedderburn(A)
                    n, s = A.n, wd.s
                    block = [[field.zero] * n for _ in range(n)]
                    for i in range(s):
                        block[i][i] = field.one
                    for r in range(wd.radical.n):
                        for c in range(wd.radical.n):
                            block[s + r][s + c] = wd.radical.rows[r][c]
                    B = ev.EvolutionAlgebra(field, tuple(tuple(r) for r in block))
                    M = mat_inverse(field, mat_transpose(wd.basis_change))
                    assert verify_isomorphism(A, B, M).verdict, fam.name()
                    break


def test_wedderburn_nil_input(Q):
    A = ev.canonical_algebra(ev.make_label(4, 6, ()), Q)
    wd = wedderburn(A)
    assert wd.s == 0 and wd.radical.rows == A.rows


def test_wedderburn_extension_example(Q):
    A = new_evolution_algebra(Q, [[1, 1], [0, 0]])
    wd = wedderburn(A)
    assert wd.s == 1 and wd.idempotents[0] == ev.element(A, [1, 1])
    assert wd.radical.n == 1
    res = ev.classify(A)
    assert (res.label.dim, res.label.index) == (2, 3)  # E_{11} + N_{1,1}


def test_wedderburn_matches_recursive_oracle(F7):
    rng = random.Random(23)
    fams = [f for d in range(1, 5) for f in ev.families_of_dim(d)]
    for fam in fams:
        import itertools
        for combo in itertools.product([1, 2, 3], repeat=fam.nparams):
            try:
                A = ev.catalog.instantiate(fam, F7, combo)
            except ev.EvolalgError:
                continue
            assert wedderburn(A).s == recursive_wedderburn_s(A) == fam.s
            break


def test_graph_components(Q):
    N44 = ev.canonical_algebra(ev.make_label(4, 4, ()), Q)
    comps = graph_components(N44)
    assert [idx for idx, _ in comps] == [(0, 1), (2, 3)]
    N22 = ev.canonical_algebra(ev.make_label(2, 2, ()), Q)
    for _, sub in comps:
        assert sub.rows == N22.rows
    N46 = ev.canonical_algebra(ev.make_label(4, 6, ()), Q)
    assert len(graph_components(N46)) == 1
    Z = new_evolution_algebra(Q, [[0] * 3] * 3)
    assert [idx for idx, _ in graph_components(Z)] == [(0,), (1,), (2,)]


def test_graph_components_block_property(F7):
    rng = random.Random(29)
    for _ in range(50):
        n = rng.randint(2, 6)
        rows = [[rng.randrange(7) if rng.random() < 0.3 else 0 for _ in range(n)]
                for _ in range(n)]
        A = new_evolution_algebra(F7, rows)
        comps = graph_components(A)
        order = [i for idx, _ in comps for i in idx]
        # simultaneous row/column permutation by components is block diagonal
        perm = {orig: new for new, orig in enumerate(order)}
        sizes = [len(idx) for idx, _ in comps]
        bounds = []
        start = 0
        for s in sizes:
            bounds.append((start, start + s))
            start += s
        for i in range(n):
            for j in range(n):
                if not F7.is_zero(A.rows[i][j]):
                    bi = next(k for k, (a, b) in enumerate(bounds)
                              if a <= perm[i] < b)
                    bj = next(k for k, (a, b) in enumerate(bounds)
                              if a <= perm[j] < b)
                    assert bi == bj


def test_decomposability_hint(Q):
    N43 = ev.canonical_algebra(ev.make_label(4, 3, (2,)), Q)
    assert decomposability_hint(N43) == "DecomposableByAnnBound"
    N46 = ev.canonical_algebra(ev.make_label(4, 6, ()), Q)
    assert decomposability_hint(N46) == "Unknown"
    # boundary: the 1-dim zero algebra carries the flag (vacuously)
    assert decomposability_hint(new_evolution_algebra(Q, [[0]])) == \
        "DecomposableByAnnBound"
    assert decomposability_hint(new_evolution_algebra(Q, [[1]])) == "Unknown"


def rescale_idempotent_axes(field, A, rng):
    """Permutation-and-scaling image with every idempotent axis scaled by
    some lam not in {0, 1}, so each idempotent diagonal entry becomes lam."""
    n = A.n
    sigma = list(range(n))
    rng.shuffle(sigma)
    if field.kind == "prime":
        idem_pool = list(range(2, field.p))
        nil_pool = list(range(1, field.p))
    else:
        idem_pool = [Fraction(v) for v in (-1, 2, -2, 3, "1/2", "-1/3", "2/3")]
        nil_pool = [Fraction(v) for v in (1, -1, 2, "1/2", "-3/2")]
    lam = [rng.choice(idem_pool if not field.is_zero(A.rows[sigma[i]][sigma[i]])
                      else nil_pool) for i in range(n)]
    if field.kind == "prime":
        p = field.p
        rows = [[lam[i] * lam[i] * A.rows[sigma[i]][sigma[j]] * pow(lam[j], -1, p) % p
                 for j in range(n)] for i in range(n)]
    else:
        rows = [[lam[i] * lam[i] * A.rows[sigma[i]][sigma[j]] / lam[j]
                 for j in range(n)] for i in range(n)]
    return new_evolution_algebra(field, rows)


def test_rescaled_idempotent_axes(Q, F7):
    # a_ii outside {0, 1} on every idempotent axis: the radical is still the
    # plain submatrix at the zero-diagonal indices, and classify still lands
    # on the unscaled member's label with a verified isomorphism
    rng = random.Random(41)
    for field in (Q, F7):
        for dim in range(2, 6):
            for fam in ev.families_of_dim(dim):
                if fam.s == 0:
                    continue
                A, _ = first_catalog_instance(field, fam)
                B = rescale_idempotent_axes(field, A, rng)
                rad = [m for m in range(B.n) if B.rows[m][m] == 0]
                assert sum(1 for i in range(B.n) if B.rows[i][i] not in (0, 1)) \
                    == fam.s, fam.name()
                wd = wedderburn(B)
                assert wd.s == fam.s and wd.radical_indices == tuple(rad)
                assert wd.radical.rows == tuple(
                    tuple(B.rows[m][k] for k in rad) for m in rad), fam.name()
                want = ev.classify(A).label
                res = ev.classify(B)
                assert res.label == want, fam.name()
                C = ev.canonical_algebra(res.label, field)
                assert ev.verify_isomorphism(B, C, res.iso).verdict, fam.name()
