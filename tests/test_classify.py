import functools
import random
from fractions import Fraction

import pytest

import evolalg as ev
from evolalg import (
    canonical_algebra,
    classify,
    make_label,
    monomial_isomorphism,
    new_evolution_algebra,
    params_equivalent,
    verify_isomorphism,
)
from evolalg.classify import change_basis
from evolalg.core import mat_inverse, mat_mul

from conftest import first_catalog_instance, monomial_disguise, naive_multiply


def identity(field, n):
    return tuple(tuple(field.one if i == j else field.zero for j in range(n))
                 for i in range(n))


def test_verify_isomorphism_basic(Q):
    A = canonical_algebra(make_label(4, 6, ()), Q)
    assert verify_isomorphism(A, A, identity(Q, 4)).verdict
    # swapping e2 and e3 alone is NOT an automorphism of N_{4,6}: it sends
    # e2^2 = e4 to e3^2 = -e4, so e4 must be negated as well
    perm = [[Q.one if (i, j) in ((0, 0), (1, 2), (2, 1), (3, 3)) else Q.zero
             for j in range(4)] for i in range(4)]
    rep = verify_isomorphism(A, A, tuple(tuple(r) for r in perm))
    assert not rep.verdict and rep.witness.indices == (2, 2)
    perm[3][3] = Q.neg(Q.one)
    assert verify_isomorphism(A, A, tuple(tuple(r) for r in perm)).verdict
    N22 = canonical_algebra(make_label(2, 2, ()), Q)
    N21 = canonical_algebra(make_label(2, 1, ()), Q)
    rep = verify_isomorphism(N22, N21, identity(Q, 2))
    assert not rep.verdict and rep.witness.indices == (1, 1)
    singular = tuple(tuple(Q.zero for _ in range(2)) for _ in range(2))
    assert verify_isomorphism(N22, N22, singular).witness.condition == \
        "not_invertible"


def test_classify_disguised_n46(Q):
    # f1 = e1, f2 = 2e2, f3 = e3, f4 = e4
    A = new_evolution_algebra(Q, [[0, Fraction(1, 2), 1, 0], [0, 0, 0, 4],
                                  [0, 0, 0, -1], [0, 0, 0, 0]])
    res = classify(A)
    assert (res.label.dim, res.label.index) == (4, 6)
    C = canonical_algebra(res.label, Q)
    assert verify_isomorphism(A, C, res.iso).verdict
    assert res.invariants_record["type_sequence"] == (1, 2, 1)
    assert res.invariants_record["dim_ann"] == 1
    assert res.invariants_record["associative"] is False
    assert res.invariants_record["dim_u_square"] == 1


def test_classify_mixed_entry(Q):
    A = canonical_algebra(make_label(5, 21, (3,)), Q)
    res = classify(A)
    assert (res.label.dim, res.label.index) == (5, 21)
    assert res.s == 2
    assert res.radical_label.dim == 3 and res.radical_label.index == 3
    pe = params_equivalent(5, 21, (Fraction(3),), res.label.params, Q)
    assert pe.status == "equivalent"


def test_classify_dim5_case_1_2(Q):
    # one generator over three live directions, the proof folds it to N_{5,10}
    A = new_evolution_algebra(Q, [[0, 1, 1, 1, 0], [0, 0, 0, 0, 1],
                                  [0, 0, 0, 0, 1], [0, 0, 0, 0, -2],
                                  [0, 0, 0, 0, 0]])
    res = classify(A)
    assert (res.label.dim, res.label.index) == (5, 10)
    # the explicit folding move w3 = v3 + v4, w4 = v3 + v4/2 lands on the
    # member with beta = alpha/(1+alpha) = 1/2; check that change directly
    basis = [A.unit(0), A.unit(1),
             ev.element(A, [0, 0, 1, 1, 0]),
             ev.element(A, [0, 0, 1, Fraction(1, 2), 0]),
             A.unit(4)]
    moved = change_basis(A, basis)
    target = canonical_algebra(make_label(5, 10, (Fraction(1, 2),)), Q)
    assert moved.rows == target.rows
    # the classifier may land in another parameter position reachable only
    # through this input's extra arrangements; certify the equivalence by
    # composing the two verified isomorphisms through A
    from evolalg.core import mat_transpose
    to_half = mat_inverse(Q, mat_transpose(basis))
    assert verify_isomorphism(A, target, to_half).verdict
    C = canonical_algebra(res.label, Q)
    bridge = mat_mul(Q, res.iso, mat_inverse(Q, to_half))
    assert verify_isomorphism(target, C, bridge).verdict


def test_classify_dim6_associative_plane(Q):
    A = new_evolution_algebra(Q, [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 1, 1],
                                  [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1],
                                  [0] * 6, [0] * 6])
    res = classify(A)
    assert (res.label.dim, res.label.index) == (6, 17)
    assert res.label.params == (Fraction(1), Fraction(1), Fraction(1))


def test_classify_dim6_2_2_1(Q):
    A = new_evolution_algebra(Q, [[0, 1, 1, 1, 0, 0], [0, 0, 0, 0, 1, 0],
                                  [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, -1, -1],
                                  [0] * 6, [0] * 6])
    res = classify(A)
    assert (res.label.dim, res.label.index) == (6, 26)
    assert res.label.params == ()


def test_classify_label_discrepancy_flag(Q):
    A = new_evolution_algebra(Q, [[0, 1, 1, 1, 0, 0], [0, 0, 0, 0, 0, 1],
                                  [0, 0, 0, 0, 0, 2], [0, 0, 0, 0, 0, -3],
                                  [0, 1, 1, 1, 0, 2], [0] * 6])
    res = classify(A)
    assert res.label.index in (19, 20, 21)
    assert "label_discrepancy_n6_18_vs_n6_19" in res.flags


def test_classify_errors(Q):
    with pytest.raises(ev.DimensionTooLarge):
        classify(new_evolution_algebra(Q, [[0] * 7] * 7))
    with pytest.raises(ev.NotPowerAssociative) as err:
        classify(new_evolution_algebra(Q, [[0, 1], [1, 0]]))
    assert err.value.witness is not None


def test_classified_iso_maps_products(Q):
    rng = random.Random(7)
    A = monomial_disguise(Q, canonical_algebra(make_label(6, 25, (2,)), Q), rng)
    res = classify(A)
    C = canonical_algebra(res.label, Q)
    M = res.iso
    cols = list(zip(*M))
    for i in range(A.n):
        for j in range(A.n):
            lhs = ev.multiply(C, cols[i], cols[j])
            prod = ev.multiply(A, A.unit(i), A.unit(j))
            rhs = tuple(sum((M[r][k] * prod[k] for k in range(A.n)), Q.zero)
                        for r in range(A.n))
            assert lhs == rhs


def test_params_equivalent(Q, F7):
    pe = params_equivalent(3, 3, (Fraction(2),), (Fraction(2),), Q)
    assert pe.status == "equivalent"
    # scale e2 by 2: alpha rescales by a square
    pe = params_equivalent(3, 3, (Fraction(1),), (Fraction(4),), Q)
    assert pe.status == "equivalent"
    C1 = canonical_algebra(make_label(3, 3, (1,)), Q)
    C2 = canonical_algebra(make_label(3, 3, (4,)), Q)
    assert verify_isomorphism(C1, C2, pe.witness).verdict
    # over F7 the squares are {1,2,4}: 3 is not reachable from 1
    assert params_equivalent(3, 3, (1,), (3,), F7).status == "no"
    assert params_equivalent(3, 3, (1,), (2,), F7).status == "equivalent"
    # over Q, 1 vs 3 differ by a non-square: bounded search is inconclusive
    assert params_equivalent(3, 3, (Fraction(1),), (Fraction(3),), Q).status == \
        "not_equivalent_under_search"


def test_monomial_isomorphism(Q, F7):
    A = canonical_algebra(make_label(4, 6, ()), F7)
    rng = random.Random(3)
    B = monomial_disguise(F7, A, rng)
    M = monomial_isomorphism(A, B)
    assert M is not None
    assert verify_isomorphism(A, B, M).verdict
    N22 = canonical_algebra(make_label(2, 2, ()), Q)
    N21 = canonical_algebra(make_label(2, 1, ()), Q)
    assert monomial_isomorphism(N22, N21) is None
    # scalings of larger height than any bounded search tries
    A = canonical_algebra(make_label(5, 12, (1, 2)), Q)
    lam = [Fraction(7, 19), Fraction(-11, 23), Fraction(13, 29), Fraction(17, 19),
           Fraction(-7, 23)]
    B = new_evolution_algebra(Q, [[lam[i] ** 2 * A.rows[4 - i][4 - j] / lam[j]
                                   for j in range(5)] for i in range(5)])
    M = monomial_isomorphism(A, B)
    assert M is not None
    assert verify_isomorphism(A, B, M).verdict


def test_classifier_deterministic_across_disguises(Q, F7):
    rng = random.Random(77)
    for field in (F7, Q):
        for key, params in [((5, 12), (1, 2)), ((6, 23), (1, 1, 1, 2)),
                            ((6, 17), (2, 1, 3)), ((5, 9), (2, 3))]:
            A = canonical_algebra(make_label(*key, tuple(
                field.coerce(p) for p in params)), field)
            results = set()
            for _ in range(6):
                res = classify(monomial_disguise(field, A, rng))
                assert (res.label.dim, res.label.index) == key
                results.add(res.label.params)
            assert len(results) == 1


def test_roundtrip_all_families_small(Q, F7):
    rng = random.Random(99)
    for field, grid in ((F7, (1, 2, 3)), (Q, (1, 2, -1))):
        for dim in range(1, 7):
            for fam in ev.families_of_dim(dim):
                A, params = first_catalog_instance(field, fam, grid)
                for _ in range(2):
                    B = monomial_disguise(field, A, rng)
                    res = classify(B)
                    assert (res.label.dim, res.label.index) == \
                        (fam.dim, fam.index), fam.name()
                    pe = params_equivalent(fam.dim, fam.index, params,
                                           res.label.params, field)
                    assert pe.status == "equivalent", fam.name()


def test_radical_classification_matches_table_decomposition(Q):
    # the nil part named in each mixed entry's decomposition column is what
    # the radical classifies to
    for key, params in [((5, 21), (3,)), ((5, 18), ()), ((4, 9), (2,)),
                        ((6, 60), ()), ((6, 52), (2,))]:
        fam = ev.family(*key)
        A = ev.catalog.instantiate(fam, Q, params)
        wd = ev.wedderburn(A)
        res = classify(wd.radical)
        assert (res.label.dim, res.label.index) == \
            (key[0] - fam.s, fam.radical_index), fam.name()


def test_classify_one_generator_over_four_directions(Q):
    # e1^2 spread over four live directions folds down to N_{6,19}
    A = new_evolution_algebra(Q, [[0, 1, 1, 1, 1, 0], [0, 0, 0, 0, 0, 1],
                                  [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1],
                                  [0, 0, 0, 0, 0, -3], [0] * 6])
    res = classify(A)
    assert (res.label.dim, res.label.index) == (6, 19)


def test_classify_wide_annihilator_splits(Q):
    # connected presentation, annihilator of dimension 3: must split into
    # N_{4,6} plus two zero lines
    A = new_evolution_algebra(Q, [[0, 1, 1, 0, 0, 1], [0, 0, 0, 1, 1, 0],
                                  [0, 0, 0, -1, -1, 0], [0] * 6, [0] * 6,
                                  [0] * 6])
    res = classify(A)
    fam = ev.family(6, res.label.index)
    assert sorted((d, i) for d, i, _ in fam.components) == \
        [(1, 1), (1, 1), (4, 6)]


def test_classify_degenerate_plane_splits(Q):
    # squares of the generator's support collapse onto one annihilator line
    # while the free vector points elsewhere: N_{4,6} + N_{2,2}
    A = new_evolution_algebra(Q, [[0, 1, 1, 0, 1, 0], [0, 0, 0, 0, 0, 1],
                                  [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0],
                                  [0] * 6, [0] * 6])
    res = classify(A)
    fam = ev.family(6, res.label.index)
    assert sorted((d, i) for d, i, _ in fam.components) == [(2, 2), (4, 6)]


def test_classify_nonmonomial_presentation(Q):
    # N_{4,6} + N_{1,1} written in a natural basis that mixes the two
    # annihilator directions, so the support graph is connected
    half = Fraction(1, 2)
    A = new_evolution_algebra(Q, [[0, 1, 1, 0, 0], [0, 0, 0, half, half],
                                  [0, 0, 0, -half, -half], [0] * 5, [0] * 5])
    res = classify(A)
    assert (res.label.dim, res.label.index) == (5, 7)


def test_classify_random_triangular_nil_pa(F7):
    # nil PA algebras generated independently of the catalog classify with
    # a verified isomorphism (the postcondition would raise otherwise)
    rng = random.Random(2024)
    found = 0
    tried = 0
    while found < 60 and tried < 30000:
        tried += 1
        n = rng.randint(2, 6)
        rows = [[rng.randrange(7) if k > i and rng.random() < 0.5 else 0
                 for k in range(n)] for i in range(n)]
        A = ev.new_evolution_algebra(F7, rows)
        if not ev.is_power_associative(A).verdict:
            continue
        found += 1
        res = classify(A)
        assert res.label.dim == n
        assert ev.is_nil(A).verdict and res.s == 0
    assert found == 60


def test_params_equivalent_witness_composition(F7):
    # equivalence witnesses verify even when built through the classifier
    pe = params_equivalent(5, 12, (1, 2), (1, 1), F7)
    if pe.status == "equivalent":
        C1 = canonical_algebra(make_label(5, 12, (1, 2)), F7)
        C2 = canonical_algebra(make_label(5, 12, (1, 1)), F7)
        assert verify_isomorphism(C1, C2, pe.witness).verdict


N45_BASIS = ((0, 0, 1, 0), (1, 3, 0, 0), (3, 6, 0, 0), (0, 0, 0, 3))


def test_n45_natural_basis_change_merges_members(F7):
    # e2 and e3 of N_{4,5}(a,b) square into one line, so the plane they
    # span carries a quadratic form; over F_7 the form <1,3> is similar to
    # <1,1>, and the non-monomial basis above realizes that similarity
    A = canonical_algebra(make_label(4, 5, (1, 3)), F7)
    B = canonical_algebra(make_label(4, 5, (1, 1)), F7)
    assert change_basis(A, N45_BASIS) == B
    M = mat_inverse(F7, tuple(zip(*N45_BASIS)))
    assert verify_isomorphism(A, B, M).verdict


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: canonical parameters are "
                   "monomial-orbit minima, not invariants under every natural basis change")
def test_n45_isomorphic_members_share_params(F7):
    assert classify(canonical_algebra(make_label(4, 5, (1, 3)), F7)).label == \
        classify(canonical_algebra(make_label(4, 5, (1, 1)), F7)).label
    assert params_equivalent(4, 5, (1, 3), (1, 1), F7).status == "equivalent"


def _plain_invertible(field, M):
    """Full rank by elimination in plain ints mod p or plain Fractions."""
    p = field.p if field.kind == "prime" else None
    rows = [list(r) for r in M]
    n = len(rows)
    for c in range(n):
        piv = next((r for r in range(c, n) if (rows[r][c] % p if p else rows[r][c])),
                   None)
        if piv is None:
            return False
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, p) if p else 1 / Fraction(rows[c][c])
        for r in range(c + 1, n):
            f = rows[r][c] * inv
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
            if p:
                rows[r] = [a % p for a in rows[r]]
    return True


def _plain_is_isomorphism(field, a_mul, c_mul, M):
    """x -> Mx is an isomorphism: M has full rank, and M(e_i e_j) equals
    (M e_i)(M e_j) for every basis pair, with a_mul and c_mul the products
    of the source and the target."""
    n = len(M)
    p = field.p if field.kind == "prime" else None
    if not _plain_invertible(field, M):
        return False
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    cols = [tuple(M[r][i] for r in range(n)) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = a_mul(units[i], units[j])
            support = [k for k in range(n) if prod[k]]
            left = [sum(M[r][k] * prod[k] for k in support) for r in range(n)]
            if p:
                left = [v % p for v in left]
            if tuple(left) != c_mul(cols[i], cols[j]):
                return False
    return True


def test_verify_isomorphism_agrees_with_plain_check_on_mutated_iso(Q, F7):
    # the hard postcondition's checker against an independent one: every
    # single-entry mutation (+1) of a classified iso gets the same verdict.
    # A shear into an annihilator direction can stay an isomorphism, so the
    # verdicts are compared rather than expected to be negative
    rng = random.Random(8)
    for field in (F7, Q):
        for dim in range(2, 7):
            for fam in ev.families_of_dim(dim):
                A = monomial_disguise(field, first_catalog_instance(field, fam)[0], rng)
                res = classify(A)
                C = canonical_algebra(res.label, field)
                # products memoized per algebra: a mutation changes one column
                a_mul = functools.cache(functools.partial(naive_multiply, A))
                c_mul = functools.cache(functools.partial(naive_multiply, C))
                assert _plain_is_isomorphism(field, a_mul, c_mul, res.iso), fam.name()
                for r in range(dim):
                    for c in range(dim):
                        M = [list(row) for row in res.iso]
                        M[r][c] = field.add(M[r][c], field.one)
                        M = tuple(tuple(row) for row in M)
                        assert verify_isomorphism(A, C, M).verdict == \
                            _plain_is_isomorphism(field, a_mul, c_mul, M), \
                            (fam.name(), r, c)
