import random
from pathlib import Path

import pytest

import evolalg as ev
from evolalg import (
    annihilator,
    annihilator_chain,
    is_associative,
    is_fourth_power_associative,
    is_jordan,
    is_nil,
    is_power_associative,
    nil_fourth_pa_criterion,
    nil_profile,
    new_evolution_algebra,
    u_layer_square_dim,
)

from conftest import (
    assoc_violation,
    elements_of,
    first_catalog_instance,
    fp_pa4_violation,
    monomial_disguise,
    naive_multiply,
    random_fp_matrix,
)

GOLDEN_WITNESS = Path(__file__).resolve().parent / "golden" / "checks_witness.txt"


def n46(field):
    return new_evolution_algebra(field, [[0, 1, 1, 0], [0, 0, 0, 1],
                                         [0, 0, 0, -1], [0, 0, 0, 0]])


def swapper(field):
    return new_evolution_algebra(field, [[0, 1], [1, 0]])  # e1^2=e2, e2^2=e1


def test_annihilator(Q):
    A = n46(Q)
    sub, idx = annihilator(A)
    assert idx == (3,) and sub.dim == 1
    # oracle: e4 kills every basis vector
    for j in range(4):
        assert naive_multiply(A, A.unit(3), A.unit(j)) == A.zero_element()
    Z = new_evolution_algebra(Q, [[0] * 3] * 3)
    subz, idxz = annihilator(Z)
    assert idxz == (0, 1, 2) and subz.dim == 3
    E12 = new_evolution_algebra(Q, [[1]])
    sube, idxe = annihilator(E12)
    assert idxe == () and sube.dim == 0


def test_annihilator_chain(Q):
    chain = annihilator_chain(n46(Q))
    assert [s.dim for s in chain.chain] == [1, 3, 4]
    assert chain.type_sequence == (1, 2, 1)
    assert chain.basis_layers == ((3,), (1, 2), (0,))
    assert chain.reaches_full
    # chain entries are strictly increasing and each layer sums correctly
    assert sum(chain.type_sequence) == 4

    N510 = ev.canonical_algebra(ev.make_label(5, 10, (2,)), Q)
    assert annihilator_chain(N510).type_sequence == (1, 3, 1)

    E24 = new_evolution_algebra(Q, [[1, 0], [0, 1]])
    chain = annihilator_chain(E24)
    assert chain.chain == () and chain.type_sequence == ()
    assert not chain.reaches_full


def test_is_nil(Q):
    assert is_nil(n46(Q)).verdict
    rep = is_nil(new_evolution_algebra(Q, [[1]]))
    assert not rep.verdict and rep.witness.condition == "diagonal_nonzero"
    assert rep.witness.indices == (1,)
    rep = is_nil(swapper(Q))
    assert not rep.verdict and rep.witness.condition == "annihilator_chain_stalled"
    # oracle: principal powers of e1+e2 never die
    A = swapper(Q)
    x = ev.element(A, [1, 1])
    for k in range(2, 9):
        assert ev.principal_power(A, x, k) != A.zero_element()


def test_nil_profile(Q):
    prof = nil_profile(new_evolution_algebra(Q, [[0, 1], [0, 0]]))
    assert prof == ev.NilProfile(True, 3, 3)
    assert nil_profile(n46(Q)) == ev.NilProfile(True, 4, 4)
    prof = nil_profile(new_evolution_algebra(Q, [[0, 0], [0, 0]]))
    assert prof == ev.NilProfile(True, 2, 2)
    assert nil_profile(new_evolution_algebra(Q, [[1]])).is_nil is False
    # nil but not PA: right index reported, PA nil-index absent
    A = new_evolution_algebra(Q, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    prof = nil_profile(A)
    assert prof.is_nil and prof.right_nilpotency_index == 4
    assert prof.nil_index_pa is None and not is_power_associative(A).verdict


def test_is_associative(Q):
    A = ev.canonical_algebra(ev.make_label(3, 3, (2,)), Q)
    assert is_associative(A).verdict
    rep = is_associative(n46(Q))
    assert not rep.verdict and rep.witness.indices == (1, 2)
    assert rep.witness.left == ev.element(n46(Q), [0, 0, 0, 1])
    E37 = new_evolution_algebra(Q, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert is_associative(E37).verdict


def test_is_fourth_power_associative(Q):
    assert is_fourth_power_associative(n46(Q)).verdict
    rep = is_fourth_power_associative(swapper(Q))
    assert not rep.verdict
    # first violated condition in scan order is e1^4 = e1^2 e1^2
    assert rep.witness.condition == "pa4_1" and rep.witness.indices == (1,)
    # the element-level oracle agrees: x^2 x^2 = x^4 fails at x = e1, where
    # x^2 = e2, x^3 = e2 e1 = 0 but x^2 x^2 = e2^2 = e1 (e1+e2 is idempotent
    # here, so it cannot witness anything)
    A = swapper(Q)
    x = A.unit(0)
    x2 = naive_multiply(A, x, x)
    x4 = naive_multiply(A, naive_multiply(A, x2, x), x)
    assert naive_multiply(A, x2, x2) != x4
    assert is_fourth_power_associative(
        new_evolution_algebra(Q, [[0] * 4] * 4)).verdict


def test_is_power_associative(Q, F7):
    assert is_power_associative(n46(Q)).verdict
    # a bad diagonal entry is the preferred witness when the fourth-power
    # criterion fails
    rep = is_power_associative(new_evolution_algebra(Q, [[2, 0], [1, 0]]))
    assert not rep.verdict
    assert rep.witness.condition == "diagonal_not_idempotent"
    assert rep.witness.indices == (1,)
    A = ev.canonical_algebra(ev.make_label(5, 21, (3,)), F7)
    assert is_power_associative(A).verdict


def test_rescaled_idempotent_line_is_genuinely_pa(Q):
    # e1^2 = 2e1 satisfies x^2 x^2 = x^4 for every x, so the verdict must
    # agree with Albert's criterion even though a_11 is not 0 or 1
    A = new_evolution_algebra(Q, [[2]])
    assert is_fourth_power_associative(A).verdict
    assert is_power_associative(A).verdict
    assert is_jordan(A).verdict
    B = new_evolution_algebra(Q, [[2, 1], [0, 0]])
    assert is_power_associative(B).verdict == is_jordan(B).verdict == True  # noqa: E712


def test_is_jordan(Q, F7):
    assert is_jordan(n46(Q)).verdict
    assert not is_jordan(swapper(Q)).verdict
    E24 = new_evolution_algebra(F7, [[1, 0], [0, 1]])
    assert is_jordan(E24).verdict
    # oracle: (x^2, y, x) = 0 exhaustively over F7^2
    for x in elements_of(F7, 2):
        x2 = naive_multiply(E24, x, x)
        for y in elements_of(F7, 2):
            left = naive_multiply(E24, naive_multiply(E24, x2, y), x)
            right = naive_multiply(E24, x2, naive_multiply(E24, y, x))
            assert left == right


def test_nil_fourth_pa_criterion(Q):
    assert nil_fourth_pa_criterion(n46(Q)).verdict
    N33 = ev.canonical_algebra(ev.make_label(3, 3, (1,)), Q)
    assert nil_fourth_pa_criterion(N33).verdict
    A = new_evolution_algebra(Q, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    rep = nil_fourth_pa_criterion(A)
    assert not rep.verdict
    assert rep.witness.condition == "nil_pa4_1" and rep.witness.indices == (1, 1)
    with pytest.raises(ev.NotNil):
        nil_fourth_pa_criterion(new_evolution_algebra(Q, [[1]]))


def test_nil_criterion_agrees_with_pa4_on_nil_inputs(F7):
    rng = random.Random(21)
    count = 0
    while count < 300:
        n = rng.randint(1, 5)
        # strictly upper-triangular random matrices are always nil
        rows = [[rng.randrange(7) if k > i else 0 for k in range(n)]
                for i in range(n)]
        A = new_evolution_algebra(F7, rows)
        assert ev.is_nil(A).verdict
        count += 1
        assert nil_fourth_pa_criterion(A).verdict == \
            is_fourth_power_associative(A).verdict


def test_pa_iff_jordan_sampled(F7):
    rng = random.Random(31)
    for _ in range(400):
        A = random_fp_matrix(F7, rng.randint(1, 6), rng)
        assert is_power_associative(A).verdict == is_jordan(A).verdict
    # jordan implies fourth-PA on every sample
    for _ in range(200):
        A = random_fp_matrix(F7, rng.randint(1, 5), rng)
        if is_jordan(A).verdict:
            assert is_fourth_power_associative(A).verdict


def test_albert_consistency_small(F7):
    rng = random.Random(41)
    for _ in range(150):
        A = random_fp_matrix(F7, 2, rng)
        assert is_fourth_power_associative(A).verdict == \
            (fp_pa4_violation(A) is None)


def witness_reevaluates(A, rep):
    """Recompute the violated condition from the witness data."""
    field = A.field
    w = rep.witness
    idx = tuple(i - 1 for i in w.indices)
    rows = A.rows

    def scaled(c, row):
        return tuple(field.mul(c, v) for v in row)

    if w.condition == "pa4_1":
        i, = idx
        left = naive_multiply(A, rows[i], rows[i])
        right = scaled(field.mul(rows[i][i], rows[i][i]), rows[i])
        return left != right
    if w.condition == "pa4_2":
        i, j = idx
        two = field.add(field.one, field.one)
        left = scaled(two, naive_multiply(A, rows[i], rows[j]))
        right = tuple(field.add(a, b) for a, b in zip(
            scaled(field.mul(rows[i][j], rows[j][j]), rows[j]),
            scaled(field.mul(rows[j][i], rows[i][i]), rows[i])))
        return left != right
    if w.condition == "pa4_3":
        i, j = idx
        val = tuple(field.add(a, b) for a, b in zip(
            scaled(field.mul(rows[i][i], rows[i][j]), rows[j]),
            scaled(field.mul(rows[i][j], rows[j][i]), rows[i])))
        return any(not field.is_zero(v) for v in val)
    if w.condition == "pa4_4":
        i, j, k = idx
        val = tuple(field.add(a, b) for a, b in zip(
            scaled(field.mul(rows[i][j], rows[j][k]), rows[k]),
            scaled(field.mul(rows[i][k], rows[k][j]), rows[j])))
        return any(not field.is_zero(v) for v in val)
    if w.condition == "diagonal_not_idempotent":
        i, = idx
        return field.mul(rows[i][i], rows[i][i]) != rows[i][i]
    if w.condition == "diagonal_nonzero":
        i, = idx
        return not field.is_zero(rows[i][i])
    raise AssertionError(f"unknown condition {w.condition}")


def test_witnesses_self_validate(F7):
    rng = random.Random(51)
    checked = 0
    while checked < 200:
        A = random_fp_matrix(F7, rng.randint(2, 6), rng)
        rep = is_fourth_power_associative(A)
        if rep.verdict:
            continue
        assert witness_reevaluates(A, rep)
        rep2 = is_power_associative(A)
        if not rep2.verdict:
            assert witness_reevaluates(A, rep2)
        checked += 1
    # witness left/right faithfully reproduce the two sides
    rep = is_fourth_power_associative(swapper(F7))
    assert rep.witness.left != rep.witness.right


def test_type_sequences_sum_to_chain_dim(F7):
    rng = random.Random(61)
    for _ in range(200):
        A = random_fp_matrix(F7, rng.randint(1, 6), rng)
        chain = annihilator_chain(A)
        if chain.chain:
            assert sum(chain.type_sequence) == chain.chain[-1].dim
            assert all(t > 0 for t in chain.type_sequence)
            dims = [s.dim for s in chain.chain]
            assert dims == sorted(set(dims))


def test_u_layer_square_dim(Q):
    assert u_layer_square_dim(n46(Q)) == 1
    N512 = ev.canonical_algebra(ev.make_label(5, 12, (1, 2)), Q)
    assert u_layer_square_dim(N512) == 2
    N625 = ev.canonical_algebra(ev.make_label(6, 25, (3,)), Q)
    assert u_layer_square_dim(N625) == 2
    N626 = ev.canonical_algebra(ev.make_label(6, 26, ()), Q)
    assert u_layer_square_dim(N626) == 1
    assert u_layer_square_dim(new_evolution_algebra(Q, [[1]])) is None
    assert u_layer_square_dim(new_evolution_algebra(Q, [[0, 0], [0, 0]])) == 0


def test_nil_pa_nonassoc_structure(Q):
    # nil + PA + not associative forces nil index 4 with the stated witnesses
    for label, params in [((4, 6), ()), ((5, 10), (2,)), ((5, 11), (1,)),
                          ((6, 26), ())]:
        A = ev.canonical_algebra(ev.make_label(*label, params), Q)
        assert ev.power_subspace(A, 4).dim == 0
        assert ev.power_subspace(A, 3).dim > 0
        a, y = ev.checks.nil_nonassoc_certificate(A)
        assert ev.principal_power(A, a, 3) != A.zero_element()
        E2 = ev.power_subspace(A, 2)
        assert not ev.membership(E2, y)
        for row in E2.basis:
            assert ev.multiply(A, y, row) == A.zero_element()


def _witness_inputs():
    """Seeded (name, algebra) pairs over F_7, F_13 and Q.

    Per dimension 1-6 and zero density 0.2, 0.5, 0.8, six draws of four
    shapes: "plain" (independent entries), "nil" (strictly triangular under
    a random relabelling), and "pairs"/"nilpairs", where basis vectors come
    in pairs with opposite squares and rows hit both members of a pair with
    coefficients of equal square.  Pairs make e_i^2 e_i^2 cancel, so the
    first condition holds and the later conditions get tested.  Then every
    catalog family of dims 1-6 as a monomial disguise of its first instance,
    and that disguise with one entry overwritten.
    """
    for field in (ev.make_field("Fp", 7), ev.make_field("Fp", 13), ev.make_field("Q")):
        name = field.describe()
        pool = [field.coerce(c) for c in (1, -1, 2, -2)]
        if field.kind != "prime":
            pool += [field.parse("1/2"), field.parse("-1/3")]
        for dim in range(1, 7):
            for zeros in (0.2, 0.5, 0.8):
                rng = random.Random(f"checks_witness:{name}:{dim}:{zeros}")
                for t in range(6):
                    for shape in ("plain", "nil", "pairs", "nilpairs"):
                        rows = _witness_rows(field, dim, zeros, shape, pool, rng)
                        yield (f"{name} d{dim} z{zeros} {shape} #{t}",
                               new_evolution_algebra(field, rows))
        for dim in range(1, 7):
            rng = random.Random(f"checks_witness:{name}:{dim}:catalog")
            for fam in ev.families_of_dim(dim):
                D = monomial_disguise(field, first_catalog_instance(field, fam)[0], rng)
                yield f"{name} {fam.name()}", D
                rows = [list(r) for r in D.rows]
                i, k = rng.randrange(dim), rng.randrange(dim)
                rows[i][k] = rng.choice([field.zero] + pool)
                yield (f"{name} {fam.name()} e{i + 1}{k + 1}:{rows[i][k]}",
                       new_evolution_algebra(field, rows))


def test_associative_witness_matches_oracle():
    # checks_witness.txt has no assoc lines, so the oracle guards this witness
    for name, A in _witness_inputs():
        rep = is_associative(A)
        bad = assoc_violation(A)
        if bad is None:
            assert rep == ev.checks.CheckReport(True), name
            continue
        i, j, left = bad
        want = ev.checks.Witness("assoc", (i + 1, j + 1), left, A.zero_element())
        assert rep == ev.checks.CheckReport(False, want), name


def _witness_rows(field, dim, zeros, shape, pool, rng):
    nil = shape.startswith("nil")
    order = list(range(dim))
    rng.shuffle(order)
    if not shape.endswith("pairs"):
        return [[field.zero if (nil and order.index(k) <= order.index(i))
                 or rng.random() < zeros else rng.choice(pool)
                 for k in range(dim)] for i in range(dim)]
    groups, start = [], 0
    while start < dim:
        size = 2 if rng.random() < 2 / 3 else 1
        groups.append(order[start:start + size])
        start += size
    # a singleton is a sink (zero row) or a source (never referenced)
    source = [len(g) == 1 and rng.random() < 0.5 for g in groups]
    rows = [[field.zero] * dim for _ in range(dim)]
    for gi, g in enumerate(groups):
        if len(g) == 1 and not source[gi]:
            continue
        for hi, h in enumerate(groups):
            if hi == gi or source[hi] or (nil and hi < gi) or rng.random() < zeros:
                continue
            c = rng.choice(pool)
            for m in h:
                rows[g[0]][m] = rng.choice((c, field.neg(c)))
        if len(g) == 2:
            rows[g[1]] = [field.neg(v) for v in rows[g[0]]]
    return rows


def _report_text(rep):
    w = rep.witness
    if w is None:
        return str(rep.verdict)

    def vec(v):
        return "-" if v is None else ",".join(map(str, v))

    return (f"{rep.verdict} {w.condition} | {vec(w.indices)} | "
            f"{vec(w.left)} | {vec(w.right)}")


def checks_witness_lines():
    """One line per (input, check): the verdict and, on failure, the witness
    condition, indices and both sides.  The nil criterion runs on nil inputs
    only."""
    lines = []
    for name, A in _witness_inputs():
        reps = [("pa4", is_fourth_power_associative(A)),
                ("pa", is_power_associative(A)),
                ("jordan", is_jordan(A))]
        if is_nil(A).verdict:
            reps.append(("nil_pa4", nil_fourth_pa_criterion(A)))
        lines += [f"{name} {tag} {_report_text(rep)}" for tag, rep in reps]
        prof = nil_profile(A)
        lines.append(f"{name} nil_profile {prof.is_nil} "
                     f"{prof.right_nilpotency_index} {prof.nil_index_pa}")
    return lines


def test_checks_match_golden_witnesses():
    # the golden file was written by checks_witness_lines() with the dense
    # identity checks; a differing line is a changed verdict or witness to
    # explain, not a file to regenerate
    want = GOLDEN_WITNESS.read_text(encoding="utf-8").splitlines()
    got = checks_witness_lines()
    assert len(got) == len(want)
    diff = [(w, g) for w, g in zip(want, got) if w != g]
    assert not diff, diff[:5]


def test_golden_witnesses_hit_every_condition():
    conditions = {line.split(" | ")[0].rsplit(" ", 1)[1]
                  for line in GOLDEN_WITNESS.read_text(encoding="utf-8").splitlines()
                  if " | " in line}
    want = {f"pa4_{k}" for k in range(1, 5)} | {f"jordan_{k}" for k in range(1, 6)}
    want |= {"nil_pa4_1", "nil_pa4_2", "diagonal_not_idempotent"}
    assert want <= conditions, want - conditions
