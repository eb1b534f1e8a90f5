"""The exact scaling solver: canonical parameters, roots, factoring, cost in p."""

import hashlib
import itertools
import random
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest

import evolalg as ev
from evolalg.classify import _canon_cache, _canonical_orbit_rep
from evolalg.core import rref, solve_in_span
from evolalg.monomial import (
    _factor,
    _plan,
    _power_class_rep,
    _reduce_slots,
    _roots,
    _slot_moves,
    _split_moves,
    monomial_solutions,
    pattern_cells,
)

from conftest import first_catalog_instance, monomial_disguise

GOLDEN_FP = Path(__file__).resolve().parent / "golden" / "canon_fp.txt"
GOLDEN_YIELDS = Path(__file__).resolve().parent / "golden" / "solver_yields.txt"


def canon_fp_lines():
    """Canonical parameters of 8 seeded tuples of every parametrized family
    of dims 3-6 over F_7 and F_13: the monomial-orbit representative of the
    drawn tuple and the parameters classify reports for its instance."""
    lines = []
    for p in (7, 13):
        field = ev.make_field("Fp", p)
        for dim in range(3, 7):
            for fam in ev.families_of_dim(dim):
                if not fam.nparams:
                    continue
                rng = random.Random(f"canon_fp:{p}:{fam.dim}:{fam.index}")
                drawn = 0
                while drawn < 8:
                    params = tuple(rng.randrange(1, p) for _ in range(fam.nparams))
                    try:
                        A = ev.catalog.instantiate(fam, field, params)
                    except ev.ParamConstraintViolated:
                        continue
                    drawn += 1
                    orbit = _canonical_orbit_rep(field, fam, params)[0]
                    label = ev.classify(A).label
                    lines.append(f"{field.describe()} {fam.name()} "
                                 f"{','.join(map(str, params))} "
                                 f"orbit {','.join(map(str, orbit))} "
                                 f"classify {','.join(map(str, label.params))}")
    return lines


def test_canonical_params_fp_match_golden():
    # the golden file was written by canon_fp_lines() with the former
    # exhaustive root-pool search over F_p*; a differing line is a change
    # of canonical parameters to explain, not a file to regenerate
    want = GOLDEN_FP.read_text(encoding="utf-8").splitlines()
    got = canon_fp_lines()
    assert len(got) == len(want)
    diff = [(w, g) for w, g in zip(want, got) if w != g]
    assert not diff, diff[:5]


def _draw_params(field, fam, rng):
    if field.kind == "prime":
        return tuple(rng.randrange(1, field.p) for _ in range(fam.nparams))
    return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
                 for _ in range(fam.nparams))


def solver_yields_lines():
    """The full scaling-solver output on seeded members of every
    parametrized family over F_7, F_13, F_101 and Q: yield count and digest
    of the ``monomial_solutions`` sequence on the member itself, its
    canonical parameters, and the classify label, iso and monomial witness
    of one seeded disguise."""
    lines = []
    for field in (_fp(7), _fp(13), _fp(101), ev.make_field("Q")):
        for dim in range(1, 7):
            for fam in ev.families_of_dim(dim):
                if not fam.nparams:
                    continue
                rng = random.Random(f"solver_yields:{field.describe()}:{fam.name()}")
                drawn = 0
                while drawn < 4:
                    params = _draw_params(field, fam, rng)
                    try:
                        C = ev.catalog.instantiate(fam, field, params)
                    except ev.ParamConstraintViolated:
                        continue
                    drawn += 1
                    ys = list(monomial_solutions(
                        field, C.rows, pattern_cells(fam, field),
                        slot_names=fam.param_names,
                        det_constraints=fam.det_constraints))
                    digest = hashlib.sha256(repr(ys).encode()).hexdigest()[:16]
                    canon = _canonical_orbit_rep(field, fam, params)[0]
                    D = monomial_disguise(field, C, rng)
                    res = ev.classify(D)
                    wit = ev.monomial_isomorphism(C, D)
                    lines.append(" ".join((
                        field.describe(), fam.name(), _csv(params),
                        f"yields {len(ys)} {digest}", "canon", _csv(canon),
                        "label", res.label.name(), "iso", _mat(res.iso),
                        "witness", _mat(wit) if wit else "-")))
    return lines


def _csv(values):
    return ",".join(map(str, values))


def _mat(rows):
    return ";".join(_csv(r) for r in rows)


def test_solver_output_matches_golden():
    # written by solver_yields_lines() before the solver was compiled into
    # per-shape plans; a differing line is a change of solver output to
    # explain, not a file to regenerate
    want = GOLDEN_YIELDS.read_text(encoding="utf-8").splitlines()
    got = solver_yields_lines()
    assert len(got) == len(want)
    diff = [(w, g) for w, g in zip(want, got) if w != g]
    assert not diff, diff[:5]


def _fp(p):
    return ev.make_field("Fp", p)


def test_fp_roots_are_all_roots():
    for p in (7, 13, 17, 41, 97, 101):
        for d in range(1, 9):
            for a in range(1, p):
                want = [x for x in range(1, p) if pow(x, d, p) == a]
                assert _roots(_fp(p), a, d) == want, (p, d, a)
    # p - 1 = 2^8: square roots by Tonelli-Shanks down a deep Sylow subgroup
    for d in (2, 4, 16):
        for a in (1, 3, 16, 81, 255):
            want = [x for x in range(1, 257) if pow(x, d, 257) == a]
            assert _roots(_fp(257), a, d) == want, (d, a)


def test_fp_slot_reduction_is_the_orbit_minimum():
    # slot k is c_k * prod s^row_k; the reduction must reach the
    # lexicographic minimum over every choice of the free symbols,
    # including torsion moves such as s -> -s (rows [2], [1])
    rng = random.Random(11)
    cases = [(13, [3, 5], [[2], [1]]), (7, [2, 3], [[2], [1]])]
    for _ in range(40):
        p = rng.choice((7, 11, 13))
        m = rng.randint(1, 2)
        k = rng.randint(1, 3)
        cases.append((p, [rng.randrange(1, p) for _ in range(k)],
                      [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]))
    for p, consts, rows in cases:
        field = _fp(p)
        m = len(rows[0])

        def slots(symval):
            return tuple(c * prod(pow(v, e, p) for v, e in zip(symval, row)) % p
                         for c, row in zip(consts, rows))

        best = min(slots(s) for s in itertools.product(range(1, p), repeat=m))
        symval = _reduce_slots(field, consts, _slot_moves(field, rows, m), m)
        assert slots(symval) == best, (p, consts, rows)


def test_q_slot_moves_reach_the_gcd_of_the_kernel():
    # over Q slot k moves by t^(row_k . y) for integer y in the kernel of
    # rows[:k]; g must be the gcd of all such values (found here by a box
    # search), and an odd g or a slot that cannot move is left alone
    Q = ev.make_field("Q")
    rng = random.Random(23)
    cases = [[[2, 1, 1], [0, 1, 0]], [[-2, 2, 0], [-4, 0, 2]], [[0, -2, 2], [-2, 0, 2]]]
    for _ in range(60):
        m = rng.randint(1, 3)
        cases.append([[rng.randint(-2, 2) for _ in range(m)]
                      for _ in range(rng.randint(1, 3))])
    for rows in cases:
        m = len(rows[0])
        box = list(itertools.product(range(-8, 9), repeat=m))
        moves = _slot_moves(Q, rows, m)
        for k, (row, (row_out, g, y)) in enumerate(zip(rows, moves)):
            assert row_out == row
            want = 0
            for z in box:
                if not any(sum(r * v for r, v in zip(prev, z)) for prev in rows[:k]):
                    want = gcd(want, sum(r * v for r, v in zip(row, z)))
            if want == 0 or want % 2:
                assert (g, y) == (None, None), (rows, k, want, g)
                continue
            assert g == want, (rows, k, want, g)
            assert sum(r * v for r, v in zip(row, y)) == g, (rows, k, y)
            assert not any(sum(r * v for r, v in zip(prev, y)) for prev in rows[:k])


def test_split_moves_over_z_spans_the_kernel_lattice():
    def stabilizer(rows, m):
        moves = [[1 if c == k else 0 for c in range(m)] for k in range(m)]
        for row in rows:
            moves = _split_moves(moves, row, 0)[2]
        return moves

    # (0,1,-1) is in the kernel of (2,1,1), so the middle slot's exponent
    # can move by 1; a sublattice basis such as (-1,2,0), (-1,0,2) only
    # reaches even moves there
    assert _split_moves(stabilizer([[2, 1, 1]], 3), [0, 1, 0], 0)[0] == 1
    Q = ev.make_field("Q")
    rng = random.Random(17)
    for _ in range(100):
        m = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(rng.randint(0, 3))]
        basis = stabilizer(rows, m)
        assert len(rref(Q, basis)) == len(basis) == m - len(rref(Q, rows)), rows
        for y in itertools.product(range(-2, 3), repeat=m):
            if any(sum(r * v for r, v in zip(row, y)) for row in rows):
                continue
            coeffs = solve_in_span(Q, [tuple(map(Fraction, b)) for b in basis],
                                   tuple(map(Fraction, y)))
            assert all(c.denominator == 1 for c in coeffs), (rows, y, basis)


def test_solution_count_does_not_grow_with_p():
    counts = {}
    for p in (7, 101):
        field = _fp(p)
        for key in ((6, 16), (6, 18), (6, 23)):
            fam = ev.family(*key)
            C, _ = first_catalog_instance(field, fam)
            counts[p, key] = sum(1 for _ in monomial_solutions(
                field, C.rows, pattern_cells(fam, field), slot_names=fam.param_names,
                det_constraints=fam.det_constraints))
    for key in ((6, 16), (6, 18), (6, 23)):
        assert counts[101, key] <= 4 * counts[7, key], (key, counts)
    # one F_101 member in three disguises: one set of canonical parameters
    F101 = _fp(101)
    A = ev.canonical_algebra(ev.make_label(6, 18, (3, 50, 7, 99)), F101)
    rng = random.Random(101)
    labels = {ev.classify(monomial_disguise(F101, A, rng)).label for _ in range(3)}
    assert len(labels) == 1


def test_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    # a 30-digit semiprime whose smaller factor has 10 digits: trial
    # division to that factor takes minutes, Pollard-Brent rho milliseconds
    n = sympy.nextprime(2 * 10 ** 9) * sympy.nextprime(10 ** 20)
    assert len(str(n)) == 30
    assert _factor(n) == sympy.factorint(n)
    rng = random.Random(5)
    for m in [2 * (10 ** 14 + 31), 3 ** 40, 1] + [rng.randrange(1, 10 ** 18)
                                                for _ in range(30)]:
        assert _factor(m) == sympy.factorint(m), m
    # the square class of 2*P (P prime) is represented by 2/P
    big = 10 ** 14 + 31
    assert _power_class_rep(ev.make_field("Q"), Fraction(2 * big), 2) == \
        (Fraction(2, big), Fraction(1, big))


def test_plan_memo_holds_one_entry_per_target_shape():
    # plans are keyed by the target's cell kinds and slot names only, so
    # fresh parameters and other primes reuse them; the parameter memo is
    # emptied before each classify, as in a fresh process, so that every
    # member reaches the scaling solve
    fams = [fam for dim in range(1, 7) for fam in ev.families_of_dim(dim) if fam.nparams]
    shapes = {tuple(tuple("zero" if c == 0 else pn or "fixed" for c, pn in row)
                    for row in fam.rows) for fam in fams}
    assert _plan.cache_info().maxsize >= len(fams)
    _plan.cache_clear()
    sizes = []
    for field in (_fp(7), _fp(13), ev.make_field("Q")):
        rng = random.Random(f"plan_memo:{field.describe()}")
        for fam in fams:
            drawn = 0
            while drawn < 20:
                try:
                    A = ev.catalog.instantiate(fam, field, _draw_params(field, fam, rng))
                except ev.ParamConstraintViolated:
                    continue
                drawn += 1
                _canon_cache.clear()
                ev.classify(monomial_disguise(field, A, rng))
        sizes.append(_plan.cache_info().currsize)
    assert sizes[0] == sizes[1] == sizes[2] <= len(shapes), (sizes, len(shapes))
