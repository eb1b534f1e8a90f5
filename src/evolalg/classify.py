"""Constructive classification of power-associative evolution algebras, dim <= 6.

The pipeline: split off idempotent lines (Wedderburn), split the nil
radical into support-graph components, then normalize each connected nil
component by the constructive basis changes of the dimension <= 6
classification proofs.  Every arrangement freedom in those proofs (which
row generates, the order of its support, the order of the free vectors)
is enumerated; the resulting parameters are reduced to a canonical
monomial-orbit representative, so equal inputs in disguise classify to
identical labels and parameters.  A verified isomorphism matrix is a hard
postcondition: classify never returns an unchecked answer.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

from .catalog import (
    CatalogLabel,
    canonical_algebra,
    family,
    instantiate,
    make_label,
    mixed_index_for,
    nil_index_for_components,
)
from .checks import (
    CheckReport,
    Witness,
    annihilator_chain,
    is_associative,
    u_layer_square_dim,
)
from .core import (
    change_basis,
    is_zero_vector,
    mat_inverse,
    mat_mul,
    mat_transpose,
    mat_vec,
    multiply,
    rref,
    solve_in_span,
    vec_add,
    vec_scale,
)
from .decomp import graph_components, wedderburn
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InternalConsistency,
)
from .monomial import monomial_solutions, monomial_witness, pattern_cells


def verify_isomorphism(A, B, M):
    """Check that x -> Mx is an isomorphism, on all basis pairs."""
    if A.n != B.n or A.field != B.field:
        raise DimensionMismatch("isomorphism check needs equal dimension and field")
    n = A.n
    if len(M) != n or any(len(r) != n for r in M):
        raise DimensionMismatch("matrix has the wrong shape")
    field = A.field
    if mat_inverse(field, M) is None:
        return CheckReport(False, Witness("not_invertible", ()))
    cols = mat_transpose(M)
    zero = B.zero_element()
    for i in range(n):
        for j in range(i, n):
            left = mat_vec(field, M, A.rows[i]) if i == j else zero
            right = multiply(B, cols[i], cols[j])
            if left != right:
                return CheckReport(False, Witness("product_mismatch",
                                                  (i + 1, j + 1), left, right))
    return CheckReport(True)


# ---------------------------------------------------------------------------
# connected nil components: outcome = ("final", label, basis_rows, flags)
#                         or ("split", [part_rows, ...])


def _assert(cond, msg):
    if not cond:
        raise InternalConsistency(msg)


def _coords(field, spanning, target):
    """Coordinates of target over independent vectors that span it."""
    coords = solve_in_span(field, spanning, target)
    _assert(coords is not None, "coordinates missing in the constructed frame")
    return coords


def _complete_in_units(field, vecs, unit_indices, n):
    """Unit vectors extending span(vecs) to the span of the given units.

    ``vecs`` must be independent, so the rank of the growing basis is its length.
    """
    basis = list(vecs)
    added = []
    for t in unit_indices:
        u = tuple(field.one if k == t else field.zero for k in range(n))
        if len(rref(field, basis + [u])) > len(basis):
            basis.append(u)
            added.append(u)
    return added


def _assoc_outcomes(B):
    """Normalizations of a connected associative nil component."""
    field = B.field
    n = B.n
    rows = B.rows
    I = [i for i in range(n) if not is_zero_vector(field, rows[i])]
    V = [i for i in range(n) if is_zero_vector(field, rows[i])]
    _assert(I, "associative normalizer called on a zero component")
    w_basis = rref(field, [rows[i] for i in I])
    w = len(w_basis)
    unit = B.unit

    if w < len(V):
        # surplus annihilator directions split off as zero lines
        part1 = [unit(i) for i in I] + list(w_basis)
        extra = _complete_in_units(field, list(w_basis), V, n)
        return [("split", [part1] + [[e] for e in extra])]

    if w == 1:
        base = rows[I[0]]
        params = tuple(_coords(field, [base], rows[i])[0] for i in I[1:])
        index = {1: 2, 2: 3, 3: 5, 4: 8, 5: 16}[len(I)]
        basis = [unit(i) for i in I] + [base]
        return [("final", make_label(n, index, params), basis, ())]

    if w == 2:
        lines = {}
        for i in I:
            piv = next(k for k, v in enumerate(rows[i]) if not field.is_zero(v))
            lines.setdefault(tuple(vec_scale(field, field.inv(rows[i][piv]),
                                             rows[i])), []).append(i)
        if len(lines) == 2:
            parts = []
            for rep, grp in sorted(lines.items(), key=lambda kv: kv[1]):
                parts.append([unit(i) for i in grp] + [rep])
            return [("split", parts)]
        # three or more distinct square lines: indecomposable, dim 5 or 6.
        # Axis choices are enumerated per unordered line pair: swapping the
        # axes or the middle vectors is a permutation the canonical form's
        # own monomial moves already cover.
        outcomes = []
        line_reps = sorted(lines.items())
        for (_, grp_a), (_, grp_b) in itertools.combinations(line_reps, 2):
            p, q = grp_a[0], grp_b[0]
            rest = [i for i in I if i not in (p, q)]
            for r in rest:
                al, be = _coords(field, [rows[p], rows[q]], rows[r])
                if field.is_zero(al) or field.is_zero(be):
                    continue
                if n == 5:
                    basis = [unit(p), unit(r), unit(q), rows[p], rows[q]]
                    outcomes.append(("final", make_label(5, 9, (al, be)), basis, ()))
                    continue
                s2 = next(i for i in rest if i != r)
                ga, de = _coords(field, [rows[p], rows[q]], rows[s2])
                det = field.sub(field.mul(al, de), field.mul(be, ga))
                if not field.is_zero(ga) and not field.is_zero(de) \
                        and not field.is_zero(det):
                    basis = [unit(p), unit(r), unit(s2), unit(q), rows[p], rows[q]]
                    outcomes.append(("final", make_label(6, 18, (al, be, ga, de)),
                                     basis, ()))
                elif field.is_zero(ga):
                    basis = [unit(p), unit(r), unit(s2), unit(q), rows[p], rows[q]]
                    outcomes.append(("final", make_label(6, 17, (al, be, de)),
                                     basis, ()))
                elif field.is_zero(de):
                    basis = [unit(q), unit(r), unit(s2), unit(p), rows[q], rows[p]]
                    outcomes.append(("final", make_label(6, 17, (be, al, ga)),
                                     basis, ()))
                else:
                    # vanishing determinant: fold the mixed direction away
                    w6 = vec_add(field, vec_scale(field, al, rows[p]),
                                 vec_scale(field, be, rows[q]))
                    basis = [unit(p), unit(q), unit(s2), unit(r), rows[p], w6]
                    prm = (field.neg(field.div(al, be)), field.inv(be),
                           field.div(ga, al))
                    outcomes.append(("final", make_label(6, 17, prm), basis, ()))
        _assert(outcomes, "no valid arrangement for an indecomposable plane")
        return outcomes

    # three or more independent square directions always split within dim 6
    for size in range(1, len(I)):
        for S in itertools.combinations(I, size):
            rest = [i for i in I if i not in S]
            span_s = rref(field, [rows[i] for i in S])
            span_r = rref(field, [rows[i] for i in rest])
            if len(span_s) + len(span_r) == w:
                parts = [[unit(i) for i in S] + list(span_s),
                         [unit(i) for i in rest] + list(span_r)]
                return [("split", parts)]
    raise InternalConsistency("unsplittable associative component with wide square span")


def _nonassoc_arrangements(B):
    field = B.field
    n = B.n
    rows = B.rows
    nz_row = [not is_zero_vector(field, r) for r in rows]
    for i0 in range(n):
        if not any(j != i0 and not field.is_zero(rows[i0][j]) and nz_row[j]
                   for j in range(n)):
            continue
        Jp = [j for j in range(n) if not field.is_zero(rows[i0][j]) and nz_row[j]]
        Ja = [j for j in range(n) if not field.is_zero(rows[i0][j]) and not nz_row[j]]
        _assert(len(Jp) >= 2, "a non-associative generator needs two live directions")
        ann = [j for j in range(n) if not nz_row[j]]
        extras = [j for j in range(n)
                  if j != i0 and j not in Jp and j not in ann]
        for perm in itertools.permutations(Jp):
            for xperm in (itertools.permutations(extras) if extras else ((),)):
                yield i0, perm, Ja, list(xperm), ann


def _nonassoc_case(B, i0, perm, Ja, extras, ann):
    """One arrangement of the non-associative normalization; may split."""
    field = B.field
    n = B.n
    rows = B.rows
    unit = B.unit
    one, zero_el = field.one, B.zero_element()
    a = len(ann)
    k = len(perm)

    v2 = vec_scale(field, rows[i0][perm[0]], unit(perm[0]))
    for j in Ja:
        v2 = vec_add(field, v2, vec_scale(field, rows[i0][j], unit(j)))
    vs = [v2] + [vec_scale(field, rows[i0][p], unit(p)) for p in perm[1:]]
    sq = [multiply(B, v, v) for v in vs]
    v2sq = sq[0]
    _assert(not is_zero_vector(field, v2sq), "v2 squared vanished")

    if (n, a, k) == (4, 1, 2):
        _assert(sq[1] == tuple(field.neg(c) for c in v2sq), "v3^2 != -v2^2")
        return [("final", make_label(4, 6, ()), [unit(i0), vs[0], vs[1], v2sq], ())]

    if (n, a, k) == (5, 1, 2):
        x = extras[0]
        c2, c3, c5 = _coords(field, [vs[0], vs[1], v2sq], rows[x])
        _assert(c2 == c3, "unequal v2/v3 coordinates on the free square")
        basis = [unit(i0), vs[0], vs[1], unit(x), v2sq]
        if field.is_zero(c2):
            return [("final", make_label(5, 10, (c5,)), basis, ())]
        if field.is_zero(c5):
            return [("final", make_label(5, 11, (c2,)), basis, ())]
        return [("final", make_label(5, 12, (c2, c5)), basis, ())]

    if (n, a, k) == (5, 1, 3):
        al = _coords(field, [v2sq], sq[1])[0]
        _assert(not field.is_zero(al), "degenerate v3 square")
        onepal = field.add(one, al)
        _assert(not field.is_zero(onepal), "1 + alpha vanished with a live v4")
        _assert(sq[2] == vec_scale(field, field.neg(onepal), v2sq), "v4^2 mismatch")
        w3 = vec_add(field, vs[1], vs[2])
        w4 = vec_add(field, vs[1], vec_scale(field, field.div(al, onepal), vs[2]))
        basis = [unit(i0), vs[0], w3, w4, v2sq]
        return [("final", make_label(5, 10, (field.div(al, onepal),)), basis, ())]

    if (n, a, k) == (5, 2, 2):
        _assert(sq[1] == tuple(field.neg(c) for c in v2sq), "v3^2 != -v2^2")
        comp = _complete_in_units(field, [v2sq], ann, n)
        _assert(len(comp) == 1, "annihilator completion size")
        return [("split", [[unit(i0), vs[0], vs[1], v2sq], comp])]

    if (n, a, k) == (6, 1, 2):
        x, y = extras
        _assert(sq[1] == tuple(field.neg(c) for c in v2sq), "v3^2 != -v2^2")
        c2, c3, cy, c6 = _coords(field, [vs[0], vs[1], unit(y), v2sq], rows[x])
        _assert(c2 == c3 and field.is_zero(cy), "free square fails the PA relations")
        d2, d3, dx, d6 = _coords(field, [vs[0], vs[1], unit(x), v2sq], rows[y])
        _assert(d2 == d3 and field.is_zero(dx), "free square fails the PA relations")
        c4, e4, c5, e5 = c2, c6, d2, d6
        basis = [unit(i0), vs[0], vs[1], unit(x), unit(y), v2sq]
        if field.is_zero(c4) and field.is_zero(c5):
            return [("final", make_label(6, 19, (e4, e5)), basis, ())]
        if field.is_zero(c4) or field.is_zero(c5):
            if field.is_zero(c4):
                x, y = y, x
                c4, e4, c5, e5 = c5, e5, c4, e4
                basis = [unit(i0), vs[0], vs[1], unit(x), unit(y), v2sq]
            _assert(not field.is_zero(e5), "annihilated free vector")
            if field.is_zero(e4):
                return [("final", make_label(6, 20, (c4, e5)), basis, ())]
            return [("final", make_label(6, 21, (c4, e4, e5)), basis, ())]
        if field.is_zero(e4) and field.is_zero(e5):
            return [("final", make_label(6, 22, (c4, c5)), basis, ())]
        al, be, ga, de = c4, e4, c5, e5
        det = field.sub(field.mul(al, de), field.mul(be, ga))
        if not field.is_zero(be) and not field.is_zero(de) and not field.is_zero(det):
            return [("final", make_label(6, 23, (al, be, ga, de)), basis, ())]
        if field.is_zero(de):
            return [("final", make_label(6, 24, (al, be, ga)), basis, ())]
        if field.is_zero(be):
            basis = [unit(i0), vs[0], vs[1], unit(y), unit(x), v2sq]
            return [("final", make_label(6, 24, (ga, de, al)), basis, ())]
        # be*de != 0 with vanishing determinant: fold e6 into the plane
        w_basis = [unit(x), vec_scale(field, al, vs[0]),
                   vec_add(field, vec_scale(field, al, vs[1]),
                           vec_scale(field, be, v2sq)),
                   unit(i0), unit(y), vec_scale(field, field.mul(al, al), v2sq)]
        prm = (field.inv(al),
               field.neg(field.div(be, field.mul(field.mul(al, al), al))),
               field.div(ga, al))
        return [("final", make_label(6, 24, prm), w_basis, ())]

    if (n, a, k) == (6, 1, 3):
        z = extras[0]
        al = _coords(field, [v2sq], sq[1])[0]
        _assert(not field.is_zero(al), "degenerate v3 square")
        onepal = field.add(one, al)
        _assert(not field.is_zero(onepal), "1 + alpha vanished with a live v4")
        _assert(sq[2] == vec_scale(field, field.neg(onepal), v2sq), "v4^2 mismatch")
        c2, c3, c4, c6 = _coords(field, [vs[0], vs[1], vs[2], v2sq], rows[z])
        _assert(c2 == c3 == c4, "free square fails the PA relations")
        w3 = vec_add(field, vs[1], vs[2])
        w5 = vec_add(field, vs[1], vec_scale(field, field.div(al, onepal), vs[2]))
        basis = [unit(i0), vs[0], w3, unit(z), w5, v2sq]
        tail = field.div(al, onepal)
        flags = ("label_discrepancy_n6_18_vs_n6_19",)
        if field.is_zero(c2):
            return [("final", make_label(6, 19, (c6, tail)), basis, flags)]
        if field.is_zero(c6):
            return [("final", make_label(6, 20, (c2, tail)), basis, flags)]
        return [("final", make_label(6, 21, (c2, c6, tail)), basis, flags)]

    if (n, a, k) == (6, 1, 4):
        al = _coords(field, [v2sq], sq[1])[0]
        be = _coords(field, [v2sq], sq[2])[0]
        _assert(not field.is_zero(al) and not field.is_zero(be), "degenerate squares")
        tot = field.add(field.add(one, al), be)
        _assert(not field.is_zero(tot), "1 + alpha + beta vanished with a live v5")
        _assert(sq[3] == vec_scale(field, field.neg(tot), v2sq), "v5^2 mismatch")
        onepal = field.add(one, al)
        onepbe = field.add(one, be)
        if not field.is_zero(onepal):
            x = vec_add(field, vs[2], vec_scale(field, field.div(be, tot), vs[3]))
            y = vec_add(field, vec_add(field, vec_scale(field, field.div(onepal, al),
                                                        vs[1]), vs[2]), vs[3])
        elif not field.is_zero(onepbe):
            x = vec_add(field, vs[1], vec_scale(field, field.div(al, tot), vs[3]))
            y = vec_add(field, vec_add(field, vs[1],
                                       vec_scale(field, field.div(onepbe, be), vs[2])),
                        vs[3])
        else:
            two = field.add(one, one)
            x = vec_add(field, vec_add(field, vs[1], vs[2]),
                        vec_scale(field, two, vs[3]))
            y = vec_add(field, vec_scale(field, field.neg(one), vs[1]), vs[2])
        alp = _coords(field, [v2sq], multiply(B, x, x))[0]
        bep = _coords(field, [v2sq], multiply(B, y, y))[0]
        _assert(not field.is_zero(alp) and not field.is_zero(bep),
                "orthogonalized vectors with zero square")
        w3 = vec_add(field, vec_add(field, vs[1], vs[2]), vs[3])
        basis = [unit(i0), vs[0], w3, x, y, v2sq]
        return [("final", make_label(6, 19, (alp, bep)), basis, ())]

    if (n, a, k) == (6, 2, 2):
        z = extras[0]
        _assert(sq[1] == tuple(field.neg(c) for c in v2sq), "v3^2 != -v2^2")
        units_ann = [unit(t) for t in ann]
        c2, c3, t0, t1 = _coords(field, [vs[0], vs[1]] + units_ann, rows[z])
        _assert(c2 == c3, "free square fails the PA relations")
        t = vec_add(field, vec_scale(field, t0, units_ann[0]),
                    vec_scale(field, t1, units_ann[1]))
        if solve_in_span(field, [v2sq], t) is None:
            if field.is_zero(c2):
                return [("split", [[unit(i0), vs[0], vs[1], v2sq], [unit(z), t]])]
            basis = [unit(i0), vs[0], vs[1], unit(z), v2sq, t]
            return [("final", make_label(6, 25, (c2,)), basis, ())]
        comp = _complete_in_units(field, [v2sq], ann, n)
        _assert(len(comp) == 1, "annihilator completion size")
        return [("split", [[unit(i0), vs[0], vs[1], unit(z), v2sq], comp])]

    if (n, a, k) == (6, 2, 3):
        if solve_in_span(field, [v2sq], sq[1]) is None:
            target = vec_add(field, v2sq, sq[1])
            _assert(sq[2] == tuple(field.neg(c) for c in target), "v4^2 mismatch")
            basis = [unit(i0), vs[0], vs[1], vs[2], v2sq, sq[1]]
            return [("final", make_label(6, 26, ()), basis, ())]
        al = _coords(field, [v2sq], sq[1])[0]
        _assert(not field.is_zero(al), "degenerate v3 square")
        onepal = field.add(one, al)
        _assert(not field.is_zero(onepal), "1 + alpha vanished with a live v4")
        comp = _complete_in_units(field, [v2sq], ann, n)
        _assert(len(comp) == 1, "annihilator completion size")
        return [("split", [[unit(i0), vs[0], vs[1], vs[2], v2sq], comp])]

    if (n, a, k) == (6, 3, 2):
        _assert(sq[1] == tuple(field.neg(c) for c in v2sq), "v3^2 != -v2^2")
        comp = _complete_in_units(field, [v2sq], ann, n)
        _assert(len(comp) == 2, "annihilator completion size")
        return [("split", [[unit(i0), vs[0], vs[1], v2sq]] + [[c] for c in comp])]

    raise InternalConsistency(
        f"unreachable non-associative shape (n={n}, ann={a}, support={k})")


def _nonassoc_outcomes(B):
    outcomes = []
    for i0, perm, Ja, extras, ann in _nonassoc_arrangements(B):
        outcomes.extend(_nonassoc_case(B, i0, perm, Ja, extras, ann))
    _assert(outcomes, "no generator found in a non-associative component")
    return outcomes


# ---------------------------------------------------------------------------
# assembling components, canonical parameters, the public classifier


_canon_cache = {}


def _canonical_orbit_rep(field, fam, params):
    """Minimal monomial image of a family member, with the change achieving it.

    Returns (values, sigma, lam): the canonical parameters and a monomial
    map such that rescaling basis vectors by lam after permuting by sigma
    carries any realization of the input member onto the canonical one.
    Results are cached; the scalings are solved exactly over both fields.
    """
    cache_key = (field.describe(), fam.dim, fam.index, params)
    hit = _canon_cache.get(cache_key)
    if hit is not None:
        return hit
    C = instantiate(fam, field, params)
    best = None
    for sigma, lam, values in monomial_solutions(
            field, C.rows, pattern_cells(fam, field), slot_names=fam.param_names,
            det_constraints=fam.det_constraints):
        key = tuple(field.canon_key(v) for v in values)
        if best is None or key < best[0]:
            best = (key, values, sigma, lam)
    _assert(best is not None, "parameter canonicalization found no representative")
    result = best[1:]
    _canon_cache[cache_key] = result
    return result


def _canonicalize_final(B, finals):
    """Reduce final candidates to the canonical monomial representative."""
    field = B.field
    dims = {(lbl.dim, lbl.index) for _, lbl, _, _ in finals}
    _assert(len(dims) == 1, f"arrangements disagree on the label: {dims}")
    dim, index = dims.pop()
    fam = family(dim, index)
    if fam.nparams == 0:
        _, lbl, basis, flags = finals[0]
        return lbl, basis, flags

    best = None
    seen = set()
    for _, lbl, basis, flags in finals:
        if lbl.params in seen:
            continue
        seen.add(lbl.params)
        values, sigma, lam = _canonical_orbit_rep(field, fam, lbl.params)
        key = tuple(field.canon_key(v) for v in values)
        if best is None or key < best[0]:
            new_basis = [vec_scale(field, lam[i], basis[sigma[i]])
                         for i in range(len(basis))]
            best = (key, values, new_basis, flags)
    _, values, basis, flags = best
    return make_label(dim, index, values), basis, flags


def _embed(field, rows, indices, n):
    """Lift vectors on a sub-index-set into the ambient coordinates."""
    out = []
    for r in rows:
        v = [field.zero] * n
        for c, idx in zip(r, indices):
            v[idx] = c
        out.append(tuple(v))
    return out


def _nil_indecomposables(R):
    """Indecomposable nil blocks (label, basis rows in R's coordinates)."""
    results = []
    for indices, sub in graph_components(R):
        for label, rows_sub, flags in _classify_connected(sub):
            results.append((label, _embed(R.field, rows_sub, indices, R.n), flags))
    return results


def _classify_connected(B):
    field = B.field
    if B.n == 1:
        _assert(is_zero_vector(field, B.rows[0]), "connected nil component of dim 1 "
                                                  "must be the zero algebra")
        return [(make_label(1, 1, ()), [B.unit(0)], ())]
    outcomes = (_assoc_outcomes(B) if is_associative(B).verdict
                else _nonassoc_outcomes(B))
    splits = [o for o in outcomes if o[0] == "split"]
    if splits:
        parts = splits[0][1]
        new_rows = [tuple(v) for part in parts for v in part]
        Bn = change_basis(B, new_rows)
        block = [k for k, part in enumerate(parts) for _ in part]
        # a part that is not an ideal would come back as one component and
        # recurse forever
        _assert(all(block[i] == block[j] or field.is_zero(Bn.rows[i][j])
                    for i in range(Bn.n) for j in range(Bn.n)),
                "split parts are not ideals")
        return [(label, mat_mul(field, rows, new_rows), flags)
                for label, rows, flags in _nil_indecomposables(Bn)]
    label, basis, flags = _canonicalize_final(B, outcomes)
    return [(label, basis, flags)]


@dataclass(frozen=True)
class ClassificationResult:
    label: CatalogLabel
    iso: tuple                  # maps input coordinates to canonical ones
    invariants_record: dict
    s: int
    radical_label: Optional[CatalogLabel]
    flags: tuple


def classify(A):
    """Catalog label, canonical parameters and a verified isomorphism.

    Raises DimensionTooLarge above dimension 6; on input that is not
    power-associative, ``wedderburn`` raises NotPowerAssociative with the
    check's witness.
    """
    if A.n > 6:
        raise DimensionTooLarge("the classification stops at dimension 6")
    field = A.field
    wd = wedderburn(A)
    R = wd.radical
    comps = _nil_indecomposables(R) if R.n else []
    comps.sort(key=lambda item: (-item[0].dim, item[0].index,
                                 tuple(field.sort_key(p) for p in item[0].params)))
    flags = tuple(sorted({f for _, _, fl in comps for f in fl}))

    comp_keys = [(lbl.dim, lbl.index) for lbl, _, _ in comps]
    params = tuple(p for lbl, _, _ in comps for p in lbl.params)
    # s = 0 means A is its own radical
    radical_index = nil_index_for_components(R.n, comp_keys) if R.n else None
    index = radical_index if wd.s == 0 else mixed_index_for(A.n, wd.s, radical_index)
    label = make_label(A.n, index, params)

    basis_rows = list(wd.idempotents)
    for _, rows_r, _ in comps:
        basis_rows.extend(_embed(field, rows_r, wd.radical_indices, A.n))
    iso = mat_inverse(field, mat_transpose(basis_rows))
    if iso is None:
        raise InternalConsistency("assembled canonical basis is singular")
    C = canonical_algebra(label, field)
    rep = verify_isomorphism(A, C, iso)
    if not rep.verdict:
        raise InternalConsistency(
            f"classification self-check failed at {rep.witness.indices}")

    # the first chain layer is exactly the zero rows; with s = 0 wedderburn
    # has already checked A to be nil
    chain = annihilator_chain(A)
    record = {
        "type_sequence": chain.type_sequence,
        "dim_ann": len(chain.basis_layers[0]) if chain.basis_layers else 0,
        "associative": is_associative(A).verdict,
        "dim_u_square": u_layer_square_dim(A) if wd.s == 0 else None,
    }
    radical_label = make_label(R.n, radical_index, params) if R.n else None
    return ClassificationResult(label, iso, record, wd.s, radical_label, flags)


# ---------------------------------------------------------------------------
# parameter equivalence


@dataclass(frozen=True)
class ParamsEquivalence:
    status: str  # "equivalent" | "no" | "not_equivalent_under_search"
    witness: Optional[tuple]


def params_equivalent(dim, index, p1, p2, field):
    """Decide whether two parameter tuples name isomorphic catalog members.

    Both instances are classified; classification canonicalizes
    parameters over all normalization arrangements and monomial changes,
    so equal canonical parameters prove equivalence, with a verified
    witness.  A negative is exact only up to those changes.  Over a prime
    field it is reported as "no"; a natural basis that is not monomial can
    still join members whose rows are dependent (over F_7, N_{4,5}(1,3)
    and N_{4,5}(1,1) are isomorphic).  Over Q it is not a proof either,
    since the rational reduction also ignores sign changes of the free
    scalings.
    """
    fam = family(dim, index)
    C1 = instantiate(fam, field, p1)
    C2 = instantiate(fam, field, p2)
    r1 = classify(C1)
    r2 = classify(C2)
    _assert((r1.label.dim, r1.label.index) == (dim, index) ==
            (r2.label.dim, r2.label.index),
            "canonical member classified into a different family")
    if r1.label.params == r2.label.params:
        inv2 = mat_inverse(field, r2.iso)
        witness = mat_mul(field, inv2, r1.iso)
        rep = verify_isomorphism(C1, C2, witness)
        _assert(rep.verdict, "composed equivalence witness failed verification")
        return ParamsEquivalence("equivalent", witness)
    if field.kind == "prime":
        return ParamsEquivalence("no", None)
    return ParamsEquivalence("not_equivalent_under_search", None)


def monomial_isomorphism(A, B):
    """A -> B matrix witness under permutation-and-scaling changes, or None."""
    if A.n != B.n or A.field != B.field:
        raise DimensionMismatch("isomorphism search needs equal dimension and field")
    return monomial_witness(A.field, A.rows, B.rows)
