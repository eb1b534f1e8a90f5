"""Identity classes of an evolution algebra, with self-validating witnesses.

All checks reduce to basis-vector conditions on the rows r_i = e_i^2.
Every term is a scalar times a row: e_i^2 e_j = a_ij r_j, (e_i^2 e_j) e_k =
a_ij a_jk r_k, e_i^3 = a_ii r_i, and the one bilinear product e_i^2 e_j^2 =
sum of a_il a_jl r_l over l in both supp(r_i) and supp(r_j).  A term
vanishes exactly when its scalar or its row does, so the fourth-power and
nil fourth-power checks compute the row supports once and build a vector
only for a condition whose terms are not all zero.  They still scan the
conditions in their classical order, so the first violation is the one a
dense scan reports.  The Jordan check builds every term as a full vector.
Witnesses carry the violated condition, its indices and both evaluated
sides, so a report can be re-checked against the algebra.
"""

from dataclasses import dataclass
from typing import Optional

from .core import (
    Subspace,
    is_zero_vector,
    multiply,
    power_subspace,
    rref,
    vec_add,
    vec_scale,
)
from .errors import NotNil


@dataclass(frozen=True)
class Witness:
    condition: str
    indices: tuple  # 1-based, matching the classical statements
    left: Optional[tuple] = None
    right: Optional[tuple] = None


@dataclass(frozen=True)
class CheckReport:
    verdict: bool
    witness: Optional[Witness] = None

    def __bool__(self):
        return self.verdict


_OK = CheckReport(True)


def _row_supports(A):
    """supp(r_i) for every row, as ascending index lists."""
    is_zero = A.field.is_zero
    return [[k for k, v in enumerate(row) if not is_zero(v)] for row in A.rows]


def _meets(supp, i, j):
    """True when e_i^2 e_j^2 has a nonzero term a_il a_jl r_l.

    Its l = j and l = i terms are a_ij a_jj r_j and a_ji a_ii r_i, so when
    it has none, no condition on the pair (i, j) can fail; for i == j the
    l = i term is e_i^4 = a_ii^2 r_i.
    """
    sj = supp[j]
    return any(supp[l] for l in supp[i] if l in sj)


def _square_product(A, supp, i, j):
    """e_i^2 e_j^2 = sum of a_il a_jl r_l over l in both supp(r_i) and supp(r_j)."""
    field = A.field
    mul, add = field.mul, field.add
    rows = A.rows
    ri, rj, sj = rows[i], rows[j], supp[j]
    z = [field.zero] * A.n
    for l in supp[i]:
        if l in sj:
            c = mul(ri[l], rj[l])
            rl = rows[l]
            for k in supp[l]:
                z[k] = add(z[k], mul(c, rl[k]))
    return tuple(z)


# ---------------------------------------------------------------------------
# annihilator chain and nil structure


def annihilator(A):
    """ann(E) = span of the natural basis vectors with zero square."""
    field = A.field
    idx = tuple([i for i in range(A.n) if is_zero_vector(field, A.rows[i])])
    basis = tuple([A.unit(i) for i in idx])
    return Subspace(field, A.n, basis), idx


def _chain_index_sets(A):
    """Ascending chain of index sets S_i with ann^i = span{e_j : j in S_i}.

    e^2 lies in the span of basis vectors indexed by S exactly when its
    support is inside S, so the chain is pure support combinatorics.
    """
    supports = _row_supports(A)
    sets = []
    cur = frozenset()
    while True:
        nxt = frozenset(j for j in range(A.n) if cur.issuperset(supports[j]))
        if nxt == cur:
            break
        sets.append(nxt)
        cur = nxt
    return sets


@dataclass(frozen=True)
class AnnihilatorChain:
    chain: tuple           # strictly increasing subspaces ann^1 .. ann^r
    basis_layers: tuple    # B_i as tuples of 0-based basis indices
    type_sequence: tuple   # [n_1, ..., n_r]
    reaches_full: bool


def annihilator_chain(A):
    sets = _chain_index_sets(A)
    field = A.field
    chain = []
    layers = []
    seq = []
    prev = frozenset()
    for s in sets:
        chain.append(Subspace(field, A.n, tuple([A.unit(i) for i in sorted(s)])))
        layers.append(tuple(sorted(s - prev)))
        seq.append(len(s) - len(prev))
        prev = s
    return AnnihilatorChain(tuple(chain), tuple(layers), tuple(seq),
                            bool(sets) and len(sets[-1]) == A.n)


def is_nil(A):
    """Nil iff the annihilator chain exhausts the algebra.

    Any nonzero diagonal entry already defeats nilpotency (e_i never
    reaches zero under principal powers), so that is reported first.
    """
    field = A.field
    for i in range(A.n):
        if not field.is_zero(A.rows[i][i]):
            return CheckReport(False, Witness(
                "diagonal_nonzero", (i + 1,),
                left=vec_scale(field, A.rows[i][i], A.unit(i)),
                right=A.zero_element()))
    sets = _chain_index_sets(A)
    reached = sets[-1] if sets else frozenset()
    if len(reached) == A.n:
        return _OK
    stuck = tuple(sorted(set(range(A.n)) - reached))
    rep = A.zero_element()
    for j in stuck:
        rep = vec_add(field, rep, A.unit(j))
    return CheckReport(False, Witness(
        "annihilator_chain_stalled", tuple([j + 1 for j in stuck]),
        left=rep, right=A.zero_element()))


@dataclass(frozen=True)
class NilProfile:
    is_nil: bool
    right_nilpotency_index: Optional[int]  # least m with E^m = 0
    nil_index_pa: Optional[int]            # only meaningful when PA


def nil_profile(A):
    if not is_nil(A).verdict:
        return NilProfile(False, None, None)
    m = 1
    cur = power_subspace(A, 1)
    while cur.dim > 0:
        m += 1
        cur = power_subspace(A, m)
    if not is_power_associative(A).verdict:
        return NilProfile(True, m, None)
    field = A.field
    if all(is_zero_vector(field, r) for r in A.rows):
        pa_index = 2  # zero algebra: every square vanishes
    elif is_associative(A).verdict:
        pa_index = 3
    else:
        pa_index = 4
    return NilProfile(True, m, pa_index)


# ---------------------------------------------------------------------------
# identity classes


def is_associative(A):
    """Associative iff e_i^2 e_j = 0 for all i != j."""
    field = A.field
    rows = A.rows
    is_zero = field.is_zero
    zero = A.zero_element()
    for i in range(A.n):
        ri = rows[i]
        for j in range(A.n):
            if j == i or is_zero(ri[j]):
                continue
            if not is_zero_vector(field, rows[j]):
                return CheckReport(False, Witness(
                    "assoc", (i + 1, j + 1),
                    left=vec_scale(field, ri[j], rows[j]), right=zero))
    return _OK


def is_fourth_power_associative(A):
    """The four basis-level conditions equivalent to x^2 x^2 = x^4."""
    field = A.field
    rows = A.rows
    n = A.n
    mul = field.mul
    zero = A.zero_element()
    supp = _row_supports(A)

    # 1) e_i^4 = e_i^2 e_i^2
    for i in range(n):
        if not _meets(supp, i, i):
            continue
        ri = rows[i]
        left = _square_product(A, supp, i, i)
        right = vec_scale(field, mul(ri[i], ri[i]), ri)
        if left != right:
            return CheckReport(False, Witness("pa4_1", (i + 1,), right, left))
    # 2) 2 e_i^2 e_j^2 = (e_i^2 e_j) e_j + (e_j^2 e_i) e_i
    two = field.add(field.one, field.one)
    for i in range(n):
        ri = rows[i]
        for j in range(i + 1, n):
            if not _meets(supp, i, j):
                continue
            rj = rows[j]
            left = vec_scale(field, two, _square_product(A, supp, i, j))
            right = vec_add(field,
                            vec_scale(field, mul(ri[j], rj[j]), rj),
                            vec_scale(field, mul(rj[i], ri[i]), ri))
            if left != right:
                return CheckReport(False, Witness("pa4_2", (i + 1, j + 1), left, right))
    # 3) e_i^3 e_j + (e_i^2 e_j) e_i = a_ii a_ij r_j + a_ij a_ji r_i = 0
    for i in range(n):
        ri, si = rows[i], supp[i]
        for j in si:
            if j == i or not ((i in si and supp[j]) or i in supp[j]):
                continue
            rj = rows[j]
            val = vec_add(field,
                          vec_scale(field, mul(ri[i], ri[j]), rj),
                          vec_scale(field, mul(ri[j], rj[i]), ri))
            if not is_zero_vector(field, val):
                return CheckReport(False, Witness("pa4_3", (i + 1, j + 1), val, zero))
    # 4) (e_i^2 e_j) e_k + (e_i^2 e_k) e_j = 0 for j < k, both != i: a pair
    # is live when a_ij a_jk r_k or a_ik a_kj r_j is nonzero
    for i in range(n):
        ri, si = rows[i], supp[i]
        live = sorted({(min(j, k), max(j, k)) for j in si if j != i
                       for k in supp[j] if k != i and k != j and supp[k]})
        for j, k in live:
            val = vec_add(field,
                          vec_scale(field, mul(ri[j], rows[j][k]), rows[k]),
                          vec_scale(field, mul(ri[k], rows[k][j]), rows[j]))
            if not is_zero_vector(field, val):
                return CheckReport(False, Witness(
                    "pa4_4", (i + 1, j + 1, k + 1), val, zero))
    return _OK


def is_power_associative(A):
    """Power-associativity over characteristic not in {2,3,5}.

    By Albert's theorem the verdict is exactly the fourth-power criterion.
    A diagonal entry with a_ii^2 != a_ii almost always breaks it, and is
    the cleanest witness, so it is reported preferentially; but it cannot
    decide by itself (a lone rescaled idempotent line, e.g. e1^2 = 2e1,
    satisfies x^2 x^2 = x^4 identically).
    """
    field = A.field
    diag = None
    for i in range(A.n):
        a = A.rows[i][i]
        if field.mul(a, a) != a:
            diag = Witness("diagonal_not_idempotent", (i + 1,),
                           left=vec_scale(field, field.mul(a, a), A.unit(i)),
                           right=vec_scale(field, a, A.unit(i)))
            break
    rep = is_fourth_power_associative(A)
    if not rep.verdict and diag is not None:
        return CheckReport(False, diag)
    return rep


def is_jordan(A):
    """The five basis-level conditions equivalent to (x^2, y, x) = 0."""
    field = A.field
    rows = A.rows
    n = A.n
    mul, is_zero = field.mul, field.is_zero
    zero = A.zero_element()

    for i in range(n):
        ri = rows[i]
        left = multiply(A, ri, ri)
        right = vec_scale(field, mul(ri[i], ri[i]), ri)
        if left != right:
            return CheckReport(False, Witness("jordan_1", (i + 1,), left, right))
    for i in range(n):
        ri = rows[i]
        for j in range(n):
            if j == i:
                continue
            val = vec_scale(field, mul(ri[i], ri[j]), rows[j])
            if not is_zero_vector(field, val):
                return CheckReport(False, Witness("jordan_2", (i + 1, j + 1), val, zero))
    for i in range(n):
        ri = rows[i]
        for j in range(n):
            if j == i:
                continue
            val = vec_scale(field, mul(ri[j], rows[j][i]), ri)
            if not is_zero_vector(field, val):
                return CheckReport(False, Witness("jordan_3", (i + 1, j + 1), val, zero))
    for i in range(n):
        ri = rows[i]
        for j in range(i + 1, n):
            rj = rows[j]
            prod = multiply(A, ri, rj)
            right1 = vec_scale(field, mul(ri[j], rj[j]), rj)
            right2 = vec_scale(field, mul(rj[i], ri[i]), ri)
            if prod != right1 or prod != right2:
                return CheckReport(False, Witness(
                    "jordan_4", (i + 1, j + 1), prod,
                    right1 if prod != right1 else right2))
    for i in range(n):
        ri = rows[i]
        for j in range(n):
            if j == i or is_zero(ri[j]):
                continue
            rj = rows[j]
            for k in range(n):
                if k == i or k == j or is_zero(rj[k]):
                    continue
                val = vec_scale(field, mul(ri[j], rj[k]), rows[k])
                if not is_zero_vector(field, val):
                    return CheckReport(False, Witness(
                        "jordan_5", (i + 1, j + 1, k + 1), val, zero))
    return _OK


def nil_fourth_pa_criterion(A):
    """Fourth-power associativity restated for nil algebras.

    Condition 1: e_i^2 e_j^2 = 0 for i <= j; condition 2:
    (e_i^2 e_j) e_k = 0 for all i, j, k.  Input must be nil.
    """
    if not is_nil(A).verdict:
        raise NotNil("the nil fourth-power criterion needs a nil algebra")
    field = A.field
    rows = A.rows
    n = A.n
    zero = A.zero_element()
    supp = _row_supports(A)
    for i in range(n):
        for j in range(i, n):
            if not _meets(supp, i, j):
                continue
            val = _square_product(A, supp, i, j)
            if not is_zero_vector(field, val):
                return CheckReport(False, Witness("nil_pa4_1", (i + 1, j + 1), val, zero))
    # a single term a_ij a_jk r_k: nonzero iff each factor is
    mul = field.mul
    for i in range(n):
        ri = rows[i]
        for j in supp[i]:
            rj = rows[j]
            for k in supp[j]:
                if supp[k]:
                    val = vec_scale(field, mul(ri[j], rj[k]), rows[k])
                    return CheckReport(False, Witness(
                        "nil_pa4_2", (i + 1, j + 1, k + 1), val, zero))
    return _OK


# ---------------------------------------------------------------------------
# derived invariants used by the classifier and reports


def u_layer_square_dim(A):
    """dim of the square of {x in ann^r : x ann^(r-1) = 0}, for nil A.

    The layer is spanned by the top chain layer B_r together with ann^1,
    so its square is spanned by the rows indexed by B_r.
    """
    sets = _chain_index_sets(A)
    if not sets or len(sets[-1]) != A.n:
        return None
    if len(sets) == 1:
        return 0  # zero algebra: the layer is everything, its square is 0
    top = sets[-1] - sets[-2]
    return len(rref(A.field, [A.rows[j] for j in sorted(top)]))


def nil_nonassoc_certificate(A):
    """Witnesses for the nil-index-4 theorem on a nil PA non-associative input.

    Returns (a, y): a = e_i0 + e_j0 with a^3 != 0, and y = e_i0 with
    y not in E^2 and y E^2 = 0.
    """
    field = A.field
    for i in range(A.n):
        for j in range(A.n):
            if j != i and not field.is_zero(A.rows[i][j]) \
                    and not is_zero_vector(field, A.rows[j]):
                a = vec_add(field, A.unit(i), A.unit(j))
                return a, A.unit(i)
    raise NotNil("no non-associative pair: the algebra is associative")
