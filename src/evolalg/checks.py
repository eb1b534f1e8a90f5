"""Identity classes of an evolution algebra, with self-validating witnesses.

Every basis-level condition equates two sums of three kinds of term on the
rows r_i = e_i^2: "r ij" is e_i^2 e_j = a_ij r_j, "p ijk" is (e_i^2 e_j) e_k
= a_ij a_jk r_k, and "s ij" is e_i^2 e_j^2, computed by ``multiply``.  A
term is live, and may be nonzero, only when its scalars and row are.  Each
identity is one table of conditions (name, index constraint, equalities),
and one evaluator serves all tables: it lists, from the row supports, the
index tuples where some term of a condition is live, visits them in
lexicographic order and reports the first failing equality, so witnesses
are those of a dense scan.  The tables show the term-by-term relation of
the two identities: pa4_1 is jordan_1, pa4_3 adds the terms of jordan_2 and
jordan_3, pa4_4 adds two jordan_5 terms, and pa4_2 is the sum of jordan_4's
two equalities.  Witnesses carry the violated condition, its indices and
both evaluated sides, so a report can be re-checked against the algebra.
"""

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
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
    """supp(r_i) for every row, as ascending index lists (scalars are
    canonical, so exactly the zero scalar is falsy)."""
    return [[k for k, v in enumerate(row) if v] for row in A.rows]


# ---------------------------------------------------------------------------
# condition tables and their evaluator


def _terms(side):
    """"p iij + p iji" as ((kind, index positions), ...); "" is zero."""
    return tuple([(t[0], tuple(["ijk".index(c) for c in t[2:]]))
                  for t in side.split(" + ") if t])


def _compile(*table):
    """Parse the terms and group them by kind and pattern, the numbering
    of their indices by first occurrence: "p ikj" has pattern (0, 1, 2) and
    distinct indices (i, k, j), which a reorder maps to the condition's
    (i, j, k).  Every term uses all the indices of its condition."""
    out = []
    for name, allowed, equalities in table:
        eqs = tuple([(_terms(lhs), _terms(rhs)) for lhs, rhs in equalities])
        terms = {t for eq in eqs for side in eq for t in side}
        sources = {}
        for kind, pos in sorted(terms):
            # a_ij a_jj r_j is a term of e_i^2 e_j^2, so "p ijj" is live only
            # where "s ij" is and adds no candidates of its own
            if kind == "p" and pos[1] == pos[2] and \
                    {("s", pos[:2]), ("s", pos[1::-1])} & terms:
                continue
            distinct = sorted(set(pos), key=pos.index)
            pattern = tuple([distinct.index(v) for v in pos])
            reorder = None if distinct == sorted(distinct) else \
                itemgetter(*[distinct.index(v) for v in range(len(distinct))])
            sources.setdefault((kind, pattern), []).append(reorder)
        in_order = list(sources.values()) == [[None]]
        out.append((name, allowed, eqs, tuple(sources.items()), in_order))
    return tuple(out)


def _live(kind, pattern, rows, supp, pairs):
    """Ascending tuples of distinct indices at which a term of this kind and
    pattern is live.  r terms are read lazily off the rows; the others use
    the row supports and pairs, the live (i, j)."""
    if kind == "r":
        cols = range(len(rows))
        return ((i, j) for i, r in enumerate(rows) for j in compress(cols, r) if any(rows[j]))
    if kind == "s":
        if pattern == (0, 0):
            return [(i,) for i in dict.fromkeys([i for i, _ in pairs])]
        cols = [[] for _ in supp]
        for i, l in pairs:
            cols[l].append(i)
        return sorted({(i, j) for c in cols for i in c for j in c})
    if pattern == (0, 0, 1):
        return [(i, k) for i, k in pairs if i in supp[i]]
    if pattern == (0, 1, 0):
        return [(i, j) for i, j in pairs if i in supp[j]]
    return [(i, j, k) for i, j in pairs for k in supp[j] if supp[k]]


_ASSOCIATIVE = _compile(("assoc", lambda i, j: i != j, [("r ij", "")]))

_FOURTH_POWER = _compile(
    ("pa4_1", lambda *idx: True, [("p iii", "s ii")]),
    ("pa4_2", lambda i, j: i < j, [("s ij + s ij", "p ijj + p jii")]),
    ("pa4_3", lambda i, j: i != j, [("p iij + p iji", "")]),
    ("pa4_4", lambda i, j, k: j < k and i != j and i != k, [("p ijk + p ikj", "")]),
)

_JORDAN = _compile(
    ("jordan_1", lambda *idx: True, [("s ii", "p iii")]),
    ("jordan_2", lambda i, j: i != j, [("p iij", "")]),
    ("jordan_3", lambda i, j: i != j, [("p iji", "")]),
    ("jordan_4", lambda i, j: i < j, [("s ij", "p ijj"), ("s ij", "p jii")]),
    ("jordan_5", lambda i, j, k: i != j and i != k and j != k, [("p ijk", "")]),
)

_NIL_FOURTH_POWER = _compile(
    ("nil_pa4_1", lambda i, j: i <= j, [("s ij", "")]),
    ("nil_pa4_2", lambda *idx: True, [("p ijk", "")]),
)


def _evaluate(A, table):
    """The first failing equality of the table as a CheckReport."""
    field = A.field
    rows = A.rows
    mul = field.mul
    zero = (field.zero,) * len(rows)
    supp = pairs = None

    def value(term, idx):
        kind, pos = term
        if kind == "s":
            return multiply(A, rows[idx[pos[0]]], rows[idx[pos[1]]])
        i, j = idx[pos[0]], idx[pos[1]]
        c = rows[i][j]
        if kind == "p":
            i, j = j, idx[pos[2]]
            c = mul(c, rows[i][j])
        return tuple([mul(c, a) if a else a for a in rows[j]])

    def total(side, idx, vals):
        out = zero
        for t in side:
            if t not in vals:
                vals[t] = value(t, idx)
            out = vals[t] if out is zero else vec_add(field, out, vals[t])
        return out

    for name, allowed, equalities, sources, in_order in table:
        if pairs is None and sources[0][0][0] != "r":
            supp = _row_supports(A)
            pairs = [(i, j) for i, s in enumerate(supp) for j in s if supp[j]]
        if in_order:
            (kind, pattern), _ = sources[0]
            cands = _live(kind, pattern, rows, supp, pairs)
        else:
            cands = set()
            for (kind, pattern), reorders in sources:
                got = _live(kind, pattern, rows, supp, pairs)
                for reorder in reorders:
                    cands.update(map(reorder, got) if reorder else got)
            cands = sorted(cands)
        for idx in cands:
            if not allowed(*idx):
                continue
            vals = {}
            for lhs, rhs in equalities:
                left, right = total(lhs, idx, vals), total(rhs, idx, vals)
                if left != right:
                    return CheckReport(False, Witness(
                        name, tuple([i + 1 for i in idx]), left, right))
    return _OK


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
    return _evaluate(A, _ASSOCIATIVE)


def is_fourth_power_associative(A):
    """The four basis-level conditions equivalent to x^2 x^2 = x^4."""
    return _evaluate(A, _FOURTH_POWER)


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
    return _evaluate(A, _JORDAN)


def nil_fourth_pa_criterion(A):
    """Fourth-power associativity restated for nil algebras.

    Condition 1: e_i^2 e_j^2 = 0 for i <= j; condition 2:
    (e_i^2 e_j) e_k = 0 for all i, j, k.  Input must be nil.
    """
    if not is_nil(A).verdict:
        raise NotNil("the nil fourth-power criterion needs a nil algebra")
    return _evaluate(A, _NIL_FOURTH_POWER)


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
