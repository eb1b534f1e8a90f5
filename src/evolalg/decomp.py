"""Peirce and Wedderburn decompositions, natural-basis splitting.

For a power-associative evolution algebra the Wedderburn split has a
closed form: fourth-power associativity forces every column indexed by a
nonzero diagonal entry a_ii to vanish off the diagonal, and a_im r_m = 0
for every zero-diagonal index m.  So u_i = a_ii^-2 e_i^2 are pairwise
orthogonal idempotents that annihilate the e_m, and the zero-diagonal
index set carries the nil radical as the plain submatrix, whatever the
nonzero diagonal entries are.
"""

from dataclasses import dataclass

from .checks import annihilator, is_nil, is_power_associative
from .core import (
    EvolutionAlgebra,
    Subspace,
    _eliminate,
    is_zero_vector,
    multiply,
    subspace_from_vectors,
    vec_scale,
)
from .errors import (
    DimensionMismatch,
    InternalConsistency,
    NotIdempotent,
    NotPowerAssociative,
)


def _require_pa(A):
    rep = is_power_associative(A)
    if not rep.verdict:
        raise NotPowerAssociative(
            f"input is not power-associative (condition {rep.witness.condition} "
            f"at {rep.witness.indices})", witness=rep.witness)


@dataclass(frozen=True)
class PeirceDecomposition:
    e: tuple
    E1: Subspace
    Ehalf: Subspace
    E0: Subspace


def peirce(A, e):
    """Eigenspace split of multiplication by an idempotent, for PA input."""
    field = A.field
    if len(e) != A.n:
        raise DimensionMismatch("idempotent has the wrong length")
    if is_zero_vector(field, e) or multiply(A, e, e) != tuple(e):
        raise NotIdempotent("peirce needs a nonzero idempotent")
    _require_pa(A)
    # multiplication-by-e matrix: column i is e_i * e = e_i * (e_i coord) * row_i
    n = A.n
    mul, sub = field.mul, field.sub
    L = [[mul(e[i], A.rows[i][k]) for i in range(n)] for k in range(n)]
    half = field.div(field.one, field.add(field.one, field.one))
    spaces = []
    for lam in (field.one, half, field.zero):
        M = [[sub(L[r][c], lam if r == c else field.zero) for c in range(n)]
             for r in range(n)]
        pivots = _eliminate(field, M, n)
        # kernel via the standard free-column construction
        kern = []
        for fc in range(n):
            if fc in pivots:
                continue
            v = [field.zero] * n
            v[fc] = field.one
            for row, pc in zip(M, pivots):
                v[pc] = field.neg(row[fc])
            kern.append(tuple(v))
        spaces.append(subspace_from_vectors(field, n, kern))
    E1, Ehalf, E0 = spaces
    if E1.dim + Ehalf.dim + E0.dim != n:
        raise InternalConsistency("Peirce eigenspaces do not fill the space")
    return PeirceDecomposition(tuple(e), E1, Ehalf, E0)


def _extension_idempotent(field, row, i):
    """u_i = a_ii^-2 e_i^2, from the row e_i^2 with nonzero a_ii."""
    a = row[i]
    return vec_scale(field, field.inv(field.mul(a, a)), row)


def extract_idempotent(A):
    """The extension-property idempotent u = a_ii^-2 e_i^2, or None if nil.

    The smallest index with nonzero diagonal entry is used; the
    construction guarantees u*u = u and u*e_j = 0 for j != i.
    """
    _require_pa(A)
    field = A.field
    for i in range(A.n):
        a = A.rows[i][i]
        if not field.is_zero(a):
            u = _extension_idempotent(field, A.rows[i], i)
            if multiply(A, u, u) != u:
                raise InternalConsistency("extension idempotent fails u*u = u")
            return u, i
    return None


@dataclass(frozen=True)
class WedderburnDecomposition:
    s: int
    idempotents: tuple          # u_1 .. u_s in the original coordinates
    radical: EvolutionAlgebra   # possibly dimension 0
    radical_indices: tuple      # original basis indices spanning the radical
    basis_change: tuple         # rows: the new natural basis in old coordinates


def wedderburn(A):
    """E = K u_1 + ... + K u_s + Rad(E) as a direct sum of algebras.

    The extension idempotents are u_i = a_ii^-2 e_i^2 at the indices with
    nonzero diagonal; the complementary indices m carry the nil radical as
    the plain submatrix of A.  The guard checks the two facts this rests
    on: column i is zero off the diagonal, and a_im r_m = 0.  Raises
    NotPowerAssociative, with the check's witness, on non-PA input.
    """
    _require_pa(A)
    field = A.field
    n = A.n
    idem_idx = [i for i in range(n) if not field.is_zero(A.rows[i][i])]
    rad_idx = [i for i in range(n) if field.is_zero(A.rows[i][i])]
    idems = tuple([_extension_idempotent(field, A.rows[i], i) for i in idem_idx])
    for a in range(len(idems)):
        if multiply(A, idems[a], idems[a]) != idems[a]:
            raise InternalConsistency("extension vector is not idempotent")
        for b in range(a + 1, len(idems)):
            if not is_zero_vector(field, multiply(A, idems[a], idems[b])):
                raise InternalConsistency("extension idempotents not orthogonal")
    for i in idem_idx:
        column_clear = all(m == i or field.is_zero(A.rows[m][i]) for m in range(n))
        kills_radical = all(field.is_zero(A.rows[i][m]) or is_zero_vector(field, A.rows[m])
                            for m in rad_idx)
        if not (column_clear and kills_radical):
            raise InternalConsistency("Wedderburn split is not a direct sum")
    rad_rows = tuple(tuple(A.rows[m][k] for k in rad_idx) for m in rad_idx)
    radical = EvolutionAlgebra(field, rad_rows)
    if rad_rows and not is_nil(radical).verdict:
        raise InternalConsistency("Wedderburn radical is not nil")
    basis = idems + tuple(A.unit(m) for m in rad_idx)
    return WedderburnDecomposition(len(idem_idx), idems, radical,
                                   tuple(rad_idx), basis)


def graph_components(A):
    """Connected components of the support graph, as subalgebras.

    Vertices are basis indices, with an edge {i, j} whenever a_ij or a_ji
    is nonzero.  Each component spans an ideal in the given natural basis;
    the split is basis-relative, not an abstract indecomposability proof.
    """
    field = A.field
    n = A.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(n):
            if i != j and not field.is_zero(A.rows[i][j]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    comps = []
    for idx in sorted(groups.values()):
        rows = tuple(tuple(A.rows[i][k] for k in idx) for i in idx)
        comps.append((tuple(idx), EvolutionAlgebra(field, rows)))
    return comps


def decomposability_hint(A):
    """Annihilator-dimension bound: dim ann >= dim/2 (>= 1) forces a split."""
    _, idx = annihilator(A)
    if len(idx) >= 1 and 2 * len(idx) >= A.n:
        return "DecomposableByAnnBound"
    return "Unknown"
