"""Evolution algebras, element arithmetic and exact subspace linear algebra.

An evolution algebra is stored as its structural-constants matrix: row i
holds the coefficients of e_i^2 in the natural basis, and all products of
distinct basis vectors vanish.  Elements are coordinate tuples; subspaces
are kept in reduced row-echelon form so that equality and membership are
structural.

Every exact solve runs one Gauss-Jordan elimination, ``_eliminate``:
``rref`` keeps its pivot rows, ``solve_in_span`` reduces the augmented
system, ``mat_inverse`` reduces [M | I], ``change_basis`` is one inverse
and one product, and ``decomp.peirce`` reads its kernels off the pivots.

Tuples are built as tuple([...]), not from a generator.  CPython grows a
tuple built from a generator from ten slots and then shrinks it, and the
shrunk tuple ends on the free list of its size, which such calls never
draw from; over a long run of checks those free lists fill to their cap
of 2,000 entries per size.
"""

from dataclasses import dataclass

from .errors import DimensionMismatch, FieldMismatch, InternalConsistency, ShapeError


@dataclass(frozen=True)
class EvolutionAlgebra:
    field: object
    rows: tuple  # rows[i][k] = coefficient of e_k in e_i^2

    @property
    def n(self):
        return len(self.rows)

    def row(self, i):
        return self.rows[i]

    def unit(self, i):
        z = self.field.zero
        return tuple([self.field.one if k == i else z for k in range(self.n)])

    def zero_element(self):
        return (self.field.zero,) * self.n

    def __repr__(self):
        return f"EvolutionAlgebra({self.field.describe()}, n={self.n})"


def new_evolution_algebra(field, matrix_rows):
    """Validate and freeze an evolution algebra from its matrix rows."""
    rows = []
    n = len(matrix_rows)
    if n == 0:
        raise ShapeError("dimension must be at least 1")
    for r in matrix_rows:
        r = tuple([field.coerce(x) for x in r])
        if len(r) != n:
            raise ShapeError(f"matrix is not square: row of length {len(r)}, expected {n}")
        rows.append(r)
    return EvolutionAlgebra(field, tuple(rows))


def _check_element(A, x):
    if len(x) != A.n:
        raise DimensionMismatch(f"element of length {len(x)} in a dim-{A.n} algebra")


def element(A, coords):
    x = tuple([A.field.coerce(c) for c in coords])
    _check_element(A, x)
    return x


def multiply(A, x, y):
    """Exact product: z_k = sum_i x_i y_i a_ik."""
    _check_element(A, x)
    _check_element(A, y)
    field = A.field
    mul, add, is_zero = field.mul, field.add, field.is_zero
    z = [field.zero] * A.n
    for i, (xi, yi) in enumerate(zip(x, y)):
        if is_zero(xi) or is_zero(yi):
            continue
        c = mul(xi, yi)
        for k, a in enumerate(A.rows[i]):
            if not is_zero(a):
                z[k] = add(z[k], mul(c, a))
    return tuple(z)


def principal_power(A, x, k):
    """Left-normed power under x^(m+1) = x^m * x, with x^1 = x."""
    if k < 1:
        raise ValueError("principal powers start at exponent 1")
    _check_element(A, x)
    acc = x
    for _ in range(k - 1):
        acc = multiply(A, acc, x)
    return acc


def associator(A, x, y, z):
    """(x, y, z) = (xy)z - x(yz)."""
    left = multiply(A, multiply(A, x, y), z)
    right = multiply(A, x, multiply(A, y, z))
    sub = A.field.sub
    return tuple([sub(l, r) for l, r in zip(left, right)])


def is_zero_vector(field, v):
    is_zero = field.is_zero
    return all(is_zero(c) for c in v)


def vec_scale(field, c, v):
    if field.is_zero(c):
        return (field.zero,) * len(v)
    mul = field.mul
    return tuple([mul(c, a) for a in v])


def vec_add(field, u, v):
    add = field.add
    return tuple([add(a, b) for a, b in zip(u, v)])


# ---------------------------------------------------------------------------
# exact row-echelon subspaces


def _eliminate(field, rows, ncols):
    """Gauss-Jordan on ``rows`` (lists, changed in place); returns the pivot columns.

    Pivots are taken only in the first ``ncols`` columns, so trailing
    columns (a right-hand side, an identity block) ride along.  Afterwards
    row r < len(pivots) has a 1 at pivots[r] and every other row a 0 there;
    the rows past the pivots are zero in the first ``ncols`` columns.
    """
    is_zero, mul, sub, inv = field.is_zero, field.mul, field.sub, field.inv
    piv_r = 0
    pivots = []
    for c in range(ncols):
        if piv_r == len(rows):
            break
        pr = next((r for r in range(piv_r, len(rows)) if not is_zero(rows[r][c])), None)
        if pr is None:
            continue
        rows[piv_r], rows[pr] = rows[pr], rows[piv_r]
        f = inv(rows[piv_r][c])
        prow = rows[piv_r] = [mul(f, v) for v in rows[piv_r]]
        for r in range(len(rows)):
            if r != piv_r and not is_zero(rows[r][c]):
                f = rows[r][c]
                rows[r] = [sub(a, mul(f, b)) for a, b in zip(rows[r], prow)]
        pivots.append(c)
        piv_r += 1
    return pivots


def rref(field, vectors):
    """Reduced row-echelon form of the span of ``vectors`` (list of rows)."""
    rows = [list(v) for v in vectors]
    if not rows:
        return []
    pivots = _eliminate(field, rows, len(rows[0]))
    return [tuple(row) for row in rows[:len(pivots)]]


@dataclass(frozen=True)
class Subspace:
    """A subspace held by its RREF basis; equal spans compare equal."""

    field: object
    ambient: int
    basis: tuple  # rows in reduced row-echelon form

    @property
    def dim(self):
        return len(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def subspace_from_vectors(field, ambient, vectors):
    vecs = []
    for v in vectors:
        v = tuple([field.coerce(c) for c in v])
        if len(v) != ambient:
            raise FieldMismatch(f"vector of length {len(v)} in ambient dim {ambient}")
        if not is_zero_vector(field, v):
            vecs.append(v)
    return Subspace(field, ambient, tuple(rref(field, vecs)))


def membership(U, x):
    """True iff x lies in span(U)."""
    if len(x) != U.ambient:
        raise DimensionMismatch(f"element of length {len(x)} against ambient {U.ambient}")
    return solve_in_span(U.field, U.basis, x) is not None


def solve_in_span(field, basis_vectors, target):
    """Coefficients writing ``target`` over ``basis_vectors``, or None.

    The basis vectors need not be independent: a vector already in the
    span of the ones before it gets coefficient 0, which makes the answer
    unique.
    """
    m = len(basis_vectors)
    # augmented system: columns are the basis vectors, rhs is the target
    rows = [[v[c] for v in basis_vectors] + [target[c]] for c in range(len(target))]
    pivots = _eliminate(field, rows, m)
    if any(not field.is_zero(row[m]) for row in rows[len(pivots):]):
        return None
    coeffs = [field.zero] * m
    for row, c in zip(rows, pivots):
        coeffs[c] = row[m]
    return coeffs


def product_subspace(A, U, V):
    """Span of u*v over basis pairs; enough by bilinearity."""
    if U.ambient != A.n or V.ambient != A.n:
        raise DimensionMismatch("subspace ambient dimension differs from the algebra")
    prods = [multiply(A, u, v) for u in U.basis for v in V.basis]
    return subspace_from_vectors(A.field, A.n, prods)


def full_space(A):
    return Subspace(A.field, A.n, tuple([A.unit(i) for i in range(A.n)]))


def power_subspace(A, k):
    """E^k under E^(m+1) = E^m * E."""
    if k < 1:
        raise ValueError("algebra powers start at exponent 1")
    cur = full_space(A)
    for _ in range(k - 1):
        cur = product_subspace(A, cur, full_space(A))
        if cur.dim == 0:
            break
    return cur


def mat_vec(field, M, x):
    """M @ x for a matrix given as rows."""
    mul, add, is_zero = field.mul, field.add, field.is_zero
    out = []
    for row in M:
        acc = field.zero
        for a, b in zip(row, x):
            if not (is_zero(a) or is_zero(b)):
                acc = add(acc, mul(a, b))
        out.append(acc)
    return tuple(out)


def mat_mul(field, M, N):
    """Matrix product of row-major matrices."""
    ncols = len(N[0])
    mul, add, is_zero = field.mul, field.add, field.is_zero
    out = []
    for row in M:
        acc = [field.zero] * ncols
        for a, nrow in zip(row, N):
            if is_zero(a):
                continue
            for j, b in enumerate(nrow):
                if not is_zero(b):
                    acc[j] = add(acc[j], mul(a, b))
        out.append(tuple(acc))
    return tuple(out)


def mat_transpose(M):
    return tuple(zip(*M))


def mat_inverse(field, M):
    """Exact inverse of a square matrix, or None if singular."""
    n = len(M)
    aug = [list(M[i]) + [field.one if j == i else field.zero for j in range(n)]
           for i in range(n)]
    if len(_eliminate(field, aug, n)) < n:
        return None
    return tuple(tuple(row[n:]) for row in aug)


def change_basis(A, new_rows):
    """Structure matrix of A in the natural basis given by ``new_rows``.

    Rows are the new basis vectors in A's coordinates.  Raises if the rows
    are dependent or the basis is not natural (some cross product survives).
    With P the new basis as rows, the squares S satisfy S = C P, so the new
    structure matrix is C = S P^-1.
    """
    field = A.field
    n = A.n
    if len(new_rows) != n:
        raise InternalConsistency("basis has the wrong size")
    inverse = mat_inverse(field, new_rows)
    if inverse is None:
        raise InternalConsistency("proposed basis is singular")
    for i in range(n):
        for j in range(i + 1, n):
            if not is_zero_vector(field, multiply(A, new_rows[i], new_rows[j])):
                raise InternalConsistency("proposed basis is not natural")
    squares = [multiply(A, v, v) for v in new_rows]
    return EvolutionAlgebra(field, mat_mul(field, squares, inverse))
