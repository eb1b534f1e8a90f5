"""Monomial basis changes: a permutation composed with a diagonal scaling.

A monomial change f_i = t_i e_{sigma(i)} turns the structure matrix A into
B[i][j] = t_i^2 A[sigma(i)][sigma(j)] / t_j.  ``monomial_solutions``
backtracks over sigma with zero-pattern pruning and then solves the
multiplicative system for the scalings exactly, over Q and over F_p alike,
without searching over field elements:

- every scaling is a scalar times a Laurent monomial in free symbols,
  introduced where propagation along the fixed cells stalls;
- a conflict between two such values is an equation c * prod s^e = 1; a
  unimodular change of symbols reduces it to one symbol, which then takes
  each of its d-th roots in turn (exact rational roots over Q;
  Tonelli-Shanks / Adleman-Manders-Miller over F_p);
- parameter slots are reduced in order, each to the least representative
  of its orbit under the free moves that keep the earlier slots fixed.
  Over Q the moves form the integer kernel of the earlier exponent rows
  and the representative is the height-minimal member of a power class.
  Over F_p the moves are exponent vectors modulo p - 1, so torsion such
  as t -> -t counts, and the representative is the least element of a
  coset of the g-th powers, a subgroup of index gcd(g, p - 1).

The work therefore does not grow with p or with the height of the
scalings.
"""

from fractions import Fraction
from math import gcd

from .fields import _is_prime


# ---------------------------------------------------------------------------
# integer and field helpers


def _brent(n):
    """A nontrivial factor of a composite n > 4 (Pollard rho, Brent 1980)."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def _factor(m):
    """Prime factorization {prime: exponent} of a positive integer.

    Primes below 1000 by trial division, the rest by Pollard-Brent rho,
    whose cost grows like the square root of the cofactor's smallest prime
    factor.  Primality is ``fields._is_prime``: deterministic below about
    3*10^23, a strong probable-prime test to twelve bases above.
    """
    primes = {}
    x, p = m, 2
    while p < 1000 and p * p <= x:
        while x % p == 0:
            primes[p] = primes.get(p, 0) + 1
            x //= p
        p += 1 if p == 2 else 2
    rest = [x] if x > 1 else []
    while rest:
        x = rest.pop()
        if _is_prime(x):
            primes[x] = primes.get(x, 0) + 1
        else:
            d = _brent(x)
            rest += [d, x // d]
    return primes


def _int_nth_root(m, g):
    lo, hi = 0, 1
    while hi ** g < m:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** g < m:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _nth_root(fr, g):
    """Exact rational g-th root of a positive fraction (must exist)."""
    n = _int_nth_root(fr.numerator, g)
    d = _int_nth_root(fr.denominator, g)
    if Fraction(n, d) ** g != fr:
        raise ArithmeticError(f"{fr} has no exact {g}-th root")
    return Fraction(n, d)


def _fp_prime_roots(a, q, p):
    """All q-th roots of a nonzero a mod p, for a prime q (possibly none).

    For q dividing p - 1 this is Adleman-Manders-Miller: a first guess
    a^(1/q mod t), with p - 1 = q^s t, is off by an element of the Sylow
    q-subgroup, whose discrete log is read off digit by digit.
    """
    N = p - 1
    if N % q:
        return [pow(a, pow(q, -1, N), p)]
    if pow(a, N // q, p) != 1:
        return []
    s, t = 0, N
    while t % q == 0:
        t //= q
        s += 1
    z = 2
    while pow(z, N // q, p) == 1:
        z += 1
    c = pow(z, t, p)                # generates the Sylow q-subgroup
    zeta = pow(c, q ** (s - 1), p)  # a primitive q-th root of unity
    x = pow(a, pow(q, -1, t), p)
    err = pow(x, q, p) * pow(a, -1, p) % p
    e = 0
    for i in range(s):
        h = pow(err * pow(c, -e, p) % p, q ** (s - 1 - i), p)
        e += next(k for k in range(q) if pow(zeta, k, p) == h) * q ** i
    x = x * pow(c, -(e // q), p) % p  # err = c^e with q | e
    return [x * pow(zeta, k, p) % p for k in range(q)]


def _roots(field, a, d):
    """All d-th roots (d >= 1) of a nonzero scalar, possibly none.

    Over Q the positive root comes first; over F_p they are sorted.
    """
    if field.kind == "prime":
        roots = [a]
        for q, e in _factor(d).items():
            for _ in range(e):
                roots = [s for r in roots for s in _fp_prime_roots(r, q, field.p)]
        return sorted(roots)
    try:
        r = _nth_root(abs(a), d)
    except ArithmeticError:
        return []
    if d % 2:
        return [r if a > 0 else -r]
    return [r, -r] if a > 0 else []


def _pow(field, a, e):
    return pow(a, e, field.p) if field.kind == "prime" else a ** e


# ---------------------------------------------------------------------------
# slot reduction: the least orbit representative under the free moves


def _power_class_rep(field, fr, g):
    """Height-minimal representative of {fr * t^g : t in Q*}, with its t.

    ``g`` must be even and positive, so signs are preserved.  Exponents of
    the numerator and denominator are reduced mod g and each remaining
    prime power is placed in the numerator or denominator so that the
    canonical key is minimal.
    """
    sign = -1 if fr < 0 else 1
    primes = _factor(abs(fr.numerator))
    for q, e in _factor(fr.denominator).items():
        primes[q] = primes.get(q, 0) - e
    rest = [(q, e % g) for q, e in primes.items() if e % g]
    best = None
    for mask in range(1 << len(rest)):
        num, den = 1, 1
        for b, (q, e) in enumerate(rest):
            if mask >> b & 1:
                den *= q ** (g - e)
            else:
                num *= q ** e
        rep = Fraction(sign * num, den)
        key = field.canon_key(rep)
        if best is None or key < best[0]:
            best = (key, rep)
    rep = best[1] if best else Fraction(sign)
    t = _nth_root(rep / fr, g)
    return rep, t


def _int_kernel(rows, ncols):
    """Basis of the lattice of integer y with row.y = 0 for every row.

    Unimodular column operations keep the basis a basis of the kernel
    lattice of the rows seen so far: per row, Euclid on the values row.y
    leaves one vector with the gcd as its value and the rest with 0, and
    that one is dropped.  The result spans the whole kernel lattice, not
    only a sublattice of finite index.
    """
    basis = [[1 if c == k else 0 for c in range(ncols)] for k in range(ncols)]
    for row in rows:
        vals = [sum(r * b for r, b in zip(row, base)) for base in basis]
        live = [k for k, v in enumerate(vals) if v]
        while len(live) > 1:
            p = min(live, key=lambda k: abs(vals[k]))
            for k in live:
                if k != p:
                    q = vals[k] // vals[p]
                    vals[k] -= q * vals[p]
                    basis[k] = [a - q * b for a, b in zip(basis[k], basis[p])]
            live = [k for k in live if vals[k]]
        basis = [base for base, v in zip(basis, vals) if v == 0]
    return basis


def _gcd_combo(row, kernel_basis):
    """(g, y) with y an integer kernel combination and row.y = g = gcd > 0."""
    g, y = 0, None
    for base in kernel_basis:
        d = sum(r * b for r, b in zip(row, base))
        if d == 0:
            continue
        if d < 0:
            base = [-b for b in base]
            d = -d
        if y is None:
            g, y = d, list(base)
            continue
        # extended gcd to combine the two directions
        a0, a1 = g, d
        x0, x1 = 1, 0
        while a1:
            q = a0 // a1
            a0, a1 = a1, a0 - q * a1
            x0, x1 = x1, x0 - q * x1
        # a0 = gcd, a0 = x0*g + k*d for the matching k
        k = (a0 - x0 * g) // d
        y = [x0 * yy + k * bb for yy, bb in zip(y, base)]
        g = a0
    return g, y


def _split_moves(moves, row, N):
    """Split a group of exponent moves mod N along one slot's exponent row.

    Returns (d, y, stabilizer): the slot's reachable factors are the d-th
    powers, with row.y = d mod N, and ``stabilizer`` generates the moves
    that fix the slot.  d == N means the slot cannot move.
    """
    kernel, pivot, pv = [], None, 0
    for gen in moves:
        v = sum(r * x for r, x in zip(row, gen)) % N
        if v == 0:
            kernel.append(gen)
            continue
        if pivot is None:
            pivot, pv = gen, v
            continue
        # extended Euclid on the values, carrying the move vectors along
        a0, a1, x0, x1 = pv, v, pivot, gen
        while a1:
            q = a0 // a1
            a0, a1 = a1, a0 - q * a1
            x0, x1 = x1, [(u - q * w) % N for u, w in zip(x0, x1)]
        kernel.append(x1)
        pivot, pv = x0, a0
    if pivot is None:
        return N, None, kernel
    d = gcd(pv, N)
    scale = pow(pv // d, -1, N // d)
    kernel.append([(N // d) * x % N for x in pivot])
    return d, [scale * x % N for x in pivot], kernel


def _reduce_slots(field, consts, rows, m):
    """Values of the m free symbols that bring every slot c * s^row, in
    order, to the least representative of its orbit under the moves that
    keep the earlier slots fixed."""
    symval = [field.one] * m

    def current(c, row):
        for v, e in zip(symval, row):
            c = field.mul(c, _pow(field, v, e))
        return c

    if field.kind == "rationals":
        rows_done = []
        for c, row in zip(consts, rows):
            g, y = _gcd_combo(row, _int_kernel(rows_done, m))
            if g and g % 2 == 0:
                _, t = _power_class_rep(field, current(c, row), g)
                symval = [v * t ** e for v, e in zip(symval, y)]
            rows_done.append(row)
        return symval
    p = field.p
    N = p - 1
    moves = [[1 if c == k else 0 for c in range(m)] for k in range(m)]
    for c, row in zip(consts, rows):
        d, y, moves = _split_moves(moves, row, N)
        if d == N:
            continue
        value = current(c, row)
        inv = pow(value, -1, p)
        least = next(a for a in range(1, p) if pow(a * inv % p, N // d, p) == 1)
        t = _roots(field, least * inv % p, d)[0]
        symval = [v * pow(t, e, p) % p for v, e in zip(symval, y)]
    return symval


# ---------------------------------------------------------------------------
# the monomial search


def pattern_cells(fam, field):
    """Target cells for a symbolic catalog form.

    Each cell is ("zero",), ("fixed", value) or ("slot", name, coeff).
    """
    cells = []
    for row in fam.rows:
        line = []
        for c, pn in row:
            if c == 0:
                line.append(("zero",))
            elif pn is None:
                line.append(("fixed", field.coerce(c)))
            else:
                line.append(("slot", pn, field.coerce(c)))
        cells.append(tuple(line))
    return tuple(cells)


def concrete_cells(field, rows):
    return tuple(tuple(("zero",) if field.is_zero(v) else ("fixed", v) for v in row)
                 for row in rows)


def _profiles(nz):
    n = len(nz)
    return [(sum(nz[i]), sum(nz[r][i] for r in range(n)), nz[i][i]) for i in range(n)]


def monomial_solutions(field, src_rows, cells, slot_names=(), det_constraints=()):
    """Yield (sigma, lambdas, slot_values) matching the target cells.

    One solution per permutation and root branch; its slot values are the
    least orbit representatives reachable on that branch.
    """
    n = len(src_rows)
    if len(cells) != n:
        return
    src_nz = [[not field.is_zero(v) for v in row] for row in src_rows]
    tgt_nz = [[c[0] != "zero" for c in row] for row in cells]
    if sorted(_profiles(src_nz)) != sorted(_profiles(tgt_nz)):
        return
    src_prof = _profiles(src_nz)
    tgt_prof = _profiles(tgt_nz)
    candidates = [[v for v in range(n) if src_prof[v] == tgt_prof[i]]
                  for i in range(n)]
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    sigma = [None] * n
    used = [False] * n

    def assign(pos):
        if pos == n:
            yield from _solve_scalings(field, src_rows, cells, sigma,
                                       slot_names, det_constraints)
            return
        i = order[pos]
        for v in candidates[i]:
            if used[v]:
                continue
            ok = True
            for j in range(n):
                if sigma[j] is None and j != i:
                    continue
                w = v if j == i else sigma[j]
                if src_nz[v][w] != tgt_nz[i][j] or src_nz[w][v] != tgt_nz[j][i]:
                    ok = False
                    break
            if not ok:
                continue
            sigma[i] = v
            used[v] = True
            yield from assign(pos + 1)
            sigma[i] = None
            used[v] = False

    yield from assign(0)


def _solve_scalings(field, src_rows, cells, sigma, slot_names, det_constraints):
    """Exact scaling solver: free scalings stay symbolic.

    A value is (scalar, ((symbol, exponent), ...)).  Slot values are
    reduced, in slot order, by ``_reduce_slots``; this makes the reported
    parameters a deterministic function of the branch's monomial orbit.
    """
    n = len(src_rows)
    mul, div, one = field.mul, field.div, field.one
    fixed = []
    slots = []
    for i in range(n):
        for j in range(n):
            cell = cells[i][j]
            if cell[0] == "fixed":
                fixed.append((i, j, src_rows[sigma[i]][sigma[j]], cell[1]))
            elif cell[0] == "slot":
                slots.append((i, j, src_rows[sigma[i]][sigma[j]], cell[1], cell[2]))

    def smul(a, b):
        exp = dict(a[1])
        for s, e in b[1]:
            exp[s] = exp.get(s, 0) + e
        return (mul(a[0], b[0]), tuple(sorted((s, e) for s, e in exp.items() if e)))

    def spow(a, d):
        return (_pow(field, a[0], d), tuple((s, d * e) for s, e in a[1]))

    def sdiv(a, b):
        return smul(a, spow(b, -1))

    def const(c):
        return (c, ())

    def subst(vals, sym, value):
        """Replace a symbol by a value (scalar or monomial) throughout."""
        out = {}
        for k, (c, exp) in vals.items():
            e = dict(exp)
            d = e.pop(sym, 0)
            out[k] = smul((c, tuple(sorted(e.items()))), spow(value, d)) if d \
                else (c, exp)
        return out

    def resolve(vals, lhs, rhs):
        """Branches of vals on which lhs == rhs."""
        c, exp = sdiv(lhs, rhs)
        exp = dict(exp)
        # c * prod s^e = 1: swap symbols unimodularly (Euclid on the
        # exponents) until one symbol is left, then take its roots
        while len(exp) > 1:
            a = min(exp, key=lambda s: (abs(exp[s]), s))
            b = min(s for s in exp if s != a)
            q = exp[b] // exp[a]
            vals = subst(vals, a, (one, tuple(sorted(((a, 1), (b, -q))))))
            exp[b] -= q * exp[a]
            if not exp[b]:
                del exp[b]
        if not exp:
            return [vals] if c == one else []
        (sym, d), = exp.items()
        target = field.inv(c)
        if d < 0:
            target, d = c, -d
        return [subst(vals, sym, const(r)) for r in _roots(field, target, d)]

    fixed_hits = {}
    for i, j, _, _ in fixed:
        fixed_hits[i] = fixed_hits.get(i, 0) + 1
        fixed_hits[j] = fixed_hits.get(j, 0) + 1

    def extend(vals, next_sym):
        vals = dict(vals)
        # propagation with conflict resolution
        while True:
            changed = False
            for i, j, c, f in fixed:
                li, lj = vals.get(i), vals.get(j)
                if i == j:
                    want = const(div(f, c))
                    if li is None:
                        vals[i] = want
                        changed = True
                    elif li != want:
                        for solved in resolve(vals, li, want):
                            yield from extend(solved, next_sym)
                        return
                    continue
                if li is not None and lj is None:
                    vals[j] = sdiv(smul(spow(li, 2), const(c)), const(f))
                    changed = True
                elif li is not None and lj is not None:
                    lhs = smul(spow(li, 2), const(c))
                    rhs = smul(const(f), lj)
                    if lhs != rhs:
                        for solved in resolve(vals, lhs, rhs):
                            yield from extend(solved, next_sym)
                        return
            if not changed:
                break
        for i, j, c, f in fixed:
            if i not in vals and j in vals:
                cc, exp = sdiv(smul(const(f), vals[j]), const(c))
                if any(e % 2 for _, e in exp):
                    # no monomial square root: give lam_i its own symbol
                    # and let the conflict resolution solve the cell
                    yield from extend({**vals, i: (one, ((next_sym, 1),))},
                                      next_sym + 1)
                    return
                half = tuple((s, e // 2) for s, e in exp)
                for r in _roots(field, cc, 2):
                    yield from extend({**vals, i: (r, half)}, next_sym)
                return
        unknown = [k for k in range(n) if k not in vals]
        if unknown:
            k = max(unknown, key=lambda u: (fixed_hits.get(u, 0), -u))
            yield from extend({**vals, k: (one, ((next_sym, 1),))}, next_sym + 1)
            return
        yield from finish(vals)

    def finish(vals):
        named = {}
        for i, j, c, name, coeff in slots:
            v = sdiv(sdiv(smul(spow(vals[i], 2), const(c)), vals[j]), const(coeff))
            if name in named:
                if named[name] != v:
                    return
            else:
                named[name] = v
        syms = sorted({s for c, exp in named.values() for s, _ in exp}
                      | {s for c, exp in vals.values() for s, _ in exp})
        symval = dict(zip(syms, _reduce_slots(
            field, [named[name][0] for name in slot_names],
            [[dict(named[name][1]).get(s, 0) for s in syms] for name in slot_names],
            len(syms))))

        def evaluate(c, exp):
            for s, e in exp:
                c = mul(c, _pow(field, symval[s], e))
            return c

        lam = tuple(evaluate(*vals[k]) for k in range(n))
        values = {name: evaluate(*named[name]) for name in slot_names}
        for pa, pb, pc, pd in det_constraints:
            if field.is_zero(field.sub(mul(values[pa], values[pd]),
                                       mul(values[pb], values[pc]))):
                return
        yield (tuple(sigma), lam, tuple(values[s] for s in slot_names))

    yield from extend({}, 0)


def monomial_witness(field, A_rows, B_rows):
    """A -> B coordinate map for the first monomial isomorphism found."""
    cells = concrete_cells(field, B_rows)
    for sigma, lam, _ in monomial_solutions(field, A_rows, cells):
        n = len(A_rows)
        M = [[field.zero] * n for _ in range(n)]
        for i in range(n):
            M[i][sigma[i]] = field.inv(lam[i])
        return tuple(tuple(r) for r in M)
    return None
