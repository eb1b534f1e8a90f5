"""Monomial basis changes: a permutation composed with a diagonal scaling.

A monomial change f_i = t_i e_{sigma(i)} turns the structure matrix A into
B[i][j] = t_i^2 A[sigma(i)][sigma(j)] / t_j.  ``monomial_solutions``
backtracks over sigma with zero-pattern pruning and solves the
multiplicative system for the scalings exactly, over Q and over F_p alike,
without searching over field elements.  The solve is compiled once per
target shape and replayed per sigma.

Compile (``_plan``, memoized by shape: the kind of every target cell and
the name of every slot).  The solve runs once with formal constants, one
variable per source value, target scalar and root taken:

- every scaling is a constant times a Laurent monomial in free symbols,
  introduced where propagation along the fixed cells stalls;
- a conflict between two such values is an equation c * prod s^e = 1; a
  unimodular change of symbols reduces it to one symbol, whose d-th roots
  are recorded as a step ("root", c, d); a conflict with equal exponents
  is recorded as ("check", c), which holds only where c is 1.

Every branch of the solve depends on the exponents only, never on the
constants, so the run is one straight line of steps and ends with the
exponent rows of the slots and the expressions of the lambdas and slot
values.

Replay (``_replay``, per sigma).  The steps are evaluated with plain field
arithmetic on the permuted source values, branching over the roots depth
first (exact rational roots over Q; Tonelli-Shanks /
Adleman-Manders-Miller over F_p).  On each branch the parameter slots are
reduced in order, each to the least representative of its orbit under
the free moves that keep the earlier slots fixed; the moves depend on the
exponent rows and the field only (``_slot_moves``, once per call).  One
lattice routine, ``_split_moves``, finds them for both fields: over Q
they are integer exponent vectors, the kernel of the earlier exponent
rows over Z, and the representative is the height-minimal member of a
power class.  Over F_p they are exponent vectors modulo p - 1, so torsion
such as t -> -t counts, and the representative is the least element of a
coset of the g-th powers, a subgroup of index gcd(g, p - 1).

The work therefore does not grow with p or with the height of the
scalings, and the symbolic part is paid once per shape.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
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


def _split_moves(moves, row, N):
    """Split a group of exponent moves along one slot's exponent row, over
    the integers (N == 0) or modulo N = p - 1.

    This is the one exponent-lattice routine: extended Euclid on the values
    row.gen, carrying the move vectors along, is a unimodular change of the
    generators that leaves one pivot with the gcd as its value and the rest
    with 0.  Returns (d, y, stabilizer): the slot's reachable factors are
    the d-th powers, with row.y = d > 0 (mod N), and ``stabilizer``
    generates the moves that fix the slot; over Z, when ``moves`` is a
    basis, it is a basis of the whole kernel in their lattice, not only of
    a sublattice of finite index.  Modulo
    N, (N / d) times the pivot also fixes the slot: torsion such as
    t -> -t.  d == N means the slot cannot move.
    """
    def red(x):
        return x % N if N else x

    kernel, pivot, pv = [], None, 0
    for gen in moves:
        v = red(sum(r * x for r, x in zip(row, gen)))
        if v == 0:
            kernel.append(gen)
            continue
        if pivot is None:
            pivot, pv = gen, v
            continue
        a0, a1, x0, x1 = pv, v, pivot, gen
        while a1:
            q = a0 // a1
            a0, a1 = a1, a0 - q * a1
            x0, x1 = x1, [red(u - q * w) for u, w in zip(x0, x1)]
        kernel.append(x1)
        pivot, pv = x0, a0
    if pivot is None:
        return N, None, kernel
    if not N:
        return abs(pv), [x if pv > 0 else -x for x in pivot], kernel
    d = gcd(pv, N)
    scale = pow(pv // d, -1, N // d)
    kernel.append([(N // d) * x % N for x in pivot])
    return d, [scale * x % N for x in pivot], kernel


def _slot_moves(field, rows, m):
    """Per slot row, the free moves that reduce it, given that the earlier
    slots stay fixed: (row, g, y) means the slot's reachable factors are
    the g-th powers t^g, reached by multiplying the m symbols by t^y.  One
    loop over ``_split_moves`` for both fields, over Z for Q and over
    Z/(p - 1) for F_p.  g is None where the slot is left as it is: it
    cannot move, or, over Q, g is odd.  Depends on the rows and the field
    only."""
    N = field.p - 1 if field.kind == "prime" else 0
    moves = [[1 if c == k else 0 for c in range(m)] for k in range(m)]
    out = []
    for row in rows:
        d, y, moves = _split_moves(moves, row, N)
        out.append((row, None, None) if d == N or (not N and d % 2) else (row, d, y))
    return out


def _reduce_slots(field, consts, moves, m):
    """Values of the m free symbols that bring every slot c * s^row, in
    order, to the least representative of its orbit under the moves that
    keep the earlier slots fixed (``moves`` from ``_slot_moves``)."""
    symval = [field.one] * m
    for c, (row, g, y) in zip(consts, moves):
        if g is None:
            continue
        value = field.mul(c, _evaluate(field, enumerate(row), symval))
        if field.kind == "rationals":
            _, t = _power_class_rep(field, value, g)
            symval = [v * t ** e for v, e in zip(symval, y)]
            continue
        p = field.p
        inv = pow(value, -1, p)
        least = next(a for a in range(1, p) if pow(a * inv % p, (p - 1) // g, p) == 1)
        t = _roots(field, least * inv % p, g)[0]
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
    src_prof = _profiles(src_nz)
    tgt_prof = _profiles(tgt_nz)
    if sorted(src_prof) != sorted(tgt_prof):
        return
    plan = _plan(tuple(tuple(c[:2] if c[0] == "slot" else c[:1] for c in row)
                       for row in cells), tuple(slot_names))
    if plan is None:
        return
    targets = [cells[i][j][-1] for i, j in plan.cells]
    moves = _slot_moves(field, plan.rows, plan.nsyms)
    candidates = [[v for v in range(n) if src_prof[v] == tgt_prof[i]]
                  for i in range(n)]
    order = sorted(range(n), key=lambda i: len(candidates[i]))
    sigma = [None] * n
    used = [False] * n

    def assign(pos):
        if pos == n:
            env = []
            for (i, j), t in zip(plan.cells, targets):
                env += (src_rows[sigma[i]][sigma[j]], t)
            for lam, values in _replay(field, plan, moves, env):
                named = dict(zip(slot_names, values))
                if not any(field.is_zero(field.sub(field.mul(named[a], named[d]),
                                                   field.mul(named[b], named[c])))
                           for a, b, c, d in det_constraints):
                    yield tuple(sigma), lam, values
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


# ---------------------------------------------------------------------------
# the scaling solve, compiled once per target shape


_Plan = namedtuple("_Plan", "cells steps rows nsyms lam values")


def _mono(a, b, k=1):
    """a * b^k for Laurent monomials stored as sorted (variable, exponent)."""
    exp = dict(a)
    for v, e in b:
        exp[v] = exp.get(v, 0) + k * e
    return tuple(sorted((v, e) for v, e in exp.items() if e))


@lru_cache(maxsize=256)
def _plan(shape, slot_names):
    """Compile the scaling solve for one target shape, or None if it has no
    solution at all.

    ``shape`` holds the kind of every target cell and the name of every
    slot.  The solve runs once with formal constants: for the k-th nonzero
    cell (``cells[k]``), variable 2k is the source value and 2k + 1 the
    target scalar; each root step adds the next variable.  A value is a
    pair (constant, scaling) of Laurent monomials, the scaling over free
    symbols.  Every branch of the solve depends on scaling exponents only,
    so the run is one straight line of steps:

    - ("check", c): the branch survives only where c evaluates to 1;
    - ("root", c, d): the branch continues once per d-th root of c.

    It ends with the exponent rows of the slots, the number of symbols and
    the (constant, scaling) of every lambda and slot value, the scalings
    as (symbol position, exponent) pairs.
    """
    n = len(shape)
    cells = [(i, j) for i in range(n) for j in range(n) if shape[i][j][0] != "zero"]
    fixed, slots = [], []
    for k, (i, j) in enumerate(cells):
        src, tgt = (((2 * k, 1),), ()), (((2 * k + 1, 1),), ())
        if shape[i][j][0] == "fixed":
            fixed.append((i, j, src, tgt))
        else:
            slots.append((i, j, src, shape[i][j][1], tgt))
    nvars = 2 * len(cells)
    steps = []

    def smul(a, b, k=1):
        return _mono(a[0], b[0], k), _mono(a[1], b[1], k)

    def square_times(a, c):
        return smul(smul(a, a), c)

    def subst(vals, sym, value):
        """Replace a symbol by a value (constant or monomial) throughout."""
        out = {}
        for key, (c, exp) in vals.items():
            e = dict(exp)
            d = e.pop(sym, 0)
            out[key] = smul((c, tuple(sorted(e.items()))), value, d) if d else (c, exp)
        return out

    def resolve(vals, lhs, rhs):
        """Record lhs == rhs; returns the values to restart from, or None
        when it is a check on the constants only."""
        nonlocal nvars
        c, exp = smul(lhs, rhs, -1)
        if not exp:
            if c:
                steps.append(("check", c))
            return None
        exp = dict(exp)
        # c * prod s^e = 1: swap symbols unimodularly (Euclid on the
        # exponents) until one symbol is left, then take its roots
        while len(exp) > 1:
            a = min(exp, key=lambda s: (abs(exp[s]), s))
            b = min(s for s in exp if s != a)
            q = exp[b] // exp[a]
            vals = subst(vals, a, ((), tuple(sorted(((a, 1), (b, -q))))))
            exp[b] -= q * exp[a]
            if not exp[b]:
                del exp[b]
        (sym, d), = exp.items()
        target = _mono((), c, -1)
        if d < 0:
            target, d = c, -d
        steps.append(("root", target, d))
        nvars += 1
        return subst(vals, sym, (((nvars - 1, 1),), ()))

    fixed_hits = {}
    for i, j, _, _ in fixed:
        fixed_hits[i] = fixed_hits.get(i, 0) + 1
        fixed_hits[j] = fixed_hits.get(j, 0) + 1

    vals, next_sym = {}, 0
    while True:
        # propagation along the fixed cells; a conflict restarts it
        restart = None
        while restart is None:
            changed = False
            for i, j, c, f in fixed:
                li, lj = vals.get(i), vals.get(j)
                if i == j:
                    want = smul(f, c, -1)
                    if li is None:
                        vals[i] = want
                        changed = True
                    else:
                        restart = resolve(vals, li, want)
                elif li is not None and lj is None:
                    vals[j] = smul(square_times(li, c), f, -1)
                    changed = True
                elif li is not None:
                    restart = resolve(vals, square_times(li, c), smul(f, lj))
                if restart is not None:
                    break
            if not changed:
                break
        if restart is not None:
            vals = restart
            continue
        back = next(((i, j, c, f) for i, j, c, f in fixed
                     if i not in vals and j in vals), None)
        if back is not None:
            i, j, c, f = back
            cc, exp = smul(smul(f, vals[j]), c, -1)
            if any(e % 2 for _, e in exp):
                # no monomial square root: give lam_i its own symbol and
                # let the conflict resolution solve the cell
                vals[i] = ((), ((next_sym, 1),))
                next_sym += 1
            else:
                steps.append(("root", cc, 2))
                nvars += 1
                vals[i] = (((nvars - 1, 1),), tuple((s, e // 2) for s, e in exp))
            continue
        unknown = [k for k in range(n) if k not in vals]
        if not unknown:
            break
        k = max(unknown, key=lambda u: (fixed_hits.get(u, 0), -u))
        vals[k] = ((), ((next_sym, 1),))
        next_sym += 1

    named = {}
    for i, j, c, name, coeff in slots:
        v = smul(smul(square_times(vals[i], c), vals[j], -1), coeff, -1)
        if name not in named:
            named[name] = v
        elif named[name][1] != v[1]:
            return None
        else:
            resolve(vals, named[name], v)
    syms = sorted({s for _, exp in named.values() for s, _ in exp}
                  | {s for _, exp in vals.values() for s, _ in exp})
    pos = {s: k for k, s in enumerate(syms)}

    def compiled(value):
        return value[0], tuple((pos[s], e) for s, e in value[1])

    return _Plan(tuple(cells), tuple(steps),
                 tuple(tuple(dict(named[name][1]).get(s, 0) for s in syms)
                       for name in slot_names),
                 len(syms),
                 tuple(compiled(vals[k]) for k in range(n)),
                 tuple(compiled(named[name]) for name in slot_names))


def _evaluate(field, mono, values):
    """prod values[v]^e over the (v, e) of a monomial."""
    if field.kind == "prime":
        p = field.p
        c = 1
        for v, e in mono:
            c = c * pow(values[v], e, p) % p
        return c
    c = field.one
    for v, e in mono:
        c *= values[v] ** e
    return c


def _replay(field, plan, moves, env):
    """Run a plan on concrete values: yield (lambdas, slot values) for every
    root branch, depth first, with roots in ``_roots`` order.  ``env`` holds
    the formal variables' values and is extended by the roots taken."""
    steps = plan.steps

    def walk(k):
        while k < len(steps):
            step = steps[k]
            c = _evaluate(field, step[1], env)
            if step[0] == "check":
                if c != field.one:
                    return
                k += 1
                continue
            for r in _roots(field, c, step[2]):
                env.append(r)
                yield from walk(k + 1)
                env.pop()
            return
        consts = [_evaluate(field, c, env) for c, _ in plan.values]
        symval = _reduce_slots(field, consts, moves, plan.nsyms)
        lam = tuple(field.mul(_evaluate(field, c, env), _evaluate(field, exp, symval))
                    for c, exp in plan.lam)
        values = tuple(field.mul(c, _evaluate(field, exp, symval))
                       for c, (_, exp) in zip(consts, plan.values))
        yield lam, values

    yield from walk(0)


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
