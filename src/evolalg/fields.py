"""Exact scalar arithmetic over the rationals and prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over Q and ints in
``[0, p)`` over F_p.  Both representations are canonical, so structural
equality (``==``) is field equality and tuples of scalars can be compared
and hashed directly.
"""

import re
from fractions import Fraction

from .errors import (
    DivisionByZero,
    FieldMismatch,
    ForbiddenCharacteristic,
    NonPrimeModulus,
    ParseError,
)

_INT_RE = re.compile(r"-?\d+")
_RAT_RE = re.compile(r"(-?\d+)(?:/(\d+))?")


def _is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond any modulus we meet
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of RationalField and PrimeField."""

    kind = None

    def characteristic(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.describe() == other.describe()

    def __hash__(self):
        return hash(self.describe())

    def describe(self):
        raise NotImplementedError

    def __repr__(self):
        return self.describe()


class RationalField(Field):
    kind = "rationals"

    zero = Fraction(0)
    one = Fraction(1)

    def characteristic(self):
        return 0

    def describe(self):
        return "Q"

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return self.parse(value)
        raise FieldMismatch(f"cannot coerce {value!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self.one / a

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by 0")
        # int / int would leave exact arithmetic for a float
        return (Fraction(a) if isinstance(a, int) else a) / b

    def is_zero(self, a):
        return a == 0

    def parse(self, text):
        m = _RAT_RE.fullmatch(text)
        if not m:
            bad = _RAT_RE.match(text)
            raise ParseError(f"not a rational scalar: {text!r}",
                             offset=bad.end() if bad else 0)
        num = int(m.group(1))
        if m.group(2) is None:
            return Fraction(num)
        den = int(m.group(2))
        if den == 0:
            raise ParseError(f"zero denominator in {text!r}",
                             offset=m.start(2))
        return Fraction(num, den)

    def serialize(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def sort_key(self, a):
        return (a.numerator, a.denominator)

    def canon_key(self, a):
        # height-first: canonical representatives should be small fractions
        return (max(abs(a.numerator), a.denominator), a.numerator < 0,
                abs(a.numerator), a.denominator)


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise NonPrimeModulus(f"modulus {p!r} is not prime")
        if p in (2, 3, 5):
            raise ForbiddenCharacteristic(
                f"characteristic {p} is excluded: the power-associativity "
                f"theory requires characteristic not in {{2, 3, 5}}")
        self.p = p
        self.zero = 0
        self.one = 1

    def characteristic(self):
        return self.p

    def describe(self):
        return f"Fp:{self.p}"

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise DivisionByZero(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        raise FieldMismatch(f"cannot coerce {value!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of 0")
        return pow(a, -1, self.p)

    def div(self, a, b):
        if b % self.p == 0:
            raise DivisionByZero("division by 0")
        return a * pow(b, -1, self.p) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def parse(self, text):
        m = _INT_RE.fullmatch(text)
        if not m:
            bad = _INT_RE.match(text)
            raise ParseError(f"not an F_{self.p} scalar: {text!r}",
                             offset=bad.end() if bad else 0)
        return int(text) % self.p

    def serialize(self, a):
        return str(a % self.p)

    def sort_key(self, a):
        return (a, 1)

    def canon_key(self, a):
        return (a,)


_RATIONALS = RationalField()


def make_field(kind, p=None):
    """Build a validated field.

    ``kind`` is "Q"/"rationals" or "Fp"/"prime"; prime fields require the
    modulus ``p``, which must be a prime other than 2, 3 and 5.
    """
    k = kind.strip().lower() if isinstance(kind, str) else kind
    if k in ("q", "rationals", "rational"):
        return _RATIONALS
    if k in ("fp", "prime", "primefield", "p"):
        if p is None:
            raise NonPrimeModulus("prime field needs a modulus")
        return PrimeField(p)
    raise FieldMismatch(f"unknown field kind {kind!r}")


def field_from_string(text):
    """Parse the field tag used in algebra files: "Q" or "Fp:<p>"."""
    t = text.strip()
    if t == "Q":
        return _RATIONALS
    if t.startswith("Fp:"):
        try:
            p = int(t[3:])
        except ValueError:
            raise ParseError(f"bad field tag {text!r}", offset=3)
        return PrimeField(p)
    raise ParseError(f"bad field tag {text!r}", offset=0)


def scalar_parse(field, text):
    return field.parse(text)


def scalar_serialize(field, a):
    return field.serialize(a)


def scalar_arith(field, op, a, b=None):
    """Dispatch a single exact field operation by name.

    ``op`` is one of add/sub/mul/div/neg/inv/eq; the binary ones require
    ``b``.  ``eq`` returns a bool, everything else a canonical scalar.
    """
    if op in ("neg", "inv"):
        return getattr(field, op)(a)
    if b is None:
        raise FieldMismatch(f"operation {op!r} needs two operands")
    if op == "eq":
        return a == b
    if op in ("add", "sub", "mul", "div"):
        return getattr(field, op)(a, b)
    raise FieldMismatch(f"unknown operation {op!r}")
