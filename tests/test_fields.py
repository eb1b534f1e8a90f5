import random
from fractions import Fraction

import pytest

import evolalg as ev
from evolalg import scalar_arith, scalar_parse, scalar_serialize


def test_make_field_variants(Q, F7):
    assert Q.characteristic() == 0
    assert F7.characteristic() == 7
    assert ev.make_field("rationals") == Q
    assert ev.make_field("Fp", 11).p == 11


def test_forbidden_characteristics():
    for p in (2, 3, 5):
        with pytest.raises(ev.ForbiddenCharacteristic):
            ev.make_field("Fp", p)


def test_nonprime_modulus():
    for bad in (1, 4, 6, 9, 91):
        with pytest.raises(ev.NonPrimeModulus):
            ev.make_field("Fp", bad)
    with pytest.raises(ev.NonPrimeModulus):
        ev.make_field("Fp")


def test_rational_arith(Q):
    assert scalar_arith(Q, "add", Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert scalar_arith(Q, "neg", Fraction(2, 3)) == Fraction(-2, 3)
    assert scalar_arith(Q, "eq", Fraction(2, 4), Fraction(1, 2)) is True
    with pytest.raises(ev.DivisionByZero):
        scalar_arith(Q, "div", Q.one, Q.zero)
    with pytest.raises(ev.DivisionByZero):
        scalar_arith(Q, "inv", Q.zero)


def test_rational_inverse_and_quotient_stay_exact_on_ints(Q):
    # plain ints must not fall through to float division
    for got, want in [(Q.inv(2), Fraction(1, 2)), (Q.div(1, 2), Fraction(1, 2)),
                      (scalar_arith(Q, "div", 1, 2), Fraction(1, 2)),
                      (scalar_arith(Q, "inv", -3), Fraction(-1, 3)),
                      (Q.div(3, Fraction(1, 2)), Fraction(6))]:
        assert type(got) is Fraction and got == want, (got, want)
    inv = ev.core.mat_inverse(Q, ((2, 0), (0, 3)))
    assert inv == ((Fraction(1, 2), 0), (0, Fraction(1, 3)))
    assert all(type(v) is Fraction for row in inv for v in row), inv


def test_prime_inverse_checked_directly(F7):
    # the inverse of 3 must multiply back to 1
    inv3 = scalar_arith(F7, "inv", 3)
    assert inv3 == 5
    assert (3 * inv3) % 7 == 1
    for a in range(1, 7):
        assert F7.mul(a, F7.inv(a)) == 1


def test_parse_canonicalizes(Q, F7):
    s = scalar_parse(Q, "6/4")
    assert s == Fraction(3, 2)
    assert scalar_serialize(Q, s) == "3/2"
    assert scalar_parse(F7, "-1") == 6
    assert scalar_parse(F7, "13") == 6
    assert scalar_serialize(Q, scalar_parse(Q, "0")) == "0"
    assert scalar_serialize(Q, scalar_parse(Q, "-3/4")) == "-3/4"


def test_parse_errors(Q, F7):
    with pytest.raises(ev.ParseError):
        scalar_parse(Q, "1/0")
    with pytest.raises(ev.ParseError):
        scalar_parse(Q, "a")
    with pytest.raises(ev.ParseError):
        scalar_parse(F7, "1/2")


def test_over_long_scalars_are_parse_errors(Q, F7):
    # int() refuses digit strings over the interpreter's cap (4,300 digits
    # by default) with a bare ValueError; parsing must stay typed
    digits = "7" * 5000
    for field, text in [(Q, digits), (Q, "-" + digits), (Q, "1/" + digits),
                        (Q, digits + "/3"), (F7, digits), (F7, "-" + digits)]:
        with pytest.raises(ev.ParseError):
            scalar_parse(field, text)


def test_serialize_parse_idempotent(Q, F7):
    rng = random.Random(7)
    for _ in range(300):
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        text = scalar_serialize(Q, q)
        again = scalar_serialize(Q, scalar_parse(Q, text))
        assert text == again
        r = rng.randrange(7)
        assert scalar_serialize(F7, scalar_parse(F7, scalar_serialize(F7, r))) == str(r)


@pytest.mark.parametrize("field_name", ["Q", "F7"])
def test_field_axioms_random_triples(field_name, Q, F7):
    field = Q if field_name == "Q" else F7
    rng = random.Random(11)

    def draw():
        if field.kind == "prime":
            return rng.randrange(field.p)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    for _ in range(400):
        a, b, c = draw(), draw(), draw()
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b),
                                                          field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == field.one


def test_field_from_string(Q):
    assert ev.field_from_string("Q") == Q
    assert ev.field_from_string("Fp:7").p == 7
    with pytest.raises(ev.ParseError):
        ev.field_from_string("GF(9)")
    with pytest.raises(ev.ForbiddenCharacteristic):
        ev.field_from_string("Fp:5")
