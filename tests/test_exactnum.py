"""Exact arithmetic layer: Laurent polynomials, rational functions, Q(sqrt q)."""

import functools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallalg.exactnum import (
    ConsistencyError,
    LaurentPoly,
    QrtScalar,
    RationalFunction,
    balanced_qbinomial,
    balanced_qfactorial,
    balanced_qint,
    gauss_binomial,
    is_prime,
    _poly_gcd,
    laurent_at_nu,
    qfact_plus,
    qint_plus,
)

L = LaurentPoly


def test_laurent_basic_ring_ops():
    t = L.t()
    p = (t + 1) * (t - 1)
    assert p == L({2: 1, 0: -1})
    assert p - p == L.zero()
    assert (t + 1) ** 3 == L({0: 1, 1: 3, 2: 3, 3: 1})
    assert L.monomial(-2, 5) * L.monomial(3, 2) == L.monomial(1, 10)
    assert not L.zero()
    assert L.one().is_one()


def test_laurent_rejects_bad_input():
    with pytest.raises(ValueError):
        L({0: Fraction(1, 2)})
    with pytest.raises(ValueError):
        L.t() ** (-1)
    with pytest.raises(ValueError):
        L.zero().degree()


def test_laurent_divexact_roundtrip_and_failure():
    a = L({3: 2, 0: -2})
    b = L({1: 1, 0: -1})
    q = a.divexact(b)
    assert q * b == a
    with pytest.raises(ValueError):
        (L.t() + 1).divexact(L.t() - 1)
    # Laurent shifts divide out exactly
    assert L.monomial(-3, 4).divexact(L.monomial(-1, 2)) == L.monomial(-2, 2)


def test_laurent_evaluate():
    p = L({2: 1, 0: 1, -1: 3})
    assert p.evaluate(2) == Fraction(4 + 1) + Fraction(3, 2)
    assert p.evaluate(Fraction(1, 2)) == Fraction(1, 4) + 1 + 6


def test_laurent_parse_and_render():
    assert L.parse("t+1") == L.t() + 1
    assert L.parse("(t+1)") == L.t() + 1
    assert L.parse("2t^2 - t^-1 + 3") == L({2: 2, -1: -1, 0: 3})
    assert L.parse("-t") == -L.t()
    assert (L.t() + 1).render() == "t + 1"
    assert L({2: 1, 0: -1}).render() == "t^2 - 1"
    assert L.monomial(-1, -1).render() == "-t^-1"
    assert L.zero().render() == "0"
    # render/parse round trip on a grab bag
    for p in [L({5: 3, 1: -2, -4: 7}), L.one(), -L.one(), L.monomial(2, 1)]:
        assert L.parse(p.render()) == p


def test_gauss_binomial_small_table():
    # from the subspace-count product formula, checked by hand:
    # [4 2] = (q^4-1)(q^3-1)/((q^2-1)(q-1)) = q^4+q^3+2q^2+q+1
    assert gauss_binomial(4, 2) == L({4: 1, 3: 1, 2: 2, 1: 1, 0: 1})
    assert gauss_binomial(2, 1) == L({1: 1, 0: 1})
    assert gauss_binomial(3, 1) == L({2: 1, 1: 1, 0: 1})
    assert gauss_binomial(0, 0) == L.one()
    assert gauss_binomial(3, 5) == L.zero()
    assert gauss_binomial(3, -1) == L.zero()
    with pytest.raises(ValueError):
        gauss_binomial(-1, 0)


def test_gauss_binomial_symmetry_and_counting():
    for n in range(9):
        for r in range(n + 1):
            g = gauss_binomial(n, r)
            assert g == gauss_binomial(n, n - r)
            assert g.is_polynomial()
            # t = 1 recovers the ordinary binomial coefficient
            assert g.evaluate(1) == math.comb(n, r)
            # subspace counts at q = 2, 3 are positive integers
            for q in (2, 3):
                v = g.evaluate(q)
                assert v.denominator == 1 and v > 0


def test_gauss_binomial_pascal():
    # q-Pascal: [n r] = [n-1 r-1] + t^r [n-1 r]
    for n in range(1, 12):
        for r in range(1, n):
            lhs = gauss_binomial(n, r)
            rhs = gauss_binomial(n - 1, r - 1) + L.monomial(r) * gauss_binomial(n - 1, r)
            assert lhs == rhs


def test_balanced_qint_shapes():
    assert balanced_qint(0) == L.zero()
    assert balanced_qint(1) == L.one()
    assert balanced_qint(3) == L({-2: 1, 0: 1, 2: 1})
    assert balanced_qint(-3) == -balanced_qint(3)
    # [n]_+ at t = v^2 equals v^(n-1) [n]
    for n in range(1, 8):
        plus_sub = L({2 * e: c for e, c in qint_plus(n).items()})
        assert plus_sub == L.monomial(n - 1) * balanced_qint(n)


def test_balanced_binomial_vanishing():
    # sum_n (-1)^n v^(-dn) [m n] = 0 for 1-m <= d <= m-1 with d = m-1 mod 2
    for m in range(1, 9):
        for d in range(1 - m, m):
            if (d - (m - 1)) % 2 != 0:
                continue
            total = L.zero()
            for n in range(m + 1):
                sign = -1 if n % 2 else 1
                total = total + L.monomial(-d * n, sign) * balanced_qbinomial(m, n)
            assert total.is_zero(), (m, d)


def test_balanced_factorial_binomial_consistency():
    for m in range(7):
        for n in range(m + 1):
            b = balanced_qbinomial(m, n)
            assert b * balanced_qfactorial(n) * balanced_qfactorial(m - n) == balanced_qfactorial(m)
            # palindromic in v <-> v^-1
            assert b == L({-e: c for e, c in b.items()})


def test_rational_function_reduction():
    t = L.t()
    r = RationalFunction(t * t - 1, t - 1)
    assert r.is_laurent() and r.to_laurent() == t + 1
    r2 = RationalFunction(t + 1, (t + 1) * (t - 1))
    assert r2 == RationalFunction(L.one(), t - 1)
    assert (r2 * (t - 1)) == RationalFunction.one()
    # common content reduces, mixed content does not corrupt
    r3 = RationalFunction(L.from_int(2) * (t + 1), L.from_int(2))
    assert r3.is_laurent() and r3.to_laurent() == t + 1
    r4 = RationalFunction(t + 1, L.from_int(2))
    assert not r4.is_laurent()
    assert r4.evaluate(3) == 2
    # a power of t as denominator is already reduced: the stored form equals
    # the one the gcd route reaches through a common factor
    p = L({3: 2, 1: -1, 0: 4})
    for k in (-2, 0, 3):
        r5 = RationalFunction(p, L.monomial(k))
        assert (r5.num, r5.den) == (p.shift(-k), L.one())
        r6 = RationalFunction(p * (t + 2), L.monomial(k) * (t + 2))
        assert (r6.num, r6.den) == (r5.num, r5.den)


def test_rational_function_field_ops():
    t = L.t()
    x = RationalFunction(L.one(), t - 1)
    y = RationalFunction(L.one(), t + 1)
    s = x + y
    assert s == RationalFunction(L.from_int(2) * t, t * t - 1)
    assert x * y == RationalFunction(L.one(), t * t - 1)
    assert (x / y) == RationalFunction(t + 1, t - 1)
    assert x - x == RationalFunction.zero()
    assert s.evaluate(2) == Fraction(4, 3)
    with pytest.raises(ZeroDivisionError):
        x.evaluate(1)
    with pytest.raises(ZeroDivisionError):
        x / RationalFunction.zero()


def test_qrt_scalar_field_axioms():
    for q in (2, 3, 5):
        nu = QrtScalar.nu(q)
        assert nu * nu == QrtScalar(q, q, 0)
        x = QrtScalar(q, Fraction(3, 2), Fraction(-1, 3))
        y = QrtScalar(q, -2, Fraction(5, 7))
        z = QrtScalar(q, 1, 1)
        assert (x + y) * z == x * z + y * z
        assert x * x.inverse() == QrtScalar(q, 1, 0)
        assert (x / y) * y == x
        assert x ** 3 == x * x * x
        assert x ** (-2) == (x * x).inverse()
        # (1 + nu)(1 - nu) = 1 - q
        assert (1 + nu) * (1 - nu) == QrtScalar(q, 1 - q, 0)


def test_qrt_scalar_nu_powers():
    for q in (2, 3):
        for k in range(-6, 7):
            nk = QrtScalar.nu(q, k)
            assert nk * QrtScalar.nu(q, -k) == QrtScalar(q, 1, 0)
            assert nk.as_signed_nu_power() == (1, k)
            assert (-nk).as_signed_nu_power() == (-1, k)
            assert nk.has_qpower_denominator()
    assert QrtScalar(2, Fraction(1, 3), 0).as_signed_nu_power() is None
    assert QrtScalar(2, 1, 1).as_signed_nu_power() is None
    assert not QrtScalar(2, Fraction(1, 3), 0).has_qpower_denominator()
    assert QrtScalar(2, Fraction(5, 8), Fraction(-3, 2)).has_qpower_denominator()


def test_qrt_scalar_guards():
    with pytest.raises(ValueError):
        QrtScalar(4, 1, 0)
    with pytest.raises(ValueError):
        QrtScalar(2, 1, 0) + QrtScalar(3, 1, 0)
    with pytest.raises(ZeroDivisionError):
        QrtScalar(2, 0, 0).inverse()


# Property tests for QrtScalar. derandomize makes every run draw the same
# examples, so the suite stays deterministic; no example database is kept.
_qrt_settings = settings(max_examples=100, derandomize=True, database=None, deadline=None)
_primes = st.sampled_from((2, 3, 5, 7, 11))
_parts = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_pairs = st.tuples(_parts, _parts)


def _scalars(q, *pairs):
    return [QrtScalar(q, a, b) for a, b in pairs]


def _exact(x, q):
    # the arithmetic must keep q and the Fraction parts of the public type
    assert type(x) is QrtScalar and x.q == q
    assert type(x.a) is Fraction and type(x.b) is Fraction


@_qrt_settings
@given(_primes, _pairs, _pairs, _pairs)
def test_qrt_scalar_ring_laws(q, xp, yp, zp):
    x, y, z = _scalars(q, xp, yp, zp)
    zero, one = QrtScalar(q), QrtScalar(q, 1)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x
    assert (x + (-x)).is_zero() and x - y == x + (-y)
    assert 2 * x == x + x and x + 1 == x + one
    if not x.is_zero():
        assert x * x.inverse() == one
        assert (y / x) * x == y
    assert x ** 3 == x * x * x


@_qrt_settings
@given(_primes, _pairs, _pairs)
def test_qrt_scalar_part_formulas(q, xp, yp):
    (a1, b1), (a2, b2) = xp, yp
    x, y = _scalars(q, xp, yp)
    s, p = x + y, x * y
    assert (s.a, s.b) == (a1 + a2, b1 + b2)
    assert (p.a, p.b) == (a1 * a2 + q * b1 * b2, a1 * b2 + a2 * b1)
    # both root parts zero: the product stays rational
    r = QrtScalar(q, a1) * QrtScalar(q, a2)
    assert (r.a, r.b) == (a1 * a2, 0)
    if not x.is_zero():
        n = a1 * a1 - q * b1 * b1
        inv = x.inverse()
        assert (inv.a, inv.b) == (a1 / n, -b1 / n)


@_qrt_settings
@given(_primes, _pairs, _pairs, st.integers(-3, 3))
def test_qrt_scalar_results_stay_exact(q, xp, yp, n):
    x, y = _scalars(q, xp, yp)
    for r in (x + y, x - y, -x, x * y, x * 3, 3 * x, Fraction(2, 3) + x, 1 - x,
              QrtScalar(q, x.a) * QrtScalar(q, y.a)):
        _exact(r, q)
    if not x.is_zero():
        for r in (x.inverse(), y / x, 1 / x, x ** n):
            _exact(r, q)
    assert hash(x * y) == hash(QrtScalar(q, (x * y).a, (x * y).b))


def test_qrt_scalar_constructor_still_validates():
    for bad in (4, 1, 0, 9):
        with pytest.raises(ValueError):
            QrtScalar(bad, 1)
    with pytest.raises(ValueError):
        QrtScalar.nu(4)


def test_qrt_scalar_numpy_parts_do_not_wrap():
    # Fraction keeps numpy numerators, whose products wrap around silently;
    # the constructor must store Python ints instead
    np = pytest.importorskip("numpy")
    big = 2**62
    x = QrtScalar(2, np.int64(big), np.int64(big))
    assert x * x == QrtScalar(2, 3 * big * big, 2 * big * big)
    y = QrtScalar(2, np.int64(big))
    assert y * y == QrtScalar(2, big * big)
    for z in (x, y, QrtScalar(3, True, False), QrtScalar(3, 1) + True):
        assert all(type(part) is int for part in (z._n, z._m, z._d))


class _FractionSub(Fraction):
    """A Fraction subclass: the constructor reads it through Fraction()."""


def _qrt_parts_ref(a, b):
    """(n, m, d) of a + b*sqrt(q) by the general route: both parts made
    Fractions of Python ints (numpy parts would wrap around), then scaled
    by the lcm of their denominators."""
    a, b = (Fraction(int(x.numerator), int(x.denominator)) for x in map(Fraction, (a, b)))
    d = math.lcm(a.denominator, b.denominator)
    return int(a * d), int(b * d), d


def test_qrt_scalar_constructor_parts_match_fraction_route():
    np = pytest.importorskip("numpy")
    ints = (0, 1, -7, 12, 2**70)
    fracs = (Fraction(0), Fraction(3, 4), Fraction(-5, 6), Fraction(7, 1), Fraction(-2**65, 9))
    odd = (_FractionSub(3, 4), _FractionSub(-10, 4), Fraction(np.int64(6), 4),
           Fraction(np.int64(-9), np.int64(12)), Fraction(np.int64(2**62), 3))
    values = ints + fracs + odd
    for q in (2, 3, 7):
        for a in values:
            for b in values:
                x = QrtScalar(q, a, b)
                parts = (x._n, x._m, x._d)
                assert parts == _qrt_parts_ref(a, b), (q, a, b)
                assert all(type(p) is int for p in parts), (q, a, b)
                assert x._d > 0 and math.gcd(*parts) == 1
                assert (x.a, x.b) == (Fraction(a), Fraction(b))
        # one part given: the root part is zero
        for a in values:
            assert (QrtScalar(q, a)._n, QrtScalar(q, a)._d) == _qrt_parts_ref(a, 0)[::2]
    for bad in (4, 9, 1):
        for a, b in ((Fraction(1, 2), 0), (1, Fraction(2, 3)), (_FractionSub(1, 3), 1)):
            with pytest.raises(ValueError, match=f"q must be prime, got {bad}"):
                QrtScalar(bad, a, b)


class _QrtFractionOracle:
    """QrtScalar as it was with Fraction parts a + b*sqrt(q): the slow,
    independent reference for the integer form."""

    __slots__ = ("q", "a", "b")

    def __init__(self, q, a=0, b=0):
        if not is_prime(q):
            raise ValueError(f"q must be prime, got {q}")
        self.q = q
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def nu(cls, q, k=1):
        m, r = divmod(k, 2)
        base = Fraction(q) ** m
        if r == 0:
            return cls(q, base, 0)
        return cls(q, 0, base)

    def is_zero(self):
        return not self.a and not self.b

    def _coerce(self, other):
        if isinstance(other, _QrtFractionOracle):
            if other.q != self.q:
                raise ValueError("mixing scalars over different q")
            return other
        if isinstance(other, (int, Fraction)):
            return _QrtFractionOracle(self.q, Fraction(other), Fraction(0))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return _QrtFractionOracle(self.q, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return _QrtFractionOracle(self.q, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        a, b, c, d = self.a, self.b, o.a, o.b
        return _QrtFractionOracle(self.q, a * c + b * d * self.q, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a - self.b * self.b * self.q
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return _QrtFractionOracle(self.q, self.a / n, -self.b / n)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = _QrtFractionOracle(self.q, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.q, self.a, self.b))

    def has_qpower_denominator(self):
        def qpower(x):
            d = x.denominator
            while d % self.q == 0:
                d //= self.q
            return d == 1
        return qpower(self.a) and qpower(self.b)

    def as_signed_nu_power(self):
        for part, parity in ((self.a, 0), (self.b, 1)):
            other = self.b if parity == 0 else self.a
            if part == 0 or other != 0:
                continue
            mag = abs(part)
            num, den = mag.numerator, mag.denominator
            m = 0
            if den == 1:
                while num % self.q == 0:
                    num //= self.q
                    m += 1
                if num != 1:
                    return None
            else:
                if num != 1:
                    return None
                while den % self.q == 0:
                    den //= self.q
                    m -= 1
                if den != 1:
                    return None
            sign = 1 if part > 0 else -1
            return (sign, 2 * m + parity)
        return None

    def render(self):
        sp = self.as_signed_nu_power()
        if sp is not None:
            sign, k = sp
            s = "-" if sign < 0 else ""
            if k == 0:
                return s + "1"
            if k == 1:
                return s + "v"
            return f"{s}v^{k}"
        def frac(x):
            return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        if self.b == 0:
            return frac(self.a)
        if self.a == 0:
            return f"{frac(self.b)}*v" if abs(self.b) != 1 else ("v" if self.b > 0 else "-v")
        bs = f"{frac(abs(self.b))}*v" if abs(self.b) != 1 else "v"
        op = "+" if self.b > 0 else "-"
        return f"({frac(self.a)} {op} {bs})"

    def to_json(self):
        def frac(x):
            return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
        return {"q": str(self.q), "rational_part": frac(self.a), "root_part": frac(self.b)}


@st.composite
def _oracle_operands(draw):
    """A prime and two scalars' parts; a third of the operands are signed
    nu powers, so as_signed_nu_power and render's v^k branch are reached."""
    q = draw(_primes)
    def parts():
        if draw(st.integers(0, 2)) == 0:
            sign, k = draw(st.sampled_from((1, -1))), draw(st.integers(-5, 5))
            x = _QrtFractionOracle.nu(q, k) * sign
            return x.a, x.b
        return draw(_pairs)
    return q, parts(), parts()


def _qrt_canonical(x):
    n, m, d = x._n, x._m, x._d
    assert type(n) is int and type(m) is int and type(d) is int
    assert d > 0 and math.gcd(n, m, d) == 1
    rebuilt = QrtScalar(x.q, x.a, x.b)
    assert x == rebuilt and hash(x) == hash(rebuilt)


def _same_as_oracle(got, want):
    _qrt_canonical(got)
    assert (got.a, got.b) == (want.a, want.b)
    assert got.render() == want.render()
    assert got.to_json() == want.to_json()
    assert got.as_signed_nu_power() == want.as_signed_nu_power()
    assert got.has_qpower_denominator() == want.has_qpower_denominator()
    assert got.is_zero() == want.is_zero()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_oracle_operands(), st.integers(-3, 3))
def test_qrt_scalar_matches_fraction_oracle(operands, n):
    q, xp, yp = operands
    x, y = QrtScalar(q, *xp), QrtScalar(q, *yp)
    ox, oy = _QrtFractionOracle(q, *xp), _QrtFractionOracle(q, *yp)
    _same_as_oracle(x, ox)
    _same_as_oracle(y, oy)
    _same_as_oracle(QrtScalar.nu(q, n), _QrtFractionOracle.nu(q, n))
    pairs = [
        (x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy), (-x, -ox),
        (x + 1, ox + 1), (2 - x, 2 - ox), (Fraction(3, 4) * x, Fraction(3, 4) * ox),
        (x * y + x, ox * oy + ox), (x - x, ox - ox),
    ]
    if not y.is_zero():
        pairs += [(x / y, ox / oy), (y.inverse(), oy.inverse()), (1 / y, 1 / oy),
                  (y ** n, oy ** n), (x * y / y, ox * oy / oy)]
    elif n >= 0:
        pairs.append((y ** n, oy ** n))
    for got, want in pairs:
        _same_as_oracle(got, want)
    assert (x == y) == (ox == oy)
    assert (x * y == y * x) and hash(x * y) == hash(y * x)
    assert (x == 1) == (ox == 1) and (x == Fraction(1, 2)) == (ox == Fraction(1, 2))


def test_laurent_at_nu():
    # v^2 + 1 at q: q + 1
    p = L({2: 1, 0: 1})
    assert laurent_at_nu(p, 3) == QrtScalar(3, 4, 0)
    # odd powers land in the root part
    p2 = L({1: 2, -1: 1})
    got = laurent_at_nu(p2, 2)
    assert got == QrtScalar(2, 0, Fraction(2) + Fraction(1, 2))
    # balanced [3]! has odd v-powers only, so at nu it is a pure root multiple
    val = laurent_at_nu(balanced_qfactorial(3), 5)
    assert val.a == 0 and val.b > 0


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    # Miller-Rabin against trial division
    for n in range(-2, 10 ** 5):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))), n
    # strong pseudoprimes to the bases 2; 2..7; 2..23; 2..37
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 63 + 29)
    assert not is_prime(2 ** 63 + 27)
    # past the Miller-Rabin limit no answer is exact: refused, small factor or not
    for n in (53 ** 15, 3317044064679887385961981, 3317044064679887385962123):
        with pytest.raises(ValueError, match="only below 3317044064679887385961981"):
            is_prime(n)


def test_is_prime_against_sympy():
    # sympy is a test oracle only: odd n of every bit length up to the
    # Miller-Rabin limit (just above 2^81; is_prime refuses past it), and
    # the last prime below that limit
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    ns = [rng.randrange(2 ** (b - 1), 2 ** b) | 1 for b in range(2, 82) for _ in range(20)]
    ns.append(int(sympy.prevprime(3317044064679887385961981)))
    for n in ns:
        assert is_prime(n) == sympy.isprime(n), n


def test_qfact_plus_degree():
    for n in range(6):
        f = qfact_plus(n)
        assert f.evaluate(1) == math.factorial(n)
        if n:
            assert f.degree() == n * (n - 1) // 2


# Property tests for LaurentPoly, with sympy as an independent oracle for the
# ring operations and a long division over Fraction as the oracle for the
# integer one in divexact.
_laurent_settings = settings(max_examples=60, derandomize=True, database=None, deadline=None)
_laurents = st.dictionaries(
    st.integers(-4, 4), st.integers(-6, 6), max_size=5
).map(L)
_nonzero_laurents = _laurents.filter(lambda p: not p.is_zero())


def _canonical(p):
    # no stored zero, so __eq__, __hash__ and is_zero agree with a rebuild
    assert type(p) is L and all(type(v) is int and v != 0 for _, v in p.items())
    rebuilt = L(dict(p.items()))
    assert p == rebuilt and hash(p) == hash(rebuilt)
    assert p.is_zero() == (len(list(p.items())) == 0)


def _divexact_fraction(a, b):
    """Long division over Fraction, as divexact did before it went integer."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return L.zero()
    sv, ov = a.valuation(), b.valuation()
    num = {e - sv: Fraction(v) for e, v in a.items()}
    den = {e - ov: Fraction(v) for e, v in b.items()}
    dd = max(den)
    lead = den[dd]
    quo = {}
    while num:
        nd = max(num)
        if nd < dd:
            raise ValueError("inexact Laurent division")
        q = num[nd] / lead
        quo[nd - dd] = q
        for e, v in den.items():
            k = e + nd - dd
            num[k] = num.get(k, Fraction(0)) - q * v
            if num[k] == 0:
                del num[k]
    out = {}
    for e, v in quo.items():
        if v.denominator != 1:
            raise ValueError("inexact Laurent division (fractional quotient)")
        if v != 0:
            out[e + sv - ov] = int(v)
    return L(out)


def _same_division(a, b):
    try:
        want = _divexact_fraction(a, b)
    except ValueError:
        with pytest.raises(ValueError):
            a.divexact(b)
        return None
    got = a.divexact(b)
    _canonical(got)
    assert got == want
    return got


@_laurent_settings
@given(_laurents, _laurents, _laurents)
def test_laurent_ring_laws(a, b, c):
    zero, one = L.zero(), L.one()
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a * zero).is_zero()
    assert (a + (-a)).is_zero() and (a - a).is_zero() and a - b == a + (-b)
    assert a + 2 == a + L.from_int(2) and 3 * a == a + a + a
    assert a ** 3 == a * a * a and a.shift(2) == a * L.monomial(2)
    for r in (a + b, a - b, -a, a * b, a + (-a), a * zero, a.shift(-3), a ** 2, 2 - a):
        _canonical(r)


@_laurent_settings
@given(_laurents, _laurents)
def test_laurent_agrees_with_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def to_sympy(p):
        return sum((v * t**e for e, v in p.items()), sympy.Integer(0))

    sa, sb = to_sympy(a), to_sympy(b)
    for ours, theirs in ((a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb),
                         (a.shift(-2), sa * t**-2), (a ** 2, sa**2)):
        assert sympy.expand(to_sympy(ours) - theirs) == 0
    assert a.evaluate(3) == Fraction(str(sa.subs(t, 3)))


@_laurent_settings
@given(_laurents, _nonzero_laurents, _laurents)
def test_laurent_divexact_matches_fraction_division(a, b, r):
    # exact products come back as the factor they were built from
    got = _same_division(a * b, b)
    assert got == a
    # random pairs are mostly inexact; non-monic divisors make fractional
    # steps, and a perturbed product may or may not divide
    _same_division(a, b)
    _same_division(a * b + r, b)
    _same_division(a * b, b * 2 - 1)


def test_laurent_divexact_fractional_step_raises():
    # 2t^2 + 2 over 2t + 1: the first step (quotient t) is integral, the
    # second (-1/2) is not
    with pytest.raises(ValueError):
        L({2: 2, 0: 2}).divexact(L({1: 2, 0: 1}))
    assert L({2: 4, 1: 2}).divexact(L({1: 2, 0: 1})) == L({1: 2})
    assert L({0: -6}).divexact(L({0: 3})) == L({0: -2})


def test_gauss_binomial_is_cached_and_keeps_its_check(monkeypatch):
    assert gauss_binomial(7, 3) is gauss_binomial(7, 3)

    def inexact(self, other):
        raise ValueError("inexact Laurent division")

    monkeypatch.setattr(L, "divexact", inexact)
    with pytest.raises(ConsistencyError):
        gauss_binomial.__wrapped__(7, 3)


# Oracles for the reduction of rational functions: the Euclid over Fraction
# that _poly_gcd ran before it went integer, and sympy.cancel for the ring
# operations. RationalFunction.__eq__ cross-multiplies, so only these exact
# comparisons of the stored parts can see a form that is not canonical.
def _poly_gcd_ref(a, b):
    """Primitive gcd of honest integer polynomials, positive leading coeff."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    fa = {e: Fraction(v) for e, v in a.items()}
    fb = {e: Fraction(v) for e, v in b.items()}

    def fdeg(f):
        return max(f) if f else -1

    def frem(f, g):
        gd = fdeg(g)
        glead = g[gd]
        f = dict(f)
        while f and fdeg(f) >= gd:
            fd = fdeg(f)
            c = f[fd] / glead
            for e, v in g.items():
                k = e + fd - gd
                f[k] = f.get(k, Fraction(0)) - c * v
                if f[k] == 0:
                    del f[k]
        return f

    while fb:
        fa, fb = fb, frem(fa, fb)
    denom_lcm = 1
    for v in fa.values():
        denom_lcm = denom_lcm * v.denominator // math.gcd(denom_lcm, v.denominator)
    ints = {e: int(v * denom_lcm) for e, v in fa.items()}
    content = 0
    for v in ints.values():
        content = math.gcd(content, abs(v))
    g = L({e: v // content for e, v in ints.items()})
    if g.coeff(g.degree()) < 0:
        g = -g
    return g


def _reduce_ref(num, den):
    """The stored (num, den) of RationalFunction(num, den), reduced with
    _poly_gcd_ref and a Fraction-free content step."""
    if num.is_zero():
        return L.zero(), L.one()
    nv, dv = num.valuation(), den.valuation()
    n_h, d_h = num.shift(-nv), den.shift(-dv)
    g = _poly_gcd_ref(n_h, d_h)
    n_h, d_h = n_h.divexact(g), d_h.divexact(g)
    c = math.gcd(*(v for _, v in n_h.items()), *(v for _, v in d_h.items()))
    n_h, d_h = n_h.divexact(L.from_int(c)), d_h.divexact(L.from_int(c))
    if d_h.coeff(d_h.degree()) < 0:
        n_h, d_h = -n_h, -d_h
    return n_h.shift(nv - dv), d_h


_rf_settings = settings(max_examples=150, derandomize=True, database=None, deadline=None)
# small factors of the shapes pairings meet: random low-degree polynomials,
# t^k - 1, powers of t and signed integer contents
_small_factors = st.one_of(
    st.lists(st.integers(-3, 3), min_size=1, max_size=4)
    .map(lambda cs: L(dict(enumerate(cs))))
    .filter(lambda p: not p.is_zero()),
    st.integers(1, 6).map(lambda k: L({k: 1, 0: -1})),
    st.integers(0, 4).map(L.monomial),
    st.integers(-12, 12).filter(bool).map(L.from_int),
)
_products = st.lists(_small_factors, min_size=1, max_size=4).map(
    lambda fs: functools.reduce(operator.mul, fs)
)


@_rf_settings
@given(_products, _products, _products, st.sampled_from((1, -1)))
def test_poly_gcd_matches_fraction_euclid(c, u, v, sign):
    a, b = c * u * sign, c * v
    g = _poly_gcd(a, b)
    want = _poly_gcd_ref(a, b)
    assert g._c == want._c
    assert g.coeff(g.degree()) > 0 and math.gcd(*(x for _, x in g.items())) == 1
    assert a.divexact(g) * g == a and b.divexact(g) * g == b
    assert _poly_gcd(b, a)._c == want._c
    assert _poly_gcd(L.zero(), a) is a and _poly_gcd(b, L.zero()) is b


@_rf_settings
@given(_products, _products, _products, st.integers(-3, 3), st.integers(-3, 3))
def test_rational_function_form_matches_reference(c, u, v, i, j):
    num, den = (c * u).shift(i), (-c * v).shift(j)
    for n, d in ((num, den), (den, num), (num, num), (L.zero(), den)):
        r = RationalFunction(n, d)
        want_num, want_den = _reduce_ref(n, d)
        assert (r.num._c, r.den._c) == (want_num._c, want_den._c)


def _sympy_parts(sympy, expr, t):
    """numerator and denominator of sympy.cancel(expr) as int dicts, scaled
    to the form RationalFunction keeps once both are honest polynomials:
    coprime integer parts with no common content, denominator leading
    coefficient positive."""
    p, q = sympy.fraction(sympy.cancel(expr))
    if p == 0:
        return {}, {0: 1}
    parts = [{e: Fraction(str(x)) for (e,), x in sympy.Poly(f, t).terms()} for f in (p, q)]
    scale = math.lcm(*(x.denominator for f in parts for x in f.values()))
    ints = [{e: int(x * scale) for e, x in f.items()} for f in parts]
    content = math.gcd(*(x for f in ints for x in f.values()))
    if ints[1][max(ints[1])] < 0:
        content = -content
    return tuple({e: x // content for e, x in f.items()} for f in ints)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_products, _products, _products, _products, st.integers(-3, 3), st.integers(-3, 3))
def test_rational_function_ops_match_sympy_cancel(n1, d1, n2, d2, i, j):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def to_sympy(p):
        return sum((v * t**e for e, v in p.items()), sympy.Integer(0))

    n1 = n1.shift(i)
    n2 = (n2 * d1).shift(j)  # shares a factor with the other denominator
    x, y = RationalFunction(n1, d1), RationalFunction(n2, d2)
    sx = to_sympy(n1) / to_sympy(d1)
    sy = to_sympy(n2) / to_sympy(d2)
    for ours, theirs in ((x + y, sx + sy), (x - y, sx - sy), (x * y, sx * sy),
                         (x / y, sx / sy), (x + (-x), sx - sx)):
        # shift both parts to honest polynomials, as sympy writes them
        s = max(0, -ours.num.valuation()) if not ours.is_zero() else 0
        got = (ours.num.shift(s)._c, ours.den.shift(s)._c)
        assert got == _sympy_parts(sympy, theirs, t)


# Oracle tests for the shortcuts in LaurentPoly and QrtScalar arithmetic: a
# factor 1 or an addend 0 gives back the other operand, and a one-term
# factor c*t^e shifts and scales the other one. The operands are drawn so
# that every shortcut and the general path are reached, in both orders; the
# oracles are a plain dict convolution and (Fraction, Fraction) arithmetic.
_shortcut_laurents = st.one_of(
    st.sampled_from((L.zero(), L.one(), L(), L({0: 1}))),
    st.builds(L.monomial, st.integers(-4, 4), st.sampled_from((1, -1))),
    st.builds(L.monomial, st.integers(-4, 4), st.integers(-6, 6).filter(bool)),
    _laurents,
)


def _dict_product(a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def _dict_sum(a, b):
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + v
    return {e: v for e, v in out.items() if v}


def test_laurent_zero_and_one_are_the_plain_values():
    assert L.zero() == L() and L.one() == L({0: 1})
    assert L.zero() is L.zero() and L.one() is L.one()
    assert dict(L.zero().items()) == {} and dict(L.one().items()) == {0: 1}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_shortcut_laurents, _shortcut_laurents)
def test_laurent_shortcuts_match_dict_oracle(a, b):
    da, db = dict(a.items()), dict(b.items())
    for x, y, dx, dy in ((a, b, da, db), (b, a, db, da)):
        for got, want in ((x * y, _dict_product(dx, dy)), (x + y, _dict_sum(dx, dy))):
            _canonical(got)
            assert dict(got.items()) == want
    for n in (0, 1, -1, 3):
        for got in (a * n, n * a):
            assert dict(got.items()) == _dict_product(da, {0: n} if n else {})
        for got in (a + n, n + a):
            assert dict(got.items()) == _dict_sum(da, {0: n} if n else {})
    # no operand changed, the shared constants included
    assert dict(a.items()) == da and dict(b.items()) == db
    assert dict(L.zero().items()) == {} and dict(L.one().items()) == {0: 1}


@st.composite
def _shortcut_scalars(draw):
    """A prime and the parts of two scalars; each is 0, 1, +-nu^k, c*nu^k
    or general."""
    q = draw(_primes)

    def parts():
        kind = draw(st.integers(0, 4))
        if kind == 0:
            return Fraction(0), Fraction(0)
        if kind == 1:
            return Fraction(1), Fraction(0)
        if kind in (2, 3):
            c = draw(st.sampled_from((1, -1))) if kind == 2 else draw(_parts.filter(bool))
            x = QrtScalar.nu(q, draw(st.integers(-4, 4))) * c
            return x.a, x.b
        return draw(_pairs)

    return q, parts(), parts()


def _fraction_product(q, x, y):
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 + q * b1 * b2, a1 * b2 + a2 * b1


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_shortcut_scalars())
def test_qrt_scalar_shortcuts_match_fraction_oracle(operands):
    q, xp, yp = operands
    x, y = QrtScalar(q, *xp), QrtScalar(q, *yp)
    parts = [(s, (s._n, s._m, s._d)) for s in (x, y)]
    for u, v, up, vp in ((x, y, xp, yp), (y, x, yp, xp)):
        prod, total = u * v, u + v
        _qrt_canonical(prod)
        _qrt_canonical(total)
        assert (prod.a, prod.b) == _fraction_product(q, up, vp)
        assert (total.a, total.b) == (up[0] + vp[0], up[1] + vp[1])
        for n in (0, 1, Fraction(1), Fraction(0), -2):
            for got in (u * n, n * u):
                _qrt_canonical(got)
                assert (got.a, got.b) == (up[0] * n, up[1] * n)
            for got in (u + n, n + u):
                _qrt_canonical(got)
                assert (got.a, got.b) == (up[0] + n, up[1])
    # the q check still runs when one side is 0 or 1
    other = 3 if q == 2 else 2
    for s in (QrtScalar(other, 0), QrtScalar(other, 1)):
        for op in (operator.mul, operator.add):
            with pytest.raises(ValueError, match="different q"):
                op(x, s)
            with pytest.raises(ValueError, match="different q"):
                op(s, x)
    # no operand changed
    for s, before in parts:
        assert (s._n, s._m, s._d) == before
