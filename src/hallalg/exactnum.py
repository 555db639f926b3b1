"""Exact scalar arithmetic: integer Laurent polynomials, rational functions,
and the quadratic extension Q(sqrt q) used by the finite-field backends.

Everything here is exact. No floats anywhere.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple


class ConsistencyError(RuntimeError):
    """An internal structural invariant failed (not a user input error)."""


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured resource budget."""


# the first 13 primes; no composite below _MR_LIMIT is a strong probable
# prime to all of them (Sorenson and Webster 2015), while the least such
# composite for the first 12 is 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


@functools.lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin. n >= _MR_LIMIT raises ValueError: past it
    the 13 bases no longer decide primality, and trial division would not
    finish."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is decided only below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Laurent polynomials over Z
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Laurent polynomial with integer coefficients, dict of exp -> coeff.

    Instances are immutable, so zero() and one() hand out shared
    constants, and an operation may return an operand itself: p * 1 and
    p + 0 are p. The stored dict never holds a zero coefficient, which
    __eq__, __hash__ and is_zero rely on. The constructor validates and
    canonicalizes its input; the arithmetic builds its results with
    _laurent, which skips both because it drops zero coefficients itself.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Optional[Dict[int, int]] = None):
        c: Dict[int, int] = {}
        if coeffs:
            for e, v in coeffs.items():
                if not isinstance(e, int):
                    raise ValueError(f"exponent must be int, got {e!r}")
                if isinstance(v, Fraction):
                    if v.denominator != 1:
                        raise ValueError(f"coefficient must be integer, got {v}")
                    v = int(v)
                if not isinstance(v, int):
                    raise ValueError(f"coefficient must be int, got {v!r}")
                if v != 0:
                    c[e] = c.get(e, 0) + v
                    if c[e] == 0:
                        del c[e]
        self._c = c

    # -- constructors

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def t(cls) -> "LaurentPoly":
        return cls({1: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls({0: n})

    # -- queries

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == {0: 1}

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._c.items()))

    def degree(self) -> int:
        if not self._c:
            raise ValueError("degree of zero polynomial")
        return max(self._c)

    def valuation(self) -> int:
        if not self._c:
            raise ValueError("valuation of zero polynomial")
        return min(self._c)

    def is_polynomial(self) -> bool:
        """True when no negative exponents occur (honest polynomial)."""
        return all(e >= 0 for e in self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    # -- arithmetic

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other._c:
            return self
        if not self._c:
            return other
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            else:
                del c[e]
        return _laurent(c)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _laurent({e: -v for e, v in self._c.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if len(self._c) == 1:
            return _times_monomial(self, other)
        if len(other._c) == 1:
            return _times_monomial(other, self)
        c: Dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return _laurent({e: v for e, v in c.items() if v})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return _laurent({e + k: v for e, v in self._c.items()})

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in Z[t, t^-1]; raises ValueError if not exact.

        Long division in integers: in Z[t] the quotient's coefficients are
        the step quotients, so a step that does not divide evenly means the
        division is not exact.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        # shift both to honest polynomials, divide, shift back
        sv, ov = self.valuation(), other.valuation()
        num = {e - sv: v for e, v in self._c.items()}
        den = [(e - ov, v) for e, v in other._c.items()]
        od = other.degree()
        dd = od - ov
        lead = other._c[od]
        quo: Dict[int, int] = {}
        while num:
            nd = max(num)
            if nd < dd:
                raise ValueError("inexact Laurent division")
            q, rem = divmod(num[nd], lead)
            if rem:
                raise ValueError("inexact Laurent division (fractional quotient)")
            quo[nd - dd + sv - ov] = q
            for e, v in den:
                k = e + nd - dd
                w = num.get(k, 0) - q * v
                if w:
                    num[k] = w
                else:
                    del num[k]
        return _laurent(quo)

    def evaluate(self, x) -> Fraction:
        """Evaluate at a nonzero rational point."""
        x = Fraction(x)
        if x == 0 and any(e < 0 for e in self._c):
            raise ZeroDivisionError("negative exponent at 0")
        total = Fraction(0)
        for e, v in self._c.items():
            total += v * x ** e
        return total

    # -- rendering / serialization

    def render(self, var: str = "t") -> str:
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            v = self._c[e]
            if e == 0:
                body = str(abs(v))
            else:
                pw = var if e == 1 else f"{var}^{e}"
                body = pw if abs(v) == 1 else f"{abs(v)}{pw}"
            parts.append(("-" if v < 0 else "+", body))
        sign0, body0 = parts[0]
        s = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            s += f" {sign} {body}"
        return s

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"

    def to_json(self) -> Dict[str, int]:
        return {str(e): v for e, v in sorted(self._c.items())}

    @classmethod
    def from_json(cls, data: Dict[str, int]) -> "LaurentPoly":
        return cls({int(e): int(v) for e, v in data.items()})

    @classmethod
    def parse(cls, s: str) -> "LaurentPoly":
        """Parse strings like 't+1', '2t^2 - t^-1 + 3', '(1-t^-2)'."""
        text = s.strip()
        while text.startswith("(") and text.endswith(")"):
            text = text[1:-1].strip()
        if not text:
            raise ValueError("empty polynomial string")
        text = text.replace(" ", "").replace("*", "")
        # split into signed terms
        terms = []
        cur = ""
        for i, ch in enumerate(text):
            if ch in "+-" and i > 0 and text[i - 1] not in "^+-":
                terms.append(cur)
                cur = ch
            else:
                cur += ch
        terms.append(cur)
        out = cls.zero()
        for term in terms:
            if not term or term in "+-":
                raise ValueError(f"bad polynomial term in {s!r}")
            sign = 1
            while term and term[0] in "+-":
                if term[0] == "-":
                    sign = -sign
                term = term[1:]
            if "t" in term:
                coeff_s, _, rest = term.partition("t")
                coeff = int(coeff_s) if coeff_s else 1
                if rest.startswith("^"):
                    exp = int(rest[1:])
                elif rest == "":
                    exp = 1
                else:
                    raise ValueError(f"bad polynomial term in {s!r}")
            else:
                coeff = int(term)
                exp = 0
            out = out + cls.monomial(exp, sign * coeff)
        return out


def _laurent(c: Dict[int, int]) -> LaurentPoly:
    """LaurentPoly from an int dict with no zero values, without re-validating."""
    x = object.__new__(LaurentPoly)
    x._c = c
    return x


_ZERO = _laurent({})
_ONE = _laurent({0: 1})


def _times_monomial(m: LaurentPoly, p: LaurentPoly) -> LaurentPoly:
    """m * p for a one-term m = c*t^e: p itself when m is 1, else each term
    of p shifted by e and scaled by c. No product of two nonzero ints is 0,
    so no coefficient needs dropping."""
    ((e, c),) = m._c.items()
    if e == 0 and c == 1:
        return p
    return _laurent({e + e2: c * v for e2, v in p._c.items()})


# ---------------------------------------------------------------------------
# classical q-analogues
# ---------------------------------------------------------------------------


def qint_plus(n: int) -> LaurentPoly:
    """[n]_+ = 1 + t + ... + t^(n-1)."""
    if n < 0:
        raise ValueError("qint_plus needs n >= 0")
    return LaurentPoly({e: 1 for e in range(n)})


def qfact_plus(n: int) -> LaurentPoly:
    if n < 0:
        raise ValueError("qfact_plus needs n >= 0")
    out = LaurentPoly.one()
    for k in range(1, n + 1):
        out = out * qint_plus(k)
    return out


@functools.lru_cache(maxsize=1024)
def gauss_binomial(n: int, r: int) -> LaurentPoly:
    """Gaussian binomial coefficient [n choose r] as a polynomial in t.

    Counts r-dimensional subspaces of an n-dimensional space over F_t.
    Memoized (results are immutable), so the exactness check runs once per
    (n, r).
    """
    if n < 0:
        raise ValueError("gauss_binomial needs n >= 0")
    if r < 0 or r > n:
        return LaurentPoly.zero()
    num = qfact_plus(n)
    den = qfact_plus(r) * qfact_plus(n - r)
    try:
        return num.divexact(den)
    except ValueError as exc:  # pragma: no cover
        raise ConsistencyError(f"gauss_binomial({n},{r}) not exact") from exc


def balanced_qint(n: int) -> LaurentPoly:
    """[n] = (v^n - v^-n)/(v - v^-1), a Laurent polynomial in v."""
    if n < 0:
        return -balanced_qint(-n)
    return LaurentPoly({e: 1 for e in range(1 - n, n, 2)})


def balanced_qfactorial(n: int) -> LaurentPoly:
    if n < 0:
        raise ValueError("balanced_qfactorial needs n >= 0")
    out = LaurentPoly.one()
    for k in range(1, n + 1):
        out = out * balanced_qint(k)
    return out


def balanced_qbinomial(m: int, n: int) -> LaurentPoly:
    if m < 0:
        raise ValueError("balanced_qbinomial needs m >= 0")
    if n < 0 or n > m:
        return LaurentPoly.zero()
    num = balanced_qfactorial(m)
    den = balanced_qfactorial(n) * balanced_qfactorial(m - n)
    try:
        return num.divexact(den)
    except ValueError as exc:  # pragma: no cover
        raise ConsistencyError(f"balanced_qbinomial({m},{n}) not exact") from exc


# ---------------------------------------------------------------------------
# rational functions in t (quotients of integer Laurent polynomials)
# ---------------------------------------------------------------------------


def _poly_content(p: LaurentPoly) -> int:
    return math.gcd(*p._c.values()) or 1


def _dense(p: LaurentPoly) -> list:
    """The coefficient list of an honest polynomial, index = exponent."""
    f = [0] * (p.degree() + 1)
    for e, v in p._c.items():
        f[e] = v
    return f


def _primitive(f: list) -> list:
    """A dense integer coefficient list divided by its content."""
    c = math.gcd(*f)
    return f if c <= 1 else [v // c for v in f]


def _pseudo_rem(f: list, g: list) -> list:
    """A nonzero integer multiple of the remainder of f by g, on dense
    coefficient lists (index = exponent, no zero top entry); [] when g
    divides f. Each step scales the running remainder by lc(g) / h and
    subtracts lc / h times a shift of g, with h = gcd(lc, lc(g)), so the
    top entry cancels in integers."""
    r = list(f)
    m = len(g) - 1
    gl = g[-1]
    while len(r) > m:
        rl = r.pop()
        k = len(r) - m
        h = math.gcd(rl, gl)
        x, y = gl // h, rl // h
        if x != 1:
            r = [x * v for v in r]
        for i in range(m):
            r[k + i] -= y * g[i]
        while r and not r[-1]:
            r.pop()
    return r


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd of two honest integer polynomials (no negative exponent), made
    primitive (content 1) with a positive leading coefficient: the gcd in
    Q[t], scaled to its unique primitive form. If one argument is zero, the
    other is returned as it is.

    Euclid over Z by primitive pseudo-remainders on dense coefficient
    lists: each remainder is divided by its content, so the coefficients
    stay small and no Fraction is built. A pseudo-remainder is the true
    remainder times a nonzero rational, which the content division and the
    final sign take out again.
    """
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    f, g = _primitive(_dense(a)), _primitive(_dense(b))
    while g:
        f, g = g, _primitive(_pseudo_rem(f, g))
    if f[-1] < 0:
        f = [-v for v in f]
    return _laurent({e: v for e, v in enumerate(f) if v})


class RationalFunction:
    """Quotient num/den of integer Laurent polynomials, kept reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.one()
            return
        nv, dv = num.valuation(), den.valuation()
        d_h = den.shift(-dv)
        if d_h.is_one():  # num / t^dv is already reduced
            self.num = num.shift(-dv)
            self.den = d_h
            return
        n_h = num.shift(-nv)
        g = _poly_gcd(n_h, d_h)
        if not g.is_one():
            n_h = n_h.divexact(g)
            d_h = d_h.divexact(g)
        c = math.gcd(_poly_content(n_h), _poly_content(d_h))
        if c > 1:
            n_h = _laurent({e: v // c for e, v in n_h._c.items()})
            d_h = _laurent({e: v // c for e, v in d_h._c.items()})
        if d_h.coeff(d_h.degree()) < 0:
            n_h, d_h = -n_h, -d_h
        self.num = n_h.shift(nv - dv)
        self.den = d_h

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "RationalFunction":
        return cls(p, LaurentPoly.one())

    @classmethod
    def from_int(cls, n: int) -> "RationalFunction":
        return cls(LaurentPoly.from_int(n), LaurentPoly.one())

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls.from_int(0)

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls.from_int(1)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, LaurentPoly):
            return RationalFunction.from_laurent(other)
        if isinstance(other, int):
            return RationalFunction.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        r = RationalFunction.__new__(RationalFunction)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero()

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def evaluate(self, x) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {x}")
        return self.num.evaluate(x) / d

    def is_laurent(self) -> bool:
        try:
            self.num.divexact(self.den)
            return True
        except ValueError:
            return False

    def to_laurent(self) -> LaurentPoly:
        return self.num.divexact(self.den)

    def render(self, var: str = "t") -> str:
        if self.den.is_one():
            return self.num.render(var)
        n = self.num.render(var)
        d = self.den.render(var)
        if len(self.num._c) > 1:
            n = f"({n})"
        if len(self.den._c) > 1:
            d = f"({d})"
        return f"{n}/{d}"

    def __repr__(self) -> str:
        return f"RationalFunction({self.render()})"


# ---------------------------------------------------------------------------
# Q(sqrt q) scalars
# ---------------------------------------------------------------------------


def _require_prime(q: int) -> None:
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")


def _ratio_str(num: int, den: int) -> str:
    """num/den in lowest terms, den > 0, as "n" or "n/d"."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


class QrtScalar:
    """Element (n + m*sqrt(q))/d of Q(sqrt q), q a fixed prime.

    The parts n, m, d are Python ints with d > 0 and gcd(n, m, d) == 1, so
    zero is (0, 0, 1). sqrt(q) is irrational for prime q, so this form is
    unique and equality is partwise. The arithmetic is integer-only: it
    forms an integer triple and divides out its gcd, a step skipped when
    d == 1, the common case (Hall numbers, aut orders and q-powers).

    The constructor validates q and takes rational parts a, b for the value
    a + b*sqrt(q); the properties .a and .b give them back as Fractions.
    The arithmetic builds its results with _qrt, which skips the
    validation because its operands were already checked. Instances are
    immutable, so a backend may hand out one zero and one one, and x * 1
    and x + 0 return x itself.
    """

    __slots__ = ("q", "_n", "_m", "_d")

    def __init__(self, q: int, a=0, b=0):
        _require_prime(q)
        self.q = q
        if type(a) is int and type(b) is int:
            self._n, self._m, self._d = a, b, 1
            return
        # an exact Fraction is already in lowest terms; anything else,
        # subclasses included, is normalized by Fraction. Fraction accepts
        # numpy integers and keeps them as its parts, so int() makes every
        # part a Python int that cannot wrap around.
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        an, ad = int(a.numerator), int(a.denominator)
        bn, bd = int(b.numerator), int(b.denominator)
        # both parts are in lowest terms, so over their lcm gcd(n, m, d) == 1
        d = ad * bd // math.gcd(ad, bd)
        self._n, self._m, self._d = an * (d // ad), bn * (d // bd), d

    @classmethod
    def nu(cls, q: int, k: int = 1) -> "QrtScalar":
        """nu^k where nu = +sqrt(q)."""
        _require_prime(q)
        j, r = divmod(k, 2)
        num, den = (q**j, 1) if j >= 0 else (1, q ** (-j))
        return _qrt(q, num, 0, den) if r == 0 else _qrt(q, 0, num, den)

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self._n, self._d)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(q)."""
        return Fraction(self._m, self._d)

    def is_zero(self) -> bool:
        return not self._n and not self._m

    def is_one(self) -> bool:
        return self._n == 1 and not self._m and self._d == 1

    def _coerce(self, other):
        if isinstance(other, QrtScalar):
            if other.q != self.q:
                raise ValueError("mixing scalars over different q")
            return other
        if isinstance(other, int):
            return _qrt(self.q, int(other), 0, 1)
        if isinstance(other, Fraction):
            return _qrt(self.q, int(other.numerator), 0, int(other.denominator))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._n and not o._m:
            return self
        if not self._n and not self._m:
            return o
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _qrt_reduced(self.q, self._n + o._n, self._m + o._m, d1)
        return _qrt_reduced(
            self.q, self._n * d2 + o._n * d1, self._m * d2 + o._m * d1, d1 * d2
        )

    __radd__ = __add__

    def __neg__(self):
        return _qrt(self.q, -self._n, -self._m, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n1, m1, n2, m2 = self._n, self._m, o._n, o._m
        if n2 == 1 and not m2 and o._d == 1:
            return self
        if n1 == 1 and not m1 and self._d == 1:
            return o
        # most factors are rational (structure constants, aut orders)
        if not m2:
            n, m = n1 * n2, m1 * n2
        elif not m1:
            n, m = n1 * n2, n1 * m2
        else:
            n, m = n1 * n2 + m1 * m2 * self.q, n1 * m2 + m1 * n2
        return _qrt_reduced(self.q, n, m, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "QrtScalar":
        n, m, d = self._n, self._m, self._d
        norm = n * n - m * m * self.q
        if norm == 0:
            # n^2 = m^2 q with q prime forces n = m = 0
            raise ZeroDivisionError("inverse of zero")
        # d / (n + m sqrt q) = d (n - m sqrt q) / norm, with the sign of the
        # norm moved into the numerators so the denominator stays positive
        if norm < 0:
            return _qrt_reduced(self.q, -d * n, d * m, -norm)
        return _qrt_reduced(self.q, d * n, -d * m, norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "QrtScalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = _qrt(self.q, 1, 0, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._n == o._n and self._m == o._m and self._d == o._d

    def __hash__(self) -> int:
        return hash((self.q, self._n, self._m, self._d))

    def has_qpower_denominator(self) -> bool:
        # d is the lcm of the reduced denominators of both parts
        d = self._d
        while d % self.q == 0:
            d //= self.q
        return d == 1

    def as_signed_nu_power(self) -> Optional[Tuple[int, int]]:
        """Return (sign, k) if self == sign * nu^k, else None."""
        n, m, den = self._n, self._m, self._d
        if n and not m:
            part, parity = n, 0
        elif m and not n:
            part, parity = m, 1
        else:
            return None
        # the part is in lowest terms, so |part|/den = q^j needs one side 1
        num = abs(part)
        j = 0
        if den == 1:
            while num % self.q == 0:
                num //= self.q
                j += 1
            if num != 1:
                return None
        else:
            if num != 1:
                return None
            while den % self.q == 0:
                den //= self.q
                j -= 1
            if den != 1:
                return None
        sign = 1 if part > 0 else -1
        return (sign, 2 * j + parity)

    def render(self) -> str:
        sp = self.as_signed_nu_power()
        if sp is not None:
            sign, k = sp
            s = "-" if sign < 0 else ""
            if k == 0:
                return s + "1"
            if k == 1:
                return s + "v"
            return f"{s}v^{k}"
        n, m, d = self._n, self._m, self._d
        if m == 0:
            return _ratio_str(n, d)
        if n == 0:
            return f"{_ratio_str(m, d)}*v" if abs(m) != d else ("v" if m > 0 else "-v")
        bs = f"{_ratio_str(abs(m), d)}*v" if abs(m) != d else "v"
        op = "+" if m > 0 else "-"
        return f"({_ratio_str(n, d)} {op} {bs})"

    def __repr__(self) -> str:
        return f"QrtScalar(q={self.q}, {self.render()})"

    def to_json(self) -> Dict[str, str]:
        return {
            "q": str(self.q),
            "rational_part": _ratio_str(self._n, self._d),
            "root_part": _ratio_str(self._m, self._d),
        }


def _qrt(q: int, n: int, m: int, d: int) -> QrtScalar:
    """QrtScalar (n + m*sqrt(q))/d from a prime q and int parts already in
    canonical form (d > 0, gcd(n, m, d) == 1), without re-validating."""
    x = object.__new__(QrtScalar)
    x.q = q
    x._n = n
    x._m = m
    x._d = d
    return x


def _qrt_reduced(q: int, n: int, m: int, d: int) -> QrtScalar:
    """_qrt after dividing out gcd(n, m, d); d must be positive."""
    if d != 1:
        g = math.gcd(n, m, d)
        if g != 1:
            n, m, d = n // g, m // g, d // g
    return _qrt(q, n, m, d)


def laurent_at_nu(p: LaurentPoly, q: int) -> QrtScalar:
    """Evaluate a Laurent polynomial in v at v = sqrt(q)."""
    out = QrtScalar(q, 0, 0)
    for e, c in p.items():
        out = out + QrtScalar.nu(q, e) * c
    return out


# ---------------------------------------------------------------------------
# linear combinations
# ---------------------------------------------------------------------------


class LinearCombination:
    """Finite linear combination {key: coefficient} over one of the scalar
    rings above; no zero coefficient is ever stored.

    ``backend`` is the object the keys belong to (None where the keys are
    self-describing, such as partitions). Combinations add and compare only
    within one kind and over one backend. The constructor takes the backend
    first and the terms last; subclasses with a different signature
    override it.
    """

    __slots__ = ("backend", "terms")

    def __init__(self, backend=None, terms: Optional[Dict] = None):
        self.backend = backend
        self.terms = {k: c for k, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def zero(cls, *backend) -> "LinearCombination":
        return cls(*backend)

    def _like(self, terms: Dict) -> "LinearCombination":
        """A combination of the same kind over the same backend. Its keys
        come from existing terms, so a subclass's key checks are skipped."""
        out = object.__new__(type(self))
        out.backend = self.backend
        out.terms = {k: c for k, c in terms.items() if not c.is_zero()}
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LinearCombination") -> "LinearCombination":
        if type(other) is not type(self):
            raise ValueError(
                f"cannot add a {type(other).__name__} to a {type(self).__name__}"
            )
        if other.backend is not self.backend:
            raise ValueError("elements live over different backends")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out[key] + c if key in out else c
        return self._like(out)

    def __neg__(self) -> "LinearCombination":
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LinearCombination") -> "LinearCombination":
        return self + (-other)

    def scale(self, c) -> "LinearCombination":
        return self._like({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and other.backend is self.backend
            and self.terms == other.terms
        )
