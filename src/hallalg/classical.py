"""Generic classical Hall algebra over Z[t, t^-1].

Basis elements [I_la] are indexed by partitions; structure constants are the
Hall polynomials P^nu_{mu,la}(t), computed exactly by expanding elementary
products and inverting the unitriangular change of basis. Each product
[I_mu][I_la] is computed once, as its whole row {nu: P^nu_{mu,la}}. The
algebra is commutative, so the factor written in the elementary products is
the lighter one, and the inverse expansion is needed only up to half the
degree of nu. This module also
holds the symmetric-function picture (elementary basis, Newton power sums,
Hall-Littlewood style inner product).

Hall elements and their product, coproduct, antipode and Green pairing are
the engine's, on its classical backend (engine.CLASSICAL): an element is
{(la, ()): coeff}. to_symfun and from_symfun map between those elements and
symmetric functions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import ge
from typing import Dict, Optional, Tuple

from . import engine  # engine imports this module back; read its names at call time
from .exactnum import (
    ConsistencyError,
    LaurentPoly,
    LinearCombination,
    gauss_binomial,
)
from .partitions import (
    Partition,
    all_partitions,
    as_partition,
    conjugate,
    dominance_key,
    multiplicities,
    transpose_dominance_leq,
    weight,
)

L = LaurentPoly


# ---------------------------------------------------------------------------
# Hall polynomials
# ---------------------------------------------------------------------------


def hall_poly_col(nu: Partition, mu: Partition, r: int) -> LaurentPoly:
    """P^nu_{mu,(1^r)}: submodules isomorphic to the elementary module of
    rank r with quotient of type mu, inside a module of type nu.

    Closed product formula: the insertion ranks r_0 = r, r_1, ..., r_n are
    forced by the multiplicity equations m_i = l_i + 2 r_i - r_{i-1} - r_{i+1}
    (solved here in tail-sum form); infeasible rank sequences mean the count
    is zero.
    """
    nu, mu = as_partition(nu), as_partition(mu)
    if not isinstance(r, int) or r < 1:
        raise ValueError("column size r must be a positive integer")
    if weight(nu) != weight(mu) + r:
        raise ValueError("degree mismatch: |nu| must equal |mu| + r")
    n = max([1] + list(nu) + list(mu))
    lm = multiplicities(nu)
    mm = multiplicities(mu)
    l = [0] * (n + 2)
    m = [0] * (n + 2)
    for i, v in lm.items():
        l[i] = v
    for i, v in mm.items():
        m[i] = v
    rs = [0] * (n + 1)
    rs[0] = r
    for j in range(1, n + 1):
        rs[j] = rs[j - 1] + sum(m[i] - l[i] for i in range(j, n + 1))
    if rs[n] != 0:  # pragma: no cover
        raise ConsistencyError("rank sequence must terminate at zero")
    out = L.one()
    exponent = 0
    for j in range(1, n + 1):
        d = rs[j - 1] - rs[j]
        if rs[j] < 0 or d < 0 or d > l[j]:
            return L.zero()
        out = out * gauss_binomial(l[j], d)
        exponent += d * (sum(l[j + 1 : n + 1]) - rs[j])
    return out.shift(exponent)


@cache
def _column_row(sigma: Partition, r: int) -> Tuple[Tuple[Partition, LaurentPoly], ...]:
    """The nonzero P^tau_{sigma,(1^r)}, as (tau, polynomial) pairs in
    all_partitions order. tau runs over the vertical r-strips added to
    sigma, one box in each of r distinct rows (Macdonald II (4.6)), and
    each of them must have a nonzero polynomial."""
    padded = sigma + (0,) * r
    strips = []
    for rows in combinations(range(len(padded)), r):
        tau = list(padded)
        for i in rows:
            tau[i] += 1
        if all(map(ge, tau, tau[1:])):
            strips.append(tuple(p for p in tau if p))
    row = []
    for tau in sorted(strips, reverse=True):
        p = hall_poly_col(tau, sigma, r)
        if p.is_zero():
            raise ConsistencyError(f"vertical strip {tau} over {sigma} has P = 0")
        row.append((tau, p))
    return tuple(row)


def _mult_by_column(elem: Dict[Partition, LaurentPoly], r: int) -> Dict[Partition, LaurentPoly]:
    """Right-multiply an [I]-basis element by [I_(1^r)]."""
    out: Dict[Partition, LaurentPoly] = {}
    for sigma, c in elem.items():
        for tau, p in _column_row(sigma, r):
            acc = out.get(tau, L.zero()) + c * p
            if acc.is_zero():
                out.pop(tau, None)
            else:
                out[tau] = acc
    return out


@cache
def elementary_expansion(n: int) -> Dict[Partition, Dict[Partition, LaurentPoly]]:
    """Expansions of the elementary products X_kappa in the [I] basis.

    X_kappa multiplies the columns of kappa smallest first, so the largest
    column ends in the submodule slot. Triangularity with unit diagonal
    w.r.t. transpose dominance is asserted, not assumed.
    """
    table: Dict[Partition, Dict[Partition, LaurentPoly]] = {}
    for kappa in all_partitions(n):
        elem = _mu_times_x((), kappa)
        diag = elem.get(kappa, L.zero())
        if not diag.is_one():
            raise ConsistencyError(f"elementary product X_{kappa} lacks unit diagonal")
        for tau in elem:
            if tau != kappa and not transpose_dominance_leq(tau, kappa):
                raise ConsistencyError(
                    f"elementary product X_{kappa} has non-dominated term {tau}"
                )
        table[kappa] = elem
    return table


@cache
def ibasis_in_elementary(n: int) -> Dict[Partition, Dict[Partition, LaurentPoly]]:
    """[I_la] written in the X_kappa products, by unitriangular inversion."""
    table = elementary_expansion(n)
    expr: Dict[Partition, Dict[Partition, LaurentPoly]] = {}
    for la in sorted(all_partitions(n), key=dominance_key):
        cur: Dict[Partition, LaurentPoly] = {la: L.one()}
        for tau, c in table[la].items():
            if tau == la:
                continue
            # tau strictly below la, so expr[tau] is already available
            for kappa, ck in expr[tau].items():
                acc = cur.get(kappa, L.zero()) - c * ck
                if acc.is_zero():
                    cur.pop(kappa, None)
                else:
                    cur[kappa] = acc
        expr[la] = cur
    return expr


@cache
def _mu_times_x(mu: Partition, kappa: Partition) -> Dict[Partition, LaurentPoly]:
    elem: Dict[Partition, LaurentPoly] = {mu: L.one()}
    for col in sorted(conjugate(kappa)):
        elem = _mult_by_column(elem, col)
    return elem


def hall_poly(nu: Partition, mu: Partition, la: Partition) -> LaurentPoly:
    """Hall polynomial P^nu_{mu,la}(t): number of submodules of a type-nu
    module isomorphic to type la with quotient of type mu, as a polynomial
    in the residue field size."""
    return _hall_poly(as_partition(nu), as_partition(mu), as_partition(la))


def _hall_poly(nu: Partition, mu: Partition, la: Partition) -> LaurentPoly:
    """hall_poly on canonical partition tuples: an entry of the product row
    of [I_mu][I_la]. The algebra is commutative (P^nu_{mu,la} =
    P^nu_{la,mu}, by duality), so the row read is the one whose right
    factor is the lighter of mu and la."""
    w_mu, w_la = weight(mu), weight(la)
    if weight(nu) != w_mu + w_la:
        return L.zero()
    if w_la > w_mu:
        mu, la = la, mu
    return _product_row(mu, la).get(nu, L.zero())


@cache
def _product_row(mu: Partition, la: Partition) -> Dict[Partition, LaurentPoly]:
    """[I_mu][I_la] = sum_nu P^nu_{mu,la} [I_nu], as {nu: P} over the
    nonzero terms: [I_la] written in the X_kappa products, each multiplied
    onto [I_mu] by columns."""
    row: Dict[Partition, LaurentPoly] = {}
    for kappa, c in ibasis_in_elementary(weight(la))[la].items():
        for nu, p in _mu_times_x(mu, kappa).items():
            acc = row.get(nu, L.zero()) + c * p
            if acc.is_zero():
                row.pop(nu, None)
            else:
                row[nu] = acc
    for nu, p in row.items():
        if not p.is_polynomial():
            raise ConsistencyError(f"Hall polynomial {(nu, mu, la)} has negative t-exponents")
    return row


# ---------------------------------------------------------------------------
# symmetric functions in the elementary basis
# ---------------------------------------------------------------------------


class SymFun(LinearCombination):
    """Symmetric function as a finite sum of e_la monomials, la a partition.

    e_la means the product e_{la_1} e_{la_2} ... ; coefficients are Laurent.
    Keys are normalized (and merged), int coefficients promoted.
    """

    __slots__ = ()

    def __init__(self, terms: Optional[Dict[Partition, LaurentPoly]] = None):
        t: Dict[Partition, LaurentPoly] = {}
        for la, c in (terms or {}).items():
            la = as_partition(la)
            if isinstance(c, int):
                c = L.from_int(c)
            if not isinstance(c, LaurentPoly):
                raise ValueError(f"coefficient must be LaurentPoly, got {c!r}")
            t[la] = t[la] + c if la in t else c
        super().__init__(None, t)

    @classmethod
    def e(cls, r: int) -> "SymFun":
        if r < 0:
            raise ValueError("e_r needs r >= 0")
        if r == 0:
            return cls({(): L.one()})
        return cls({(r,): L.one()})

    @classmethod
    def one(cls) -> "SymFun":
        return cls({(): L.one()})

    def __mul__(self, other: "SymFun") -> "SymFun":
        out: Dict[Partition, LaurentPoly] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(sorted(a + b, reverse=True))
                out[key] = out.get(key, L.zero()) + ca * cb
        return SymFun(out)

    def __repr__(self) -> str:
        if not self.terms:
            return "SymFun(0)"
        bits = [f"({c.render()})*e{list(la)}" for la, c in sorted(self.terms.items())]
        return "SymFun(" + " + ".join(bits) + ")"


def to_symfun(x: "engine.HallElement") -> SymFun:
    """Image of a classical Hall element under the renormalized
    symmetric-function map [I_(1^r)] -> t^(-r(r-1)/2) e_r (an algebra
    isomorphism), as a SymFun over Z[t,t^-1]."""
    out = SymFun.zero()
    for (la, _), c in x.terms.items():
        expr = ibasis_in_elementary(weight(la)).get(la, {}) if la else {(): L.one()}
        for kappa, ck in expr.items():
            cols = conjugate(kappa)
            shift = -sum(r * (r - 1) // 2 for r in cols)
            coeff = (c * ck).shift(shift)
            out = out + SymFun({tuple(sorted(cols, reverse=True)): coeff})
    return out


def from_symfun(f: SymFun) -> "engine.HallElement":
    """Inverse of to_symfun: e_r -> t^(r(r-1)/2) [I_(1^r)], extended
    multiplicatively over e-monomials, on engine.CLASSICAL."""
    b = engine.CLASSICAL
    out = engine.HallElement.zero(b)
    for la, c in f.terms.items():
        term = engine.HallElement.one(b)
        shift = 0
        for r in la:
            shift += r * (r - 1) // 2
            term = engine.multiply(b, term, engine.HallElement.basis(b, (1,) * r))
        out = out + term.scale(c.shift(shift))
    return out


def newton_p_in_e(r: int) -> SymFun:
    """Power sum p_r in the elementary basis, by the Newton recursion
    p_r = (-1)^(r-1) r e_r + sum_{i<r} (-1)^(r-1+i) e_{r-i} p_i."""
    if not isinstance(r, int) or r < 1:
        raise ValueError("newton_p_in_e needs r >= 1")
    return _newton(r)


@cache
def _newton(r: int) -> SymFun:
    """newton_p_in_e once its argument is checked."""
    sign = 1 if (r - 1) % 2 == 0 else -1
    out = SymFun.e(r).scale(sign * r)
    for i in range(1, r):
        s = 1 if (r - 1 + i) % 2 == 0 else -1
        out = out + (SymFun.e(r - i) * _newton(i)).scale(s)
    return out


def hl_pairing(f: SymFun, g: SymFun, q: int) -> Fraction:
    """Inner product pulled back through the symmetric-function map, at a
    numeric residue field size q >= 2 (q = 1 is a pole of the norms)."""
    if not isinstance(q, int) or q == 1:
        raise ValueError("hl_pairing needs an integer q different from 1")
    if q < 2:
        raise ValueError("hl_pairing needs q >= 2")
    val = engine.pairing(engine.CLASSICAL, from_symfun(f), from_symfun(g))
    return val.evaluate(q)
