"""Generic classical Hall algebra: Hall polynomials, Hopf structure, symmetric
functions. Oracle values are frozen from hand computations noted inline."""

import random
from fractions import Fraction

import pytest

from hallalg.exactnum import ConsistencyError, LaurentPoly, RationalFunction
from hallalg.partitions import all_partitions, aut_poly, weight
from hallalg import classical
from hallalg.classical import (
    _column_row,
    _mu_times_x,
    _product_row,
    SymFun,
    elementary_expansion,
    from_symfun,
    hall_poly,
    hall_poly_col,
    hl_pairing,
    ibasis_in_elementary,
    newton_p_in_e,
    to_symfun,
)
from hallalg.engine import (
    CLASSICAL as B,
    ClassicalGeneric,
    HallElement,
    TensorElement,
    antipode,
    comultiply,
    counit,
    multiply,
    pairing,
)

L = LaurentPoly


def H(terms):
    """The classical Hall element sum of c [I_la] over {la: c}."""
    return HallElement(B, {(la, ()): c for la, c in terms.items()})


def basis(la):
    return HallElement.basis(B, la)


def T(terms):
    """The classical tensor sum of c [I_mu] (x) [I_la] over {(mu, la): c}."""
    return TensorElement(B, {((mu, ()), (la, ())): c for (mu, la), c in terms.items()})


def test_hall_poly_col_goldens():
    # hand-checked submodule counts:
    assert hall_poly_col((1, 1), (1,), 1) == L.parse("t+1")
    assert hall_poly_col((2, 1), (2,), 1) == L.t()
    # socle line with elementary quotient is unique:
    assert hall_poly_col((2, 1), (1, 1), 1) == L.one()
    # unique order-p submodule of a cyclic p^2 module:
    assert hall_poly_col((2,), (1,), 1) == L.one()
    # grassmannian case: all-elementary types give the q-binomial
    from hallalg.exactnum import gauss_binomial

    for t_ in range(1, 6):
        for r in range(1, t_ + 1):
            assert hall_poly_col((1,) * t_, (1,) * (t_ - r), r) == gauss_binomial(t_, r)
    # a cyclic module has no elementary submodule of rank >= 2
    for n in range(2, 6):
        for r in range(2, n):
            assert hall_poly_col((n,), (n - r,), r) == L.zero()
        assert hall_poly_col((n,), (n - 1,), 1) == L.one()


def test_hall_poly_col_domain_errors():
    with pytest.raises(ValueError):
        hall_poly_col((2, 1), (1,), 1)  # degree mismatch
    with pytest.raises(ValueError):
        hall_poly_col((1, 1), (1,), 0)
    with pytest.raises(ValueError):
        hall_poly_col((1, 1), (1,), -1)


def test_elementary_expansion_triangular():
    # unit diagonal + dominance enforced internally; spot the n = 2, 3 tables
    t2 = elementary_expansion(2)
    assert t2[(1, 1)] == {(1, 1): L.one()}
    assert t2[(2,)] == {(2,): L.one(), (1, 1): L.parse("t+1")}
    t3 = elementary_expansion(3)
    # [DERIVED by hand] X_(2,1) = [I_(1)][I_(1,1)] = [I_(2,1)] + (t^2+t+1)[I_(1^3)]
    assert t3[(2, 1)] == {(2, 1): L.one(), (1, 1, 1): L.parse("t^2+t+1")}
    # [DERIVED by hand] X_(3) = [I_(1)]^3
    assert t3[(3,)] == {
        (3,): L.one(),
        (2, 1): L.parse("2t+1"),
        (1, 1, 1): L.parse("(t+1)") * L.parse("t^2+t+1"),
    }


def test_hall_poly_goldens():
    # hand-checked small values
    assert hall_poly((1, 1), (1,), (1,)) == L.parse("t+1")
    assert hall_poly((2,), (1,), (1,)) == L.one()
    assert hall_poly((2, 1), (2,), (1,)) == L.t()
    assert hall_poly((2, 1), (1,), (2,)) == L.t()
    # counted directly in Z/p^2 + Z/p above
    assert hall_poly((2, 1), (1, 1), (1,)) == L.one()
    assert hall_poly((1, 1, 1), (1, 1), (1,)) == L.parse("t^2+t+1")
    # cyclic tower: unique submodule chain
    for n in range(1, 6):
        for r in range(1, n + 1):
            got = hall_poly((n,), (n - r,) if n > r else (), (r,))
            assert got == L.one(), (n, r)
    # size mismatch returns zero
    assert hall_poly((2,), (2,), (1,)) == L.zero()


def _hall_poly_ref(nu, mu, la):
    """P^nu_{mu,la} with la expanded in the X_kappa products whatever its
    size: sum over kappa of c_{la,kappa} ([I_mu] X_kappa)[nu]. hall_poly
    expands the lighter factor, so this is its oracle for either order."""
    total = L.zero()
    for kappa, c in ibasis_in_elementary(weight(la))[la].items():
        total = total + c * _mu_times_x(mu, kappa).get(nu, L.zero())
    return total


def test_hall_poly_symmetry_small():
    for n in range(5):
        for nu in all_partitions(n):
            for k in range(n + 1):
                for mu in all_partitions(k):
                    for la in all_partitions(n - k):
                        p = _hall_poly_ref(nu, mu, la)
                        assert p == _hall_poly_ref(nu, la, mu)
                        assert hall_poly(nu, mu, la) == p == hall_poly(nu, la, mu)


def test_engine_rows_and_subtables_match_the_right_factor_expansion():
    # the engine's row(M, N) is _product_row with the lighter factor on the
    # right, so both orders of an unequal-weight product read one row;
    # _hall_poly_ref expands N whatever its weight, so one of the two orders
    # checks each such row against the heavier factor's expansion. Every
    # subtable is those rows transposed.
    b = ClassicalGeneric()
    parts = [la for n in range(7) for la in all_partitions(n)]
    rows = {}
    for M in parts:
        for N in parts:
            n = weight(M) + weight(N)
            if n > 6:
                continue
            want = {nu: _hall_poly_ref(nu, M, N) for nu in all_partitions(n)}
            rows[M, N] = {nu: p for nu, p in want.items() if not p.is_zero()}
            assert b.row(M, N) == rows[M, N], (M, N)
    assert len(rows) == 139
    for n in range(7):
        for R in all_partitions(n):
            want = {key: row[R] for key, row in rows.items() if R in row}
            assert b.subtable(R) == want, R


def test_hall_table_expands_only_the_lighter_factor(monkeypatch):
    # each product row expands its lighter factor, so the degree-8 table
    # never inverts the elementary expansion past degree 4
    _product_row.cache_clear()
    degrees = []
    expand = classical.ibasis_in_elementary

    def recorded(n):
        degrees.append(n)
        return expand(n)

    monkeypatch.setattr(classical, "ibasis_in_elementary", recorded)
    for k in range(9):
        for nu in all_partitions(8):
            for mu in all_partitions(k):
                for la in all_partitions(8 - k):
                    hall_poly(nu, mu, la)
    assert max(degrees) == 4


def test_mult_goldens_small_rank():
    # worked low-weight products
    one = basis((1,))
    sq = multiply(B, one, one)
    assert sq == H({(1, 1): L.parse("t+1"), (2,): L.one()})
    m12 = multiply(B, one, basis((2,)))
    assert m12 == H({(2, 1): L.t(), (3,): L.one()})
    assert m12 == multiply(B, basis((2,)), one)


def test_element_class_basics():
    x = H({(1,): L.t()}) + basis((2,))
    assert x.coeff((1,)) == L.t()
    y = x - x
    assert y.is_zero()
    assert (-x).coeff((2,)) == L.from_int(-1)
    z = x.scale(L.parse("t-1"))
    assert z.coeff((1,)) == L.parse("t^2-t")
    # symmetric functions normalize their keys as partitions
    with pytest.raises(ValueError):
        SymFun({(1, 2): L.one()})


def test_comult_goldens():
    # low-weight coproducts, exact Laurent coefficients
    d1 = comultiply(B, basis((1,)))
    assert d1 == T({((), (1,)): L.one(), ((1,), ()): L.one()})
    d2 = comultiply(B, basis((2,)))
    assert d2 == T({
        ((), (2,)): L.one(),
        ((2,), ()): L.one(),
        ((1,), (1,)): L.parse("1-t^-1"),
    })
    d11 = comultiply(B, basis((1, 1)))
    assert d11 == T({
        ((), (1, 1)): L.one(),
        ((1, 1), ()): L.one(),
        ((1,), (1,)): L.monomial(-1),
    })
    d21 = comultiply(B, basis((2, 1)))
    assert d21 == T({
        ((), (2, 1)): L.one(),
        ((2, 1), ()): L.one(),
        ((1,), (1, 1)): L.parse("1-t^-2"),
        ((1, 1), (1,)): L.parse("1-t^-2"),
        ((1,), (2,)): L.monomial(-1),
        ((2,), (1,)): L.monomial(-1),
    })


def test_comult_is_algebra_map_small():
    # Delta(xy) = Delta(x) Delta(y) with componentwise products (classical
    # twist is trivial); checked on all basis pairs of total weight <= 4
    for n in range(5):
        for k in range(n + 1):
            for mu in all_partitions(k):
                for la in all_partitions(n - k):
                    x, y = basis(mu), basis(la)
                    lhs = comultiply(B, multiply(B, x, y))
                    dx = comultiply(B, x)
                    dy = comultiply(B, y)
                    rhs = {}
                    for ((a1, _), (b1, _)), c1 in dx.terms.items():
                        for ((a2, _), (b2, _)), c2 in dy.terms.items():
                            left = multiply(B, H({a1: c1}), H({a2: c2}))
                            right = multiply(B, basis(b1), basis(b2))
                            for ta, ca in left.terms.items():
                                for tb, cb in right.terms.items():
                                    key = (ta, tb)
                                    rhs[key] = rhs.get(key, L.zero()) + ca * cb
                    rhs = {k2: v for k2, v in rhs.items() if not v.is_zero()}
                    assert lhs.terms == rhs, (mu, la)


def test_counit():
    assert counit(B, HallElement.one(B)) == L.one()
    assert counit(B, basis((2, 1))) == L.zero()
    x = HallElement.one(B).scale(L.parse("t-1")) + basis((1,))
    assert counit(B, x) == L.parse("t-1")


def test_antipode_goldens():
    # low-weight antipode values
    assert antipode(B, basis((1,))) == -basis((1,))
    s11 = antipode(B, basis((1, 1)))
    assert s11 == H({(2,): L.monomial(-1), (1, 1): L.monomial(-1)})
    s2 = antipode(B, basis((2,)))
    assert s2 == H({(2,): L.monomial(-1, -1), (1, 1): L.parse("t - t^-1")})


def test_antipode_axiom_and_involution():
    # m(S (x) 1)Delta = unit . counit, and S^2 = id (commutative case)
    for n in range(5):
        for nu in all_partitions(n):
            x = basis(nu)
            acc = HallElement.zero(B)
            for ((mu, _), (la, _)), c in comultiply(B, x).terms.items():
                acc = acc + multiply(B, antipode(B, H({mu: c})), basis(la))
            expected = HallElement.one(B) if nu == () else HallElement.zero(B)
            assert acc == expected, nu
            assert antipode(B, antipode(B, x)) == x, nu


def test_antipode_antihomomorphism_spot():
    x, y = basis((1,)), basis((2,))
    lhs = antipode(B, multiply(B, x, y))
    rhs = multiply(B, antipode(B, y), antipode(B, x))
    assert lhs == rhs


def test_green_pairing_orthogonality():
    for n in range(5):
        for la in all_partitions(n):
            for mu in all_partitions(n):
                got = pairing(B, basis(la), basis(mu))
                if la == mu:
                    assert got == RationalFunction(L.one(), aut_poly(la))
                else:
                    assert got.is_zero()
    # bilinearity spot
    x = basis((1,)).scale(L.t()) + basis((2,))
    got = pairing(B, x, x)
    expected = RationalFunction(L.parse("t^2"), aut_poly((1,))) + RationalFunction(
        L.one(), aut_poly((2,))
    )
    assert got == expected


def test_to_symfun_is_algebra_iso():
    # e-image of the elementary class
    for r in range(1, 5):
        img = to_symfun(basis((1,) * r))
        assert img == SymFun({(r,): L.monomial(-r * (r - 1) // 2)})
    # multiplicativity on all basis pairs of total weight <= 4
    for n in range(5):
        for k in range(n + 1):
            for mu in all_partitions(k):
                for la in all_partitions(n - k):
                    x, y = basis(mu), basis(la)
                    assert to_symfun(multiply(B, x, y)) == to_symfun(x) * to_symfun(y)
    # round trip both ways through weight 5
    for n in range(6):
        for la in all_partitions(n):
            x = basis(la)
            assert from_symfun(to_symfun(x)) == x
    f = SymFun({(2, 1): L.t(), (1, 1): L.one()})
    assert to_symfun(from_symfun(f)) == f


def test_to_symfun_evaluated_at_q():
    vals = {la: c.evaluate(2) for la, c in to_symfun(basis((1, 1))).terms.items()}
    assert vals == {(2,): Fraction(1, 2)}


def test_newton_p_in_e():
    # classical Newton identities, integer coefficients
    e1, e2, e3 = SymFun.e(1), SymFun.e(2), SymFun.e(3)
    assert newton_p_in_e(1) == e1
    assert newton_p_in_e(2) == e1 * e1 - e2.scale(2)
    assert newton_p_in_e(3) == e1 * e1 * e1 - (e1 * e2).scale(3) + e3.scale(3)
    with pytest.raises(ValueError):
        newton_p_in_e(0)


def test_hl_pairing_power_sums_small():
    # {p_r, p_s} = delta_{rs} r/(q^r - 1), spot checked here at r,s <= 2
    for q in (2, 3):
        for r in (1, 2):
            for s in (1, 2):
                got = hl_pairing(newton_p_in_e(r), newton_p_in_e(s), q)
                want = Fraction(r, q**r - 1) if r == s else Fraction(0)
                assert got == want, (q, r, s)
    with pytest.raises(ValueError):
        hl_pairing(SymFun.e(1), SymFun.e(1), 1)


def _is_vertical_strip(tau, sigma, r):
    # tau/sigma is a vertical r-strip: r boxes, at most one in each row
    if len(tau) < len(sigma) or weight(tau) != weight(sigma) + r:
        return False
    padded = sigma + (0,) * (len(tau) - len(sigma))
    return all(t - s in (0, 1) for t, s in zip(tau, padded))


def test_column_rows_match_brute_scan():
    # the memoized row is the full scan of hall_poly_col over every tau, and
    # its support is the vertical r-strips over sigma (Macdonald II (4.6))
    for w in range(8):
        for sigma in all_partitions(w):
            for r in range(1, 9 - w):
                brute = tuple(
                    (tau, hall_poly_col(tau, sigma, r))
                    for tau in all_partitions(w + r)
                    if not hall_poly_col(tau, sigma, r).is_zero()
                )
                assert _column_row(sigma, r) == brute
                strips = {tau for tau in all_partitions(w + r) if _is_vertical_strip(tau, sigma, r)}
                assert {tau for tau, _ in brute} == strips


def test_column_row_refuses_a_zero_strip(monkeypatch):
    # every vertical strip must carry a nonzero polynomial; a zero one is an
    # internal inconsistency, not a term to drop
    monkeypatch.setattr(classical, "hall_poly_col", lambda tau, sigma, r: L.zero())
    with pytest.raises(ConsistencyError):
        _column_row.__wrapped__((2, 1), 2)


def test_degree_9_table_symmetric_and_polynomial():
    # both orders of every pair of factors meet the oracle, which expands
    # the right factor even when it is the heavier one
    count = 0
    for k in range(10):
        for nu in all_partitions(9):
            for mu in all_partitions(k):
                for la in all_partitions(9 - k):
                    p = hall_poly(nu, mu, la)
                    assert p == _hall_poly_ref(nu, mu, la)
                    assert p == hall_poly(nu, la, mu)
                    assert p.is_polynomial()
                    count += 1
    assert count == 9000


def test_hall_associativity_degree_8_sample():
    # ([a][b])[c] == [a]([b][c]) coefficientwise:
    # sum_s P^s_{a,b} P^nu_{s,c} == sum_t P^nu_{a,t} P^t_{b,c}
    rng = random.Random(8)
    triples = []
    while len(triples) < 40:
        i = rng.randint(1, 6)
        j = rng.randint(1, 7 - i)
        a, b, c = (rng.choice(all_partitions(n)) for n in (i, j, 8 - i - j))
        triples.append((a, b, c))
    for a, b, c in triples:
        for nu in all_partitions(8):
            left = sum(
                (hall_poly(s, a, b) * hall_poly(nu, s, c)
                 for s in all_partitions(weight(a) + weight(b))),
                L.zero(),
            )
            right = sum(
                (hall_poly(nu, a, t) * hall_poly(t, b, c)
                 for t in all_partitions(weight(b) + weight(c))),
                L.zero(),
            )
            assert left == right, (a, b, c, nu)
