"""Acceptance gate: twelve criteria, each with its stated exactness and
runtime bound. One criterion per test; the terminal summary prints one
PASS/FAIL line per criterion (see conftest)."""

import time
from fractions import Fraction

from hallalg.classical import hall_poly
from hallalg.engine import (
    antipode,
    ClassicalGeneric,
    comultiply,
    comultiply_plain,
    HallElement,
    multiply,
    one_gamma,
    QuiverAtQ,
    serre_residual,
    TensorElement,
)
from hallalg.exactnum import LaurentPoly, QrtScalar
from hallalg.partitions import all_partitions, aut_poly
from hallalg.quiverrep import aut_count, count_submodules, jordan_rep, Quiver
from hallalg.verify import all_passed, run_suite

L = LaurentPoly


class _Clock:
    def __init__(self, bound_s):
        self.bound = bound_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.bound, f"took {elapsed:.1f}s, bound {self.bound}s"
        return False


def _suite_ok(name, **kw):
    rep = run_suite(name, **kw)
    bad = [c["id"] for c in rep["checks"] if c["status"] != "pass"]
    assert not bad, f"{name}: failing checks {bad[:5]} ({len(bad)} total)"
    return len(rep["checks"])


def _a2_labels(b):
    s1 = b.classes_of_dim((1, 0))[0]
    s2 = b.classes_of_dim((0, 1))[0]
    pair = b.classes_of_dim((1, 1))
    split = next(lab for lab in pair if not b.hall(lab, s2, s1).is_zero())
    i12 = next(lab for lab in pair if lab != split)
    return s1, s2, split, i12


def test_criterion_01_hall_number_goldens():
    with _Clock(1):
        goldens = [
            (((1, 1), (1,), (1,)), L.t() + 1),
            (((2,), (1,), (1,)), L.one()),
            (((2, 1), (2,), (1,)), L.t()),
            (((2, 1), (1,), (2,)), L.t()),
        ]
        for (nu, mu, la), want in goldens:
            poly = hall_poly(nu, mu, la)
            assert poly == want
            for q in (2, 3, 5):
                brute = count_submodules(jordan_rep(nu, q), mu, la)
                assert poly.evaluate(q) == brute


def test_criterion_02_hall_polynomial_oracle():
    with _Clock(120):
        for n in range(6):
            for nu in all_partitions(n):
                reps = {q: jordan_rep(nu, q) for q in (2, 3)}
                for k in range(n + 1):
                    for mu in all_partitions(k):
                        for la in all_partitions(n - k):
                            poly = hall_poly(nu, mu, la)
                            for q in (2, 3):
                                brute = count_submodules(reps[q], mu, la)
                                assert poly.evaluate(q) == brute, (nu, mu, la, q)


def test_criterion_03_steinitz_suite():
    with _Clock(60):
        n = _suite_ok("steinitz", deg=6)
        assert n > 0


def test_criterion_04_classical_hopf_goldens():
    with _Clock(1):
        b = ClassicalGeneric()

        def elem(terms):
            return HallElement(b, {(la, ()): c for la, c in terms.items()})

        def tensor(terms):
            return TensorElement(
                b, {((mu, ()), (la, ())): c for (mu, la), c in terms.items()}
            )

        e1 = HallElement.basis(b, (1,))
        e2 = HallElement.basis(b, (2,))
        got = multiply(b, e1, e1)
        assert got == elem({(1, 1): L.t() + 1, (2,): L.one()})
        assert multiply(b, e1, e2) == elem({(2, 1): L.t(), (3,): L.one()})
        assert multiply(b, e2, e1) == elem({(2, 1): L.t(), (3,): L.one()})

        assert comultiply(b, e1) == tensor({((1,), ()): L.one(), ((), (1,)): L.one()})
        assert comultiply(b, e2) == tensor({
            ((2,), ()): L.one(),
            ((), (2,)): L.one(),
            ((1,), (1,)): L.one() - L.monomial(-1),
        })
        assert comultiply(b, HallElement.basis(b, (1, 1))) == tensor({
            ((1, 1), ()): L.one(),
            ((), (1, 1)): L.one(),
            ((1,), (1,)): L.monomial(-1),
        })
        assert comultiply(b, HallElement.basis(b, (2, 1))) == tensor({
            ((2, 1), ()): L.one(),
            ((), (2, 1)): L.one(),
            ((1,), (1, 1)): L.one() - L.monomial(-2),
            ((1, 1), (1,)): L.one() - L.monomial(-2),
            ((1,), (2,)): L.monomial(-1),
            ((2,), (1,)): L.monomial(-1),
        })

        assert antipode(b, e1) == elem({(1,): -L.one()})
        assert antipode(b, HallElement.basis(b, (1, 1))) == elem({
            (2,): L.monomial(-1),
            (1, 1): L.monomial(-1),
        })
        assert antipode(b, e2) == elem({
            (2,): -L.monomial(-1),
            (1, 1): L.t() - L.monomial(-1),
        })


def test_criterion_05_aut_poly_vs_brute():
    with _Clock(60):
        for q in (2, 3):
            for n in range(5):
                for la in all_partitions(n):
                    want = aut_poly(la).evaluate(q)
                    got = aut_count(jordan_rep(la, q), budget=3**16)
                    assert want == got, (la, q)


def test_criterion_06_hall_littlewood_norms():
    with _Clock(30):
        n = _suite_ok("hl-norms", deg=4, check_q=(2, 3))
        assert n == 32
        from hallalg.classical import hl_pairing, newton_p_in_e

        assert hl_pairing(newton_p_in_e(1), newton_p_in_e(1), 2) == Fraction(1)
        assert hl_pairing(newton_p_in_e(2), newton_p_in_e(2), 3) == Fraction(1, 4)
        assert hl_pairing(newton_p_in_e(1), newton_p_in_e(2), 5) == 0


def test_criterion_07_ringel_relations_fixed_q():
    with _Clock(120):
        for q in (2, 3):
            assert serre_residual(Quiver.a2(), q, "1", "2").is_zero()
            assert serre_residual(Quiver.a2(), q, "2", "1").is_zero()
        assert serre_residual(Quiver.kronecker(), 2, "1", "2").is_zero()
        assert serre_residual(Quiver.kronecker(), 2, "2", "1").is_zero()
        # simple-class product goldens with exact v-coefficients
        for q in (2, 3):
            b = QuiverAtQ(Quiver.a2(), q)
            s1, s2, split, i12 = _a2_labels(b)
            by_aut = sorted(b.classes_of_dim((2, 1)), key=lambda lab: b.aut(lab).a)
            s1s1s2, s1i12 = by_aut[1], by_aut[0]
            nu = lambda k: QrtScalar.nu(q, k)
            z = (0, 0)
            e1 = HallElement.basis(b, s1)
            e2 = HallElement.basis(b, s2)
            qq = b.from_int(q)
            assert multiply(b, e1, e2) == HallElement(
                b, {(split, z): nu(-1), (i12, z): nu(-1)}
            )
            assert multiply(b, e2, e1) == HallElement(b, {(split, z): b.one()})
            assert multiply(b, e2, multiply(b, e1, e1)) == HallElement(
                b, {(s1s1s2, z): nu(1) * (qq + b.one())}
            )
            assert multiply(b, multiply(b, e1, e1), e2) == HallElement(
                b,
                {
                    (s1s1s2, z): nu(-1) * (qq + b.one()),
                    (s1i12, z): nu(-1) * (qq + b.one()),
                },
            )
            assert multiply(b, multiply(b, e1, e2), e1) == HallElement(
                b, {(s1s1s2, z): qq + b.one(), (s1i12, z): b.one()}
            )


def test_criterion_08_green_compatibility():
    with _Clock(180):
        _suite_ok("green", backend="quiver", quiver=Quiver.a2(), q=2, deg=4)
        _suite_ok("green", backend="quiver", quiver=Quiver.cyclic(3), q=2, deg=4)
        _suite_ok("green", backend="classical", deg=5)


def test_criterion_09_hopf_pairing_and_antipode():
    with _Clock(180):
        for kw in (
            dict(backend="quiver", quiver=Quiver.a2(), q=2, deg=4),
            dict(backend="quiver", quiver=Quiver.cyclic(3), q=2, deg=4),
            dict(backend="classical", deg=5),
        ):
            _suite_ok("hopf-pairing", **kw)
            _suite_ok("antipode", **kw)


def test_criterion_10_drinfeld_double_a1():
    with _Clock(30):
        for q in (2, 3):
            _suite_ok("double-a1", q=q)


def _coprodun_holds(b, gamma):
    gamma = b.normalize_gamma(gamma)
    lhs = comultiply_plain(b, one_gamma(b, gamma))
    z = (0,) * b.offset_len
    terms = {}
    import itertools as it

    for alpha in it.product(*(range(g + 1) for g in gamma)):
        beta = tuple(g - a for g, a in zip(gamma, alpha))
        coeff = b.nu_power(-b.euler_a(alpha, beta))
        for la in b.classes_of_dim(alpha):
            for lb in b.classes_of_dim(beta):
                key = ((la, z), (lb, z))
                terms[key] = terms.get(key, b.zero()) + coeff
    return lhs == TensorElement(b, terms)


def test_criterion_11_unit_sum_coproduct():
    with _Clock(60):
        b = QuiverAtQ(Quiver.a2(), 2)
        for total in range(4):
            for a in range(total + 1):
                assert _coprodun_holds(b, (a, total - a))
        bj = QuiverAtQ(Quiver.jordan_quiver(), 2)
        for n in range(5):
            assert _coprodun_holds(bj, (n,))


def test_criterion_12_combinatorial_conservation():
    with _Clock(300):
        for Q, q in (
            (Quiver.a2(), 2),
            (Quiver.kronecker(), 2),
            (Quiver.cyclic(3), 2),
            (Quiver.jordan_quiver(), 2),
            (Quiver.jordan_quiver(), 3),
        ):
            _suite_ok(
                "orbit-stabilizer", quiver=Q, q=q, deg=4, budget=3**16
            )
