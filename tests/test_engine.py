"""Hopf engine over both backends: products, coproducts, pairing, antipodes,
Serre and Green residuals, Drinfeld cross-relation."""

import os
import random
from fractions import Fraction
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hallalg
from hallalg import engine, quiverrep, verify
from hallalg.classical import hall_poly, ibasis_in_elementary, to_symfun
from hallalg.engine import (
    ClassicalGeneric,
    HallElement,
    QuiverAtQ,
    TensorElement,
    antipode,
    antipode_closed,
    antipode_inv,
    comultiply,
    comultiply_plain,
    counit,
    divided_power,
    drinfeld_cross,
    green_compat_residual,
    multiply,
    one_gamma,
    pairing,
    pairing_tensor,
    serre_residual,
)
from hallalg.exactnum import (
    BudgetError,
    ConsistencyError,
    LaurentPoly,
    QrtScalar,
    RationalFunction,
    balanced_qfactorial,
    laurent_at_nu,
)
from hallalg.partitions import all_partitions, aut_poly, conjugate
from hallalg.quiverrep import Quiver, aut_count, enumerate_iso_classes, rep_from_label
from hallalg.verify import suite_hopf_pairing


def a1_quiver():
    # one vertex, no arrows: finite-dimensional vector spaces
    return Quiver(("1",))


def a2_labels(b):
    """(s1, s2, s1s2, i12) labels on an A_2 backend; the split class is the
    one admitting the reversed-order submodule."""
    s1 = b.classes_of_dim((1, 0))[0]
    s2 = b.classes_of_dim((0, 1))[0]
    pair = b.classes_of_dim((1, 1))
    assert len(pair) == 2
    split = next(L for L in pair if not b.hall(L, s2, s1).is_zero())
    i12 = next(L for L in pair if L != split)
    return s1, s2, split, i12


def dim21_labels(b, s1, s2, i12):
    """(s1s1s2, s1i12) at dimension (2,1), told apart by aut order."""
    labs = b.classes_of_dim((2, 1))
    assert len(labs) == 2
    by_aut = sorted(labs, key=lambda L: b.aut(L).a)
    return by_aut[1], by_aut[0]  # GL_2-sized one is the split class


# ---------------------------------------------------------------------------
# classical backend against independent oracles; the antipode is checked
# against the closed route in test_antipode_closed_matches_recursion
# ---------------------------------------------------------------------------


def test_classical_engine_mult_matches_symfun():
    # to_symfun is an injective algebra map, and SymFun products never call
    # hall_poly
    b = ClassicalGeneric()
    for n1 in range(4):
        for n2 in range(4 - n1):
            for la in all_partitions(n1):
                for mu in all_partitions(n2):
                    x, y = HallElement.basis(b, la), HallElement.basis(b, mu)
                    want = to_symfun(x) * to_symfun(y)
                    assert to_symfun(multiply(b, x, y)) == want, (la, mu)


def test_classical_engine_comult_matches_columns():
    # the column formula Delta([1^r]) = sum_k t^{-k(r-k)} [1^k] (x) [1^(r-k)]
    # and Green's theorem (Delta multiplicative, trivial twist) give
    # Delta([I_la]) = sum_kappa c_kappa prod_cols Delta([1^col]) from the
    # expansion [I_la] = sum_kappa c_kappa X_kappa
    b = ClassicalGeneric()
    z = ()

    def column_delta(r):
        return TensorElement(
            b,
            {
                (((1,) * k, z), ((1,) * (r - k), z)): LaurentPoly.monomial(-k * (r - k))
                for k in range(r + 1)
            },
        )

    for n in range(4):
        for la, expr in ibasis_in_elementary(n).items():
            want = TensorElement.zero(b)
            for kappa, c in expr.items():
                term = TensorElement(b, {(((), z), ((), z)): c})
                for col in sorted(conjugate(kappa)):
                    term = term.product(column_delta(col), twisted=False)
                want = want + term
            assert comultiply(b, HallElement.basis(b, la)) == want, la


def test_classical_engine_pairing_diagonal():
    b = ClassicalGeneric()
    for n in range(4):
        for la in all_partitions(n):
            for mu in all_partitions(n):
                got = pairing(b, HallElement.basis(b, la), HallElement.basis(b, mu))
                if la == mu:
                    assert got == RationalFunction(LaurentPoly.one(), aut_poly(la))
                else:
                    assert got.is_zero()


def test_classical_classes_sorted_once_per_degree(monkeypatch):
    calls = []
    real_key = engine.dominance_key

    def counting_key(la):
        calls.append(la)
        return real_key(la)

    monkeypatch.setattr(engine, "dominance_key", counting_key)
    b = ClassicalGeneric()
    for n in (3, 4):
        want = sorted(all_partitions(n), key=real_key)
        for gamma in (n, (n,), [n]):
            assert b.classes_of_dim(gamma) == want
    # products of degree 4 list the degree-4 classes for every row
    for la in all_partitions(2):
        for mu in all_partitions(2):
            multiply(b, HallElement.basis(b, la), HallElement.basis(b, mu))
    assert len(calls) == len(all_partitions(3)) + len(all_partitions(4))


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("module", ["hallalg.classical", "hallalg.engine", "hallalg.cli"])
def test_module_imports_alone(module, flags):
    # classical and engine import each other; each must import first, in a
    # fresh interpreter, and still reach the other at call time (no assert:
    # -O would strip it)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hallalg.__file__)))
    code = (
        f"import {module}\n"
        "from fractions import Fraction\n"
        "from hallalg import classical\n"
        "e1 = classical.SymFun.e(1)\n"
        "if classical.hl_pairing(e1, e1, 2) != Fraction(1, 1):\n"
        "    raise SystemExit('wrong pairing')\n"
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# quiver backend multiplication goldens
# ---------------------------------------------------------------------------


def test_a2_simple_products():
    for q in (2, 3):
        b = QuiverAtQ(Quiver.a2(), q)
        s1, s2, split, i12 = a2_labels(b)
        nu = lambda k: QrtScalar.nu(q, k)
        z = (0, 0)
        got = multiply(b, HallElement.basis(b, s1), HallElement.basis(b, s2))
        want = HallElement(b, {(split, z): nu(-1), (i12, z): nu(-1)})
        assert got == want
        got2 = multiply(b, HallElement.basis(b, s2), HallElement.basis(b, s1))
        assert got2 == HallElement(b, {(split, z): b.one()})


def test_power_of_simple():
    # [S]^n = v^{n(n-1)} [n]!_v [S^n] on the one-vertex quiver
    for q in (2, 3):
        b = QuiverAtQ(a1_quiver(), q)
        s = b.classes_of_dim((1,))[0]
        x = HallElement.basis(b, s)
        acc = HallElement.one(b)
        for n in range(1, 5):
            acc = multiply(b, acc, x)
            sn = b.classes_of_dim((n,))
            assert len(sn) == 1
            want_coeff = QrtScalar.nu(q, n * (n - 1)) * laurent_at_nu(
                balanced_qfactorial(n), q
            )
            assert acc == HallElement(b, {(sn[0], (0,)): want_coeff})


def test_triple_products_dim21():
    for q in (2, 3):
        b = QuiverAtQ(Quiver.a2(), q)
        s1, s2, split, i12 = a2_labels(b)
        a, c = dim21_labels(b, s1, s2, i12)
        nu = lambda k: QrtScalar.nu(q, k)
        e1 = HallElement.basis(b, s1)
        e2 = HallElement.basis(b, s2)
        z = (0, 0)
        qq = b.from_int(q)
        lhs1 = multiply(b, e2, multiply(b, e1, e1))
        assert lhs1 == HallElement(b, {(a, z): nu(1) * (qq + b.one())})
        lhs2 = multiply(b, multiply(b, e1, e1), e2)
        assert lhs2 == HallElement(
            b, {(a, z): nu(-1) * (qq + b.one()), (c, z): nu(-1) * (qq + b.one())}
        )
        lhs3 = multiply(b, multiply(b, e1, e2), e1)
        assert lhs3 == HallElement(b, {(a, z): qq + b.one(), (c, z): b.one()})


def test_multiply_backend_mismatch():
    b1 = QuiverAtQ(Quiver.a2(), 2)
    b2 = QuiverAtQ(Quiver.a2(), 3)
    x = HallElement.one(b1)
    y = HallElement.one(b2)
    with pytest.raises(ValueError):
        multiply(b1, x, y)


def test_elements_add_only_within_one_kind():
    # a Hall element and a tensor over the same backend must not merge
    # their keys into one combination
    b = QuiverAtQ(Quiver.a2(), 2)
    x = HallElement.one(b)
    one_key = next(iter(x.terms))
    t = TensorElement(b, {(one_key, one_key): b.one()})
    for lhs, rhs in ((x, t), (t, x)):
        with pytest.raises(ValueError):
            lhs + rhs
        with pytest.raises(ValueError):
            lhs - rhs


def test_budget_propagates():
    b = QuiverAtQ(Quiver.kronecker(), 2, budget=50)
    s1 = b.classes_of_dim((1, 0))[0]
    x = HallElement.basis(b, s1)
    big = x
    with pytest.raises(BudgetError):
        for _ in range(6):
            big = multiply(b, big, x)


# ---------------------------------------------------------------------------
# coproduct goldens
# ---------------------------------------------------------------------------


def test_comultiply_k_grouplike():
    b = QuiverAtQ(Quiver.a2(), 2)
    alpha = (2, -1)
    t = comultiply(b, HallElement.k(b, alpha))
    zl = b.zero_label()
    assert t == TensorElement(b, {((zl, alpha), (zl, alpha)): b.one()})


def test_comultiply_simple_primitive():
    for q in (2, 3):
        b = QuiverAtQ(Quiver.a2(), q)
        s1, s2, _, _ = a2_labels(b)
        zl = b.zero_label()
        z = (0, 0)
        t = comultiply(b, HallElement.basis(b, s1))
        want = TensorElement(
            b,
            {
                ((s1, z), (zl, z)): b.one(),
                ((zl, (1, 0)), (s1, z)): b.one(),
            },
        )
        assert t == want


def test_comultiply_i12():
    for q in (2, 3):
        b = QuiverAtQ(Quiver.a2(), q)
        s1, s2, _, i12 = a2_labels(b)
        zl = b.zero_label()
        z = (0, 0)
        t = comultiply(b, HallElement.basis(b, i12))
        want = TensorElement(
            b,
            {
                ((i12, z), (zl, z)): b.one(),
                ((zl, (1, 1)), (i12, z)): b.one(),
                ((s1, (0, 1)), (s2, z)): QrtScalar.nu(q, -1) * b.from_int(q - 1),
            },
        )
        assert t == want


def test_comultiply_double_point():
    # one-vertex quiver: Delta([S+S]) has the v^{-1} middle term
    for q in (2, 3):
        b = QuiverAtQ(a1_quiver(), q)
        s = b.classes_of_dim((1,))[0]
        ss = b.classes_of_dim((2,))[0]
        zl = b.zero_label()
        t = comultiply(b, HallElement.basis(b, ss))
        want = TensorElement(
            b,
            {
                ((ss, (0,)), (zl, (0,))): b.one(),
                ((zl, (2,)), (ss, (0,))): b.one(),
                ((s, (1,)), (s, (0,))): QrtScalar.nu(q, -1),
            },
        )
        assert t == want


def test_counit():
    b = QuiverAtQ(Quiver.a2(), 2)
    s1, _, _, _ = a2_labels(b)
    assert counit(b, HallElement.one(b)) == b.one()
    assert counit(b, HallElement.k(b, (1, 2))) == b.one()
    assert counit(b, HallElement.basis(b, s1)).is_zero()


def test_coassociativity_small():
    for bmaker in (
        lambda: QuiverAtQ(Quiver.a2(), 2),
        lambda: QuiverAtQ(Quiver.cyclic(2), 2),
    ):
        b = bmaker()
        for d in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1)):
            for lab in b.classes_of_dim(d):
                x = HallElement.basis(b, lab)
                t = comultiply(b, x)
                left = {}
                right = {}
                for (lk, rk), c in t.terms.items():
                    tl = comultiply(b, HallElement(b, {lk: b.one()}))
                    for (k1, k2), c2 in tl.terms.items():
                        key = (k1, k2, rk)
                        left[key] = left.get(key, b.zero()) + c * c2
                    tr = comultiply(b, HallElement(b, {rk: b.one()}))
                    for (k2, k3), c2 in tr.terms.items():
                        key = (lk, k2, k3)
                        right[key] = right.get(key, b.zero()) + c * c2
                left = {k: v for k, v in left.items() if not v.is_zero()}
                right = {k: v for k, v in right.items() if not v.is_zero()}
                assert left == right


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def test_pairing_goldens():
    for q in (2, 3, 5):
        b = QuiverAtQ(a1_quiver(), q)
        s = b.classes_of_dim((1,))[0]
        x = HallElement.basis(b, s)
        got = pairing(b, x, x)
        assert got == QrtScalar(q, 1) / QrtScalar(q, q - 1)
    b = QuiverAtQ(Quiver.a2(), 3)
    assert pairing(b, HallElement.k(b, (1, 0)), HallElement.k(b, (0, 1))) == QrtScalar.nu(3, -1)
    assert pairing(b, HallElement.k(b, (1, 0)), HallElement.k(b, (1, 0))) == QrtScalar.nu(3, 2)
    s1, s2, _, _ = a2_labels(b)
    assert pairing(b, HallElement.basis(b, s1), HallElement.basis(b, s2)).is_zero()


def test_pairing_gram_diagonal():
    # 1/a_M with a_M a positive integer
    b = QuiverAtQ(Quiver.cyclic(2), 2)
    for d in ((1, 0), (1, 1), (2, 1)):
        for lab in b.classes_of_dim(d):
            a = b.aut(lab)
            assert a.b == 0 and a.a > 0
            got = pairing(b, HallElement.basis(b, lab), HallElement.basis(b, lab))
            assert got == b.one() / a


def test_hopf_pairing_property_quiver():
    # (xy, z) = (x (x) y, Delta(z)) on small A_2 triples
    b = QuiverAtQ(Quiver.a2(), 2)
    dims = [(1, 0), (0, 1), (1, 1)]
    labels = [lab for d in dims for lab in b.classes_of_dim(d)]
    for lx in labels:
        for ly in labels:
            x = HallElement.basis(b, lx)
            y = HallElement.basis(b, ly)
            dz = tuple(a + bb for a, bb in zip(b.dim_of(lx), b.dim_of(ly)))
            for lz in b.classes_of_dim(dz):
                z = HallElement.basis(b, lz)
                lhs = pairing(b, multiply(b, x, y), z)
                xy = TensorElement(
                    b, {((lx, (0, 0)), (ly, (0, 0))): b.one()}
                )
                rhs = pairing_tensor(b, xy, comultiply(b, z))
                assert lhs == rhs


def _pair_leg_brute(b, key1, key2):
    """([M]k_a, [N]k_b) = delta_MN v^(a,b)_sym / a_M, dividing by a_M."""
    (M, alpha), (N, beta) = key1, key2
    if M != N:
        return b.pairing_zero()
    s = b.sym_a(alpha, beta) if b.offset_len else 0
    num = b.nu_power(s) if s else b.one()
    return b.to_pairing(num) / b.to_pairing(b.aut(M))


def _pairing_tensor_brute(b, t1, t2):
    """Oracle for pairing_tensor: every pair of terms, mismatches included,
    each leg paired by _pair_leg_brute."""
    total = b.pairing_zero()
    for (lk1, rk1), c1 in t1.terms.items():
        for (lk2, rk2), c2 in t2.terms.items():
            legs = _pair_leg_brute(b, lk1, lk2) * _pair_leg_brute(b, rk1, rk2)
            total = total + b.to_pairing(c1 * c2) * legs
    return total


def _pairing_brute(b, x, y):
    """Oracle for pairing: every pair of terms paired by _pair_leg_brute."""
    total = b.pairing_zero()
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            total = total + b.to_pairing(c1 * c2) * _pair_leg_brute(b, k1, k2)
    return total


def _random_tensor_pair(rng, b, labels, scalar, offsets, nterms):
    """Two tensors over a shared label pool: t1 reuses some of t2's label
    pairs (with fresh offsets) and adds pairs t2 does not have."""
    def key():
        return ((rng.choice(labels), offsets()), (rng.choice(labels), offsets()))

    t2 = {key(): scalar() for _ in range(nterms)}
    t1 = {}
    for (lk, rk) in rng.sample(sorted(t2, key=repr), nterms // 2):
        t1[((lk[0], offsets()), (rk[0], offsets()))] = scalar()
        t1[(lk, rk)] = scalar()
    for _ in range(nterms // 2):
        t1[key()] = scalar()
    return TensorElement(b, t1), TensorElement(b, t2)


def _check_pairing_tensor_against_brute(rng, b, labels, scalar, offsets, rounds):
    nonzero = nonzero_single = 0
    for _ in range(rounds):
        t1, t2 = _random_tensor_pair(rng, b, labels, scalar, offsets, 8)
        pairs = {(lk[0], rk[0]) for lk, rk in t2.terms}
        assert any((lk[0], rk[0]) not in pairs for lk, rk in t1.terms)
        got = pairing_tensor(b, t1, t2)
        assert got == _pairing_tensor_brute(b, t1, t2)
        assert pairing_tensor(b, t2, t1) == _pairing_tensor_brute(b, t2, t1)
        nonzero += not got.is_zero()
        # pairing multiplies by the memoized 1/a_M; the left legs as
        # elements must pair as the division form does, down to the repr
        x, y = (HallElement(b, {lk: c for (lk, _), c in t.terms.items()}) for t in (t1, t2))
        single = pairing(b, x, y)
        assert repr(single) == repr(_pairing_brute(b, x, y))
        nonzero_single += not single.is_zero()
    assert nonzero and nonzero_single


def test_pairing_tensor_join_matches_brute_classical():
    rng = random.Random(7)
    b = ClassicalGeneric()
    labels = [la for n in range(4) for la in all_partitions(n)]
    t = LaurentPoly.t()

    def scalar():
        return LaurentPoly.from_int(rng.choice((-2, -1, 1, 3))) + t * rng.randint(-1, 1)

    _check_pairing_tensor_against_brute(rng, b, labels, scalar, lambda: (), 5)


def test_pairing_tensor_join_matches_brute_quiver():
    rng = random.Random(11)
    b = QuiverAtQ(Quiver.cyclic(3), 2)
    dims = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (2, 1, 0), (1, 1, 1)]
    labels = [lab for d in dims for lab in b.classes_of_dim(d)]

    def scalar():
        return QrtScalar(2, rng.choice((-3, -1, 1, 2)), rng.randint(-1, 1))

    def offsets():
        return tuple(rng.randint(-1, 1) for _ in range(3))

    _check_pairing_tensor_against_brute(rng, b, labels, scalar, offsets, 12)


def test_quiver_backend_memoizes_representatives():
    for quiver, dims in (
        (Quiver.cyclic(3), [(1, 1, 1), (2, 1, 0)]),
        (Quiver.a2(), [(1, 1), (2, 1)]),
        (Quiver.jordan_quiver(), [(3,)]),
    ):
        b = QuiverAtQ(quiver, 2)
        for d in dims:
            # the representative is the one the enumeration returned
            for lab, rep, _ in enumerate_iso_classes(quiver, 2, d):
                assert b.rep(lab) is rep
                assert rep == rep_from_label(quiver, 2, lab)


# a cycle with a tail: nilpotent, but neither Jordan nor a single cycle, so
# its classes come from the orbit enumeration with the slow nilpotency filter
_NILPOTENT_TAIL = Quiver(("0", "1", "2"), (("0", "1"), ("1", "0"), ("1", "2")), nilpotent=True)


@pytest.mark.parametrize(
    "quiver, q, total",
    [
        (Quiver.cyclic(2), 2, 4),
        (Quiver.cyclic(2), 3, 3),
        (Quiver.cyclic(3), 2, 4),
        (Quiver.jordan_quiver(), 2, 4),
        (Quiver.jordan_quiver(), 3, 3),
        (Quiver.a2(), 3, 3),
        (Quiver.kronecker(), 2, 4),
        (_NILPOTENT_TAIL, 2, 4),
    ],
)
def test_quiver_backend_aut_matches_scan(quiver, q, total):
    # |Aut| read from the enumeration (closed form or orbit size) against
    # the exhaustive scan of End(M), on every class up to the total dimension
    b = QuiverAtQ(quiver, q)
    for d in _dims_up_to(quiver.n, total):
        for lab in b.classes_of_dim(d):
            assert b.rep(lab) == rep_from_label(quiver, q, lab)
            assert b.aut(lab) == QrtScalar(q, aut_count(b.rep(lab)))


def test_hopf_pairing_a3_q3_within_default_budget():
    # |Aut| of the class at (0,0,4) would need a 3^16-point scan, past the
    # default budget; the enumeration's orbit sizes give it without one
    A3 = Quiver(("1", "2", "3"), (("1", "2"), ("2", "3")))
    checks = suite_hopf_pairing(backend="quiver", quiver=A3, q=3, deg=4)
    assert len(checks) == 613
    assert all(c["status"] == "pass" for c in checks)


# ---------------------------------------------------------------------------
# antipodes
# ---------------------------------------------------------------------------


def test_antipode_k_and_simple():
    b = QuiverAtQ(Quiver.a2(), 3)
    alpha = (1, -2)
    assert antipode(b, HallElement.k(b, alpha)) == HallElement.k(
        b, tuple(-a for a in alpha)
    )
    s1, _, _, _ = a2_labels(b)
    got = antipode(b, HallElement.basis(b, s1))
    # -k_{S1}^{-1} [S1] = -v^{-(e1,e1)_sym} [S1] k_{-e1}
    want = HallElement(b, {(s1, (-1, 0)): -QrtScalar.nu(3, -2)})
    assert got == want


def test_antipode_classical_goldens():
    b = ClassicalGeneric()
    got = antipode(b, HallElement.basis(b, (1, 1)))
    tinv = LaurentPoly.monomial(-1)
    assert got == HallElement(b, {((2,), ()): tinv, ((1, 1), ()): tinv})


def _convolution(b, x, left_side):
    """m(S (x) 1)Delta(x) or m(1 (x) S)Delta(x)."""
    t = comultiply(b, x)
    acc = HallElement.zero(b)
    for (lk, rk), c in t.terms.items():
        lelem = HallElement(b, {lk: b.one()})
        relem = HallElement(b, {rk: b.one()})
        if left_side:
            prod = multiply(b, antipode(b, lelem), relem)
        else:
            prod = multiply(b, lelem, antipode(b, relem))
        acc = acc + prod.scale(c)
    return acc


def _convolution_check(b, lab, left_side):
    """m(S (x) 1)Delta([lab]) or m(1 (x) S)Delta([lab]) equals eps."""
    acc = _convolution(b, HallElement.basis(b, lab), left_side)
    want = HallElement.one(b) if lab == b.zero_label() else HallElement.zero(b)
    assert acc == want


def test_antipode_axioms_quiver():
    for bmaker in (
        lambda: QuiverAtQ(Quiver.a2(), 2),
        lambda: QuiverAtQ(Quiver.cyclic(2), 2),
        lambda: QuiverAtQ(Quiver.jordan_quiver(), 3),
    ):
        b = bmaker()
        if b.quiver.n == 1:
            dims = [(0,), (1,), (2,), (3,)]
        else:
            dims = [(a, c) for a in range(3) for c in range(3) if a + c <= 3]
        for d in dims:
            for lab in b.classes_of_dim(d):
                _convolution_check(b, lab, True)
                _convolution_check(b, lab, False)


def test_antipode_closed_matches_recursion():
    for bmaker in (
        lambda: QuiverAtQ(Quiver.a2(), 2),
        lambda: QuiverAtQ(Quiver.a2(), 3),
        lambda: QuiverAtQ(Quiver.cyclic(2), 2),
        lambda: QuiverAtQ(Quiver.jordan_quiver(), 2),
    ):
        b = bmaker()
        if b.quiver.n == 1:
            dims = [(n,) for n in range(4)]
        else:
            dims = [(a, c) for a in range(4) for c in range(4) if a + c <= 3]
        for d in dims:
            for lab in b.classes_of_dim(d):
                x = HallElement.basis(b, lab)
                assert antipode(b, x) == antipode_closed(b, x)
    bc = ClassicalGeneric()
    for n in range(5):
        for la in all_partitions(n):
            x = HallElement.basis(bc, la)
            assert antipode(bc, x) == antipode_closed(bc, x)


def test_antipode_inverse_roundtrip():
    for bmaker in (
        lambda: QuiverAtQ(Quiver.a2(), 2),
        lambda: QuiverAtQ(Quiver.cyclic(2), 2),
    ):
        b = bmaker()
        assert antipode_inv(b, HallElement.k(b, (1, 0))) == HallElement.k(b, (-1, 0))
        dims = [(a, c) for a in range(3) for c in range(3) if a + c <= 3]
        for d in dims:
            for lab in b.classes_of_dim(d):
                x = HallElement.basis(b, lab)
                assert antipode_inv(b, antipode(b, x)) == x
                assert antipode(b, antipode_inv(b, x)) == x
    bc = ClassicalGeneric()
    for n in range(5):
        for la in all_partitions(n):
            x = HallElement.basis(bc, la)
            assert antipode_inv(bc, antipode(bc, x)) == x
            assert antipode(bc, antipode_inv(bc, x)) == x


# ---------------------------------------------------------------------------
# Green compatibility
# ---------------------------------------------------------------------------


def test_green_residual_zero():
    bc = ClassicalGeneric()
    for n1 in range(1, 3):
        for n2 in range(1, 3):
            for la in all_partitions(n1):
                for mu in all_partitions(n2):
                    r = green_compat_residual(
                        bc, HallElement.basis(bc, la), HallElement.basis(bc, mu)
                    )
                    assert r.is_zero()
    b = QuiverAtQ(Quiver.a2(), 2)
    s1, s2, split, i12 = a2_labels(b)
    for lx in (s1, s2, split, i12):
        for ly in (s1, s2, split, i12):
            r = green_compat_residual(
                b, HallElement.basis(b, lx), HallElement.basis(b, ly)
            )
            assert r.is_zero()
    assert green_compat_residual(b, HallElement.one(b), HallElement.basis(b, i12)).is_zero()


def test_green_residual_requires_twist():
    # with the untwisted componentwise product the A_1 cross term comes out
    # 1 + q^2 instead of 1 + q, so the residual must NOT vanish
    q = 2
    b = QuiverAtQ(a1_quiver(), q)
    s = b.classes_of_dim((1,))[0]
    x = HallElement.basis(b, s)
    d1 = comultiply_plain(b, x)
    lhs = comultiply_plain(b, multiply(b, x, x))
    rhs_untwisted = d1.product(d1, twisted=False)
    assert not (lhs - rhs_untwisted).is_zero()
    rhs_twisted = d1.product(d1, twisted=True)
    assert (lhs - rhs_twisted).is_zero()


def test_green_residual_rejects_k_input():
    b = QuiverAtQ(Quiver.a2(), 2)
    with pytest.raises(ValueError):
        green_compat_residual(b, HallElement.k(b, (1, 0)), HallElement.one(b))


def test_extended_coproduct_is_algebra_map():
    # the k-decorated coproduct is multiplicative for the standard tensor
    # product (no twist)
    for q in (2, 3):
        b = QuiverAtQ(Quiver.a2(), q)
        s1, s2, split, i12 = a2_labels(b)
        for lx in (s1, s2, i12):
            for ly in (s1, s2, split):
                x = HallElement.basis(b, lx)
                y = HallElement.basis(b, ly)
                lhs = comultiply(b, multiply(b, x, y))
                rhs = comultiply(b, x).product(comultiply(b, y), twisted=False)
                assert lhs == rhs


# ---------------------------------------------------------------------------
# Serre residual
# ---------------------------------------------------------------------------


def test_serre_residual_zero():
    for q in (2, 3):
        assert serre_residual(Quiver.a2(), q, "1", "2").is_zero()
        assert serre_residual(Quiver.a2(), q, "2", "1").is_zero()
    assert serre_residual(Quiver.kronecker(), 2, "1", "2").is_zero()


def test_serre_residual_errors():
    with pytest.raises(ValueError):
        serre_residual(Quiver.a2(), 2, "1", "1")


def test_divided_power_shape():
    b = QuiverAtQ(a1_quiver(), 2)
    s = b.classes_of_dim((1,))[0]
    x = HallElement.basis(b, s)
    dp2 = divided_power(b, x, 2)
    ss = b.classes_of_dim((2,))[0]
    # [S]^(2) = v^2 [S+S]
    assert dp2 == HallElement(b, {(ss, (0,)): QrtScalar.nu(2, 2)})


# ---------------------------------------------------------------------------
# Drinfeld double cross-relation
# ---------------------------------------------------------------------------


def test_drinfeld_identity_and_k():
    b = QuiverAtQ(a1_quiver(), 3)
    s = b.classes_of_dim((1,))[0]
    zl = b.zero_label()
    y = HallElement.basis(b, s)
    got = drinfeld_cross(b, HallElement.one(b), y)
    assert got == {(s, (0,), zl): b.one()}
    # k_a^- commutes with a sign: v^{-(a,S)_sym} [S]^+ k_{-a}
    got2 = drinfeld_cross(b, HallElement.k(b, (1,)), y)
    assert got2 == {(s, (-1,), zl): QrtScalar.nu(3, -2)}


def test_drinfeld_a1_oracle():
    for q in (2, 3):
        b = QuiverAtQ(a1_quiver(), q)
        s = b.classes_of_dim((1,))[0]
        zl = b.zero_label()
        x = HallElement.basis(b, s)
        got = drinfeld_cross(b, x, x)
        a_s = QrtScalar(q, q - 1)
        want = {
            (s, (0,), s): b.one(),
            (zl, (1,), zl): b.one() / a_s,
            (zl, (-1,), zl): -(b.one() / a_s),
        }
        assert got == want
        # commutator [E,F] = u (k - k^{-1})/(v - v^{-1}) with u a v-power unit
        vdiff = QrtScalar.nu(q, 1) - QrtScalar.nu(q, -1)
        u = -(b.one() / a_s) * vdiff
        assert u == -QrtScalar.nu(q, -1)
        assert u.as_signed_nu_power() is not None


def test_drinfeld_reversed_reading_fails():
    q = 2
    b = QuiverAtQ(a1_quiver(), q)
    s = b.classes_of_dim((1,))[0]
    zl = b.zero_label()
    x = HallElement.basis(b, s)
    got = drinfeld_cross(b, x, x, sweedler_reversed=True)
    a_s = QrtScalar(q, q - 1)
    want = {
        (s, (0,), s): b.one(),
        (zl, (1,), zl): b.one() / a_s,
        (zl, (-1,), zl): -(b.one() / a_s),
    }
    assert got != want


# ---------------------------------------------------------------------------
# one_gamma and its coproduct identity
# ---------------------------------------------------------------------------


def test_one_gamma_goldens():
    b = QuiverAtQ(Quiver.jordan_quiver(), 2)
    got = one_gamma(b, 2)
    assert got == HallElement(
        b, {((2,), (0,)): b.one(), ((1, 1), (0,)): b.one()}
    )
    assert one_gamma(b, 0) == HallElement.one(b)
    b2 = QuiverAtQ(Quiver.a2(), 2)
    s1, s2, split, i12 = a2_labels(b2)
    assert one_gamma(b2, (1, 1)) == HallElement(
        b2, {(split, (0, 0)): b2.one(), (i12, (0, 0)): b2.one()}
    )


def _coprodun_check(b, gamma):
    lhs = comultiply_plain(b, one_gamma(b, gamma))
    want = TensorElement.zero(b)
    gamma = b.normalize_gamma(gamma)
    z = (0,) * b.offset_len
    for alpha in _splits(gamma):
        beta = tuple(g - a for g, a in zip(gamma, alpha))
        coeff = b.nu_power(-b.euler_a(alpha, beta))
        for la in b.classes_of_dim(alpha):
            for lb in b.classes_of_dim(beta):
                key = ((la, z), (lb, z))
                want.terms[key] = want.terms.get(key, b.zero()) + coeff
    assert lhs == TensorElement(b, want.terms)


def _splits(gamma):
    import itertools as it

    return [tuple(v) for v in it.product(*(range(g + 1) for g in gamma))]


def test_coprodun():
    b = QuiverAtQ(Quiver.a2(), 2)
    for total in range(4):
        for a in range(total + 1):
            _coprodun_check(b, (a, total - a))
    bj = QuiverAtQ(Quiver.jordan_quiver(), 2)
    for n in range(5):
        _coprodun_check(bj, (n,))


# ---------------------------------------------------------------------------
# grading and serialization order
# ---------------------------------------------------------------------------


def test_k_grading_preserved():
    b = QuiverAtQ(Quiver.a2(), 2)
    s1, s2, split, i12 = a2_labels(b)
    x = multiply(b, HallElement.basis(b, s1), HallElement.basis(b, i12))
    dims = {tuple(b.dim_of(lab)) for (lab, _) in x.terms}
    assert dims == {(2, 1)}
    t = comultiply(b, HallElement.basis(b, i12))
    for (lk, rk) in t.terms:
        dsum = tuple(
            a + bb for a, bb in zip(b.dim_of(lk[0]), b.dim_of(rk[0]))
        )
        assert dsum == (1, 1)


# ---------------------------------------------------------------------------
# tensor product against its first form
# ---------------------------------------------------------------------------


def _tensor_product_ref(t1, t2, twisted):
    """TensorElement.product as first written, the test oracle: each pair of
    terms multiplies its legs as one-term elements with multiply, and the
    twisted variant scales the pair by v^(wt(y), wt(z))_sym."""
    b = t1.backend
    out = {}
    for ((xl, xo), (yl, yo)), c1 in t1.terms.items():
        for ((zl, zo), (wl, wo)), c2 in t2.terms.items():
            factor = c1 * c2
            if twisted:
                factor = factor * b.nu_power(b.sym_a(b.dim_of(yl), b.dim_of(zl)))
            left = multiply(b, HallElement(b, {(xl, xo): b.one()}), HallElement(b, {(zl, zo): b.one()}))
            right = multiply(b, HallElement(b, {(yl, yo): b.one()}), HallElement(b, {(wl, wo): b.one()}))
            for lk, lc in left.terms.items():
                for rk, rc in right.terms.items():
                    add = factor * lc * rc
                    out[lk, rk] = out[lk, rk] + add if (lk, rk) in out else add
    return TensorElement(b, out)


def _check_product_against_ref(rng, b, labels, scalar, offsets, rounds):
    """Random tensors of four terms: twisted on k-free ones, untwisted with
    the given offsets; the terms must agree in value and in order."""
    def tensor(offs):
        return TensorElement(b, {((rng.choice(labels), offs()), (rng.choice(labels), offs())): scalar()
                                 for _ in range(4)})

    nonzero = 0
    for _ in range(rounds):
        for twisted, offs in ((True, lambda: (0,) * b.offset_len), (False, offsets)):
            t1, t2 = tensor(offs), tensor(offs)
            got = t1.product(t2, twisted=twisted)
            want = _tensor_product_ref(t1, t2, twisted)
            assert list(got.terms.items()) == list(want.terms.items())
            nonzero += not got.is_zero()
    assert nonzero > rounds


def test_tensor_product_matches_reference_classical():
    rng = random.Random(3)
    b = ClassicalGeneric()
    labels = [la for n in range(4) for la in all_partitions(n)]

    def scalar():
        return (LaurentPoly.from_int(rng.choice((-2, -1, 1, 3)))
                + LaurentPoly.monomial(rng.randint(-1, 1), rng.randint(-1, 1)))

    _check_product_against_ref(rng, b, labels, scalar, lambda: (), 6)


@pytest.mark.parametrize(
    "Q, q", [(Quiver.kronecker(), 2), (Quiver.cyclic(3), 2), (Quiver.a2(), 3)],
    ids=["kronecker-q2", "cyclic3-q2", "a2-q3"],
)
def test_tensor_product_matches_reference_quiver(Q, q):
    rng = random.Random(5)
    b = QuiverAtQ(Q, q)
    labels = [lab for t in range(3) for d in _dims_up_to(Q.n, t) if sum(d) == t
              for lab in b.classes_of_dim(d)]

    def scalar():
        return QrtScalar(q, Fraction(rng.choice((-3, -1, 1, 2)), q ** rng.randint(0, 1)),
                         rng.randint(-1, 1))

    def offsets():
        return tuple(rng.randint(-1, 1) for _ in range(Q.n))

    _check_product_against_ref(rng, b, labels, scalar, offsets, 8)


def test_quiver_backend_memo_survives_suites(monkeypatch):
    # one backend hands out its zero and one and keeps its label strings in
    # its memo; after the green, hopf-pairing and antipode suites have run
    # on it, the shared scalars are unchanged and every string parses back
    b = QuiverAtQ(Quiver.kronecker(), 2)
    monkeypatch.setattr(verify, "_make_backend", lambda *args: b)
    for suite in (verify.suite_green, verify.suite_hopf_pairing, verify.suite_antipode):
        checks = suite(backend="quiver", deg=4)
        assert checks and all(c["status"] == "pass" for c in checks)
    assert b.zero().is_zero() and b.zero() == QrtScalar(2, 0)
    assert b.one().is_one() and b.one() == QrtScalar(2, 1)
    assert b.pairing_zero() is b.zero() and b.one() is b.one()
    for d in _dims_up_to(2, 4):
        for lab in b.classes_of_dim(d):
            assert b.parse_label(b.label_string(lab)) == lab
    with pytest.raises(ValueError, match=r"^q must be prime, got 4$"):
        QuiverAtQ(Quiver.kronecker(), 4)


def test_label_string_roundtrip():
    b = QuiverAtQ(Quiver.a2(), 2)
    for d in ((0, 0), (1, 0), (1, 1), (2, 1)):
        for lab in b.classes_of_dim(d):
            assert b.parse_label(b.label_string(lab)) == lab
    bc = ClassicalGeneric()
    assert bc.parse_label(bc.label_string((2, 1))) == (2, 1)


def test_check_element_scalar_rejects_non_qpower_denominator():
    b = QuiverAtQ(Quiver.a2(), 3)
    b.check_element_scalar(QrtScalar(3, Fraction(2, 9), Fraction(-1, 3)))
    with pytest.raises(ConsistencyError):
        b.check_element_scalar(QrtScalar(3, Fraction(1, 2)))
    with pytest.raises(ConsistencyError):
        b.check_element_scalar(QrtScalar(3, 1, Fraction(1, 6)))


# ---------------------------------------------------------------------------
# Hopf axioms on random small k-free quiver elements at q=2; every
# coefficient goes through QrtScalar. derandomize makes every run draw the
# same examples, and no example database is kept.
# ---------------------------------------------------------------------------

_hopf_settings = settings(max_examples=40, derandomize=True, database=None, deadline=None)
_HOPF_BACKENDS = (QuiverAtQ(Quiver.cyclic(3), 2), QuiverAtQ(Quiver.kronecker(), 2))
_hopf_coeffs = st.builds(
    lambda a, c, e: QrtScalar(2, Fraction(a, 2**e), Fraction(c, 2**e)),
    st.integers(-3, 3), st.integers(-2, 2), st.integers(0, 1),
).filter(lambda c: not c.is_zero())


def _dims_up_to(n, total):
    if n == 0:
        return [()]
    return [(a,) + rest for a in range(total + 1) for rest in _dims_up_to(n - 1, total - a)]


@st.composite
def _quiver_elem(draw, b, dim):
    """k-free element with one to three classes of dimension vector dim."""
    labels = draw(st.lists(st.sampled_from(b.classes_of_dim(dim)), min_size=1, max_size=3,
                           unique=True))
    zero = (0,) * b.quiver.n
    return HallElement(b, {(lab, zero): draw(_hopf_coeffs) for lab in labels})


@st.composite
def _quiver_elem_pair(draw, b):
    """(x, y, dx + dy) with total dimension of dx + dy at most 3."""
    dx = draw(st.sampled_from(_dims_up_to(b.quiver.n, 3)))
    dy = draw(st.sampled_from(_dims_up_to(b.quiver.n, 3 - sum(dx))))
    x, y = draw(_quiver_elem(b, dx)), draw(_quiver_elem(b, dy))
    return x, y, tuple(u + v for u, v in zip(dx, dy))


@_hopf_settings
@given(st.data(), st.sampled_from(_HOPF_BACKENDS))
def test_antipode_convolution_on_random_quiver_elements(data, b):
    # m(S (x) 1)Delta(x) = m(1 (x) S)Delta(x) = eps(x) 1
    dim = data.draw(st.sampled_from(_dims_up_to(b.quiver.n, 3)))
    x = data.draw(_quiver_elem(b, dim))
    want = HallElement.one(b).scale(counit(b, x))
    assert _convolution(b, x, True) == want
    assert _convolution(b, x, False) == want


@_hopf_settings
@given(st.data(), st.sampled_from(_HOPF_BACKENDS))
def test_green_compat_on_random_quiver_elements(data, b):
    x, y, _ = data.draw(_quiver_elem_pair(b))
    assert green_compat_residual(b, x, y).is_zero()


@_hopf_settings
@given(st.data(), st.sampled_from(_HOPF_BACKENDS))
def test_hopf_pairing_on_random_quiver_elements(data, b):
    # (xy, z) = (x (x) y, Delta'(z))
    x, y, dz = data.draw(_quiver_elem_pair(b))
    z = data.draw(_quiver_elem(b, dz))
    xy = TensorElement(b, {(kx, ky): cx * cy for kx, cx in x.terms.items()
                           for ky, cy in y.terms.items()})
    assert pairing(b, multiply(b, x, y), z) == pairing_tensor(b, xy, comultiply(b, z))


# ---------------------------------------------------------------------------
# subtables: the engine's one source of Hall numbers
# ---------------------------------------------------------------------------

_A3 = Quiver(("1", "2", "3"), (("1", "2"), ("2", "3")))
_SUBTABLE_CASES = (
    (Quiver.a2(), 3, 3),
    (Quiver.kronecker(), 2, 3),
    (Quiver.cyclic(2), 2, 4),
    (_A3, 2, 4),
)


def _quiver_classes_up_to(b, total):
    return [R for t in range(total + 1) for d in _dims_up_to(b.quiver.n, t)
            if sum(d) == t for R in b.classes_of_dim(d)]


def _delta_by_splits(b, R, hall, euler):
    """Delta([R]) terms as {(M, N): coeff}, from every (M, N) pair of every
    dimension split of R, with Hall numbers from hall(R, M, N) and the
    Euler form from euler(dM, dN)."""
    dR = b.dim_of(R)
    out = {}
    for dM in _splits(dR):
        dN = tuple(r - m for r, m in zip(dR, dM))
        for M in b.classes_of_dim(dM):
            for N in b.classes_of_dim(dN):
                g = hall(R, M, N)
                if g.is_zero():
                    continue
                coeff = b.coeff_div(b.aut(M) * b.aut(N) * g, b.aut(R))
                e = euler(dM, dN)
                out[M, N] = coeff * b.nu_power(e) if e else coeff
    return out


@pytest.mark.parametrize("Q, q, total", _SUBTABLE_CASES, ids=["a2", "kronecker", "cyclic2", "a3"])
def test_quiver_subtable_matches_count_submodules(Q, q, total):
    # the subtable holds exactly the nonzero submodule counts, and the
    # coproduct read from it is the one a scan of every split gives
    b = QuiverAtQ(Q, q)

    def hall(R, M, N):
        return QrtScalar(q, quiverrep.count_submodules(b.rep(R), M, N))

    def euler(alpha, beta):
        return quiverrep.euler_form_add(Q, alpha, beta)

    for R in _quiver_classes_up_to(b, total):
        want = {}
        for dM in _splits(b.dim_of(R)):
            dN = tuple(r - m for r, m in zip(b.dim_of(R), dM))
            for M in b.classes_of_dim(dM):
                for N in b.classes_of_dim(dN):
                    g = hall(R, M, N)
                    if not g.is_zero():
                        want[M, N] = g
        assert b.subtable(R) == want, R
        got = engine._delta_basis(b, R)
        assert len(got) == len(want)
        assert {(M, N): c for M, N, c in got} == _delta_by_splits(b, R, hall, euler), R


def test_classical_subtable_matches_hall_poly():
    b = ClassicalGeneric()
    parts = [la for n in range(7) for la in all_partitions(n)]
    for R in parts:
        table = b.subtable(R)
        assert all(not g.is_zero() for g in table.values())
        for M in parts:
            for N in parts:
                assert table.get((M, N), LaurentPoly.zero()) == hall_poly(R, M, N), (R, M, N)
        got = engine._delta_basis(b, R)
        assert len(got) == len(table)
        assert {(M, N): c for M, N, c in got} == _delta_by_splits(
            b, R, hall_poly, lambda alpha, beta: 0
        ), R


def test_engine_reads_no_single_submodule_counts(monkeypatch):
    # products, coproducts and both antipodes take their Hall numbers from
    # whole subtables, never from count_submodules
    def refuse(*args, **kwargs):
        raise AssertionError("count_submodules called")

    monkeypatch.setattr(quiverrep, "count_submodules", refuse)
    b = QuiverAtQ(Quiver.cyclic(2), 2)
    for R in _quiver_classes_up_to(b, 3):
        x = HallElement.basis(b, R)
        assert antipode(b, x) == antipode_closed(b, x)
        multiply(b, x, x)
        comultiply(b, x)


# ---------------------------------------------------------------------------
# Hopf axioms on random sparse classical elements up to weight 5, with
# Laurent coefficients; the classical Hall algebra is commutative and
# cocommutative.
# ---------------------------------------------------------------------------

_CLASSICAL = ClassicalGeneric()
_classical_settings = settings(max_examples=50, derandomize=True, database=None, deadline=None)
_laurent_coeffs = st.dictionaries(
    st.integers(-2, 2), st.integers(-3, 3).filter(bool), min_size=1, max_size=2
).map(LaurentPoly)


@st.composite
def _classical_elem(draw, max_weight):
    """One to three partitions of weight at most max_weight, not
    necessarily of one weight, with nonzero Laurent coefficients."""
    labels = draw(st.lists(
        st.sampled_from([la for n in range(max_weight + 1) for la in all_partitions(n)]),
        min_size=1, max_size=3, unique=True,
    ))
    return HallElement(_CLASSICAL, {(la, ()): draw(_laurent_coeffs) for la in labels})


@st.composite
def _classical_pair(draw):
    """(x, y) with their weights summing to at most 5."""
    wx = draw(st.integers(0, 5))
    return draw(_classical_elem(wx)), draw(_classical_elem(5 - wx))


@_classical_settings
@given(_classical_elem(5))
def test_antipode_axioms_on_random_classical_elements(x):
    b = _CLASSICAL
    want = HallElement.one(b).scale(counit(b, x))
    assert _convolution(b, x, True) == want
    assert _convolution(b, x, False) == want
    assert antipode_inv(b, antipode(b, x)) == x


@_classical_settings
@given(_classical_pair(), st.data())
def test_pairing_adjoint_on_random_classical_elements(pair, data):
    # (xy, z) = (x (x) y, Delta(z)) for z supported on the weights of xy
    b = _CLASSICAL
    x, y = pair
    xy = multiply(b, x, y)
    weights = sorted({sum(la) for la, _ in xy.terms} or {0})
    z = data.draw(_classical_elem(data.draw(st.sampled_from(weights))))
    xy_t = TensorElement(b, {(kx, ky): cx * cy for kx, cx in x.terms.items()
                             for ky, cy in y.terms.items()})
    assert pairing(b, xy, z) == pairing_tensor(b, xy_t, comultiply(b, z))


@_classical_settings
@given(_classical_pair())
def test_classical_commutative_and_cocommutative(pair):
    b = _CLASSICAL
    x, y = pair
    assert multiply(b, x, y) == multiply(b, y, x)
    t = comultiply(b, x + y)
    assert TensorElement(b, {(r, l): c for (l, r), c in t.terms.items()}) == t
