"""Verification suites: each runs a battery of exact identity checks and
reports every instance as {"id", "status", "lhs", "rhs"}.

Suites: green, serre, hopf-pairing, antipode, steinitz, hl-norms,
double-a1, orbit-stabilizer. A suite never stops at the first failure;
the report lists every instance it checked.
"""

import functools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import quiverrep
from .classical import (
    elementary_expansion,
    hl_pairing,
    newton_p_in_e,
)
from .engine import (
    antipode,
    antipode_closed,
    antipode_inv,
    ClassicalGeneric,
    comultiply,
    comultiply_plain,
    drinfeld_cross,
    green_compat_residual,
    HallElement,
    multiply,
    pairing,
    pairing_tensor,
    QuiverAtQ,
    serre_residual,
    TensorElement,
)
from .exactnum import LaurentPoly, QrtScalar
from .partitions import all_partitions, transpose_dominance_leq
from .quiverrep import Quiver
from .serialize import (
    render_double,
    render_element,
    render_scalar,
    render_tensor,
)

SUITE_NAMES = (
    "green",
    "serre",
    "hopf-pairing",
    "antipode",
    "steinitz",
    "hl-norms",
    "double-a1",
    "orbit-stabilizer",
)


def _check(cid: str, ok: bool, lhs: str, rhs: str) -> Dict[str, str]:
    return {"id": cid, "status": "pass" if ok else "fail", "lhs": lhs, "rhs": rhs}


def _compare(cid: str, lhs, rhs, render) -> Dict[str, str]:
    """The check lhs == rhs, each side shown by render. Equal values of one
    type render alike, so rhs is rendered only when the check fails or the
    two sides differ in type."""
    ok = lhs == rhs
    text = render(lhs)
    same = ok and type(lhs) is type(rhs)
    return _check(cid, ok, text, text if same else render(rhs))


def _make_backend(backend: str, quiver: Optional[Quiver], q: int, budget):
    if backend == "classical":
        return ClassicalGeneric()
    if backend == "quiver":
        return QuiverAtQ(quiver if quiver is not None else Quiver.a2(), q, budget=budget)
    raise ValueError(f"unknown backend {backend!r}")


def _dim_vectors(n: int, total: int) -> List[Tuple[int, ...]]:
    if n == 1:
        return [(d,) for d in range(total + 1)]
    out = []
    for first in range(total + 1):
        for rest in _dim_vectors(n - 1, total - first):
            out.append((first,) + rest)
    return out


def _labels_by_total(b, max_total: int, min_total: int = 0):
    """All (total, label) with min_total <= |dim| <= max_total, deterministic."""
    out = []
    for total in range(min_total, max_total + 1):
        if b.offset_len == 0:
            dims: Sequence = [(total,)]
        else:
            dims = [d for d in _dim_vectors(b.offset_len, total) if sum(d) == total]
        for d in dims:
            for lab in b.classes_of_dim(d):
                out.append((total, lab))
    return out


def _basis_coproducts(b):
    """label -> Delta'([label]), each computed once for the suite's run."""
    return functools.cache(lambda label: comultiply_plain(b, HallElement.basis(b, label)))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_green(backend="classical", quiver=None, q=2, deg=None, budget=None) -> List[Dict]:
    b = _make_backend(backend, quiver, q, budget)
    bound = deg if deg is not None else (5 if backend == "classical" else 4)
    checks = []
    labels = _labels_by_total(b, bound - 1, min_total=1)
    delta = _basis_coproducts(b)
    for t1, l1 in labels:
        for t2, l2 in labels:
            if t1 + t2 > bound:
                continue
            x = HallElement.basis(b, l1)
            y = HallElement.basis(b, l2)
            xy = multiply(b, x, y)
            lhs = comultiply_plain(b, xy)
            rhs = delta(l1).product(delta(l2), twisted=True)
            cid = f"green[{b.label_string(l1)}|{b.label_string(l2)}]"
            checks.append(_compare(cid, lhs, rhs, render_tensor))
    return checks


def suite_serre(quiver=None, q=2, budget=None) -> List[Dict]:
    Q = quiver if quiver is not None else Quiver.a2()
    if Q.n < 2:
        raise ValueError("serre suite needs a quiver with at least two vertices")
    checks = []
    for i in Q.vertices:
        for j in Q.vertices:
            if i == j:
                continue
            res = serre_residual(Q, q, i, j, budget=budget)
            cid = f"serre[{i}->{j}|q={q}]"
            checks.append(_check(cid, res.is_zero(), render_element(res), "0"))
    return checks


def suite_hopf_pairing(backend="classical", quiver=None, q=2, deg=None, budget=None) -> List[Dict]:
    b = _make_backend(backend, quiver, q, budget)
    bound = deg if deg is not None else (5 if backend == "classical" else 4)
    checks = []
    labels = _labels_by_total(b, bound - 1, min_total=1)
    delta = _basis_coproducts(b)
    for t1, lx in labels:
        for t2, ly in labels:
            if t1 + t2 > bound:
                continue
            x = HallElement.basis(b, lx)
            y = HallElement.basis(b, ly)
            dz = tuple(a + c for a, c in zip(b.dim_of(lx), b.dim_of(ly)))
            xy_tensor = TensorElement(
                b,
                {
                    (
                        (lx, (0,) * b.offset_len),
                        (ly, (0,) * b.offset_len),
                    ): b.one()
                },
            )
            prod = multiply(b, x, y)
            for lz in b.classes_of_dim(dz):
                z = HallElement.basis(b, lz)
                lhs = pairing(b, prod, z)
                rhs = pairing_tensor(b, xy_tensor, delta(lz))
                cid = (
                    f"hopf-pairing[{b.label_string(lx)}|{b.label_string(ly)}"
                    f"|{b.label_string(lz)}]"
                )
                checks.append(_compare(cid, lhs, rhs, render_scalar))
    return checks


def suite_antipode(backend="classical", quiver=None, q=2, deg=None, budget=None) -> List[Dict]:
    b = _make_backend(backend, quiver, q, budget)
    bound = deg if deg is not None else (5 if backend == "classical" else 4)
    checks = []
    unit = HallElement.one(b)
    zero = HallElement.zero(b)
    for total, lab in _labels_by_total(b, bound):
        x = HallElement.basis(b, lab)
        name = b.label_string(lab)
        want = unit if lab == b.zero_label() else zero
        t = comultiply(b, x)
        left = HallElement.zero(b)
        right = HallElement.zero(b)
        for (lk, rk), c in t.terms.items():
            le = HallElement(b, {lk: b.one()})
            re = HallElement(b, {rk: b.one()})
            left = left + multiply(b, antipode(b, le), re).scale(c)
            right = right + multiply(b, le, antipode(b, re)).scale(c)
        checks.append(_compare(f"antipode-left[{name}]", left, want, render_element))
        checks.append(_compare(f"antipode-right[{name}]", right, want, render_element))
        s_rec = antipode(b, x)
        s_closed = antipode_closed(b, x)
        checks.append(
            _compare(f"antipode-closed[{name}]", s_rec, s_closed, render_element)
        )
        back = antipode_inv(b, s_rec)
        checks.append(_compare(f"antipode-inv[{name}]", back, x, render_element))
    return checks


def suite_steinitz(deg=None, budget=None) -> List[Dict]:
    """Commutativity, cocommutativity, the column coproduct and the
    triangularity of the elementary products, on the classical backend.

    The first two cannot see a wrong Hall polynomial P^nu_{mu,la} with
    |mu| != |la|: the backend's row(mu, la) is classical._product_row with
    the lighter factor on the right, so multiply(x, y) and multiply(y, x)
    read one row, and the cocommutativity check reads that same row through
    both subtables, which are the product rows transposed. The independent
    oracle for those entries is _hall_poly_ref in tests/test_classical.py,
    which expands the right factor whatever its weight; the same file
    checks every row and subtable up to weight 6 against it.
    """
    bound = deg if deg is not None else 6
    checks = []
    b = ClassicalGeneric()
    # commutativity of the generic product
    pairs = []
    for n1 in range(1, bound):
        for n2 in range(n1, bound - n1 + 1):
            for mu in all_partitions(n1):
                for la in all_partitions(n2):
                    pairs.append((mu, la))
    for mu, la in pairs:
        x = HallElement.basis(b, mu)
        y = HallElement.basis(b, la)
        lhs = multiply(b, x, y)
        rhs = multiply(b, y, x)
        cid = f"steinitz-comm[{b.label_string(mu)}|{b.label_string(la)}]"
        checks.append(_compare(cid, lhs, rhs, render_element))
    # cocommutativity: coproduct symmetric under factor swap
    for n in range(1, bound + 1):
        for la in all_partitions(n):
            got_t = comultiply(b, HallElement.basis(b, la))
            flip_t = TensorElement(b, {(r, l): c for (l, r), c in got_t.terms.items()})
            cid = f"steinitz-cocomm[{b.label_string(la)}]"
            checks.append(_compare(cid, got_t, flip_t, render_tensor))
    # column coproduct formula: Delta([1^n]) = sum t^{-r(n-r)} [1^r] (x) [1^(n-r)]
    for n in range(1, bound + 1):
        col = (1,) * n
        got_t = comultiply(b, HallElement.basis(b, col))
        want_t = TensorElement(
            b,
            {
                (((1,) * r, ()), ((1,) * (n - r), ())): LaurentPoly.monomial(-r * (n - r))
                for r in range(n + 1)
            },
        )
        cid = f"steinitz-coprod[n={n}]"
        checks.append(_compare(cid, got_t, want_t, render_tensor))
    # triangularity of elementary products with unit diagonal
    for n in range(1, bound + 1):
        table = elementary_expansion(n)
        for kappa in sorted(all_partitions(n)):
            elem = table[kappa]
            diag_ok = elem.get(kappa, LaurentPoly.zero()).is_one()
            tri_ok = all(
                tau == kappa or transpose_dominance_leq(tau, kappa) for tau in elem
            )
            cid = f"steinitz-triangular[{b.label_string(kappa)}]"
            checks.append(
                _check(
                    cid,
                    diag_ok and tri_ok,
                    "unit diagonal, dominated support" if diag_ok and tri_ok else "violated",
                    "unit diagonal, dominated support",
                )
            )
    return checks


def suite_hl_norms(deg=None, check_q=None) -> List[Dict]:
    bound = deg if deg is not None else 4
    qs = tuple(check_q) if check_q else (2, 3)
    checks = []
    for q in qs:
        for r in range(1, bound + 1):
            pr = newton_p_in_e(r)
            for s in range(1, bound + 1):
                ps = newton_p_in_e(s)
                got = hl_pairing(pr, ps, q)
                want = Fraction(r, q**r - 1) if r == s else Fraction(0)
                cid = f"hl-norm[p{r}|p{s}|q={q}]"
                checks.append(
                    _check(cid, got == want, render_scalar(got), render_scalar(want))
                )
    return checks


def suite_double_a1(q=2, budget=None) -> List[Dict]:
    b = QuiverAtQ(Quiver(("1",)), q, budget=budget)
    s = b.classes_of_dim((1,))[0]
    zl = b.zero_label()
    e = HallElement.basis(b, s)
    checks = []
    # x^- = 1 leaves y^+ untouched
    got_id = drinfeld_cross(b, HallElement.one(b), e)
    want_id = {(s, (0,), zl): b.one()}
    checks.append(
        _check(
            f"double-a1-identity[q={q}]",
            got_id == want_id,
            render_double(b, got_id),
            render_double(b, want_id),
        )
    )
    # k^- commutes across with the symmetrized-form power
    got_k = drinfeld_cross(b, HallElement.k(b, (1,)), e)
    want_k = {(s, (-1,), zl): QrtScalar.nu(q, -2)}
    checks.append(
        _check(
            f"double-a1-k[q={q}]",
            got_k == want_k,
            render_double(b, got_k),
            render_double(b, want_k),
        )
    )
    # the full cross-relation oracle
    got = drinfeld_cross(b, e, e)
    a_s = QrtScalar(q, q - 1)
    inv = b.one() / a_s
    want = {
        (s, (0,), s): b.one(),
        (zl, (1,), zl): inv,
        (zl, (-1,), zl): -inv,
    }
    checks.append(
        _check(
            f"double-a1-cross[q={q}]",
            got == want,
            render_double(b, got),
            render_double(b, want),
        )
    )
    # recovered commutator coefficient: [E,F] = u (k - k^{-1})/(v - v^{-1})
    cplus = got.get((zl, (1,), zl), b.zero())
    cminus = got.get((zl, (-1,), zl), b.zero())
    vdiff = QrtScalar.nu(q, 1) - QrtScalar.nu(q, -1)
    u = -cplus * vdiff
    shape_ok = (
        cminus == -cplus
        and u.as_signed_nu_power() is not None
        and u == -QrtScalar.nu(q, -1)
    )
    checks.append(
        _check(
            f"double-a1-coeff[q={q}]",
            shape_ok,
            render_scalar(u),
            render_scalar(-QrtScalar.nu(q, -1)),
        )
    )
    # the opposite Sweedler reading must NOT reproduce the oracle
    got_rev = drinfeld_cross(b, e, e, sweedler_reversed=True)
    checks.append(
        _check(
            f"double-a1-reversed-differs[q={q}]",
            got_rev != want,
            render_double(b, got_rev),
            "anything but the oracle",
        )
    )
    return checks


def _point_total(Q: Quiver, q: int, d: Tuple[int, ...], budget) -> int:
    """The count of matrix tuples the enumeration classifies at dimension
    d, independent of the orbit sizes: q^(n^2 - n) on the Jordan quiver,
    else the codes a nilpotency filter keeps, or the whole space."""
    if Q.jordan:
        n = d[0]
        return q ** (n * n - n) if n else 1
    b = budget if budget is not None else quiverrep.DEFAULT_BUDGET
    codes = quiverrep._enumerate_points(Q, q, d, b)
    return quiverrep._space_size(Q, q, d) if codes is None else len(codes)


def suite_orbit_stabilizer(quiver=None, q=2, deg=None, budget=None) -> List[Dict]:
    bound = deg if deg is not None else 3
    if quiver is not None:
        configs = [(quiver, q)]
    else:
        configs = [
            (Quiver.a2(), 2),
            (Quiver.kronecker(), 2),
            (Quiver.cyclic(3), 2),
            (Quiver.jordan_quiver(), 2),
            (Quiver.jordan_quiver(), 3),
        ]
    checks = []
    for Q, qq in configs:
        qname = "+".join(Q.vertices) + ("~nil" if Q.nilpotent else "")
        if Q.jordan:
            qname = "jordan"
        for d in _dim_vectors(Q.n, bound):
            classes = quiverrep.enumerate_iso_classes(Q, qq, d, budget=budget)
            gl = quiverrep.gl_order_vec(d, qq)
            total = 0
            for lab, rep, orbit in classes:
                total += orbit
                autc = quiverrep.aut_count(rep, budget=budget)
                cid = f"orbit-stab[{qname}|q={qq}|d={d}|{lab}]"
                checks.append(
                    _check(
                        cid,
                        orbit * autc == gl,
                        f"{orbit}*{autc}",
                        str(gl),
                    )
                )
            want_total = _point_total(Q, qq, d, budget)
            cid = f"burnside[{qname}|q={qq}|d={d}]"
            checks.append(_check(cid, total == want_total, str(total), str(want_total)))
    return checks


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def run_suite(
    name: str,
    backend: str = "classical",
    quiver: Optional[Quiver] = None,
    q: int = 2,
    deg: Optional[int] = None,
    budget: Optional[int] = None,
    check_q: Optional[Sequence[int]] = None,
) -> Dict:
    """Run one named suite; returns {"suite": name, "checks": [...]}."""
    if name == "green":
        checks = suite_green(backend=backend, quiver=quiver, q=q, deg=deg, budget=budget)
    elif name == "serre":
        checks = suite_serre(quiver=quiver, q=q, budget=budget)
    elif name == "hopf-pairing":
        checks = suite_hopf_pairing(
            backend=backend, quiver=quiver, q=q, deg=deg, budget=budget
        )
    elif name == "antipode":
        checks = suite_antipode(backend=backend, quiver=quiver, q=q, deg=deg, budget=budget)
    elif name == "steinitz":
        checks = suite_steinitz(deg=deg, budget=budget)
    elif name == "hl-norms":
        checks = suite_hl_norms(deg=deg, check_q=check_q)
    elif name == "double-a1":
        checks = suite_double_a1(q=q, budget=budget)
    elif name == "orbit-stabilizer":
        checks = suite_orbit_stabilizer(quiver=quiver, q=q, deg=deg, budget=budget)
    else:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    return {"suite": name, "checks": checks}


def all_passed(report: Dict) -> bool:
    return all(c["status"] == "pass" for c in report["checks"])
