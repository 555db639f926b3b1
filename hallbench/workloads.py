"""The calls one session of each in-process workload makes, and their oracles.

Every measured call goes through ``s.call`` and names hallalg functions
through their module (``engine.multiply``, not a local alias), so the tracer
sees them. Oracles run after the call they check and are not timed.
Deterministic calls are compared with goldens; seeded calls are checked by
identities that hold for any seed.
"""

import hashlib
import json
from fractions import Fraction

from hallalg import classical, engine, exactnum, quiverrep, verify
from hallalg.partitions import all_partitions, aut_poly
from hallalg.quiverrep import Quiver

BUDGET = 3 ** 16
LAURENT_REPLAY_PAIRS = 4000
QRT_REPLAY_TRIPLES = 4000
# Timed large-q automorphism scans: rank-1 A2 reps at q=127, where the int16
# scan is exact for every map (each entry of digits @ basis stays <= 29232).
LARGE_Q = 127
LARGE_Q_SCANS = 2
# The known-defect probe (probe_aut_int16) runs at q=181, outside the
# timed sessions.
DEFECT_Q = 181
DEFECT_PROBE_SCANS = 2


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def run_suite(s, name, label, **kwargs):
    """One timed verify suite; the report must pass and match its golden."""
    op = f"verify.{name}[{label}]"
    report = s.call(f"verify.{name}.suite", verify.run_suite, name, **kwargs)
    s.check(op + ":pass", lambda: verify.all_passed(report))
    s.golden(op, lambda: [len(report["checks"]), digest(json.dumps(report, sort_keys=True))])
    s.add_count("verify.checks", len(report["checks"]) if report else 0)
    return report


def _laurent_value(p, t: int) -> Fraction:
    return sum((Fraction(t) ** e * c for e, c in p.items()), Fraction(0))


def _swap(tensor):
    return {(r, l): c for (l, r), c in tensor.terms.items()}


def _tensor_of(b, x, y):
    """The tensor x (x) y of two elements."""
    terms = {}
    for kx, cx in x.terms.items():
        for ky, cy in y.terms.items():
            terms[(kx, ky)] = cx * cy
    return engine.TensorElement(b, terms)


def _antipode_axiom(b, z, coprod, anti_of):
    """m (S (x) id) Delta(z) == counit(z) 1, with S given by anti_of."""
    total = engine.HallElement.zero(b)
    for (lk, rk), c in coprod.terms.items():
        left = anti_of(engine.HallElement(b, {lk: b.one()}))
        total = total + engine.multiply(b, left, engine.HallElement(b, {rk: b.one()})).scale(c)
    return total == engine.HallElement.one(b).scale(engine.counit(b, z))


def _engine_ops(s, rng, b, kind, pairs, zs, partner_of):
    """Seeded elements through multiply, comultiply, antipode, antipode_inv
    and pairing, checked by the Hopf identities."""
    prods = s.call(f"engine.{kind}.multiply", lambda: [engine.multiply(b, x, y) for x, y in pairs])
    coprods = s.call(f"engine.{kind}.comultiply", lambda: [engine.comultiply(b, z) for z in zs])
    antis = s.call(f"engine.{kind}.antipode", lambda: [engine.antipode(b, z) for z in zs])
    backs = s.call(
        f"engine.{kind}.antipode_inv", lambda: [engine.antipode_inv(b, a) for a in antis]
    )
    partners = [partner_of(rng, x, y) for x, y in pairs]
    pvals = s.call(
        f"engine.{kind}.pairing",
        lambda: [engine.pairing(b, p, w) for p, w in zip(prods, partners)],
    )
    for i, (x, y) in enumerate(pairs):
        if kind == "classical":
            s.check(f"engine.{kind}.multiply[{i}]:commutative",
                    lambda: engine.multiply(b, y, x) == prods[i])
        else:
            s.check(f"engine.{kind}.multiply[{i}]:green",
                    lambda: engine.green_compat_residual(b, x, y).is_zero())
        s.check(
            f"engine.{kind}.pairing[{i}]:adjoint",
            lambda: pvals[i] == engine.pairing_tensor(
                b, _tensor_of(b, x, y), engine.comultiply_plain(b, partners[i])
            ),
        )
    for i, z in enumerate(zs):
        if kind == "classical":
            s.check(f"engine.{kind}.comultiply[{i}]:cocommutative",
                    lambda: _swap(coprods[i]) == coprods[i].terms)
        else:
            s.check(f"engine.{kind}.comultiply[{i}]:counit",
                    lambda: _counit_left(b, coprods[i]) == z)
        s.check(f"engine.{kind}.antipode[{i}]:convolution",
                lambda: _antipode_axiom(b, z, coprods[i], lambda e: engine.antipode(b, e)))
        s.check(f"engine.{kind}.antipode_inv[{i}]:inverse", lambda: backs[i] == z)


def _counit_left(b, coprod):
    """(counit (x) id) Delta(z); equals z for the extended coproduct."""
    out = engine.HallElement.zero(b)
    zero = b.zero_label()
    for ((ml, _), rk), c in coprod.terms.items():
        if ml == zero:
            out = out + engine.HallElement(b, {rk: c})
    return out


# ---------------------------------------------------------------------------
# classical
# ---------------------------------------------------------------------------


def _hall_triples(n: int):
    return [
        (nu, mu, la)
        for nu in all_partitions(n)
        for k in range(n + 1)
        for mu in all_partitions(n - k)
        for la in all_partitions(k)
    ]


def _rand_laurent(rng):
    return exactnum.LaurentPoly(
        {rng.randrange(3): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 2))}
    )


def _rand_classical(rng, b, deg: int, terms: int = 2):
    """Sparse homogeneous element of the given degree."""
    labels = rng.sample(all_partitions(deg), min(terms, len(all_partitions(deg))))
    return engine.HallElement(b, {(la, ()): _rand_laurent(rng) for la in labels})


def run_classical(s, rng):
    triples = _hall_triples(8)
    table = s.call("classical.hall_table", lambda: [classical.hall_poly(*t) for t in triples])
    s.add_count("classical.hall_polys", len(triples))
    s.add_count("classical.hall_nonzero", sum(1 for p in table or () if not p.is_zero()))
    s.golden("classical.hall_table[8]", lambda: digest("\n".join(p.render() for p in table)))

    b = engine.ClassicalGeneric()
    degs = [(1, 3), (2, 2), (3, 3), (2, 3)]
    pairs = [(_rand_classical(rng, b, i), _rand_classical(rng, b, j)) for i, j in degs]
    zs = [_rand_classical(rng, b, d, 3) for d in (4, 5, 6, 6)]
    _engine_ops(
        s, rng, b, "classical", pairs, zs,
        lambda r, x, y: _rand_classical(r, b, _degree(x) + _degree(y), 4),
    )

    for name, deg in (("green", 5), ("hopf-pairing", 5), ("steinitz", 7)):
        run_suite(s, name, f"classical,deg={deg}", deg=deg)

    nonzero = [p for p in table or () if not p.is_zero()] or [exactnum.LaurentPoly.one()]
    picks = [(rng.choice(nonzero), rng.choice(nonzero)) for _ in range(LAURENT_REPLAY_PAIRS)]

    def replay():
        acc = exactnum.LaurentPoly.zero()
        prods = []
        for a, c in picks:
            p = a * c
            acc = acc + p
            prods.append(p)
        return prods, acc

    out = s.call("exactnum.laurent_replay", replay)
    for t in (2, 3):
        s.check(
            f"exactnum.laurent_replay[t={t}]",
            lambda: all(
                _laurent_value(p, t) == _laurent_value(a, t) * _laurent_value(c, t)
                for p, (a, c) in zip(out[0], picks)
            )
            and _laurent_value(out[1], t) == sum((_laurent_value(p, t) for p in out[0]), Fraction(0)),
        )


def _degree(x):
    label, _ = next(iter(x.terms))
    return sum(label)


# ---------------------------------------------------------------------------
# quiver-scan
# ---------------------------------------------------------------------------


def _rep_space_dim(Q, d):
    return sum(d[Q.vertex_index(s)] * d[Q.vertex_index(t)] for s, t in Q.arrows) + (
        d[0] * d[0] if Q.jordan else 0
    )


def _subspace_tuples(R):
    total = 1
    for d in R.dims:
        total *= sum(quiverrep.subspace_count(d, k, R.q) for k in range(d + 1))
    return total


def _rand_a2_map(rng, q):
    a, c = 0, 0
    while (a, c) == (0, 0):
        a, c = rng.randrange(q), rng.randrange(q)
    return a, c


def _a2_rank1(a, c, q):
    """The rank-1 representation F_q -> F_q^2 of A2 with map (a, c)."""
    return quiverrep.QuiverRep(Quiver.a2(), q, (1, 2), (((a,), (c,)),))


def probe_aut_int16(rng):
    """The known int16 overflow of the automorphism scan (ROADMAP, confirmed
    defect): aut_count on rank-1 A2 representations at q=181, where sums of
    two products (q-1)^2 exceed 32767. Probes the map (90,178), which is
    wrong today, and DEFECT_PROBE_SCANS seeded maps. Untimed and kept apart
    from the timed sessions; returns one record per map."""
    q = DEFECT_Q
    maps = [(90, 178)] + [_rand_a2_map(rng, q) for _ in range(DEFECT_PROBE_SCANS)]
    out = []
    for a, c in maps:
        got = quiverrep.aut_count(_a2_rank1(a, c, q), budget=BUDGET)
        want = (q - 1) ** 2 * q
        out.append({"map": [a, c], "q": q, "got": got, "want": want, "wrong": got != want})
    return out


def _classes_text(classes):
    return "\n".join(f"{lab!r}|{size}" for lab, _, size in classes)


def _table_text(tables):
    return "\n".join(repr(sorted(t.items(), key=repr)) for t in tables)


def run_quiver_scan(s, rng):
    K, J, C3 = Quiver.kronecker(), Quiver.jordan_quiver(), Quiver.cyclic(3)

    points = classes_found = 0
    enumerated = {}
    for name, Q, d, kw in (
        ("kronecker(2,3)", K, (2, 3), {}),
        ("loop(4)", J, (4,), {"force_generic": True}),
    ):
        classes = s.call("quiverrep.enumerate", quiverrep.enumerate_iso_classes,
                         Q, 2, d, budget=BUDGET, **kw)
        enumerated[name] = classes
        points += 2 ** _rep_space_dim(Q, d)
        classes_found += len(classes or ())
        s.golden(f"quiverrep.enumerate[{name},q=2]", lambda: digest(_classes_text(classes)))
    s.add_count("quiverrep.enumerate_points", points)
    s.add_count("quiverrep.classes_found", classes_found)
    s.check("quiverrep.enumerate[kronecker(2,3)]:orbit-sum",
            lambda: sum(c[2] for c in enumerated["kronecker(2,3)"]) == 2 ** 12)
    # nilpotent 4x4 matrices over F_2 number 2^(16-4); their orbits are the
    # Jordan types, with sizes |GL_4| / a_la(2)
    s.check(
        "quiverrep.enumerate[loop(4)]:jordan-orbits",
        lambda: sorted(c[2] for c in enumerated["loop(4)"])
        == sorted(quiverrep.gl_order(4, 2) // int(aut_poly(la).evaluate(2)) for la in all_partitions(4))
        and sum(c[2] for c in enumerated["loop(4)"]) == 2 ** 12,
    )

    aut_points = 0
    jordan = quiverrep.jordan_rep((1, 1, 1), 5)
    n_aut = s.call("quiverrep.aut_scan", quiverrep.aut_count, jordan, budget=BUDGET)
    aut_points += 5 ** len(quiverrep.hom_basis(jordan, jordan))
    s.check("quiverrep.aut_count[jordan(1,1,1),q=5]", lambda: n_aut == quiverrep.gl_order(3, 5))
    q = LARGE_Q
    for i in range(LARGE_Q_SCANS):
        a, c = _rand_a2_map(rng, q)
        rep = _a2_rank1(a, c, q)
        n_aut = s.call("quiverrep.aut_scan_large_q", quiverrep.aut_count, rep, budget=BUDGET)
        aut_points += q ** len(quiverrep.hom_basis(rep, rep))
        s.check(
            f"quiverrep.aut_count[a2(1,2),q={q},#{i}]",
            lambda: n_aut == (q - 1) ** 2 * q,
            f"map ({a},{c}): got {n_aut}, want {(q - 1) ** 2 * q}",
        )
    s.add_count("quiverrep.aut_points", aut_points)

    kron_reps = [rep for _, rep, _ in enumerated["kronecker(2,3)"] or ()]
    jordan_parts = all_partitions(6)
    jordan_reps = [quiverrep.jordan_rep(la, 2) for la in jordan_parts]
    kron_tables = s.call("quiverrep.submodule_table",
                         lambda: [quiverrep.submodule_type_table(R, budget=BUDGET) for R in kron_reps])
    jordan_tables = s.call("quiverrep.submodule_table",
                           lambda: [quiverrep.submodule_type_table(R, budget=BUDGET) for R in jordan_reps])
    s.add_count("quiverrep.subspace_tuples", sum(_subspace_tuples(R) for R in kron_reps + jordan_reps))
    s.golden("quiverrep.submodule_table[kronecker(2,3),q=2]",
             lambda: [len(kron_tables), digest(_table_text(kron_tables))])
    # a Jordan submodule table at q=2 is the classical Hall polynomial at t=2
    for la, table in zip(jordan_parts, jordan_tables or [None] * len(jordan_parts)):
        s.check(
            f"quiverrep.submodule_table[jordan{la},q=2]:hall-poly",
            lambda: all(
                table.get((mu, nu), 0) == classical.hall_poly(la, mu, nu).evaluate(2)
                for k in range(7)
                for mu in all_partitions(6 - k)
                for nu in all_partitions(k)
            ),
        )

    run_suite(s, "orbit-stabilizer", "cyclic3,q=2,deg=4", quiver=C3, q=2, deg=4, budget=BUDGET)


# ---------------------------------------------------------------------------
# quiver-hopf
# ---------------------------------------------------------------------------


def _dims_of_total(n, total):
    if n == 1:
        return [(total,)]
    return [(a,) + rest for a in range(total + 1) for rest in _dims_of_total(n - 1, total - a)]


def _rand_scalar(rng, q):
    return exactnum.QrtScalar(q, rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-1, 1))


def _rand_quiver_elem(rng, b, total, terms=2):
    """Sparse k-free element supported on one random dimension vector."""
    d = rng.choice(_dims_of_total(b.quiver.n, total))
    classes = b.classes_of_dim(d)
    labels = rng.sample(classes, min(terms, len(classes)))
    return engine.HallElement(b, {(lab, (0,) * b.quiver.n): _rand_scalar(rng, b.q) for lab in labels})


def _rand_fraction(rng):
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


def run_quiver_hopf(s, rng):
    K, A2, C3 = Quiver.kronecker(), Quiver.a2(), Quiver.cyclic(3)
    run_suite(s, "hopf-pairing", "cyclic3,q=2,deg=4", backend="quiver", quiver=C3, q=2, deg=4)
    run_suite(s, "green", "kronecker,q=2,deg=4", backend="quiver", quiver=K, q=2, deg=4)
    run_suite(s, "antipode", "a2,q=2,deg=4", backend="quiver", quiver=A2, q=2, deg=4)
    run_suite(s, "serre", "kronecker,q=2", quiver=K, q=2)
    for q in (2, 3, 5, 7):
        run_suite(s, "double-a1", f"q={q}", q=q)

    b = engine.QuiverAtQ(C3, 2, budget=BUDGET)
    pairs = [
        (_rand_quiver_elem(rng, b, i), _rand_quiver_elem(rng, b, j))
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2))
    ]
    zs = [_rand_quiver_elem(rng, b, t, 3) for t in (2, 3, 3, 3)]

    def partner_of(r, x, y):
        d = tuple(u + v for u, v in zip(b.dim_of(next(iter(x.terms))[0]), b.dim_of(next(iter(y.terms))[0])))
        classes = b.classes_of_dim(d)
        labels = r.sample(classes, min(4, len(classes)))
        return engine.HallElement(b, {(lab, (0,) * C3.n): _rand_scalar(r, b.q) for lab in labels})

    _engine_ops(s, rng, b, "quiver", pairs, zs, partner_of)

    triples = []
    for _ in range(QRT_REPLAY_TRIPLES):
        q = rng.choice((2, 3, 5, 7))
        x, y, z = ((_rand_fraction(rng), _rand_fraction(rng)) for _ in range(3))
        if y == (0, 0):
            y = (Fraction(1), Fraction(0))
        triples.append((q, x, y, z))

    def replay():
        out = []
        for q, x, y, z in triples:
            X, Y, Z = (exactnum.QrtScalar(q, *v) for v in (x, y, z))
            out.append((X * Y + Z, X / Y))
        return out

    got = s.call("exactnum.qrt_replay", replay)

    def qrt_ok():
        for (q, (a1, b1), (a2, b2), (a3, b3)), (s1, s2) in zip(triples, got):
            if (s1.a, s1.b) != (a1 * a2 + q * b1 * b2 + a3, a1 * b2 + a2 * b1 + b3):
                return False
            n = a2 * a2 - q * b2 * b2
            if (s2.a, s2.b) != ((a1 * a2 - q * b1 * b2) / n, (b1 * a2 - a1 * b2) / n):
                return False
        return len(got) == len(triples)

    s.check("exactnum.qrt_replay", qrt_ok)


WORKLOADS = {
    "classical": run_classical,
    "quiver-scan": run_quiver_scan,
    "quiver-hopf": run_quiver_hopf,
}
