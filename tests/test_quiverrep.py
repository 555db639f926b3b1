"""Finite-field quiver representation kernel: enumeration, classification,
Hom/Aut counting, submodule tables."""

import copy
import functools
import itertools
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hallalg.classical import hall_poly
from hallalg.exactnum import BudgetError, ConsistencyError, gauss_binomial
from hallalg import quiverrep
from hallalg.partitions import all_partitions, aut_poly, dominance_key
from hallalg.quiverrep import (
    Quiver,
    QuiverRep,
    _batch_dets_mod,
    _det_worst,
    _enumerate_points,
    _gl_generators,
    _mat_vec,
    _rref,
    _space_size,
    _submodule_dtype,
    _unvalidated_rep,
    aut_count,
    classify_rep,
    count_submodules,
    cyclic_labels_for_dim,
    cyclic_type,
    direct_sum,
    enumerate_iso_classes,
    euler_form_add,
    gl_order,
    gl_order_vec,
    hom_dim,
    is_isomorphic,
    jordan_rep,
    label_dim,
    quiver_has_cycle,
    rep_from_label,
    simple_rep,
    subspace_count,
    submodule_type_table,
    submodule_type_tables,
    sym_form_add,
    zero_rep,
)


def _n_points(Q, q, d):
    """How many matrix tuples at d the orbit enumeration classifies."""
    codes = _enumerate_points(Q, q, d, 2 ** 24)
    return _space_size(Q, q, d) if codes is None else len(codes)


def _matmul(A, B, p):
    """A B mod p for nested-tuple matrices; B has at least one row."""
    return tuple(
        tuple(sum(a * B[k][j] for k, a in enumerate(row)) % p for j in range(len(B[0])))
        for row in A
    )


def _invert_mat(m, p):
    """The inverse of an invertible n x n matrix mod p, by RREF of [m | 1]."""
    n = len(m)
    aug = [list(m[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    red, pivots = _rref(aug, 2 * n, p)
    assert pivots[:n] == tuple(range(n)), "matrix is singular"
    return tuple(tuple(row[n:]) for row in red)


def _subspaces(d, k, p):
    """Reference subspace enumeration: all k-dimensional subspaces of F_p^d
    as RREF row bases with their pivot columns, pivot patterns in
    lexicographic order, free entries counting up in base p."""
    if k == 0:
        yield ((), ())
        return
    for pivots in itertools.combinations(range(d), k):
        free_pos = [
            (i, j)
            for i in range(k)
            for j in range(d)
            if j > pivots[i] and j not in pivots
        ]
        for vals in itertools.product(range(p), repeat=len(free_pos)):
            rows = [[0] * d for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = 1
            for (i, j), val in zip(free_pos, vals):
                rows[i][j] = val
            yield tuple(tuple(r) for r in rows), tuple(pivots)


def _reduce_against(v, rows, pivots, p):
    w = list(v)
    for row, c in zip(rows, pivots):
        f = w[c] % p
        if f:
            for j in range(len(w)):
                w[j] = (w[j] - f * row[j]) % p
    return tuple(w)


def _sub_and_quotient(R, selection):
    """(sub rep, quotient rep) of a vertexwise subspace selection if it is
    arrow-stable, else None; one vector at a time over Python tuples."""
    p = R.q
    Q = R.quiver
    sub_dims = tuple(len(rows) for rows, _ in selection)
    quo_dims = tuple(d - k for d, k in zip(R.dims, sub_dims))
    nonpivots = [
        [j for j in range(R.dims[v]) if j not in selection[v][1]] for v in range(Q.n)
    ]
    sub_mats = []
    quo_mats = []
    for (s, t), x in zip(Q.effective_arrows(), R.mats):
        rows_s, _ = selection[s]
        rows_t, piv_t = selection[t]
        sm = [[0] * sub_dims[s] for _ in range(sub_dims[t])]
        for j, basis_vec in enumerate(rows_s):
            img = _mat_vec(x, basis_vec, p)
            if any(_reduce_against(img, rows_t, piv_t, p)):
                return None
            for i, c in enumerate(piv_t):
                sm[i][j] = img[c] % p
        sub_mats.append(tuple(tuple(r) for r in sm))
        qm = [[0] * quo_dims[s] for _ in range(quo_dims[t])]
        for j, col in enumerate(nonpivots[s]):
            e = tuple(1 if k == col else 0 for k in range(R.dims[s]))
            resid = _reduce_against(_mat_vec(x, e, p), rows_t, piv_t, p)
            for i, c in enumerate(nonpivots[t]):
                qm[i][j] = resid[c] % p
        quo_mats.append(tuple(tuple(r) for r in qm))
    sub = _unvalidated_rep(Q, p, sub_dims, tuple(sub_mats))
    quo = _unvalidated_rep(Q, p, quo_dims, tuple(quo_mats))
    return sub, quo


def _stable_splits(R):
    """(sub, quotient) of every stable tuple of vertexwise subspaces, in
    itertools.product order, tested and split one tuple at a time."""
    per_vertex = [
        [sub for k in range(d + 1) for sub in _subspaces(d, k, R.q)] for d in R.dims
    ]
    splits = (_sub_and_quotient(R, selection) for selection in itertools.product(*per_vertex))
    return [sq for sq in splits if sq is not None]


def _submodule_table_brute(R):
    """Reference submodule table: the stable tuples classified one at a
    time, keys in the order the tuples first meet them."""
    table = {}
    for sub, quo in _stable_splits(R):
        key = (classify_rep(quo, budget=3 ** 16), classify_rep(sub, budget=3 ** 16))
        table[key] = table.get(key, 0) + 1
    return table


def a2_rep_i12(q):
    # indecomposable (1,1) rep of A_2: the arrow acts as identity
    return QuiverRep(Quiver.a2(), q, (1, 1), (((1,),),))


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(())
    with pytest.raises(ValueError):
        Quiver(("1", "1"))
    with pytest.raises(ValueError):
        Quiver(("1", "2"), (("1", "3"),))
    # a loop is an arrow; unflagged, it is not the Jordan quiver
    loop = Quiver(("1",), (("1", "1"),))
    assert loop.effective_arrows() == ((0, 0),) and not loop.jordan
    jq = Quiver.jordan_quiver()
    assert jq.nilpotent and jq.jordan
    assert jq.effective_arrows() == ((0, 0),)
    assert Quiver.cyclic(3).is_single_cycle()
    assert not Quiver.a2().is_single_cycle()
    assert not Quiver.kronecker().is_single_cycle()
    assert quiver_has_cycle(Quiver.cyclic(2))
    assert quiver_has_cycle(jq)
    assert not quiver_has_cycle(Quiver.a2())
    assert not quiver_has_cycle(Quiver.kronecker())


def test_quiver_json_roundtrip():
    for Q in (Quiver.a2(), Quiver.kronecker(), Quiver.cyclic(3), Quiver.jordan_quiver()):
        assert Quiver.from_json(Q.to_json()) == Q


def test_quiver_json_reads_legacy_jordan_flag():
    # the Jordan loop is written as an ordinary arrow, with no jordan key
    data = Quiver.jordan_quiver().to_json()
    assert data == {
        "vertices": ["1"],
        "arrows": [{"source": "1", "target": "1"}],
        "nilpotent": True,
    }
    # older files flag the loop instead, and still load as the Jordan quiver
    legacy = {"vertices": ["1"], "arrows": [], "nilpotent": True, "jordan": True}
    assert Quiver.from_json(legacy) == Quiver.jordan_quiver()
    assert Quiver.from_json({**legacy, "nilpotent": False}) == Quiver.jordan_quiver()
    for bad in (
        {**legacy, "vertices": ["1", "2"]},
        {**legacy, "arrows": [{"source": "1", "target": "1"}]},
    ):
        with pytest.raises(ValueError, match="jordan backend is a single vertex with no arrows"):
            Quiver.from_json(bad)


_TWO_CYCLE_JSON = {
    "vertices": ["0", "1"],
    "arrows": [{"source": "0", "target": "1"}, {"source": "1", "target": "0"}],
}


def test_quiver_json_flags_must_be_booleans():
    # a flag is read only as a JSON boolean: "nilpotent": "false" once gave
    # the nilpotent two-cycle (3 classes at (1,1), q=2, not 4), and
    # "jordan": "no" the Jordan quiver
    Q = Quiver.from_json({**_TWO_CYCLE_JSON, "nilpotent": False})
    assert not Q.nilpotent and len(enumerate_iso_classes(Q, 2, (1, 1))) == 4
    one_vertex = {"vertices": ["1"], "arrows": []}
    assert Quiver.from_json({**one_vertex, "jordan": False}) == Quiver(("1",))
    for data, flag in (
        ({**_TWO_CYCLE_JSON, "nilpotent": "false"}, "nilpotent"),
        ({**_TWO_CYCLE_JSON, "nilpotent": 0}, "nilpotent"),
        ({**one_vertex, "jordan": "no"}, "jordan"),
        ({**one_vertex, "jordan": None}, "jordan"),
    ):
        with pytest.raises(ValueError, match=f'^quiver JSON flag "{flag}" must be true or false, got '):
            Quiver.from_json(data)


def test_quiver_json_structure_must_be_strings():
    # vertices and arrow ends are read only as JSON strings: a vertex
    # string "12" once loaded as the two vertices "1" and "2", and integer
    # arrow ends as their decimal names
    for data, message in (
        ({"vertices": "12", "arrows": [{"source": 1, "target": 2}]}, '"vertices" must be a list of strings'),
        ({"vertices": ["1", 2]}, '"vertices" must be a list of strings'),
        ({"vertices": ["1", "2"], "arrows": [{"source": 1, "target": 2}]}, 'arrow "source" and "target"'),
        ({"vertices": ["1", "2"], "arrows": [{"source": "1", "target": None}]}, 'arrow "source" and "target"'),
    ):
        with pytest.raises(ValueError, match=message):
            Quiver.from_json(data)
    assert Quiver.from_json({"vertices": ["1", "2"], "arrows": [{"source": "1", "target": "2"}]}) == Quiver.a2()


def test_loop_quiver_class_counts():
    # unflagged loops run the orbit enumeration: the one-loop quiver's
    # classes are the conjugacy classes of n x n matrices, q + ... + q^n
    # of them for n <= 3; the 2-loop quiver has q^2 at n = 1 and
    # q^5 + q^4 + q^3 at n = 2
    loop = Quiver(("1",), (("1", "1"),))
    loop2 = Quiver(("1",), (("1", "1"), ("1", "1")))
    nil2 = Quiver(("1",), (("1", "1"), ("1", "1")), nilpotent=True)
    for Q, q, n, want in (
        (loop, 2, 1, 2),
        (loop, 2, 2, 6),
        (loop, 2, 3, 14),
        (loop, 3, 1, 3),
        (loop, 3, 2, 12),
        (loop, 5, 2, 30),
        (loop2, 2, 1, 4),
        (loop2, 2, 2, 56),
        (loop2, 3, 1, 9),
        (loop2, 3, 2, 351),
        # nilpotent pairs of 2 x 2 matrices: q + 2 classes
        (nil2, 2, 2, 4),
        (nil2, 3, 2, 5),
    ):
        classes = enumerate_iso_classes(Q, q, n)
        assert len(classes) == want, (Q, q, n)
        assert sum(size for _, _, size in classes) == _n_points(Q, q, (n,))


def test_loop_quivers_pass_orbit_stabilizer():
    from hallalg.verify import suite_orbit_stabilizer

    for Q, deg, count in (
        (Quiver(("1",), (("1", "1"),)), 3, 27),
        (Quiver(("1",), (("1", "1"), ("1", "1"))), 2, 64),
    ):
        checks = suite_orbit_stabilizer(Q, 2, deg)
        assert len(checks) == count
        assert all(c["status"] == "pass" for c in checks)


def test_euler_form():
    A2 = Quiver.a2()
    assert euler_form_add(A2, (1, 0), (1, 0)) == 1
    assert euler_form_add(A2, (1, 0), (0, 1)) == -1
    assert euler_form_add(A2, (0, 1), (1, 0)) == 0
    K = Quiver.kronecker()
    assert euler_form_add(K, (1, 0), (0, 1)) == -2
    # jordan loop makes the form vanish identically
    J = Quiver.jordan_quiver()
    for a in range(4):
        for b in range(4):
            assert euler_form_add(J, (a,), (b,)) == 0
    C3 = Quiver.cyclic(3)
    assert euler_form_add(C3, (1, 0, 0), (1, 0, 0)) == 1
    assert euler_form_add(C3, (1, 0, 0), (0, 1, 0)) == -1
    assert sym_form_add(A2, (1, 0), (0, 1)) == -1
    with pytest.raises(ValueError):
        euler_form_add(A2, (1,), (1, 0))


def _subspace_slice(d, k, p):
    """The k-dimensional subspaces of _vertex_subspaces(d, p, int64): (RREF
    bases (S, k, d), read from E at each subspace's pivots; columns in
    pivot-first order (S, d)). E's rows off the pivots must be zero."""
    mats, orders, kdims = quiverrep._vertex_subspaces(d, p, np.int64)
    at = kdims == k
    order = orders[at]
    rows = np.take_along_axis(mats[at], order[:, :, None].astype(np.intp), axis=1)
    assert not rows[:, k:].any()
    return rows[:, :k], order


def test_subspace_enumeration_counts():
    for p in (2, 3):
        for d in range(5):
            for k in range(d + 1):
                basis, order = _subspace_slice(d, k, p)
                assert basis.shape == (int(gauss_binomial(d, k).evaluate(p)), k, d)
                assert subspace_count(d, k, p) == len(basis)
                assert len(np.unique(basis.reshape(len(basis), -1), axis=0)) == len(basis)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_subspace_arrays_match_reference(p):
    # the numpy store yields the reference RREF bases in order, with the
    # pivot columns first and then the others
    for d in range(6):
        for k in range(d + 1):
            basis, order = _subspace_slice(d, k, p)
            got = [(tuple(map(tuple, b)), tuple(o)) for b, o in zip(basis.tolist(), order.tolist())]
            want = [
                (rows, piv + tuple(j for j in range(d) if j not in piv))
                for rows, piv in _subspaces(d, k, p)
            ]
            assert got == want, (d, k)


def test_rep_validation_and_nilpotency():
    C2 = Quiver.cyclic(2)
    # both arrows invertible on (1,1) gives a non-nilpotent rep
    with pytest.raises(ValueError):
        QuiverRep(C2, 2, (1, 1), (((1,),), ((1,),)))
    # one arrow zero is fine
    QuiverRep(C2, 2, (1, 1), (((1,),), ((0,),)))
    with pytest.raises(ValueError):
        QuiverRep(Quiver.a2(), 4, (1, 1), (((1,),),))
    with pytest.raises(ValueError):
        QuiverRep(Quiver.a2(), 2, (1, 1), (((2,),),))
    with pytest.raises(ValueError):
        QuiverRep(Quiver.a2(), 2, (1,), (((1,),),))


def test_hom_dim_goldens():
    q = 2
    A2 = Quiver.a2()
    s1 = simple_rep(A2, q, 0)
    s2 = simple_rep(A2, q, 1)
    i12 = a2_rep_i12(q)
    assert hom_dim(s1, s1) == 1
    assert hom_dim(s2, s2) == 1
    assert hom_dim(s1, s2) == 0
    assert hom_dim(s2, s1) == 0
    assert hom_dim(s2, i12) == 1
    assert hom_dim(i12, s2) == 0
    assert hom_dim(i12, s1) == 1
    assert hom_dim(s1, i12) == 0
    assert hom_dim(i12, i12) == 1
    # additivity in direct sums
    assert hom_dim(direct_sum(s1, i12), direct_sum(s2, s1)) == hom_dim(
        s1, s2
    ) + hom_dim(s1, s1) + hom_dim(i12, s2) + hom_dim(i12, s1)


def test_hom_dim_jordan_min_formula():
    # dim Hom between nilpotent jordan types is the sum of part minima
    for q in (2, 3):
        for n1 in range(4):
            for n2 in range(4):
                for la in all_partitions(n1):
                    for mu in all_partitions(n2):
                        expect = sum(min(a, b) for a in la for b in mu)
                        assert hom_dim(jordan_rep(la, q), jordan_rep(mu, q)) == expect


def test_aut_count_goldens():
    assert aut_count(jordan_rep((1,), 2)) == 1
    assert aut_count(jordan_rep((1, 1), 2)) == 6
    assert aut_count(zero_rep(Quiver.jordan_quiver(), 2)) == 1
    assert aut_count(jordan_rep((2,), 2)) == 2
    assert aut_count(jordan_rep((1, 1), 3)) == 48


def test_aut_count_matches_aut_poly():
    for q in (2, 3):
        for n in range(5):
            for la in all_partitions(n):
                got = aut_count(jordan_rep(la, q), budget=3 ** 16)
                assert got == int(aut_poly(la).evaluate(q))


def test_is_isomorphic():
    q = 2
    K = Quiver.kronecker()
    r10 = QuiverRep(K, q, (1, 1), (((1,),), ((0,),)))
    r11 = QuiverRep(K, q, (1, 1), (((1,),), ((1,),)))
    r01 = QuiverRep(K, q, (1, 1), (((0,),), ((1,),)))
    assert not is_isomorphic(r10, r11)
    assert not is_isomorphic(r10, r01)
    assert is_isomorphic(r10, r10)
    A2 = Quiver.a2()
    s1, s2 = simple_rep(A2, q, 0), simple_rep(A2, q, 1)
    assert is_isomorphic(direct_sum(s1, s2), direct_sum(s2, s1))
    assert not is_isomorphic(direct_sum(s1, s2), a2_rep_i12(q))
    with pytest.raises(ValueError):
        is_isomorphic(s1, jordan_rep((1,), q))


def test_enumerate_a2():
    for q in (2, 3, 5):
        classes = enumerate_iso_classes(Quiver.a2(), q, (1, 1))
        assert len(classes) == 2
        sizes = sorted(c[2] for c in classes)
        assert sizes == [1, q - 1]
        assert sum(c[2] for c in classes) == q


def test_enumerate_jordan():
    classes = enumerate_iso_classes(Quiver.jordan_quiver(), 2, 2)
    assert [c[0] for c in classes] == [(1, 1), (2,)]
    z = enumerate_iso_classes(Quiver.jordan_quiver(), 2, 0)
    assert len(z) == 1 and z[0][0] == ()
    classes3 = enumerate_iso_classes(Quiver.jordan_quiver(), 3, (3,))
    assert {c[0] for c in classes3} == set(all_partitions(3))
    # labels stay bare partitions in dominance order, which reports index as
    # cN@(d); degree 6 is the first where it is not lexicographic
    labels = [c[0] for c in enumerate_iso_classes(Quiver.jordan_quiver(), 2, 6)]
    assert labels == sorted(all_partitions(6), key=dominance_key)
    assert labels.index((3, 1, 1, 1)) < labels.index((2, 2, 2))
    # the one label lister of single cycles gives the same bare partitions
    assert cyclic_labels_for_dim(Quiver.jordan_quiver(), (3,)) == [(1, 1, 1), (2, 1), (3,)]
    assert cyclic_labels_for_dim(Quiver.jordan_quiver(), (6,)) == labels


def test_enumerate_jordan_generic_crosscheck():
    # BFS orbit enumeration agrees with the closed-form classification
    for q, dmax in ((2, 4), (3, 3)):
        for d in range(dmax + 1):
            closed = enumerate_iso_classes(Quiver.jordan_quiver(), q, d)
            generic = enumerate_iso_classes(
                Quiver.jordan_quiver(), q, d, force_generic=True, budget=2 ** 20
            )
            assert len(closed) == len(generic)
            by_label = {}
            for lab, rep, size in generic:
                by_label[classify_rep(rep)] = size
            assert {lab: size for lab, _, size in closed} == by_label


def test_orbit_stabilizer_and_totals():
    # orbit size times stabilizer order equals the group order, and orbit
    # sizes sum to the number of enumerated points
    configs = [
        (Quiver.a2(), 2, (1, 1)),
        (Quiver.a2(), 3, (2, 1)),
        (Quiver.a2(), 2, (2, 2)),
        (Quiver.kronecker(), 2, (1, 1)),
        (Quiver.kronecker(), 2, (2, 1)),
        (Quiver.cyclic(2), 2, (1, 1)),
        (Quiver.cyclic(2), 2, (2, 1)),
        (Quiver.cyclic(3), 2, (1, 1, 1)),
    ]
    for Q, q, d in configs:
        classes = enumerate_iso_classes(Q, q, d, force_generic=True)
        total = sum(size for _, _, size in classes)
        assert total == _n_points(Q, q, d)
        if not quiver_has_cycle(Q):
            assert _enumerate_points(Q, q, d, 2 ** 24) is None
        for _, rep, size in classes:
            assert size * aut_count(rep) == gl_order_vec(d, q)


def test_jordan_totals():
    # closed-form orbit sizes also sum to the count of nilpotent matrices
    for q, dmax in ((2, 4), (3, 3)):
        for d in range(dmax + 1):
            closed = enumerate_iso_classes(Quiver.jordan_quiver(), q, d)
            total = sum(size for _, _, size in closed)
            assert total == q ** (d * d - d)
            for lab, rep, size in closed:
                assert size * aut_count(rep) == gl_order(d, q)


def test_enumerate_cyclic():
    C2 = Quiver.cyclic(2)
    classes = enumerate_iso_classes(C2, 2, (1, 1))
    labels = {c[0] for c in classes}
    assert labels == {((2,), ()), ((), (2,)), ((1,), (1,))}
    # generic orbit enumeration finds the same class count and orbit sizes
    for Q in (Quiver.cyclic(2), Quiver.cyclic(3)):
        for q in (2, 3):
            n = Q.n
            for total in range(0, 5 - n + 1):
                for d in _dim_vectors(n, total):
                    closed = enumerate_iso_classes(Q, q, d)
                    generic = enumerate_iso_classes(Q, q, d, force_generic=True)
                    assert len(closed) == len(generic)
                    assert sorted(s for *_, s in closed) == sorted(
                        s for *_, s in generic
                    )
                    assert sum(s for *_, s in closed) == _n_points(Q, q, d)


def test_enumerate_cyclic_past_the_aut_scan_budget():
    # End of the zero representation at (0,0,5) has dimension 25: a scan
    # would need 2^25 points, past the default budget, the closed form none
    classes = enumerate_iso_classes(Quiver.cyclic(3), 2, (0, 0, 5))
    assert [(lab, size) for lab, _, size in classes] == [(((), (), (1, 1, 1, 1, 1)), 1)]


def _dim_vectors(n, total):
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _dim_vectors(n - 1, total - first):
            out.append((first,) + rest)
    return out


def test_cyclic_type_matches_enumeration():
    # rank-based labels agree with the chain-sum construction
    for nq in (2, 3):
        Q = Quiver.cyclic(nq)
        for total in range(5):
            for d in _dim_vectors(nq, total):
                for label in cyclic_labels_for_dim(Q, d):
                    rep = rep_from_label(Q, 2, label)
                    assert cyclic_type(rep) == label
                    assert classify_rep(rep) == label


def test_classify_jordan():
    for q in (2, 3):
        for n in range(5):
            for la in all_partitions(n):
                assert classify_rep(_jordan_rep_ref(la, q)) == la
                assert classify_rep(jordan_rep(la, q)) == la
    # direct sums classify to merged partitions
    r = direct_sum(jordan_rep((2,), 2), jordan_rep((2, 1), 2))
    assert classify_rep(r) == (2, 2, 1)
    # a loop matrix that is not nilpotent fails instead of looping forever
    with pytest.raises(ConsistencyError, match="not nilpotent"):
        classify_rep(_unvalidated_rep(Quiver.jordan_quiver(), 3, (2,), ((((1, 0), (0, 0))),)))


def _classify_by_scan(M):
    """Reference classifier: the first enumerated class isomorphic to M."""
    for label, rep, _ in enumerate_iso_classes(M.quiver, M.q, M.dims):
        if is_isomorphic(M, rep):
            return label
    raise AssertionError(f"{M} matches no enumerated class")


def _all_reps(Q, q, d):
    """Every representation at d, built entry by entry; QuiverRep refuses
    the non-nilpotent ones on a nilpotent quiver."""
    shapes = [(d[t], d[s]) for s, t in Q.effective_arrows()]
    for entries in itertools.product(range(q), repeat=sum(r * c for r, c in shapes)):
        mats, pos = [], 0
        for r, c in shapes:
            mats.append(tuple(tuple(entries[pos + i * c : pos + (i + 1) * c]) for i in range(r)))
            pos += r * c
        try:
            yield QuiverRep(Q, q, d, tuple(mats))
        except ValueError:
            continue


_TWO_CYCLE = Quiver(("0", "1"), (("0", "1"), ("1", "0")))
# a cycle with a tail: nilpotent, but neither Jordan nor a single cycle
_NILPOTENT_TAIL = Quiver(("0", "1", "2"), (("0", "1"), ("1", "0"), ("1", "2")), nilpotent=True)
# a single cycle, but unflagged: the orbit kind classifies it
_LOOP = Quiver(("1",), (("1", "1"),))


@pytest.mark.parametrize(
    "Q, q, d",
    [
        (Quiver.kronecker(), 2, (2, 2)),
        (Quiver.kronecker(), 2, (2, 3)),
        (Quiver.a2(), 3, (2, 2)),
        (_TWO_CYCLE, 2, (1, 1)),
        (_TWO_CYCLE, 2, (2, 1)),
        (_NILPOTENT_TAIL, 2, (1, 1, 1)),
        (_NILPOTENT_TAIL, 2, (2, 1, 1)),
        (Quiver.cyclic(2), 2, (1, 1)),
        (Quiver.cyclic(2), 2, (2, 1)),
        (Quiver.cyclic(3), 2, (1, 1, 1)),
        (Quiver.jordan_quiver(), 2, (3,)),
        (Quiver.jordan_quiver(), 3, (2,)),
        (_LOOP, 2, (2,)),
        (_LOOP, 3, (2,)),
    ],
)
def test_classify_lookup_matches_scan(Q, q, d):
    # each kind's classifier (the point-code lookup, or the chain ranks on
    # a flagged single cycle) against isomorphism scans, on every point
    classes = enumerate_iso_classes(Q, q, d)
    for label, rep, _ in classes:
        assert label_dim(Q, label) == d
        assert rep_from_label(Q, q, label) == rep
    sizes = dict.fromkeys((label for label, _, _ in classes), 0)
    for M in _all_reps(Q, q, d):
        label = classify_rep(M)
        assert label == _classify_by_scan(M), M
        sizes[label] += 1
    assert sizes == {label: size for label, _, size in classes}


def test_kind_is_chains_exactly_on_flagged_single_cycles():
    for Q in (Quiver.cyclic(2), Quiver.cyclic(3), Quiver.jordan_quiver()):
        assert isinstance(quiverrep._kind(Q), quiverrep._Chains), Q
    for Q in (_LOOP, _TWO_CYCLE, _NILPOTENT_TAIL, Quiver.a2(), Quiver.kronecker()):
        assert isinstance(quiverrep._kind(Q), quiverrep._Orbits), Q
    for Q in (Quiver.cyclic(2), Quiver.jordan_quiver(), _LOOP, _NILPOTENT_TAIL, Quiver.a2()):
        assert isinstance(quiverrep._kind(Q, force_generic=True), quiverrep._Orbits), Q


def test_cyclic_labels_refuse_other_quivers_and_lengths():
    # chain labels exist only on a single cycle, one dimension per vertex
    with pytest.raises(ValueError, match="single cycle"):
        cyclic_labels_for_dim(Quiver.a2(), (1, 1))
    for Q, d in ((Quiver.cyclic(3), (1, 1)), (Quiver.jordan_quiver(), (1, 1)), (Quiver.cyclic(2), ())):
        with pytest.raises(ValueError, match="one dimension per vertex"):
            cyclic_labels_for_dim(Q, d)


def _cyclic_labels_ref(Q, d):
    """Reference label lister: every tuple of partitions whose sizes sum to
    the total dimension (n - 1 bars among sum(d) + n - 1 slots), kept when
    its chains fill d; on the Jordan quiver, bare partitions in dominance
    order."""
    n = Q.n
    slots = sum(d) + n - 1
    labels = []
    for bars in itertools.combinations(range(slots), n - 1):
        ends = (-1,) + bars + (slots,)
        sizes = [b - a - 1 for a, b in zip(ends, ends[1:])]
        for las in itertools.product(*(all_partitions(s) for s in sizes)):
            dims = [0] * n
            for start, la in enumerate(las):
                for part in la:
                    for c in range(part):
                        dims[(start + c) % n] += 1
            if tuple(dims) == tuple(d):
                labels.append(las)
    if Q.jordan:
        return sorted((la for (la,) in labels), key=dominance_key)
    return sorted(labels)


def test_cyclic_labels_match_the_filtered_reference():
    # the lister builds only labels that fill d; the reference filters every
    # tuple of partitions of the total
    cases = [(Quiver.jordan_quiver(), (t,)) for t in range(7)]
    cases += [(Quiver.cyclic(n), d) for n in (2, 3, 4) for t in range(7) for d in _dim_vectors(n, t)]
    for Q, d in cases:
        assert cyclic_labels_for_dim(Q, d) == _cyclic_labels_ref(Q, d), (Q.n, d)
    assert len(cyclic_labels_for_dim(Quiver.cyclic(3), (3, 3, 3))) == 192


def test_chain_end_count_matches_hom_dim():
    # dim End M counted from the chains equals the nullspace dimension
    cases = [(Quiver.jordan_quiver(), (t,)) for t in range(7)]
    cases += [(Quiver.cyclic(n), d) for n in (2, 3, 4) for t in range(6) for d in _dim_vectors(n, t)]
    for Q, d in cases:
        for label in cyclic_labels_for_dim(Q, d):
            M = rep_from_label(Q, 2, label)
            assert quiverrep._CHAINS.end_dim(Q, label) == hom_dim(M, M), (Q.n, label)


def test_orbit_labels_of_chain_quivers_read_back():
    # force_generic labels a chain quiver's classes (d, mats), plain tuples;
    # label_dim and rep_from_label read them back beside the chain labels
    cases = ((Quiver.jordan_quiver(), (2,)), (Quiver.cyclic(3), (1, 1, 0)), (Quiver.cyclic(2), (2, 2)))
    for Q, d in cases:
        for force_generic in (True, False):
            for label, rep, _ in enumerate_iso_classes(Q, 2, d, force_generic=force_generic):
                assert type(label) is tuple
                assert label_dim(Q, label) == d
                assert rep_from_label(Q, 2, label) == rep


@st.composite
def _random_points(draw):
    """A random point M on A2, Kronecker or cyclic(2) at q = 2 or 3, each
    vertex dimension at most 2; points the nilpotent cyclic(2) refuses are
    rejected."""
    Q = draw(st.sampled_from((Quiver.a2(), Quiver.kronecker(), Quiver.cyclic(2))))
    q = draw(st.sampled_from((2, 3)))
    d = tuple(draw(st.integers(0, 2)) for _ in range(Q.n))
    entries = st.integers(0, q - 1)
    mats = tuple(
        tuple(tuple(draw(entries) for _ in range(d[s])) for _ in range(d[t]))
        for s, t in Q.effective_arrows()
    )
    try:
        return QuiverRep(Q, q, d, mats)
    except ValueError:
        assume(False)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_random_points())
def test_orbit_stabilizer_on_random_points(M):
    # |Aut M| by the endomorphism scan times the orbit size of M's class is
    # |GL_d|, and M is isomorphic to the representative of its class
    label = classify_rep(M)
    [(rep, size)] = [(r, n) for lab, r, n in enumerate_iso_classes(M.quiver, M.q, M.dims)
                     if lab == label]
    assert aut_count(M) * size == gl_order_vec(M.dims, M.q)
    assert is_isomorphic(M, rep)


def test_count_submodules_goldens():
    J2 = Quiver.jordan_quiver()
    assert count_submodules(jordan_rep((1, 1), 2), (1,), (1,)) == 3
    assert count_submodules(jordan_rep((2, 1), 3), (2,), (1,)) == 3
    assert count_submodules(jordan_rep((2,), 2), (1,), (1,)) == 1
    assert count_submodules(jordan_rep((2,), 5), (1,), (1,)) == 1
    i12 = a2_rep_i12(2)
    s1 = classify_rep(simple_rep(Quiver.a2(), 2, 0))
    s2 = classify_rep(simple_rep(Quiver.a2(), 2, 1))
    assert count_submodules(i12, s1, s2) == 1
    assert count_submodules(i12, s2, s1) == 0
    with pytest.raises(ValueError):
        count_submodules(jordan_rep((1, 1), 2), (1,), (2,))


def test_submodule_table_totals():
    # the invariant subspaces of a type-la module number the sum of all
    # Hall polynomials P^la_{mu,nu} at t = q, an independent count
    for q in (2, 3):
        for n in range(5):
            for la in all_partitions(n):
                table = submodule_type_table(jordan_rep(la, q))
                expect = sum(
                    hall_poly(la, mu, nu).evaluate(q)
                    for k in range(n + 1)
                    for mu in all_partitions(n - k)
                    for nu in all_partitions(k)
                )
                assert sum(table.values()) == expect, (la, q)
                assert table[((), la)] == 1
                assert table[(la, ())] == 1


def _submodule_cases():
    cases = [
        (f"jordan{la},q={q}", jordan_rep(la, q))
        for q, nmax in ((2, 6), (3, 4), (5, 3))
        for n in range(nmax + 1)
        for la in all_partitions(n)
    ]
    cases += [
        (f"kronecker(2, 3),q=2,#{i}", rep)
        for i, (_, rep, _) in enumerate(enumerate_iso_classes(Quiver.kronecker(), 2, (2, 3)))
    ]
    for Q, name, q in ((Quiver.a2(), "a2", 3), (Quiver.cyclic(3), "cyclic3", 2)):
        for total in range(5):
            for d in _dim_vectors(Q.n, total):
                for i, (_, rep, _) in enumerate(enumerate_iso_classes(Q, q, d)):
                    cases.append((f"{name}{d},q={q},#{i}", rep))
    return cases


def test_submodule_table_matches_brute():
    # the numpy kernel gives the per-tuple reference's table: keys, counts
    # and the order the keys were first met in
    for name, rep in _submodule_cases():
        table = submodule_type_table(rep, budget=3 ** 16)
        assert list(table.items()) == list(_submodule_table_brute(rep).items()), name


def test_submodule_table_classifies_each_distinct_split_once(monkeypatch):
    # one classify_rep call per distinct sub and per distinct quotient;
    # every table here is one chunk of the kernel
    reps = [rep for _, rep, _ in enumerate_iso_classes(Quiver.kronecker(), 2, (2, 3))]
    reps += [jordan_rep(la, 2) for la in all_partitions(6)]
    expect = []
    for R in reps:
        assert math.prod(sum(subspace_count(d, k, 2) for k in range(d + 1)) for d in R.dims) <= (
            quiverrep._CHUNK // max(R.dims) ** 2
        )
        subs, quos = zip(*_stable_splits(R))
        expect.append(len(set(subs)) + len(set(quos)))
    calls = []
    classify = quiverrep.classify_rep

    def counted(M, budget=None):
        calls.append(M)
        return classify(M, budget)

    monkeypatch.setattr(quiverrep, "_CACHE", {})
    monkeypatch.setattr(quiverrep, "classify_rep", counted)
    made = []
    for R in reps:
        calls.clear()
        submodule_type_table(R)
        made.append(len(calls))
    assert made == expect
    # a call per split of each stable tuple would be 9926
    assert sum(made) == 1021


def test_submodule_table_first_budget_error(monkeypatch):
    # the kernel classifies in the order the per-tuple loop meets the
    # splits, quotient before sub, so the first error is that loop's: here
    # the quotient by the zero sub is R itself at (2, 3), not a (2, 2) sub
    monkeypatch.setattr(quiverrep, "_CACHE", {})
    R = enumerate_iso_classes(Quiver.kronecker(), 2, (2, 3))[5][1]
    message = "classify_rep at dimension vector (2, 3), q=2 needs 4096 points, budget is 100"
    with pytest.raises(BudgetError) as cold:
        submodule_type_table(R, budget=100)
    assert str(cold.value) == message
    # warm: every class of R's subs and quotients enumerated at the default budget
    for d in _dim_vectors(2, 5):
        if d[0] <= 2 and d[1] <= 3:
            enumerate_iso_classes(Quiver.kronecker(), 2, d)
    with pytest.raises(BudgetError) as warm:
        submodule_type_table(R, budget=100)
    assert str(warm.value) == message
    # warm table: built at the default budget, it needs only 80 subspace
    # tuples, but its cold build's classify_rep calls still count
    assert len(submodule_type_table(R)) == 18
    with pytest.raises(BudgetError) as warm:
        submodule_type_table(R, budget=100)
    assert str(warm.value) == message


def _pass_cases():
    """(name, the class representatives of one dimension vector) for the
    quiver dimension vectors of _submodule_cases."""
    cases = [("kronecker(2, 3),q=2", [rep for _, rep, _ in enumerate_iso_classes(Quiver.kronecker(), 2, (2, 3))])]
    for Q, name, q in ((Quiver.a2(), "a2", 3), (Quiver.cyclic(3), "cyclic3", 2)):
        for total in range(5):
            for d in _dim_vectors(Q.n, total):
                cases.append((f"{name}{d},q={q}", [rep for _, rep, _ in enumerate_iso_classes(Q, q, d)]))
    return cases


def test_submodule_tables_pass_keeps_each_lone_table(monkeypatch):
    # one pass over a dimension vector's reps keeps, for each rep, what its
    # lone build keeps (tuple count and entries in order),
    # and classifies each distinct sub and quotient of the pass once
    classify = quiverrep.classify_rep
    calls = []

    def counted(M, budget=None):
        calls.append(M)
        return classify(M, budget)

    for name, reps in _pass_cases():
        monkeypatch.setattr(quiverrep, "_CACHE", {})
        lone = [submodule_type_table(R, budget=3 ** 16) for R in reps]
        kept = [quiverrep._CACHE["submodule_type_table", R] for R in reps]
        for R, table in zip(reps, lone):
            assert list(table.items()) == list(_submodule_table_brute(R).items()), name
        monkeypatch.setattr(quiverrep, "_CACHE", {})
        monkeypatch.setattr(quiverrep, "classify_rep", counted)
        calls.clear()
        tables = submodule_type_tables(reps, budget=3 ** 16)
        monkeypatch.setattr(quiverrep, "classify_rep", classify)
        assert [list(t.items()) for t in tables] == [list(t.items()) for t in lone], name
        assert [quiverrep._CACHE["submodule_type_table", R] for R in reps] == kept, name
        splits = [split for R in reps for split in _stable_splits(R)]
        assert len(calls) == len({sub for sub, _ in splits}) + len({quo for _, quo in splits}), name


def test_submodule_tables_pass_first_budget_error(monkeypatch):
    # a pass over Kronecker (2, 3), class #5 included, refuses as that
    # class's lone table does (test_submodule_table_first_budget_error),
    # cold, with every sub and quotient dimension enumerated, and warm
    monkeypatch.setattr(quiverrep, "_CACHE", {})
    reps = [rep for _, rep, _ in enumerate_iso_classes(Quiver.kronecker(), 2, (2, 3))]
    message = "classify_rep at dimension vector (2, 3), q=2 needs 4096 points, budget is 100"
    with pytest.raises(BudgetError) as cold:
        submodule_type_tables(reps, budget=100)
    assert str(cold.value) == message
    for d in _dim_vectors(2, 5):
        if d[0] <= 2 and d[1] <= 3:
            enumerate_iso_classes(Quiver.kronecker(), 2, d)
    with pytest.raises(BudgetError) as warm:
        submodule_type_tables(reps, budget=100)
    assert str(warm.value) == message
    assert len(submodule_type_tables(reps)[5]) == 18
    with pytest.raises(BudgetError) as warm:
        submodule_type_tables(reps, budget=100)
    assert str(warm.value) == message
    with pytest.raises(ValueError, match="one quiver, q and dimension vector"):
        submodule_type_tables([reps[0], jordan_rep((1,), 2)])


def test_submodule_table_rep_need_bounds_every_split(monkeypatch):
    # a kept table checks its budget against its rep's own classify_rep
    # need alone: a cold build classifies the rep first (the quotient by
    # the zero sub), and no sub or quotient needs more points than it
    classify = quiverrep.classify_rep
    calls = []

    def counted(M, budget=None):
        calls.append(M)
        return classify(M, budget)

    cases = _pass_cases() + [(name, [rep]) for name, rep in _submodule_cases()]
    for name, reps in cases:
        monkeypatch.setattr(quiverrep, "_CACHE", {})
        monkeypatch.setattr(quiverrep, "classify_rep", counted)
        calls.clear()
        submodule_type_tables(reps, budget=3 ** 16)
        monkeypatch.setattr(quiverrep, "classify_rep", classify)
        assert calls[0] == reps[0], name
        need = min(quiverrep._CACHE["classify_rep", R][0] for R in reps)
        assert max(quiverrep._CACHE["classify_rep", M][0] for M in calls) <= need, name


def test_generic_enumeration_shared_across_flags(monkeypatch):
    # with no closed form, force_generic runs the plain enumeration, so the
    # two share one kept result; on the Jordan loop they stay apart
    seeds = quiverrep._orbit_seeds
    calls = []

    def counted(*args):
        calls.append(args)
        return seeds(*args)

    monkeypatch.setattr(quiverrep, "_CACHE", {})
    monkeypatch.setattr(quiverrep, "_orbit_seeds", counted)
    K = Quiver.kronecker()
    classes = enumerate_iso_classes(K, 2, (2, 2), force_generic=True)
    assert enumerate_iso_classes(K, 2, (2, 2)) == classes
    for label, rep, _ in classes:
        assert classify_rep(rep) == label
    assert len(calls) == 1
    J = Quiver.jordan_quiver()
    closed = enumerate_iso_classes(J, 2, 3)
    assert len(calls) == 1
    generic = enumerate_iso_classes(J, 2, 3, force_generic=True)
    assert len(calls) == 2 and generic != closed
    enumerate_iso_classes(J, 2, 3, force_generic=True)
    assert len(calls) == 2


def _no_arrow_cases():
    """(quiver, q, d) for every d on which no arrow acts, total at most 4
    (3 at q >= 3), on A1, A2, Kronecker, A3, cyclic(3), an arrowless pair,
    and the Jordan quiver at (0,)."""
    A3 = Quiver(("1", "2", "3"), (("1", "2"), ("2", "3")))
    cases = [(Quiver.jordan_quiver(), q, (0,)) for q in (2, 3, 5)]
    for Q in (Quiver(("1",)), Quiver.a2(), Quiver.kronecker(), A3, Quiver.cyclic(3), Quiver(("1", "2"))):
        for q in (2, 3, 5):
            top = 4 if q == 2 else 3
            for d in itertools.product(range(top + 1), repeat=Q.n):
                if sum(d) <= top and all(d[s] * d[t] == 0 for s, t in Q.effective_arrows()):
                    cases.append((Q, q, d))
    return cases


def test_semisimple_tables_match_the_kernel(monkeypatch):
    # where no arrow acts, the closed-form table is the kernel's: the same
    # tuple count, entries, key order and classify_rep calls
    classify = quiverrep.classify_rep
    calls = []

    def counted(M, budget=None):
        calls.append(M)
        return classify(M, budget)

    monkeypatch.setattr(quiverrep, "classify_rep", counted)
    cases = _no_arrow_cases()
    assert len(cases) == 175
    for Q, q, d in cases:
        assert quiverrep._no_arrow_acts(Q, d)
        R = QuiverRep(Q, q, d, quiverrep._zero_mats(Q, d))
        built = []
        for build in (quiverrep._semisimple_tables, quiverrep._submodule_tables):
            monkeypatch.setattr(quiverrep, "_CACHE", {})
            calls.clear()
            (tuples, table), = build([R], 2 ** 24)
            built.append((tuples, list(table.items()), list(calls), quiverrep._CACHE))
        assert built[0] == built[1], (Q, q, d)
        assert built[0][2][0] == R
    assert not quiverrep._no_arrow_acts(Quiver.a2(), (1, 1))


def test_one_point_classes_match_orbit_seeds(monkeypatch):
    # where no arrow acts, the orbit kind's one class is the one seed the
    # enumeration finds, of orbit size 1, and classify_rep returns its label
    # (chain quivers classify by their own kind)
    monkeypatch.setattr(quiverrep, "_CACHE", {})
    for Q, q, d in _no_arrow_cases():
        codes, seeds, sizes, owner = quiverrep._orbit_seeds(Q, q, d, 2 ** 24)
        assert codes is None and seeds.tolist() == [0] and sizes.tolist() == [1] and owner.tolist() == [0]
        digits = quiverrep._coeff_digit_block(seeds, 0, q, np.int64)
        label = (d, quiverrep._point_mats(digits[0], quiverrep._arrow_shapes(Q, d)))
        classes, codes, owner = quiverrep._iso_classes(Q, q, d, None, force_generic=True)
        assert classes == [(label, QuiverRep(Q, q, d, label[1]), 1)] and codes is owner is None
        if quiverrep._kind(Q) is quiverrep._ORBITS:
            assert classify_rep(classes[0][1]) == label
            assert quiverrep._CACHE["classify_rep", classes[0][1]] == (1, label)


def test_semisimple_table_budget(monkeypatch):
    # A1 at (4,), q=2, has 1 + 15 + 35 + 15 + 1 subspace tuples: the closed
    # form still charges them all, cold and warm
    R = QuiverRep(Quiver(("1",)), 2, (4,), ())
    message = "submodule_type_table at dimension vector (4,), q=2 needs 67 subspace tuples, budget is 50"
    monkeypatch.setattr(quiverrep, "_CACHE", {})
    with pytest.raises(BudgetError) as cold:
        submodule_type_table(R, budget=50)
    assert str(cold.value) == message
    assert sum(submodule_type_table(R).values()) == 67
    with pytest.raises(BudgetError) as warm:
        submodule_type_table(R, budget=50)
    assert str(warm.value) == message


def test_semisimple_table_past_the_subspace_store(monkeypatch):
    # S_2^7 on A3 at q=3 has 2,052,656 subspaces of F_3^7; its table is the
    # eight Gaussian binomials [7 k]_3, built without the subspace store
    builds = []
    store = quiverrep._vertex_subspaces

    def counted(*args):
        builds.append(args)
        return store(*args)

    monkeypatch.setattr(quiverrep, "_CACHE", {})
    monkeypatch.setattr(quiverrep, "_vertex_subspaces", counted)
    A3 = Quiver(("1", "2", "3"), (("1", "2"), ("2", "3")))
    R = QuiverRep(A3, 3, (0, 7, 0), (((),) * 7, ()))

    def label(m):
        return ((0, m, 0), (((),) * m, ()))

    want = [((label(7 - k), label(k)), int(gauss_binomial(7, k).evaluate(3))) for k in range(8)]
    assert list(submodule_type_table(R).items()) == want
    assert sum(n for _, n in want) == 2052656 and not builds


def test_submodule_table_past_int64():
    # (p-1)^2 > 2^63: the kernel runs on Python ints rather than refusing
    p = 4294967311  # the least prime above 2^32
    assert _submodule_dtype((1,), p) is object
    assert submodule_type_table(jordan_rep((1,), p)) == {((1,), ()): 1, ((), (1,)): 1}
    # at d = 2 a budget of p + 3 tuples admits the scan, which also takes
    # Python ints (too many tuples to run here)
    assert sum(subspace_count(2, k, p) for k in range(3)) == p + 3
    assert _submodule_dtype((2,), p) is object
    assert subspace_count(3, 2, p) == int(gauss_binomial(3, 2).evaluate(p))
    # the int64 bound max(d) (p-1)^2 at the Mersenne prime 2^31 - 1
    assert _submodule_dtype((0, 2), 2 ** 31 - 1) is np.int64
    assert _submodule_dtype((3, 1), 2 ** 31 - 1) is object
    # the sub and quotient keys hold entries below q in int64 at most; the
    # kernel refuses a modulus past that before it classifies anything
    # (2^63 + 29 is the least prime above 2^63)
    big = jordan_rep((1,), 2 ** 63 + 29)
    with pytest.raises(BudgetError, match="key entries can reach 9223372036854775836, past the int64"):
        submodule_type_table(big)


@pytest.mark.parametrize("q, dtype", [(127, np.int16), (131, np.int32)])
def test_submodule_dtype_boundary_matches_brute(q, dtype):
    # max(d) (q-1)^2 at d = 2: 31752 fits int16 at q = 127, 33800 at q = 131
    # does not; the table is the per-tuple oracle's on both sides
    assert _submodule_dtype((2,), q) is dtype
    for parts in ((2,), (1, 1)):
        R = jordan_rep(parts, q)
        assert list(submodule_type_table(R).items()) == list(_submodule_table_brute(R).items())


def test_vertex_subspaces_store_is_narrow():
    # matrices in the int16 kernel dtype, columns and dimensions in int16
    for a in quiverrep._vertex_subspaces(6, 2, _submodule_dtype((6,), 2)):
        assert a.dtype.itemsize <= 2


def test_vertex_subspaces_built_once_read_only(monkeypatch):
    # tables of one (d, p, dtype) share one read-only copy of the subspace
    # arrays; a budget too small for a table fails before any is built
    monkeypatch.setattr(quiverrep, "_CACHE", {})
    quiverrep._vertex_subspaces.cache_clear()
    R = jordan_rep((2, 2, 1), 2)
    with pytest.raises(BudgetError) as cold:
        submodule_type_table(R, budget=3)
    assert quiverrep._vertex_subspaces.cache_info().currsize == 0
    dtype = _submodule_dtype((5,), 2)
    first = quiverrep._vertex_subspaces(5, 2, dtype)
    assert all(a is b for a, b in zip(first, quiverrep._vertex_subspaces(5, 2, dtype)))
    for a in first:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    assert submodule_type_table(R) == _submodule_table_brute(R)
    assert submodule_type_table(jordan_rep((3, 2), 2)) == _submodule_table_brute(jordan_rep((3, 2), 2))
    assert quiverrep._vertex_subspaces.cache_info().currsize == 1
    monkeypatch.setattr(quiverrep, "_CACHE", {})
    with pytest.raises(BudgetError) as warm:
        submodule_type_table(R, budget=3)
    assert str(warm.value) == str(cold.value) == (
        "submodule_type_table at dimension vector (5,), q=2 needs 374 subspace tuples, budget is 3"
    )


def test_hereditary_euler_identity():
    # weighted submodule counts recover q^(-<M,N>) exactly
    q = 2
    A2 = Quiver.a2()
    classes_by_dim = {}
    for total in range(5):
        for d in _dim_vectors(2, total):
            classes_by_dim[d] = enumerate_iso_classes(A2, q, d)
    for dm in classes_by_dim:
        for dn in classes_by_dim:
            if sum(dm) + sum(dn) > 4:
                continue
            dr = tuple(a + b for a, b in zip(dm, dn))
            if dr not in classes_by_dim:
                continue
            for mlab, mrep, _ in classes_by_dim[dm]:
                for nlab, nrep, _ in classes_by_dim[dn]:
                    am = aut_count(mrep)
                    an = aut_count(nrep)
                    acc = Fraction(0)
                    for rlab, rrep, _ in classes_by_dim[dr]:
                        g = count_submodules(rrep, mlab, nlab)
                        if g:
                            acc += Fraction(g * am * an, aut_count(rrep))
                    expect = Fraction(1, q ** euler_form_add(A2, dm, dn)) \
                        if euler_form_add(A2, dm, dn) >= 0 \
                        else Fraction(q ** (-euler_form_add(A2, dm, dn)))
                    assert acc == expect, (mlab, nlab)


def test_budget_errors():
    with pytest.raises(BudgetError):
        enumerate_iso_classes(Quiver.kronecker(), 2, (3, 3), budget=100)
    with pytest.raises(BudgetError):
        aut_count(jordan_rep((1, 1, 1, 1, 1), 2), budget=100)
    with pytest.raises(BudgetError):
        submodule_type_table(jordan_rep((2, 2, 1), 2), budget=3)


def _chain_rep_ref(Q, q, start, length):
    """Reference chain builder: slot ids per vertex, then one matrix per
    arrow sending slot c to slot c+1."""
    n = Q.n
    slots = [(start + c) % n for c in range(length)]
    dims = [0] * n
    index = [[] for _ in range(n)]
    for sid, v in enumerate(slots):
        index[v].append(sid)
        dims[v] += 1
    pos_in_vertex = {}
    for v in range(n):
        for k, sid in enumerate(index[v]):
            pos_in_vertex[sid] = k
    mats = []
    for (s, t) in Q.effective_arrows():
        m = [[0] * dims[s] for _ in range(dims[t])]
        for sid, v in enumerate(slots):
            if v == s and sid + 1 < length and slots[sid + 1] == t:
                m[pos_in_vertex[sid + 1]][pos_in_vertex[sid]] = 1 % q
        mats.append(tuple(tuple(r) for r in m))
    return QuiverRep(Q, q, tuple(dims), tuple(mats))


def _chain_sum_ref(Q, q, label):
    """Reference direct sum of a tuple-of-partitions label's chains, folded
    one chain at a time."""
    out = zero_rep(Q, q)
    for start, la in enumerate(label):
        for part in la:
            out = direct_sum(out, _chain_rep_ref(Q, q, start, part))
    return out


def _jordan_rep_ref(la, q):
    """Reference Jordan matrix: ones on the subdiagonal of each block."""
    n = sum(la)
    mat = [[0] * n for _ in range(n)]
    off = 0
    for part in la:
        for i in range(part - 1):
            mat[off + i + 1][off + i] = 1
        off += part
    return QuiverRep(Quiver.jordan_quiver(), q, (n,), (tuple(tuple(r) for r in mat),))


def test_chain_builder_matches_direct_sum_fold():
    # the one-pass builder lays each vertex's basis out chain by chain, so
    # its matrices are those of the fold, on every single cycle
    J = Quiver.jordan_quiver()
    for q in (2, 3):
        for n in range(6):
            for la in all_partitions(n):
                want = _jordan_rep_ref(la, q)
                assert _chain_sum_ref(J, q, (la,)) == want
                assert rep_from_label(J, q, la) == want
                assert jordan_rep(la, q) == want
        for k in range(1, 6):
            assert rep_from_label(J, q, (k,)) == _chain_rep_ref(J, q, 0, k)
        for nq in (2, 3):
            Q = Quiver.cyclic(nq)
            for total in range(6):
                for d in _dim_vectors(nq, total):
                    for label in cyclic_labels_for_dim(Q, d):
                        assert rep_from_label(Q, q, label) == _chain_sum_ref(Q, q, label)
            for start in range(nq):
                for k in range(6):
                    label = tuple((k,) if v == start else () for v in range(nq))
                    assert rep_from_label(Q, q, label) == _chain_rep_ref(Q, q, start, k)


def test_non_nilpotent_cycles_name_the_layer():
    # the rank classifier names its layer, dimension vector and q when the
    # path maps are not nilpotent, on the loop and on a longer cycle
    loop = _unvalidated_rep(Quiver.jordan_quiver(), 2, (1,), (((1,),),))
    with pytest.raises(ConsistencyError, match=r"classify_rep at dimension vector \(1,\), q=2: .*not nilpotent"):
        classify_rep(loop)
    two_cycle = _unvalidated_rep(Quiver.cyclic(2), 2, (1, 1), (((1,),), ((1,),)))
    with pytest.raises(ConsistencyError, match=r"classify_rep at dimension vector \(1, 1\), q=2"):
        classify_rep(two_cycle)


def test_chain_rep_shapes():
    C3 = Quiver.cyclic(3)
    r = rep_from_label(C3, 2, ((4,), (), ()))
    assert r.dims == (2, 1, 1)
    assert cyclic_type(r) == ((4,), (), ())
    r2 = rep_from_label(C3, 2, ((), (), (2,)))
    assert r2.dims == (1, 0, 1)
    assert cyclic_type(r2) == ((), (), (2,))


def test_quiver_derived_fields_are_fixed_and_invisible():
    for Q, arrows, cycle in (
        (Quiver.a2(), ((0, 1),), False),
        (Quiver.kronecker(), ((0, 1), (0, 1)), False),
        (Quiver.cyclic(3), ((0, 1), (1, 2), (2, 0)), True),
        # the Jordan loop is the cycle on one vertex
        (Quiver.jordan_quiver(), ((0, 0),), True),
    ):
        assert Q.effective_arrows() == arrows
        assert Q.is_single_cycle() is cycle
        # eq, hash and repr see only the three declared fields
        assert Q == Quiver(Q.vertices, Q.arrows, Q.nilpotent)
        assert hash(Q) == hash((Q.vertices, Q.arrows, Q.nilpotent))
        assert repr(Q) == (
            f"Quiver(vertices={Q.vertices!r}, arrows={Q.arrows!r}, "
            f"nilpotent={Q.nilpotent!r})"
        )
        assert Quiver.from_json(Q.to_json()) == Q
    assert Quiver.a2() != Quiver.kronecker()
    # a 3-cycle through the vertices out of declaration order is still one cycle
    assert Quiver(("a", "b", "c"), (("a", "c"), ("c", "b"), ("b", "a"))).is_single_cycle()


def _sample_reps():
    return (
        QuiverRep(Quiver.a2(), 3, (1, 2), (((1,), (2,)),)),
        QuiverRep(Quiver.kronecker(), 2, (1, 1), (((1,),), ((0,),))),
        rep_from_label(Quiver.cyclic(3), 2, ((4,), (), ())),
        jordan_rep((2, 1), 3),
        zero_rep(Quiver.a2(), 5),
    )


def test_quiver_rep_fields_are_fixed_and_visible():
    for R in _sample_reps():
        # eq, hash and repr see the four fields, like Quiver's three
        assert R == QuiverRep(R.quiver, R.q, R.dims, R.mats)
        assert hash(R) == hash((R.quiver, R.q, R.dims, R.mats))
        assert repr(R) == (
            f"QuiverRep(quiver={R.quiver!r}, q={R.q!r}, dims={R.dims!r}, "
            f"mats={R.mats!r})"
        )
        assert R != QuiverRep(R.quiver, 7, R.dims, R.mats)
        for name in ("quiver", "q", "dims", "mats", "extra"):
            with pytest.raises(AttributeError):
                setattr(R, name, None)
            with pytest.raises(AttributeError):
                delattr(R, name)
    Q = Quiver.a2()
    for name in ("vertices", "arrows", "nilpotent", "_effective_arrows", "_single_cycle"):
        with pytest.raises(AttributeError):
            setattr(Q, name, None)
        with pytest.raises(AttributeError):
            delattr(Q, name)
    assert Q.effective_arrows() == ((0, 1),)
    assert Q != "Quiver.a2()" and QuiverRep(Q, 2, (0, 0), ((),)) != Q


def test_quivers_and_reps_survive_copy_and_pickle():
    # a non-nilpotent loop from the internal constructor copies too: a copy
    # does not re-run the checks its original skipped
    loop = _unvalidated_rep(Quiver.jordan_quiver(), 2, (1,), (((1,),),))
    quivers = (Quiver.a2(), Quiver.kronecker(), Quiver.cyclic(3), Quiver.jordan_quiver())
    for obj in quivers + _sample_reps() + (loop,):
        for dup in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            c = dup(obj)
            assert type(c) is type(obj) and c == obj and hash(c) == hash(obj)
            assert repr(c) == repr(obj)
            Q, cQ = (obj, c) if isinstance(obj, Quiver) else (obj.quiver, c.quiver)
            assert cQ.effective_arrows() == Q.effective_arrows()
            assert cQ.is_single_cycle() is Q.is_single_cycle()
            assert cQ.jordan is Q.jordan


def test_list_inputs_give_the_tuple_built_objects(monkeypatch):
    # lists are stored as tuples, so list-built quivers and reps are equal
    # to, hash like, and classify like the tuple-built ones
    monkeypatch.setattr(quiverrep, "_CACHE", {})
    A2 = Quiver(["1", "2"], [["1", "2"]])
    assert A2 == Quiver.a2() and hash(A2) == hash(Quiver.a2())
    assert A2.vertices == ("1", "2") and A2.arrows == (("1", "2"),)
    R = QuiverRep(A2, 2, [1, 1], [[[1]]])
    assert R == QuiverRep(Quiver.a2(), 2, (1, 1), (((1,),),))
    assert R.dims == (1, 1) and R.mats == (((1,),),)
    assert classify_rep(R) == classify_rep(QuiverRep(Quiver.a2(), 2, (1, 1), (((1,),),)))
    assert enumerate_iso_classes(A2, 2, (1, 1)) == enumerate_iso_classes(Quiver.a2(), 2, (1, 1))
    assert submodule_type_table(R) == submodule_type_table(
        QuiverRep(Quiver.a2(), 2, (1, 1), (((1,),),))
    )
    J = Quiver(["1"], [["1", "1"]], nilpotent=True)
    ref = jordan_rep((2, 1), 3)
    N = QuiverRep(J, 3, [3], [[list(row) for row in m] for m in ref.mats])
    assert N == ref
    assert classify_rep(N) == (2, 1)


def test_budget_errors_ignore_warm_caches(monkeypatch):
    # a result computed under a large budget must not satisfy a call whose
    # budget is too small, and the error must read the same cold and warm:
    # the failure may not depend on what ran before
    monkeypatch.setattr(quiverrep, "_CACHE", {})
    J = Quiver.jordan_quiver()
    # classifying a Kronecker (2,2) rep enumerates all 2^8 points at q=2
    kron = QuiverRep(Quiver.kronecker(), 2, (2, 2), (((1, 0), (0, 1)), ((0, 1), (0, 0))))
    calls = [
        lambda budget: aut_count(jordan_rep((1, 1, 1), 3), budget=budget),
        lambda budget: enumerate_iso_classes(J, 2, 3, force_generic=True, budget=budget),
        lambda budget: submodule_type_table(jordan_rep((2, 2, 1), 2), budget=budget),
        lambda budget: classify_rep(kron, budget=budget),
    ]
    cold = []
    for call in calls:
        with pytest.raises(BudgetError) as err:
            call(10)
        cold.append(str(err.value))
    for call in calls:
        call(3 ** 16)
    for call, message in zip(calls, cold):
        with pytest.raises(BudgetError) as err:
            call(10)
        assert str(err.value) == message
    assert aut_count(jordan_rep((1, 1, 1), 3)) == int(aut_poly((1, 1, 1)).evaluate(3))
    # the automorphism scan visits one point per F_q^x line, but its budget
    # still counts all q^dim End of them
    assert cold[0] == "aut_count at dimension vector (3,), q=3 needs 19683 points, budget is 10"
    # classify_rep needs exactly what enumerating its dimension vector needs
    assert cold[3] == "classify_rep at dimension vector (2, 2), q=2 needs 256 points, budget is 10"
    with pytest.raises(BudgetError, match="needs 256 points"):
        enumerate_iso_classes(Quiver.kronecker(), 2, (2, 2), budget=10)


def _a2_rank1(a, c, q):
    return QuiverRep(Quiver.a2(), q, (1, 2), (((a,), (c,)),))


@pytest.mark.parametrize("q", [181, 251])
def test_aut_count_large_q_exact(q):
    # every rank-1 map F_q -> F_q^2 has Aut of order (q-1)^2 q; past
    # q ~ 107 sums of basis products leave int16 (the map (90,178) at
    # q=181 once counted 5864441)
    for a, c in ((90, 178), (q - 1, q - 2)):
        assert aut_count(_a2_rank1(a, c, q), budget=3 ** 16) == (q - 1) ** 2 * q


@pytest.mark.parametrize("q", [181, 251])
def test_is_isomorphic_large_q(q):
    # equal arrow ranks, so each pair reaches the endomorphism scan
    assert is_isomorphic(_a2_rank1(90, 178, q), _a2_rank1(q - 1, q - 2, q), budget=3 ** 16)
    assert is_isomorphic(_a2_rank1(0, 1, q), _a2_rank1(q - 3, 0, q), budget=3 ** 16)
    K = Quiver.kronecker()
    spread = QuiverRep(K, q, (1, 2), (((1,), (0,)), ((0,), (1,))))
    parallel = QuiverRep(K, q, (1, 2), (((90,), (178,)), ((q - 90,), (q - 178,))))
    assert not is_isomorphic(spread, parallel, budget=3 ** 16)
    assert not is_isomorphic(parallel, spread, budget=3 ** 16)


@functools.cache
def _signed_perms(n):
    return [
        (perm, -1 if sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n)) % 2 else 1)
        for perm in itertools.permutations(range(n))
    ]


def _leibniz_det(m):
    total = 0
    for perm, sign in _signed_perms(len(m)):
        term = sign
        for i, c in enumerate(perm):
            term *= m[i][c]
        total += term
    return total


# a 0/1 matrix of the largest determinant, _MAX_01_DET[n], for n = 1..8
# (rows as bit strings)
_MAX_01_DET_BLOCKS = {
    1: ["1"],
    2: ["10", "11"],
    3: ["110", "011", "101"],
    4: ["0011", "0110", "1101", "1010"],
    5: ["11010", "01110", "00011", "11101", "10110"],
    6: ["011010", "110100", "111001", "101100", "000111", "100010"],
    7: ["1011100", "1110010", "1101001", "1000111", "0011011", "0110101", "0101110"],
    8: ["10101011", "01101110", "11001101", "10010110", "01100111", "11110000", "00111101", "01011011"],
}


@pytest.mark.parametrize("p", [3, 20011, 1000003])
def test_batch_dets_match_leibniz(p):
    # p=3 reduces once, at the end, in int16 or int32; at 20011 levels 5
    # and 7, and at 1000003 every level from the third on, would leave
    # int64, so the level before each is reduced first
    rng = random.Random(p)
    e = 2 * (p - 1)
    for n in range(1, 9):
        mats = [
            [[rng.randint(0, e) for _ in range(n)] for _ in range(n)]
            for _ in range(20 if n <= 6 else 5)
        ]
        # e off the diagonal: determinant (-1)^(n-1) (n-1) e^n
        mats.append([[0 if i == j else e for j in range(n)] for i in range(n)])
        # a 0/e block that reaches the bound of the unreduced levels
        peak = [[e * int(x) for x in row] for row in _MAX_01_DET_BLOCKS[n]]
        assert _leibniz_det(peak) == quiverrep._MAX_01_DET[n] * e ** n
        mats.append(peak)
        worst = _det_worst(n, p)
        if not any(reduce for reduce, _, _ in quiverrep._det_plan(n, p)):
            # unreduced, the bound is what the block reaches: it is tight
            assert worst == quiverrep._MAX_01_DET[n] * e ** n
        dtype = next(dt for dt in (np.int16, np.int32, np.int64) if worst <= np.iinfo(dt).max)
        cols = np.array([[x for row in m for x in row] for m in mats], dtype=dtype).T
        got = _batch_dets_mod(cols, n, p).tolist()
        assert got == [_leibniz_det(m) % p for m in mats], n


def test_max_01_determinants():
    # exhaustively for n <= 4 (OEIS A003432 beyond), and the 4x4 bound at
    # p=5, 3 * 8^4 = 12288, keeps the scan in int16
    for n in range(1, 5):
        mats = np.array(list(itertools.product((0, 1), repeat=n * n)), dtype=np.float64).reshape(-1, n, n)
        assert round(np.abs(np.linalg.det(mats)).max()) == quiverrep._MAX_01_DET[n]
    assert _det_worst(4, 5) == 12288


@pytest.mark.parametrize("la", [(4, 3), (3, 3, 1), (4, 4)])
def test_aut_count_past_six_dimensional_blocks(la):
    assert aut_count(jordan_rep(la, 2)) == int(aut_poly(la).evaluate(2))


def test_is_isomorphic_on_seven_dimensional_blocks():
    M = jordan_rep((4, 3), 2)
    assert is_isomorphic(M, _random_conjugate(M, random.Random(7)))
    # the same nilpotent rank, so the pair reaches the scan
    assert not is_isomorphic(M, jordan_rep((5, 2), 2))


def test_blocks_past_eight_are_refused():
    with pytest.raises(BudgetError, match=r"^aut_count at dimension vector \(9,\), q=2: a 9x9 vertex block"):
        aut_count(jordan_rep((9,), 2))
    # the same nilpotent rank, so the pair would reach the scan
    with pytest.raises(BudgetError, match=r"^is_isomorphic at dimension vector \(9,\), q=2: a 9x9 vertex block"):
        is_isomorphic(jordan_rep((5, 4), 2), jordan_rep((6, 3), 2))


def test_kernel_int64_bounds_raise():
    # past these primes a kernel's intermediate sums would leave int64; the
    # error names the layer, the dimension vector and q
    p = 4294967311  # the least prime above 2^32: (p-1)^2 > 2^63
    with pytest.raises(BudgetError, match=r"aut_count at dimension vector \(1, 0\), q=4294967311"):
        aut_count(simple_rep(Quiver.a2(), p, 0), budget=p)
    with pytest.raises(BudgetError, match=r"enumerate_iso_classes at dimension vector \(1, 1\), q=4294967311"):
        enumerate_iso_classes(Quiver.a2(), p, (1, 1), budget=p)


def test_int_dtype_is_the_narrowest_that_holds_the_bound():
    pick = quiverrep._int_dtype
    assert pick("layer", 32767, "sums", (1,), 2) is np.int16
    assert pick("layer", 32768, "sums", (1,), 2) is np.int32
    assert pick("layer", 2 ** 31, "sums", (1,), 2) is np.int64
    assert pick("layer", 2 ** 63 - 1, "sums", (1,), 2) is np.int64
    with pytest.raises(
        BudgetError,
        match=r"^layer at dimension vector \(1,\), q=2: sums can reach 9223372036854775808, "
        r"past the int64 range of the numpy kernel$",
    ):
        pick("layer", 2 ** 63, "sums", (1,), 2)


def test_enumerate_points_keeps_codes_only_where_a_filter_drops_points():
    # no nilpotency filter applies, so every tuple is a point and no code
    # is kept: an unflagged quiver, an acyclic flagged one, and d = 0
    acyclic = Quiver(("1", "2"), (("1", "2"),), nilpotent=True)
    for Q, d in ((Quiver.kronecker(), (2, 2)), (acyclic, (2, 2)), (Quiver.cyclic(3), (0, 0, 0))):
        assert _enumerate_points(Q, 2, d, 2 ** 24) is None
    # the block-power test (a single cycle) and the per-point test (a cycle
    # with a tail) keep the nilpotent tuples' base-q codes, increasing
    for Q, d, count in ((Quiver.cyclic(3), (1, 1, 1), 7), (_NILPOTENT_TAIL, (2, 1, 1), 20)):
        want = []
        for M in _all_reps(Q, 2, d):
            code = 0
            for x in itertools.chain.from_iterable(itertools.chain.from_iterable(M.mats)):
                code = code * 2 + x
            want.append(code)
        assert len(want) == count
        assert _enumerate_points(Q, 2, d, 2 ** 24).tolist() == want
    # past q = 256 a digit outgrows a byte: A2 at (1,1), q=257, has the
    # zero map and one orbit of the 256 nonzero ones
    classes = enumerate_iso_classes(Quiver.a2(), 257, (1, 1))
    assert [size for *_, size in classes] == [1, 256]
    for label, rep, _ in classes:
        assert classify_rep(rep) == label


def test_generic_jordan_in_sub_chunks_matches_closed_form(monkeypatch):
    # 3^9 candidate 3x3 matrices tested for nilpotency 11 codes at a time,
    # and 3^6 nilpotent points imaged 11 at a time: no block size divides
    # its point count (test_enumerate_jordan_generic_crosscheck runs the
    # same case at the default sizes)
    monkeypatch.setattr(quiverrep, "_SUBCHUNK", 100)
    monkeypatch.setattr(quiverrep, "_CACHE", {})
    J = Quiver.jordan_quiver()
    generic = enumerate_iso_classes(J, 3, 3, force_generic=True)
    closed = enumerate_iso_classes(J, 3, 3)
    assert sorted((classify_rep(rep), size) for _, rep, size in generic) == sorted(
        (lab, size) for lab, _, size in closed
    )
    assert sum(size for *_, size in generic) == 3 ** 6


def test_unfiltered_enumeration_keeps_no_codes(monkeypatch):
    # every Kronecker tuple is a point, so a point's code is its row; a
    # filtered (nilpotent) enumeration keeps its codes, increasing
    monkeypatch.setattr(quiverrep, "_CACHE", {})
    K = Quiver.kronecker()
    classes, codes, owner = quiverrep._iso_classes(K, 2, (2, 2), None)
    assert codes is None and owner.dtype == np.int16 and len(owner) == 2 ** 8
    assert np.bincount(owner).tolist() == [size for *_, size in classes]
    for label, rep, _ in classes:
        assert classify_rep(rep) == label
    # a code past the last point (entry 2 at q=2) is refused, not wrapped
    bad = _unvalidated_rep(K, 2, (1, 1), (((2,),), ((0,),)))
    with pytest.raises(ConsistencyError, match="not among the enumerated points"):
        classify_rep(bad)
    _, codes, owner = quiverrep._iso_classes(Quiver.jordan_quiver(), 2, (3,), None, force_generic=True)
    assert codes.dtype == np.int16 and len(codes) == len(owner) == 2 ** 6
    assert (np.diff(codes) > 0).all()


def test_orbit_enumeration_working_set_is_bounded():
    # loop(4) at q=2 scans 2^16 candidate matrices for 2^12 nilpotent
    # points: digits expanded one sub-chunk of codes at a time peak near
    # 0.6 MB, where int64 arrays over every candidate at once would take 40 MB
    J = Quiver.jordan_quiver()
    quiverrep._orbit_seeds(J, 2, (2,), 2 ** 24)
    tracemalloc.start()
    try:
        quiverrep._orbit_seeds(J, 2, (4,), 2 ** 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_orbit_labelling_keeps_one_permutation_per_generator():
    # Kronecker (3, 3) at q=2 has 2^18 points and 1 MB per int32 generator
    # permutation. Two generators per vertex at q=2 (1 + E_01 and the
    # shift), with digits expanded one block at a time, peak near 10 MB; a
    # kept uint8 digit array (4.5 MB) passes 14 MB, and one permutation per
    # elementary transvection, six per vertex, 18 MB
    K = Quiver.kronecker()
    quiverrep._orbit_seeds(K, 2, (1, 1), 2 ** 24)
    tracemalloc.start()
    try:
        quiverrep._orbit_seeds(K, 2, (3, 3), 2 ** 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def _generator_matrix(Q, d, vertex, g, g_inv, q):
    """Dense reference for a generator's action on flattened points: x_h
    -> g x_h on arrows into the vertex and x_h g^-1 on arrows out of it,
    i.e. the block kron(left, right^T) on each touched arrow's row-major
    slots of an nslots x nslots matrix."""
    shapes = quiverrep._arrow_shapes(Q, d)
    nslots = sum(r * c for r, c in shapes)
    out = np.eye(nslots, dtype=np.int64)
    off = 0
    for (s, t), (r, c) in zip(Q.effective_arrows(), shapes):
        size = r * c
        if size and vertex in (s, t):
            left = np.array(g if t == vertex else np.eye(r), dtype=np.int64)
            right = np.array(g_inv if s == vertex else np.eye(c), dtype=np.int64)
            out[off : off + size, off : off + size] = np.kron(left, right.T) % q
        off += size
    return out


# a loop and an arrow out of its vertex
_LOOP_ARROW = Quiver(("0", "1"), (("0", "0"), ("0", "1")))


def test_slot_maps_match_dense_generators():
    # each generator's slot map images every tuple (every code, not only
    # the nilpotent ones) as its dense matrix does; the generators whose
    # dense matrix is the identity are the ones left out
    dropped = 0
    for Q in (Quiver.a2(), Quiver.kronecker(), Quiver.jordan_quiver(), Quiver.cyclic(3), _LOOP_ARROW):
        for q in (2, 3, 5):
            for d in itertools.product(range(4), repeat=Q.n):
                nslots = sum(r * c for r, c in quiverrep._arrow_shapes(Q, d))
                if q ** nslots > 4096:
                    continue
                dense = [
                    _generator_matrix(Q, d, v, g, g_inv, q)
                    for v in range(Q.n)
                    for g, g_inv in _gl_generators(d[v], q)
                ]
                moving = [act for act in dense if not (act == np.eye(nslots, dtype=np.int64)).all()]
                dropped += len(dense) - len(moving)
                slot_maps = quiverrep._slot_maps(Q, d, q, np.int16)
                assert len(slot_maps) == len(moving), (Q, q, d)
                codes = np.arange(q ** nslots)
                digits = quiverrep._coeff_digit_block(codes, nslots, q, np.int64)
                weights = np.array([q ** k for k in range(nslots - 1, -1, -1)], dtype=np.int64)
                slot_major = np.ascontiguousarray(digits.T.astype(np.int16))
                for act, slot_map in zip(moving, slot_maps):
                    moved, sources, coeffs = slot_map
                    assert 1 <= sources.shape[1] <= (4 if any(s == t for s, t in Q.effective_arrows()) else 2)
                    assert moved.tolist() == np.flatnonzero((act != np.eye(nslots)).any(axis=1)).tolist()
                    want = ((digits @ act.T) % q) @ weights
                    got = quiverrep._slot_images(codes, slot_major, slot_map, weights, q)
                    assert got.tolist() == want.tolist(), (Q, q, d)
    # among them the dilation at a one-dimensional vertex whose only arrow
    # is a loop (Jordan (1,), q=3), and every generator at a vertex none of
    # whose arrows has a nonzero end (A2 at (2, 0))
    assert quiverrep._slot_maps(Quiver.jordan_quiver(), (1,), 3, np.int16) == []
    assert quiverrep._slot_maps(Quiver.a2(), (2, 0), 3, np.int16) == []
    assert dropped > 0


def test_orbit_labelling_images_only_moving_generators(monkeypatch):
    # no identity permutation is built: every generator imaged moves a
    # slot, and where none does each point is its own orbit
    images = quiverrep._slot_images
    seen = []

    def recorded(block, digits, slot_map, weights, q):
        seen.append(len(slot_map[0]))
        return images(block, digits, slot_map, weights, q)

    monkeypatch.setattr(quiverrep, "_slot_images", recorded)
    codes, seeds, sizes, owner = quiverrep._orbit_seeds(_LOOP, 3, (1,), 2 ** 24)
    assert seen == [] and seeds.tolist() == [0, 1, 2] and sizes.tolist() == [1, 1, 1]
    # at (1, 1), q=3, the loop's vertex has one generator, the dilation,
    # which moves only the arrow's slot; the far vertex's dilation too
    quiverrep._orbit_seeds(_LOOP_ARROW, 3, (1, 1), 2 ** 24)
    assert seen == [1, 1]
    seen.clear()
    quiverrep._orbit_seeds(Quiver.kronecker(), 3, (2, 2), 2 ** 24)
    assert len(seen) == 6 and min(seen) > 0


def _digits_ref(codes, nslots, p):
    """Reference digit expansion: one Python divmod per digit and code."""
    out = []
    for code in codes:
        row = []
        for _ in range(nslots):
            code, digit = divmod(code, p)
            row.append(digit)
        out.append(row[::-1])
    return out


@pytest.mark.parametrize("p, width", [(2, 8), (3, 5), (5, 3), (127, 1), (257, 1)])
def test_coeff_digit_block_matches_per_digit(p, width):
    # nslots 0, below the table width, equal to it and not a multiple of
    # it; codes in int16, int32 and int64, contiguous or filtered
    # (strided); digits written as int16 and int64
    rng = random.Random(p)
    for nslots in sorted({0, 1, max(1, width - 1), width, width + 1, 2 * width + 1}):
        space = p ** nslots
        picks = sorted({0, space - 1} | {rng.randrange(space) for _ in range(300)})
        for code_dtype in (np.int16, np.int32, np.int64):
            if space - 1 > np.iinfo(code_dtype).max:
                continue
            codes = np.array(picks, dtype=code_dtype)
            want = _digits_ref(picks, nslots, p)
            for dtype in (np.int16, np.int64):
                got = quiverrep._coeff_digit_block(codes, nslots, p, dtype)
                assert got.shape == (len(picks), nslots) and got.dtype == dtype
                assert got.tolist() == want, (nslots, code_dtype, dtype)
                for view in (codes[::3], codes[codes % 2 == 1]):
                    want_view = _digits_ref(view.tolist(), nslots, p)
                    assert quiverrep._coeff_digit_block(view, nslots, p, dtype).tolist() == want_view


def test_orbit_seeds_refuse_a_point_set_not_closed_under_the_group(monkeypatch):
    # drop one non-seed point of Jordan (3,) at q=2: some generator maps a
    # point of its orbit onto it, outside the enumerated points
    J = Quiver.jordan_quiver()
    monkeypatch.setattr(quiverrep, "_CACHE", {})
    codes, seeds, _, _ = quiverrep._orbit_seeds(J, 2, (3,), 2 ** 24)
    gone = next(i for i in range(len(codes) - 1, -1, -1) if i not in set(seeds.tolist()))
    kept = np.delete(codes, gone)
    monkeypatch.setattr(quiverrep, "_enumerate_points", lambda *args: kept)
    with pytest.raises(
        ConsistencyError,
        match=r"^enumerate_iso_classes at dimension vector \(3,\), q=2: a generator maps an "
        r"enumerated point outside the point set$",
    ):
        enumerate_iso_classes(J, 2, 3, force_generic=True)


def test_block_power_filter_reduces_only_where_a_squaring_could_overflow(monkeypatch):
    # the powers are reduced mod q (_mod) before a squaring only where it
    # could pass the work dtype, and once at the end. cyclic(2) at (2, 1)
    # and cyclic(3) at (1, 1, 1), q=7: D = 3, int16 work (it holds
    # 3 * 6^2), entries 6 -> 108 after one squaring, and 3 * 108^2 = 34992
    # would pass 32767, so the second squaring reduces first: two
    # reductions in the one chunk. loop(4) at q=2 (16 chunks) reduces once
    # a chunk, at the end
    mod = quiverrep._mod
    calls = []

    def counted(x, m):
        calls.append(m)
        return mod(x, m)

    monkeypatch.setattr(quiverrep, "_mod", counted)
    for Q, q, d, reductions in (
        (Quiver.cyclic(2), 7, (2, 1), 2),
        (Quiver.cyclic(3), 7, (1, 1, 1), 2),
        (Quiver.jordan_quiver(), 2, (4,), 16),
    ):
        calls.clear()
        got = _enumerate_points(Q, q, d, 2 ** 24).tolist()
        assert calls == [q] * reductions, (Q, d)
        if q == 7:
            want = []
            for M in _all_reps(Q, q, d):
                code = 0
                for x in itertools.chain.from_iterable(itertools.chain.from_iterable(M.mats)):
                    code = code * q + x
                want.append(code)
            assert got == want


def _brute_invertible(basis, dims, q):
    """Reference for the automorphism / isomorphism scan: every coefficient
    vector in itertools.product order, each vertex block summed and tested
    with a Python-int Leibniz determinant."""
    count = 0
    for coeffs in itertools.product(range(q), repeat=len(basis)):
        count += all(
            _leibniz_det(
                [
                    [sum(c * b[v][i][j] for c, b in zip(coeffs, basis)) % q for j in range(n)]
                    for i in range(n)
                ]
            ) % q
            for v, n in enumerate(dims)
            if n
        )
    return count


def _random_gl(n, q, rng):
    while True:
        g = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
        if _leibniz_det(g) % q:
            return g


def _random_conjugate(M, rng):
    """g . M for a random g in GL_d: each arrow s -> t becomes g_t x g_s^-1."""
    q = M.q
    g = [_random_gl(n, q, rng) for n in M.dims]
    g_inv = [_invert_mat(x, q) if x else () for x in g]
    mats = []
    for (s, t), x in zip(M.quiver.effective_arrows(), M.mats):
        left = [
            [sum(g[t][i][k] * x[k][j] for k in range(M.dims[t])) % q for j in range(M.dims[s])]
            for i in range(M.dims[t])
        ]
        mats.append(
            tuple(
                tuple(
                    sum(left[i][k] * g_inv[s][k][j] for k in range(M.dims[s])) % q
                    for j in range(M.dims[s])
                )
                for i in range(M.dims[t])
            )
        )
    return QuiverRep(M.quiver, q, M.dims, tuple(mats))


_SCAN_ORACLE_DIMS = {
    "a2": (Quiver.a2(), [(1, 1), (1, 2), (2, 1), (2, 2)]),
    "kronecker": (Quiver.kronecker(), [(1, 1), (1, 2), (2, 1)]),
    "loop": (Quiver.jordan_quiver(), [(2,), (3,), (4,)]),
    "cyclic3": (Quiver.cyclic(3), [(1, 1, 0), (1, 1, 1), (2, 1, 1)]),
}


@pytest.mark.parametrize("name", sorted(_SCAN_ORACLE_DIMS))
def test_scan_matches_brute_force(monkeypatch, name):
    # seeded random conjugates of class representatives, paired with a
    # conjugate of the same class or of a random one; every pair whose
    # Hom space the brute force can afford (q^dim <= 1000) is checked at
    # three block sizes: 1 (every lead peeled, one point a block), 8 (peeled
    # leads over many blocks, then a one-block tail) and the default (one
    # block, nothing peeled)
    Q, dims = _SCAN_ORACLE_DIMS[name]
    rng = random.Random(name)
    cases = []
    for q in (2, 3, 5, 7):
        for d in dims:
            classes = enumerate_iso_classes(Q, q, d)
            for _ in range(3):
                i = rng.randrange(len(classes))
                j = i if rng.random() < 0.5 else rng.randrange(len(classes))
                M = _random_conjugate(classes[i][1], rng)
                N = _random_conjugate(classes[j][1], rng)
                basis = quiverrep.hom_basis(M, N)
                if q ** len(basis) <= 1000:
                    cases.append((M, N, i == j, basis, _brute_invertible(basis, M.dims, q)))
    assert len(cases) >= 20
    assert {iso for *_, iso, _, _ in cases} == {True, False}
    for chunk in (1, 8, quiverrep._CHUNK):
        monkeypatch.setattr(quiverrep, "_CHUNK", chunk)
        monkeypatch.setattr(quiverrep, "_CACHE", {})
        for M, N, iso, basis, want in cases:
            got = quiverrep._count_vertexwise_invertible(basis, M.dims, M.q, 3 ** 16, "test")
            assert got == want, (M, N, chunk)
            assert is_isomorphic(M, N) is iso is (want > 0), (M, N, chunk)
            if iso:
                assert aut_count(M) == _brute_invertible(quiverrep.hom_basis(M, M), M.dims, M.q)


def test_scan_peels_leads_while_the_rest_spans_blocks(monkeypatch):
    # one scan of basis[j] + span(basis[j+1:]) per peeled lead j, while
    # span(basis[j:]) is larger than one block, then span(basis[J:]) whole;
    # a scan that fits one block (every q=2 scan here) peels nothing
    monkeypatch.setattr(quiverrep, "_CACHE", {})
    scans = []
    scan = quiverrep._scan_combinations

    def spy(vertices, nb, first, offset, p, find_one):
        scans.append((first, offset))
        return scan(vertices, nb, first, offset, p, find_one)

    monkeypatch.setattr(quiverrep, "_scan_combinations", spy)
    for M, want, expected in (
        (_a2_rank1(90, 178, 251), 250 ** 2 * 251, [(1, 0), (1, None)]),
        (jordan_rep((1, 1, 1), 5), gl_order(3, 5), [(1, 0), (2, 1), (2, None)]),
        (jordan_rep((1, 1, 1), 2), gl_order(3, 2), [(0, None)]),
        (jordan_rep((2, 1), 7), int(aut_poly((2, 1)).evaluate(7)), [(0, None)]),
    ):
        scans.clear()
        assert aut_count(M) == want
        assert scans == expected, M


def test_closed_form_division_error_names_the_class(monkeypatch):
    # a closed-form |Aut| that does not divide |GL_d| names the layer, the
    # dimension vector, the label and q
    monkeypatch.setattr(quiverrep, "_CACHE", {})
    monkeypatch.setattr(quiverrep._Chains, "end_dim", lambda self, Q, label: 5)
    with pytest.raises(ConsistencyError) as err:
        enumerate_iso_classes(Quiver.jordan_quiver(), 3, 1)
    assert str(err.value) == (
        "enumerate_iso_classes at dimension vector (1,), q=3: the closed-form |Aut| 162 "
        "of label (1,) does not divide |GL_d| = 2 (orbit-stabilizer division failed)"
    )


def _act(point, vertex, g, g_inv, eff, p):
    out = []
    for (s, t), m in zip(eff, point):
        if t == vertex:
            m = _matmul(g, m, p)
        if s == vertex:
            m = _matmul(m, g_inv, p)
        out.append(m)
    return tuple(out)


def _bfs_iso_classes(Q, q, d, nilpotent):
    """Reference orbit enumeration over Python tuples: points in
    lexicographic order, each unvisited point seeds an orbit grown by
    breadth-first search over the GL generators. Returns (label, size)."""
    eff = Q.effective_arrows()
    shapes = [(d[t], d[s]) for s, t in eff]
    points = []
    for flat in itertools.product(range(q), repeat=sum(r * c for r, c in shapes)):
        mats, off = [], 0
        for r, c in shapes:
            mats.append(tuple(tuple(flat[off + i * c : off + (i + 1) * c]) for i in range(r)))
            off += r * c
        point = tuple(mats)
        if nilpotent and not _unvalidated_rep(Q, q, d, point)._is_nilpotent():
            continue
        points.append(point)
    gens = [(v, g, g_inv) for v in range(Q.n) for g, g_inv in _gl_generators(d[v], q)]
    visited = set()
    out = []
    for seed in points:
        if seed in visited:
            continue
        visited.add(seed)
        frontier = [seed]
        size = 1
        while frontier:
            cur = frontier.pop()
            for v, g, g_inv in gens:
                nxt = _act(cur, v, g, g_inv, eff, q)
                if nxt not in visited:
                    visited.add(nxt)
                    frontier.append(nxt)
                    size += 1
        out.append(((d, seed), size))
    return out


@pytest.mark.parametrize(
    "Q, q, d",
    [
        (Quiver.kronecker(), 2, (2, 2)),
        (Quiver.kronecker(), 3, (2, 2)),
        (Quiver.kronecker(), 2, (2, 3)),
        (Quiver.a2(), 3, (2, 2)),
        (Quiver.jordan_quiver(), 3, (3,)),
    ],
)
def test_orbit_labelling_matches_bfs(Q, q, d):
    got = enumerate_iso_classes(Q, q, d, force_generic=True)
    assert [(label, size) for label, _, size in got] == _bfs_iso_classes(Q, q, d, Q.nilpotent)
    assert all(rep.mats == label[1] for label, rep, _ in got)


@pytest.mark.parametrize("n, p", [(1, 2), (1, 3), (2, 2), (2, 3), (2, 7), (3, 2), (3, 3), (4, 2)])
def test_gl_generators_generate_gl(n, p):
    # the orbit labelling and _bfs_iso_classes above read these generators:
    # at most three, each paired with its inverse, and their closure is all
    # of GL(n, p)
    gens = _gl_generators(n, p)
    one = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert len(gens) <= 3
    for g, g_inv in gens:
        assert _matmul(g, g_inv, p) == one == _matmul(g_inv, g, p)
    seen, frontier = {one}, [one]
    while frontier:
        x = frontier.pop()
        for g, _ in gens:
            y = _matmul(g, x, p)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    assert len(seen) == gl_order(n, p)
