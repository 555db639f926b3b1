"""Partition layer: generation, conjugation, dominance, automorphism orders."""

import itertools
from fractions import Fraction

import pytest

import hallalg.partitions
from hallalg.exactnum import ConsistencyError, LaurentPoly
from hallalg.partitions import (
    all_partitions,
    as_partition,
    aut_poly,
    conjugate,
    dominance_key,
    is_partition,
    multiplicities,
    nstat,
    parse_partition,
    partitions_leq_weight,
    render_partition,
    transpose_dominance_leq,
    weight,
)

L = LaurentPoly


def test_validation():
    assert as_partition([3, 1, 1]) == (3, 1, 1)
    assert as_partition(()) == ()
    for bad in ([1, 2], [0], [-1], [2, "x"]):
        with pytest.raises(ValueError):
            as_partition(bad)
    assert not is_partition([1, 3])
    assert is_partition((5, 5, 2))


def test_as_partition_accepts_what_is_partition_accepts():
    # as_partition checks its int tuple directly; it must agree with
    # is_partition on that tuple, message included
    for n in range(5):
        for parts in itertools.product((-1, 0, 1, 2, 3), repeat=n):
            for seq in (parts, list(parts), [str(x) for x in parts], [x + 0.5 for x in parts]):
                ints = tuple(int(x) for x in seq)
                if is_partition(ints):
                    assert as_partition(seq) == ints
                else:
                    with pytest.raises(ValueError) as err:
                        as_partition(seq)
                    assert str(err.value) == (
                        f"not a partition (need weakly decreasing positive parts): {seq!r}"
                    )


def test_all_partitions_counts():
    # p(n) for n = 0..10
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, e in enumerate(expected):
        ps = all_partitions(n)
        assert len(ps) == e
        assert len(set(ps)) == e
        assert all(is_partition(p) and weight(p) == n for p in ps)
    assert all_partitions(4)[0] == (4,)
    assert all_partitions(4)[-1] == (1, 1, 1, 1)


def test_conjugate_involution():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    for n in range(8):
        for la in all_partitions(n):
            assert conjugate(conjugate(la)) == la
            assert weight(conjugate(la)) == n


def test_nstat_and_multiplicities():
    assert nstat((2, 1)) == 1
    assert nstat((1, 1, 1)) == 3
    assert nstat(()) == 0
    assert multiplicities((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}
    # n(la) = sum over columns of binom(col, 2)
    import math

    for n in range(8):
        for la in all_partitions(n):
            assert nstat(la) == sum(math.comb(c, 2) for c in conjugate(la))


def test_aut_poly_small_values():
    # worked automorphism orders for weight <= 3 types:
    # a_(1) = q - 1
    assert aut_poly((1,)) == L({1: 1, 0: -1})
    # a_(1,1) = (q^2-1)(q^2-q) = q^4 - q^3 - q^2 + q
    assert aut_poly((1, 1)) == L({4: 1, 3: -1, 2: -1, 1: 1})
    # a_(2) = q^2 - q
    assert aut_poly((2,)) == L({2: 1, 1: -1})
    # a_(2,1) = q^5 - 2q^4 + q^3
    assert aut_poly((2, 1)) == L({5: 1, 4: -2, 3: 1})


def test_aut_poly_general_linear_special_case():
    # type (1^n) is the full matrix algebra case: |GL_n(F_q)|
    for n in range(1, 5):
        for q in (2, 3, 5):
            expected = 1
            for i in range(n):
                expected *= q**n - q**i
            assert aut_poly((1,) * n).evaluate(q) == expected


def test_aut_poly_positive_at_prime_powers():
    for n in range(1, 6):
        for la in all_partitions(n):
            p = aut_poly(la)
            assert p.is_polynomial()
            for q in (2, 3, 4, 5):
                v = p.evaluate(q)
                assert v.denominator == 1 and v > 0


def test_transpose_dominance_basics():
    # weight 4 chain: (1111) <= (211) <= (22) <= (31) <= (4)
    chain = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    for i, a in enumerate(chain):
        for j, b in enumerate(chain):
            assert transpose_dominance_leq(a, b) == (i <= j)
    # weight 6 incomparable pair
    assert not transpose_dominance_leq((3, 1, 1, 1), (2, 2, 2))
    assert not transpose_dominance_leq((2, 2, 2), (3, 1, 1, 1))
    with pytest.raises(ValueError):
        transpose_dominance_leq((2,), (1,))


def test_dominance_key_refines_order():
    for n in range(8):
        ps = sorted(all_partitions(n), key=dominance_key)
        index = {p: i for i, p in enumerate(ps)}
        for a in ps:
            for b in ps:
                if a != b and transpose_dominance_leq(a, b):
                    assert index[a] < index[b], (a, b)


def test_partitions_leq_weight_ordering():
    ps = partitions_leq_weight(3)
    assert ps == [(), (1,), (1, 1), (2,), (1, 1, 1), (2, 1), (3,)]


def test_parse_render():
    assert parse_partition("[2,1]") == (2, 1)
    assert parse_partition("(1,1)") == (1, 1)
    assert parse_partition("3") == (3,)
    assert parse_partition("[]") == ()
    assert parse_partition("()") == ()
    with pytest.raises(ValueError):
        parse_partition("[1,2]")
    with pytest.raises(ValueError):
        parse_partition("[a]")
    for la in all_partitions(5):
        assert parse_partition(render_partition(la)) == la


def test_dominance_cross_check_raises_consistency_error(monkeypatch):
    # the two forms of transpose_dominance_leq must agree; with a broken
    # conjugate they do not, and that is reported even under python -O
    monkeypatch.setattr(hallalg.partitions, "conjugate", lambda la: tuple(la))
    with pytest.raises(ConsistencyError, match="disagree"):
        transpose_dominance_leq((1, 1), (2,))


def test_aut_poly_check_raises_consistency_error(monkeypatch):
    monkeypatch.setattr(LaurentPoly, "is_polynomial", lambda self: False)
    with pytest.raises(ConsistencyError):
        aut_poly.__wrapped__((2, 1))


def test_as_partition_gives_int_tuples_before_and_after_the_index(monkeypatch):
    # all_partitions indexes what it returns, and as_partition hands a tuple
    # equal to one of those the stored tuple; an equal tuple with float,
    # numpy or bool parts must still come back as a tuple of ints
    np = pytest.importorskip("numpy")
    cases = (
        ((2, 1.0), (2, 1)),
        ((np.int64(2), 1), (2, 1)),
        ([2, 1], (2, 1)),
        ((True,), (1,)),
    )
    bad_parts = ((1, 2), (0,), (2, -1), (2, 1.5, 0), [1.0, 2])

    def check():
        for seq, want in cases:
            got = as_partition(seq)
            assert got == want and type(got) is tuple
            assert all(type(p) is int for p in got), (seq, got)
        for seq in bad_parts:
            with pytest.raises(ValueError) as err:
                as_partition(seq)
            assert str(err.value) == (
                f"not a partition (need weakly decreasing positive parts): {seq!r}"
            )
        with pytest.raises(ValueError, match="invalid literal for int"):
            as_partition((2, "x"))
        with pytest.raises(TypeError):
            as_partition(([2], 1))

    monkeypatch.setattr(hallalg.partitions, "_KNOWN", {})
    all_partitions.cache_clear()
    check()
    stored = all_partitions(3)
    assert hallalg.partitions._KNOWN[(2, 1)] is stored[1]
    check()
    assert as_partition((2, 1.0)) is stored[1]
