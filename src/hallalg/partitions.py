"""Integer partitions: generation, statistics, dominance, automorphism orders.

A partition is a tuple of weakly decreasing positive ints, () for empty.
"""

from __future__ import annotations

from functools import lru_cache
from operator import ge
from typing import Dict, List, Tuple

from .exactnum import ConsistencyError, LaurentPoly

Partition = Tuple[int, ...]


def is_partition(parts) -> bool:
    try:
        parts = tuple(parts)
    except TypeError:
        return False
    if not all(isinstance(p, int) and p > 0 for p in parts):
        return False
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


# each partition all_partitions has returned, keyed by itself: a tuple equal
# to one of them (an int-valued float or a numpy int as a part compares
# equal too) is canonicalized by one lookup
_KNOWN: Dict[Partition, Partition] = {}


def as_partition(seq) -> Partition:
    if type(seq) is tuple:
        try:
            p = _KNOWN.get(seq)
        except TypeError:  # an unhashable part; int() below names it
            p = None
        if p is not None:
            return p
    p = tuple(map(int, seq))
    # the parts are ints now, so is_partition's checks reduce to these two
    if p and (p[-1] <= 0 or not all(map(ge, p, p[1:]))):
        raise ValueError(f"not a partition (need weakly decreasing positive parts): {seq!r}")
    return p


def weight(la: Partition) -> int:
    return sum(la)


@lru_cache(maxsize=None)
def all_partitions(n: int) -> Tuple[Partition, ...]:
    """All partitions of n, descending lex order, deterministic."""
    if n < 0:
        raise ValueError("partitions of negative integers do not exist")

    def gen(remaining: int, maxpart: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    out = tuple(gen(n, n))
    _KNOWN.update(zip(out, out))
    return out


def conjugate(la: Partition) -> Partition:
    if not la:
        return ()
    cols = []
    for i in range(1, la[0] + 1):
        cols.append(sum(1 for p in la if p >= i))
    return tuple(cols)


def nstat(la: Partition) -> int:
    """n(la) = sum (i-1) * la_i."""
    return sum(i * p for i, p in enumerate(la))


def multiplicities(la: Partition) -> Dict[int, int]:
    m: Dict[int, int] = {}
    for p in la:
        m[p] = m.get(p, 0) + 1
    return m


@lru_cache(maxsize=None)
def aut_poly(la: Partition) -> LaurentPoly:
    """Automorphism order of the module with type la, as a polynomial in t.

    a_la(t) = t^(|la| + 2 n(la)) * prod_i prod_{j=1..l_i} (1 - t^-j)
    where l_i is the multiplicity of i in la.
    """
    la = as_partition(la)
    out = LaurentPoly.one()
    for _, l in sorted(multiplicities(la).items()):
        for j in range(1, l + 1):
            out = out * LaurentPoly({0: 1, -j: -1})
    out = out.shift(weight(la) + 2 * nstat(la))
    if not out.is_polynomial():
        raise ConsistencyError(f"aut_poly({la}) must be an honest polynomial")
    return out


def transpose_dominance_leq(nu: Partition, la: Partition) -> bool:
    """nu <= la in the transpose dominance order used for triangularity.

    Defined by the weighted-multiplicity inequalities
        sum_j min(i,j) m_j >= sum_j min(i,j) l_j  for all i >= 1,
    where m, l are the part multiplicities of nu, la. Equivalent to the
    partial sums of conjugate(nu) dominating those of conjugate(la),
    i.e. the usual dominance order nu <= la.
    """
    nu, la = as_partition(nu), as_partition(la)
    if weight(nu) != weight(la):
        raise ValueError("transpose dominance compares partitions of equal weight")
    mn = multiplicities(nu)
    ml = multiplicities(la)
    top = max([0] + list(mn) + list(ml))
    ok = True
    for i in range(1, top + 1):
        wn = sum(min(i, j) * m for j, m in mn.items())
        wl = sum(min(i, j) * m for j, m in ml.items())
        if wn < wl:
            ok = False
            break
    # cross-check against the conjugate partial-sum form
    cn, cl = conjugate(nu), conjugate(la)
    k = max(len(cn), len(cl))
    sn = sl = 0
    ok2 = True
    for i in range(k):
        sn += cn[i] if i < len(cn) else 0
        sl += cl[i] if i < len(cl) else 0
        if sn < sl:
            ok2 = False
            break
    if ok != ok2:
        raise ConsistencyError(
            f"transpose dominance forms disagree on {nu} <= {la}: {ok} vs {ok2}"
        )
    return ok


def dominance_key(la: Partition) -> Tuple:
    """Total order key: degree, then a linearization of transpose dominance.

    Comparing negated partial sums of the conjugate lexicographically refines
    transpose dominance; the partial-sum vector already determines the
    partition, so the trailing lex component never decides between distinct
    comparable pairs, it is only kept for explicitness.
    """
    la = as_partition(la)
    n = weight(la)
    c = conjugate(la)
    sums = []
    acc = 0
    for i in range(n):
        acc += c[i] if i < len(c) else 0
        sums.append(-acc)
    return (n, tuple(sums), la)


def partitions_leq_weight(n: int) -> List[Partition]:
    """All partitions of weight 0..n, ordered by dominance_key."""
    out: List[Partition] = []
    for k in range(n + 1):
        out.extend(sorted(all_partitions(k), key=dominance_key))
    return out


def parse_partition(s: str) -> Partition:
    """Parse '[2,1]', '(2,1)' or '2,1'; '[]' and '()' give the empty partition."""
    text = s.strip()
    if (text.startswith("[") and text.endswith("]")) or (
        text.startswith("(") and text.endswith(")")
    ):
        text = text[1:-1]
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse partition from {s!r}") from exc
    return as_partition(parts)


def render_partition(la: Partition) -> str:
    return "[" + ",".join(str(p) for p in la) + "]"
