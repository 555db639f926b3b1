"""Brute-force representation theory of quivers over prime fields.

Enumerates and classifies representations (including nilpotent
representations of cyclic quivers, the one-loop Jordan backend being the
cycle on one vertex), counts submodules, automorphisms, and Hom spaces.
All counts are exact integers. numpy serves four brute-force kernels: point enumeration, orbit
labelling, the automorphism / isomorphism scan, and the submodule stability
test with its sub / quotient matrices. Each checks, from q and the size,
that its fixed-width intermediates fit their dtype, and most take the
narrowest dtype that does (_int_dtype); the orbit enumeration holds a
point only as its base-q code, and none when every tuple is a point, and
expands digits one fixed-size block at a time, so its memory is what it
keeps (the codes, and one index permutation of the points per GL
generator, at most three per vertex), not its temporaries. The
submodule kernel, int16 at every q the suites use, switches to
Python-int arrays where int64 would not hold its products. One pass of it (submodule_type_tables) builds the
tables of every rep of one quiver, q and dimension vector, so numpy's
fixed cost per call is paid once per dimension vector rather than once
per rep, and classifies each distinct sub and quotient of the pass
once; submodule_type_table is the pass of one. numpy is imported on the
first call into one of these kernels (the module global `np` starts as a
stand-in), so importing this module, and every classical path, never
loads it. Nor does a dimension vector on which no arrow acts
(_no_arrow_acts): its one class is the zero tuple, and its submodule
tables are products of Gaussian binomials (_semisimple_tables).

Each quiver's isomorphism classes come from one kind, which _kind picks:
the chain kind (_Chains) on a nilpotent single cycle, whose labels, dim
End M and |Aut M| are closed forms in the chains, and the orbit kind
(_Orbits) on every other quiver. aut_count's exhaustive scan is
independent of both; it tests one endomorphism per F_q^x line, since a
nonzero multiple of an automorphism is one, and its budget still counts
all q^dim End M points. It and is_isomorphic take each vertex block's
determinant by one batched Laplace expansion along the rows
(_batch_dets_mod), and refuse a block past 8x8 with a BudgetError.
aut_count, enumerate_iso_classes and classify_rep keep their results
through one helper, _cached, which checks the budget on every call
against the count the cold call needed. submodule_type_tables keeps each
table in the same store, with the subspace tuples its cold build scanned,
and checks on every call those tuples, then the classify_rep need of the
table's rep, the largest of any sub or quotient it classified.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from .exactnum import BudgetError, ConsistencyError, is_prime
from .partitions import Partition, all_partitions, as_partition, dominance_key

Mat = Tuple[Tuple[int, ...], ...]

DEFAULT_BUDGET = 2 ** 24


class _DeferredNumpy:
    """Stands in for numpy until a kernel first reads an attribute of `np`;
    that read imports numpy and rebinds the module global `np` to it."""

    def __getattr__(self, name):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _DeferredNumpy()


# ---------------------------------------------------------------------------
# quivers
# ---------------------------------------------------------------------------


class _Frozen:
    """Base of the immutable values Quiver and QuiverRep: assignment and
    deletion raise AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Quiver(_Frozen):
    """Finite quiver; a loop is an arrow like any other. `nilpotent`
    restricts it to nilpotent representations. The Jordan quiver (nilpotent
    k[t]-modules) is the nilpotent one-loop quiver, the cyclic quiver on one
    vertex. Immutable; eq, hash and repr see the three constructor fields
    only, not the two derived once here."""

    __slots__ = ("vertices", "arrows", "nilpotent", "_effective_arrows", "_single_cycle")

    def __init__(
        self,
        vertices: Sequence[str],
        arrows: Sequence[Tuple[str, str]] = (),
        nilpotent: bool = False,
    ):
        vertices = tuple(vertices or ())
        if not vertices:
            raise ValueError("quiver needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex names")
        arrows = tuple((s, t) for s, t in arrows)
        for s, t in arrows:
            if s not in vertices or t not in vertices:
                raise ValueError(f"arrow ({s},{t}) references unknown vertex")
        eff = tuple((vertices.index(s), vertices.index(t)) for s, t in arrows)
        _set = object.__setattr__
        _set(self, "vertices", vertices)
        _set(self, "arrows", arrows)
        _set(self, "nilpotent", nilpotent)
        _set(self, "_effective_arrows", eff)
        _set(self, "_single_cycle", self._find_single_cycle())

    # eq and hash spell the fields out, as they sit on every cache lookup
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.arrows, self.nilpotent) == (
            other.vertices, other.arrows, other.nilpotent
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows, self.nilpotent))

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(vertices={self.vertices!r}, "
            f"arrows={self.arrows!r}, nilpotent={self.nilpotent!r})"
        )

    def __reduce__(self):
        return type(self), (self.vertices, self.arrows, self.nilpotent)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def jordan(self) -> bool:
        """True for the Jordan quiver, whose labels are bare partitions in dominance order."""
        return self.n == 1 and self.nilpotent and self._single_cycle

    def vertex_index(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise ValueError(f"unknown vertex {v!r}")

    def effective_arrows(self) -> Tuple[Tuple[int, int], ...]:
        """Arrow list as vertex-index pairs."""
        return self._effective_arrows

    def is_single_cycle(self) -> bool:
        """True for the cyclic quiver: the arrows form one
        directed cycle through every vertex, one arrow out of and into each
        vertex. The Jordan loop is the cycle on one vertex."""
        return self._single_cycle

    def _find_single_cycle(self) -> bool:
        outgoing = {}
        for s, t in self._effective_arrows:
            if s in outgoing:
                return False
            outgoing[s] = t
        if len(outgoing) != self.n:
            return False
        seen = set()
        v = 0
        for _ in range(self.n):
            seen.add(v)
            v = outgoing[v]
        return v == 0 and len(seen) == self.n

    # -- constructors for the standard desks

    @classmethod
    def a2(cls) -> "Quiver":
        return cls(("1", "2"), (("1", "2"),))

    @classmethod
    def kronecker(cls) -> "Quiver":
        return cls(("1", "2"), (("1", "2"), ("1", "2")))

    @classmethod
    def cyclic(cls, n: int) -> "Quiver":
        if n < 2:
            raise ValueError("cyclic quiver needs n >= 2 (n = 1 is jordan_quiver())")
        vs = tuple(str(i) for i in range(n))
        arrows = tuple((str(i), str((i + 1) % n)) for i in range(n))
        return cls(vs, arrows, nilpotent=True)

    @classmethod
    def jordan_quiver(cls) -> "Quiver":
        return cls(("1",), (("1", "1"),), nilpotent=True)

    # -- serialization

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [{"source": s, "target": t} for s, t in self.arrows],
            "nilpotent": self.nilpotent,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Quiver":
        try:
            vertices = data["vertices"]
            arrows = [(a["source"], a["target"]) for a in data.get("arrows", ())]
        except (KeyError, TypeError) as exc:
            raise ValueError(
                'quiver JSON needs {"vertices": [...], "arrows": '
                '[{"source": ..., "target": ...}, ...]}'
            ) from exc
        if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
            raise ValueError(f'quiver JSON "vertices" must be a list of strings, got {vertices!r}')
        for s, t in arrows:
            if not (isinstance(s, str) and isinstance(t, str)):
                raise ValueError(f'quiver JSON arrow "source" and "target" must be strings, got {s!r} -> {t!r}')
        Q = cls(vertices, arrows, data.get("nilpotent", False))
        for flag in ("nilpotent", "jordan"):
            if not isinstance(data.get(flag, False), bool):
                raise ValueError(f'quiver JSON flag "{flag}" must be true or false, got {data[flag]!r}')
        if not data.get("jordan"):
            return Q
        # older files flag the Jordan quiver with "jordan": true, its loop implicit
        if Q.n != 1 or Q.arrows:
            raise ValueError("jordan backend is a single vertex with no arrows")
        return cls(Q.vertices, (Q.vertices * 2,), nilpotent=True)

    @classmethod
    def load(cls, path: str) -> "Quiver":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def quiver_has_cycle(Q: Quiver) -> bool:
    """True when some directed cycle exists (a loop counts)."""
    adj: Dict[int, List[int]] = {v: [] for v in range(Q.n)}
    for s, t in Q.effective_arrows():
        adj[s].append(t)
    state = [0] * Q.n  # 0 new, 1 on stack, 2 done
    for root in range(Q.n):
        if state[root]:
            continue
        stack = [(root, iter(adj[root]))]
        state[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if state[w] == 1:
                    return True
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
            if not advanced:
                state[v] = 2
                stack.pop()
    return False


def euler_form_add(Q: Quiver, alpha: Sequence[int], beta: Sequence[int]) -> int:
    """Additive Euler form <alpha, beta> = sum a_i b_i - sum over arrows
    a_{s(h)} b_{t(h)}; a loop counts like any arrow, so the form is
    identically zero on the Jordan quiver."""
    alpha, beta = tuple(alpha), tuple(beta)
    if len(alpha) != Q.n or len(beta) != Q.n:
        raise ValueError("dimension vectors must be indexed by the quiver vertices")
    total = sum(a * b for a, b in zip(alpha, beta))
    for s, t in Q.effective_arrows():
        total -= alpha[s] * beta[t]
    return total


def sym_form_add(Q: Quiver, alpha: Sequence[int], beta: Sequence[int]) -> int:
    return euler_form_add(Q, alpha, beta) + euler_form_add(Q, beta, alpha)


# ---------------------------------------------------------------------------
# mod-p matrices as nested tuples
# ---------------------------------------------------------------------------


def _mat_vec(A: Mat, v: Tuple[int, ...], p: int) -> Tuple[int, ...]:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) % p for row in A)


def _identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _rref(rows: Sequence[Sequence[int]], ncols: int, p: int) -> Tuple[Mat, Tuple[int, ...]]:
    """Reduced row echelon form over F_p; returns (nonzero rows, pivot cols)."""
    work = [list(r) for r in rows]
    pivots: List[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(work)):
            if work[r][col] % p != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = pow(work[rank][col], p - 2, p) if p > 2 else work[rank][col]
        work[rank] = [(x * inv) % p for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] % p != 0:
                f = work[r][col] % p
                work[r] = [(a - f * b) % p for a, b in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(r) for r in work[:rank]), tuple(pivots)


def _rank(rows: Sequence[Sequence[int]], ncols: int, p: int) -> int:
    return len(_rref(rows, ncols, p)[0])


def _nullspace(rows: Sequence[Sequence[int]], ncols: int, p: int) -> List[Tuple[int, ...]]:
    red, pivots = _rref(rows, ncols, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [0] * ncols
        v[fcol] = 1
        for i, pcol in enumerate(pivots):
            v[pcol] = (-red[i][fcol]) % p
        basis.append(tuple(v))
    return basis


def subspace_count(d: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^d: the Gaussian binomial
    [d choose k] at p, by the integer recurrence
    [d, i+1] = [d, i] (p^(d-i) - 1) / (p^(i+1) - 1), each step exact."""
    if d < 0:
        raise ValueError("subspace_count needs d >= 0")
    out = 1 if 0 <= k <= d else 0
    for i in range(k if out else 0):
        out = out * (p ** (d - i) - 1) // (p ** (i + 1) - 1)
    return out


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


class QuiverRep(_Frozen):
    """Representation of a quiver over F_q: dims per vertex, one matrix per
    arrow with shape dim(target) x dim(source), entries mod q. Immutable;
    list inputs are stored as tuples, so equal inputs give equal, hashable
    representations."""

    __slots__ = ("quiver", "q", "dims", "mats")

    def __init__(self, quiver: Quiver, q: int, dims: Sequence[int], mats: Sequence[Mat]):
        if not is_prime(q):
            raise ValueError(f"q must be prime, got {q}")
        dims = tuple(dims)
        if len(dims) != quiver.n or any(d < 0 for d in dims):
            raise ValueError("bad dimension vector")
        eff = quiver.effective_arrows()
        if len(mats) != len(eff):
            raise ValueError("need one matrix per effective arrow")
        checked = []
        for (s, t), m in zip(eff, mats):
            if len(m) != dims[t]:
                raise ValueError("matrix row count must match target dimension")
            rows = []
            for row in m:
                if len(row) != dims[s]:
                    raise ValueError("matrix col count must match source dimension")
                if any(not (0 <= x < q) for x in row):
                    raise ValueError("entries must be reduced mod q")
                rows.append(tuple(row))
            checked.append(tuple(rows))
        _set = object.__setattr__
        _set(self, "quiver", quiver)
        _set(self, "q", q)
        _set(self, "dims", dims)
        _set(self, "mats", tuple(checked))
        if quiver.nilpotent and not self._is_nilpotent():
            raise ValueError("representation is not nilpotent but the quiver requires it")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.quiver, self.q, self.dims, self.mats) == (
            other.quiver, other.q, other.dims, other.mats
        )

    def __hash__(self):
        return hash((self.quiver, self.q, self.dims, self.mats))

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(quiver={self.quiver!r}, q={self.q!r}, "
            f"dims={self.dims!r}, mats={self.mats!r})"
        )

    def __reduce__(self):
        # no re-validation, so a rep from _unvalidated_rep copies and pickles too
        return _unvalidated_rep, (self.quiver, self.q, self.dims, self.mats)

    def _is_nilpotent(self) -> bool:
        """Iterated graded image must shrink to zero. Exact for any quiver."""
        p = self.q
        eff = self.quiver.effective_arrows()
        # current graded subspace as RREF rows per vertex; start = everything
        cur = [tuple(tuple(r) for r in _identity(d)) for d in self.dims]
        cur_dims = list(self.dims)
        for _ in range(sum(self.dims) + 1):
            if all(x == 0 for x in cur_dims):
                return True
            imgs: List[List[Tuple[int, ...]]] = [[] for _ in self.dims]
            for (s, t), m in zip(eff, self.mats):
                for basis_vec in cur[s]:
                    imgs[t].append(_mat_vec(m, basis_vec, p))
            nxt = []
            nxt_dims = []
            for v, vecs in enumerate(imgs):
                red, _ = _rref(vecs, self.dims[v], p)
                nxt.append(red)
                nxt_dims.append(len(red))
            if nxt_dims == cur_dims and all(n == c for n, c in zip(nxt, cur)):
                return False  # stabilized above zero
            cur, cur_dims = nxt, nxt_dims
        return all(x == 0 for x in cur_dims)

    def total_dim(self) -> int:
        return sum(self.dims)


def _zero_mats(Q: Quiver, d: Tuple[int, ...]) -> Tuple[Mat, ...]:
    """The zero matrix of each arrow at dimension vector d."""
    return tuple(tuple((0,) * d[s] for _ in range(d[t])) for s, t in Q.effective_arrows())


def _no_arrow_acts(Q: Quiver, d: Tuple[int, ...]) -> bool:
    """True when every arrow has a zero-dimensional end at d, so the zero
    tuple is the one representation there: a sum of simples, fixed by GL_d."""
    return not any(d[s] * d[t] for s, t in Q.effective_arrows())


def zero_rep(Q: Quiver, q: int) -> QuiverRep:
    dims = (0,) * Q.n
    return QuiverRep(Q, q, dims, _zero_mats(Q, dims))


def simple_rep(Q: Quiver, q: int, vertex: int) -> QuiverRep:
    dims = tuple(1 if i == vertex else 0 for i in range(Q.n))
    return QuiverRep(Q, q, dims, _zero_mats(Q, dims))


def direct_sum(a: QuiverRep, b: QuiverRep) -> QuiverRep:
    if a.quiver != b.quiver or a.q != b.q:
        raise ValueError("direct sum needs matching quiver and q")
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    mats = []
    for (s, t), ma, mb in zip(a.quiver.effective_arrows(), a.mats, b.mats):
        rows = []
        for i in range(a.dims[t]):
            rows.append(tuple(ma[i]) + (0,) * b.dims[s])
        for i in range(b.dims[t]):
            rows.append((0,) * a.dims[s] + tuple(mb[i]))
        mats.append(tuple(rows))
    return QuiverRep(a.quiver, a.q, dims, tuple(mats))


def jordan_rep(la: Partition, q: int) -> QuiverRep:
    """Nilpotent single matrix with Jordan type la (ones on the subdiagonal
    of each block): the chains of the one-vertex cycle."""
    return rep_from_label(Quiver.jordan_quiver(), q, la)


# ---------------------------------------------------------------------------
# Hom spaces, automorphisms, isomorphism testing
# ---------------------------------------------------------------------------


def hom_basis(M: QuiverRep, N: QuiverRep) -> List[Tuple[Mat, ...]]:
    """Basis of the intertwiner space Hom(M, N): tuples of per-vertex
    matrices f_v (shape dimN_v x dimM_v) with f_t x^M_h = x^N_h f_s."""
    if M.quiver != N.quiver or M.q != N.q:
        raise ValueError("hom needs matching quiver and q")
    p = M.q
    Q = M.quiver
    eff = Q.effective_arrows()
    # unknown layout: row-major f_v blocks in vertex order
    offs = []
    total = 0
    for v in range(Q.n):
        offs.append(total)
        total += N.dims[v] * M.dims[v]

    def upos(v: int, i: int, j: int) -> int:
        return offs[v] + i * M.dims[v] + j

    rows: List[List[int]] = []
    for (s, t), xm, xn in zip(eff, M.mats, N.mats):
        for i in range(N.dims[t]):
            for j in range(M.dims[s]):
                row = [0] * total
                for k in range(M.dims[t]):
                    row[upos(t, i, k)] = (row[upos(t, i, k)] + xm[k][j]) % p
                for k in range(N.dims[s]):
                    row[upos(s, k, j)] = (row[upos(s, k, j)] - xn[i][k]) % p
                if any(row):
                    rows.append(row)
    sols = _nullspace(rows, total, p) if total else []
    basis = []
    for v_flat in sols:
        blocks = []
        for v in range(Q.n):
            b = tuple(
                tuple(v_flat[upos(v, i, j)] for j in range(M.dims[v]))
                for i in range(N.dims[v])
            )
            blocks.append(b)
        basis.append(tuple(blocks))
    return basis


def hom_dim(M: QuiverRep, N: QuiverRep) -> int:
    return len(hom_basis(M, N))


def _require_budget(layer: str, needed: int, budget: int, dims, q: int, unit: str = "points") -> None:
    if needed > budget:
        raise BudgetError(
            f"{layer} at dimension vector {tuple(dims)}, q={q} needs {needed} {unit}, "
            f"budget is {budget}"
        )


# (layer, key) -> (points or subspace tuples the cold call needed, value)
_CACHE: Dict[Tuple[str, object], Tuple[int, object]] = {}


def _cached(layer: str, key, budget: Optional[int], dims, q: int, compute):
    """compute(budget) -> (count, value), run once per (layer, key) and
    kept; compute checks the budget before it does the work. Every call,
    warm or cold, checks the budget against that count, so a warm cache
    fails exactly where a cold one does. Returns the value."""
    budget = DEFAULT_BUDGET if budget is None else budget
    hit = _CACHE.get((layer, key))
    if hit is None:
        hit = _CACHE[layer, key] = compute(budget)
    _require_budget(layer, hit[0], budget, dims, q)
    return hit[1]


def _int_dtype(layer: str, worst: int, what: str, dims, q: int):
    """The narrowest of int16, int32 and int64 that holds `worst`, the
    largest magnitude a kernel's `what` can reach; past int64 raise, since
    the numpy kernels are exact only inside that range."""
    for dtype in (np.int16, np.int32, np.int64):
        if worst <= np.iinfo(dtype).max:
            return dtype
    raise BudgetError(
        f"{layer} at dimension vector {tuple(dims)}, q={q}: {what} can reach "
        f"{worst}, past the int64 range of the numpy kernel"
    )


_MAX_BLOCK = 8  # past it the two widest levels of minors outgrow twice the block
# the largest determinant of a k x k matrix of 0s and 1s, k = 0.._MAX_BLOCK
# (OEIS A003432)
_MAX_01_DET = (1, 1, 1, 2, 3, 5, 9, 32, 56)


@functools.cache
def _det_plan(n: int, p: int) -> List[Tuple[bool, int, List[List[List[Tuple[int, int]]]]]]:
    """Levels 2..n of _batch_dets_mod's Laplace expansion along the rows,
    each (reduce, bound, minors): whether level k-1 is first reduced mod p,
    to [0, p-1], the largest magnitude level k then reaches, and for each
    k-set S of columns in combinations order the minor on rows 0..k-1 and
    columns S along row k-1, as its positive terms, then its negative ones:
    (index of entry (k-1, c), index of the minor on S - {c} in level k-1).

    The bound: entries lie in [0, e], e = 2(p-1). While no level has been
    reduced, the minors of level k-1 are exact determinants, so a sum of
    any of the terms of a level-k minor (each product, and each partial
    sum in the plan's order, included) is the determinant of the k x k
    block on rows 0..k-1 and columns S with the other entries of row k-1
    set to 0, a k x k matrix over [0, e]. The determinant is affine in
    each entry, so on that box its magnitude peaks at a matrix of 0s and
    es, e^k times a 0/1 determinant: level k reaches at most
    _MAX_01_DET[k] e^k. Once level k-1 is reduced the minors are no longer
    determinants, and level k's k terms, an entry times a minor, reach at
    most k e (p-1), each later level j at most j e times the level
    before. A level is reduced only where it would otherwise pass int64,
    so a block whose _MAX_01_DET[n] e^n fits is reduced once, at the end."""
    e = 2 * (p - 1)
    prev, bound, exact, levels = {(c,): c for c in range(n)}, e, True, []
    for k in range(2, n + 1):
        bound = _MAX_01_DET[k] * e ** k if exact else k * e * bound
        reduce = bound > np.iinfo(np.int64).max
        if reduce:
            exact, bound = False, k * e * (p - 1)
        sets = list(itertools.combinations(range(n), k))
        levels.append((reduce, bound, [
            [[((k - 1) * n + s[j], prev[s[:j] + s[j + 1 :]]) for j in range(k) if (k - 1 + j) % 2 == odd]
             for odd in (0, 1)]
            for s in sets
        ]))
        prev = {s: i for i, s in enumerate(sets)}
    return levels


def _det_worst(n: int, p: int) -> int:
    """The largest magnitude _batch_dets_mod reaches on n x n blocks."""
    return max([2 * (p - 1)] + [bound for _, bound, _ in _det_plan(n, p)])


def _batch_dets_mod(a: np.ndarray, n: int, p: int) -> np.ndarray:
    """Determinants mod p of a batch of n x n blocks, given as an (n*n, N)
    array of row-major entries in [0, 2(p-1)], in a dtype that holds
    _det_worst(n, p), by the levels of _det_plan(n, p)."""
    minors = a[:n]
    for reduce, _, level in _det_plan(n, p):
        if reduce:
            minors = [m % p for m in minors]
        nxt = []
        for ((i, j), *plus), minus in level:
            total = a[i] * minors[j]
            for i, j in plus:
                total += a[i] * minors[j]
            for i, j in minus:
                total -= a[i] * minors[j]
            nxt.append(total)
        minors = nxt
    return minors[0] % p


def _mod(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m for an array x of nonnegative integers. numpy divides an
    integer array by a scalar with SIMD but takes x % m one element at a
    time, so x - m (x // m) is several times faster, and m (x // m) <= x
    cannot overflow."""
    return x - m * (x // m)


_CHUNK = 1 << 17
# matrix entries per sub-chunk of the orbit enumeration's nilpotency test
# and generator images, so their temporaries stay a fixed size
_SUBCHUNK = 1 << 16


# most entries of _coeff_digit_block's digit table: a group of digits
# indexes it as a uint8
_DIGIT_TABLE = 256


def _coeff_digit_block(codes: np.ndarray, nslots: int, p: int, dtype) -> np.ndarray:
    """The nslots base-p digits of each code, one row each, most significant
    first, in a `dtype` array (which must hold p-1). Digits come off L at a
    time, L the most with p^L <= _DIGIT_TABLE, as one gather of rows of a
    table of the digits of 0..p^L - 1 (_digit_table), so a block takes
    ceil(nslots / L) divmods instead of nslots. Past p = 16, L = 1: a
    remainder is its own digit, and no table is read. With a table, the
    rows are a view that skips the leading zeros of the most significant
    group when L does not divide nslots."""
    width = 1
    while p ** (width + 1) <= _DIGIT_TABLE:
        width += 1
    groups = -(-nslots // width)
    low = np.empty((len(codes), groups), dtype=dtype if width == 1 else np.uint8)
    for g in range(groups - 1, -1, -1):
        rest = codes // p ** width
        low[:, g] = codes - rest * p ** width
        codes = rest
    if width == 1:
        return low
    digits = np.take(_digit_table(p, width, dtype), low, axis=0)
    return digits.reshape(len(low), groups * width)[:, groups * width - nslots :]


@functools.cache
def _digit_table(p: int, width: int, dtype) -> np.ndarray:
    """The `width` base-p digits of 0..p^width - 1, one read-only `dtype`
    row each, most significant first."""
    table = np.array(list(itertools.product(range(p), repeat=width)), dtype=dtype)
    table.setflags(write=False)
    return table


def _low_width(k: int, p: int) -> int:
    """How many of k scanned coefficients form the precomputed low part:
    half of them, fewer if their combinations would not fit one block."""
    nl = k // 2
    while nl and p ** nl > _CHUNK:
        nl -= 1
    return nl


def _count_vertexwise_invertible(
    basis: List[Tuple[Mat, ...]],
    dims: Tuple[int, ...],
    p: int,
    budget: int,
    layer: str,
    find_one: bool = False,
):
    """Count the F_p-combinations of the basis whose every vertex block is
    invertible (or return early whether one exists).

    For c != 0, det(c*phi_v) = c^{d_v} det(phi_v), so c*phi passes exactly
    when phi does. The combinations whose first nonzero coefficient is at j
    are therefore p-1 times those with that coefficient 1, the affine set
    basis[j] + span(basis[j+1:]). Leads are peeled this way while the rest
    spans more than one block; the rest, span(basis[j:]), is scanned whole.
    The scan stays exhaustive, testing a point of every F_p^x line by its
    determinants (_batch_dets_mod), and the budget still counts all p^nb
    combinations. A vertex block past _MAX_BLOCK x _MAX_BLOCK is refused
    before the budget check."""
    n = max(dims)
    if n > _MAX_BLOCK:
        raise BudgetError(
            f"{layer} at dimension vector {tuple(dims)}, q={p}: a {n}x{n} vertex block "
            f"is past the {_MAX_BLOCK}x{_MAX_BLOCK} limit of the batched determinant"
        )
    nb = len(basis)
    _require_budget(layer, p ** nb, budget, dims, p)
    # digits (< p) times basis entries (< p), summed over at most nh terms
    # (no scan of fewer coefficients has more), plus one offset entry (< p)
    nh = nb - _low_width(nb, p)
    _int_dtype(layer, max(nh, 1) * (p - 1) ** 2 + p - 1, "basis combination sums", dims, p)
    vertices = []  # (n, work dtype, basis entries (nb, n*n))
    for v, n in enumerate(dims):
        if n == 0:
            continue
        dtype = _int_dtype(layer, _det_worst(n, p), f"{n}x{n} determinant terms", dims, p)
        flat = np.array(
            [[x for row in b[v] for x in row] for b in basis], dtype=np.int64
        ).reshape(nb, n * n)
        vertices.append((n, dtype, flat))
    count = 0
    lead = 0
    while p ** (nb - lead) > _CHUNK:
        count += (p - 1) * _scan_combinations(vertices, nb, lead + 1, lead, p, find_one)
        if find_one and count:
            return True
        lead += 1
    count += _scan_combinations(vertices, nb, lead, None, p, find_one)
    return (count > 0) if find_one else count


def _scan_combinations(vertices, nb: int, first: int, offset: Optional[int], p: int, find_one: bool) -> int:
    """Count the points basis[offset] + sum_{i >= first} c_i basis[i] (no
    offset if None) whose every vertex block is invertible; with find_one,
    stop after the first block that has one.

    The coefficients split into a high part and a low part (the last nl).
    For each vertex every low combination, offset included, is precomputed
    mod p; a block of candidates is a block of high combinations
    broadcast-added to all low ones, so candidates run in base-p order of
    their coefficient vectors, at most _CHUNK at a time."""
    nl = _low_width(nb - first, p)
    nh = nb - first - nl
    n_low = p ** nl
    low_digits = _coeff_digit_block(np.arange(n_low), nl, p, np.int64)
    blocks = []  # (n, high basis (nh, n*n), low combinations (n*n, n_low))
    for n, dtype, flat in vertices:
        low = low_digits @ flat[nb - nl :]
        if offset is not None:
            low += flat[offset]
        blocks.append((n, flat[first : first + nh], (low % p).T.astype(dtype)))
    step = max(1, _CHUNK // n_low)
    count = 0
    for start in range(0, p ** nh, step):
        stop = min(start + step, p ** nh)
        high_digits = _coeff_digit_block(np.arange(start, stop), nh, p, np.int64)
        alive = None  # candidate indices in this block still invertible so far
        for n, high_basis, low in blocks:
            high = ((high_digits @ high_basis) % p).T.astype(low.dtype)
            cand = (high[:, :, None] + low[:, None, :]).reshape(n * n, -1)
            if alive is not None:
                cand = cand[:, alive]
            ok = _batch_dets_mod(cand, n, p) != 0
            alive = np.nonzero(ok)[0] if alive is None else alive[ok]
            if not len(alive):
                break
        count += (stop - start) * n_low if alive is None else len(alive)
        if find_one and count:
            break
    return count


def aut_count(M: QuiverRep, budget: Optional[int] = None) -> int:
    """Number of invertible intertwiners M -> M, by exhaustive scan of the
    endomorphism space, independent of the closed forms of |Aut M|. The
    scan tests one point of each F_q^x line (a nonzero multiple of an
    automorphism is one) and counts each q-1 times; the budget still counts
    all q^dim End M points."""

    def scan(budget: int) -> Tuple[int, int]:
        if M.total_dim() == 0:
            return 1, 1
        basis = hom_basis(M, M)
        return M.q ** len(basis), _count_vertexwise_invertible(
            basis, M.dims, M.q, budget, "aut_count"
        )

    return _cached("aut_count", M, budget, M.dims, M.q, scan)


def is_isomorphic(M: QuiverRep, N: QuiverRep, budget: Optional[int] = None) -> bool:
    """Whether some intertwiner M -> N is invertible at every vertex, by
    exhaustive scan of Hom(M, N) after a rank check on each arrow. The scan
    tests one point of each F_q^x line and stops at the first hit; the
    budget still counts all q^dim Hom(M, N) points."""
    if M.quiver != N.quiver or M.q != N.q:
        raise ValueError("comparing representations of different quivers or fields")
    if M.dims != N.dims:
        return False
    if M.mats == N.mats:
        return True
    p = M.q
    for xm, xn in zip(M.mats, N.mats):
        cols = len(xm[0]) if xm else 0
        if _rank(xm, cols, p) != _rank(xn, cols, p):
            return False
    basis = hom_basis(M, N)
    if not basis:
        return False
    budget = DEFAULT_BUDGET if budget is None else budget
    return _count_vertexwise_invertible(basis, M.dims, p, budget, "is_isomorphic", find_one=True)


def gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def gl_order_vec(dims: Sequence[int], q: int) -> int:
    out = 1
    for d in dims:
        out *= gl_order(d, q)
    return out


# ---------------------------------------------------------------------------
# classification and enumeration of isomorphism classes
# ---------------------------------------------------------------------------


def cyclic_type(M: QuiverRep) -> Tuple[Partition, ...]:
    """Tuple-of-partitions label for a nilpotent rep of a single cycle (the
    Jordan loop included), from ranks of the composite path maps (no orbit
    search). T(i, l) = r(i, l-1) - r(i, l) counts the basis slots at vertex
    i with exactly l-1 slots after them in their chain, so T(j, l) -
    T(j-1, l+1) counts those with none before them: the chains of length l
    that start at j."""
    Q = M.quiver
    if not Q.is_single_cycle():
        raise ValueError("cyclic_type needs the cyclic quiver")
    n = Q.n
    p = M.q
    D = M.total_dim()
    where = f"classify_rep at dimension vector {M.dims}, q={p}"
    eff = Q.effective_arrows()
    arrow_from = {s: idx for idx, (s, t) in enumerate(eff)}
    # r[i][l] = rank of the length-l path map starting at vertex i, the
    # dimension of its image: the RREF rows of the previous image pushed
    # through one arrow. Each walk stops at its first zero rank, and a
    # nilpotent rep of total dimension D has every length-D path map zero
    r = [[0] * (D + 2) for _ in range(n)]
    for i in range(n):
        image = _identity(M.dims[i])
        r[i][0] = M.dims[i]
        v = i
        for l in range(1, D + 1):
            if not image:
                break
            arrow = M.mats[arrow_from[v]]
            v = (v + 1) % n
            image = _rref([_mat_vec(arrow, row, p) for row in image], M.dims[v], p)[0]
            r[i][l] = len(image)
        if r[i][D]:
            raise ConsistencyError(f"{where}: the path maps are not nilpotent")

    def T(i: int, l: int) -> int:
        return r[i % n][l - 1] - r[i % n][l]

    mult: List[Dict[int, int]] = [dict() for _ in range(n)]
    for j in range(n):
        for l in range(1, D + 1):
            m = T(j, l) - T((j - 1) % n, l + 1)
            if m < 0:  # pragma: no cover
                raise ConsistencyError(f"{where}: negative chain multiplicity")
            if m:
                mult[j][l] = m
    label = tuple(
        tuple(sorted((l for l, m in mult[j].items() for _ in range(m)), reverse=True))
        for j in range(n)
    )
    if sum(sum(la) for la in label) != D:  # pragma: no cover
        raise ConsistencyError(f"{where}: the cyclic type does not account for the dimension")
    return label


def cyclic_labels_for_dim(Q: Quiver, d: Tuple[int, ...]) -> List[Tuple[Partition, ...]]:
    """All tuple-of-partitions labels with the given dimension vector,
    sorted; on the Jordan quiver, the bare partitions of d in dominance
    order. Vertex by vertex, each start vertex takes the partitions whose
    chains fit in what the earlier ones left of d, so only labels that fill
    d are built; the completions of one (vertex, remainder) are found once."""
    if not Q.is_single_cycle() or len(d) != Q.n:
        raise ValueError("cyclic_labels_for_dim needs a single cycle and one dimension per vertex")
    if Q.jordan:
        return sorted(all_partitions(d[0]), key=dominance_key)
    n = Q.n

    def fits(start: int, rem: Tuple[int, ...], most: int):
        """(partition, what its chains leave of rem) for each partition with
        parts at most `most` whose chains from `start` fit in rem."""
        yield (), rem
        left = list(rem)
        for l in range(1, most + 1):
            # the chain of length l covers the one of length l - 1 and one slot more
            v = (start + l - 1) % n
            if not left[v]:
                break
            left[v] -= 1
            for rest, after in fits(start, tuple(left), l):
                yield (l,) + rest, after

    @functools.cache
    def fill(start: int, rem: Tuple[int, ...]) -> List[Tuple[Partition, ...]]:
        """The partitions at vertices start..n-1 whose chains fill rem."""
        if start == n:
            return [] if any(rem) else [()]
        return [(la,) + rest for la, left in fits(start, rem, sum(rem)) for rest in fill(start + 1, left)]

    return sorted(fill(0, tuple(d)))


def _space_size(Q: Quiver, q: int, d: Tuple[int, ...]) -> int:
    total = 1
    for s, t in Q.effective_arrows():
        total *= q ** (d[t] * d[s])
    return total


def _gl_generators(n: int, p: int) -> List[Tuple[Mat, Mat]]:
    """At most three generators of GL(n, p), each paired with its inverse:
    the transvection 1 + E_01 (inverse 1 - E_01), the cyclic shift of the
    basis e_i -> e_(i+1 mod n) (inverse its transpose) and, for p > 2,
    diag(w, 1, ..., 1) with w a primitive root (inverse diag(w^-1, 1, ...)).
    Conjugating 1 + E_01 by powers of the shift gives every 1 + E_(i,i+1)
    (indices mod n), their commutators every elementary transvection and so
    SL(n, p), and w every determinant. n = 1 keeps only the dilation."""
    def mat(entries) -> Mat:
        return tuple(tuple(entries.get((i, j), 0) for j in range(n)) for i in range(n))

    ones = {(i, i): 1 for i in range(n)}
    gens = []
    if n > 1:
        gens.append((mat({**ones, (0, 1): 1}), mat({**ones, (0, 1): p - 1})))
        shift = {((i + 1) % n, i): 1 for i in range(n)}
        gens.append((mat(shift), mat({(j, i): 1 for i, j in shift})))
    if n and p > 2:
        root = _primitive_root(p)
        gens.append((mat({**ones, (0, 0): root}), mat({**ones, (0, 0): pow(root, p - 2, p)})))
    return gens


def _primitive_root(p: int) -> int:
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = (x * g) % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise ConsistencyError(f"no primitive root mod {p}")  # pragma: no cover


def _arrow_shapes(Q: Quiver, d: Tuple[int, ...]) -> List[Tuple[int, int]]:
    return [(d[t], d[s]) for s, t in Q.effective_arrows()]


def _enumerate_points(Q: Quiver, q: int, d: Tuple[int, ...], budget: int) -> Optional[np.ndarray]:
    """The base-q codes of the matrix tuples at d that Q's nilpotency filter
    keeps, increasing, or None when every tuple is a point (always when Q
    is unflagged or acyclic, or d = 0). A code reads a tuple's slots
    (effective arrows in order, each matrix row-major) as base-q digits,
    most significant first, so it is the tuple's position among all
    q^nslots in lexicographic order. Codes are in the narrowest dtype that
    holds q^nslots - 1; the filter expands digits one chunk of codes at a
    time, testing a single cycle by block-matrix powers, reduced mod q only
    where the next squaring could pass the work dtype and at the end, and
    any other quiver point by point (_is_nilpotent)."""
    layer = "enumerate_iso_classes"
    shapes = _arrow_shapes(Q, d)
    nslots = sum(r * c for r, c in shapes)
    space = q ** nslots
    _require_budget(layer, space, budget, d, q)
    code_dtype = _int_dtype(layer, space - 1, "point codes", d, q)
    D = sum(d)
    if not (Q.nilpotent and D and quiver_has_cycle(Q)):
        return None
    # a chunk's D x D power matrices, and its digits (nslots <= D^2 on a
    # single cycle), stay _SUBCHUNK entries
    rows = max(1, _SUBCHUNK // (D * D))
    if _kind(Q) is _CHAINS:
        # single path structure per (i,j,k): the block-matrix power test is
        # exact for a single cycle, the jordan loop included. The work dtype
        # holds D (q-1)^2, one squaring of a reduced matrix; a squaring
        # takes an entry bound b to D b^2, so the powers are reduced mod q
        # only before a squaring that could pass the dtype, and at the end
        work = _int_dtype(layer, D * (q - 1) ** 2, "nilpotency matrix powers", d, q)
        schedule, bound = [], q - 1  # whether each squaring reduces first
        for _ in range(max(1, int(np.ceil(np.log2(max(D, 2)))))):
            schedule.append(D * bound * bound > np.iinfo(work).max)
            bound = D * (q - 1 if schedule[-1] else bound) ** 2
        vert_off = [sum(d[:v]) for v in range(Q.n)]

        def nilpotent(codes: np.ndarray) -> np.ndarray:
            digits = _coeff_digit_block(codes, nslots, q, work)
            power = np.zeros((len(codes), D, D), dtype=work)
            off = 0
            for (s, t), (rr, cc) in zip(Q.effective_arrows(), shapes):
                blk = digits[:, off : off + rr * cc].reshape(len(codes), rr, cc)
                power[:, vert_off[t] : vert_off[t] + rr, vert_off[s] : vert_off[s] + cc] = blk
                off += rr * cc
            for reduce in schedule:
                if reduce:
                    power = _mod(power, q)
                power = np.matmul(power, power)
            return ~_mod(power, q).any(axis=(1, 2))

    else:

        def nilpotent(codes: np.ndarray) -> np.ndarray:
            digits = _coeff_digit_block(codes, nslots, q, np.int64)
            return np.array(
                [_unvalidated_rep(Q, q, d, _point_mats(row, shapes))._is_nilpotent() for row in digits],
                dtype=bool,
            )

    kept = []
    for start in range(0, space, rows):
        codes = np.arange(start, min(start + rows, space), dtype=code_dtype)
        kept.append(codes[nilpotent(codes)])
    codes = np.concatenate(kept)
    return None if len(codes) == space else codes


def _point_mats(row: np.ndarray, shapes: Sequence[Tuple[int, int]]) -> Tuple[Mat, ...]:
    """One point's digit row (_coeff_digit_block) as a tuple of nested-tuple matrices."""
    vals = row.tolist()
    mats = []
    off = 0
    for r, c in shapes:
        mats.append(tuple(tuple(vals[off + i * c : off + (i + 1) * c]) for i in range(r)))
        off += r * c
    return tuple(mats)


def _unvalidated_rep(Q: Quiver, q: int, d: Tuple[int, ...], mats: Tuple[Mat, ...]) -> QuiverRep:
    """Internal constructor that skips the nilpotency validation (used while
    filtering candidate points, where non-nilpotent tuples are expected)."""
    rep = object.__new__(QuiverRep)
    object.__setattr__(rep, "quiver", Q)
    object.__setattr__(rep, "q", q)
    object.__setattr__(rep, "dims", d)
    object.__setattr__(rep, "mats", mats)
    return rep


def _slot_maps(
    Q: Quiver, d: Tuple[int, ...], q: int, dtype
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The action on flattened points of each generator g of _gl_generators
    at each vertex in turn (x_h -> g x_h on arrows into the vertex, x_h g^-1
    on arrows out of it, both on a loop), as the slots it moves and the
    terms of their new digits: (moved, sources, coefficients in `dtype`),
    the new digit at moved[i] being the sum over j of coefficients[i, j] *
    digit[sources[i, j]] mod q (_slot_images). A row of g and a column of
    g^-1 have at most two nonzero entries, so a slot has at most four terms
    on a loop and two on any other arrow, each from its own source slot
    and nonzero mod q; shorter rows are padded with zero terms. A slot
    whose one term is itself with coefficient 1 does not move, and a
    generator that moves no slot, whose permutation of the points would be
    the identity, is left out: the dilation at a one-dimensional vertex
    whose only arrows are loops, or any generator at a vertex none of whose
    arrows has a nonzero end."""
    def nonzero(rows):
        return [[(k, x) for k, x in enumerate(row) if x] for row in rows]

    maps = []
    for v in range(Q.n):
        for g, g_inv in _gl_generators(d[v], q):
            g_rows, g_inv_cols = nonzero(g), nonzero(zip(*g_inv))
            moved, terms = [], []
            off = 0
            for (s, t), (r, c) in zip(Q.effective_arrows(), _arrow_shapes(Q, d)):
                if v in (s, t):
                    left = g_rows if t == v else [[(i, 1)] for i in range(r)]
                    right = g_inv_cols if s == v else [[(j, 1)] for j in range(c)]
                    for i, j in itertools.product(range(r), range(c)):
                        new = [(off + k * c + l, a * b % q) for k, a in left[i] for l, b in right[j]]
                        if new != [(off + i * c + j, 1)]:
                            moved.append(off + i * c + j)
                            terms.append(new)
                off += r * c
            if moved:
                width = max(map(len, terms))
                pairs = np.array([row + [(0, 0)] * (width - len(row)) for row in terms], dtype=np.int64)
                maps.append((np.array(moved), pairs[:, :, 0], pairs[:, :, 1].astype(dtype)))
    return maps


def _slot_images(block: np.ndarray, digits: np.ndarray, slot_map, weights: np.ndarray, q: int) -> np.ndarray:
    """The base-q codes of the images of the points coded `block`, whose
    digits (_coeff_digit_block) are the columns of the slot-major
    `digits`, under one generator's slot map (_slot_maps): each term
    gathers whole rows of digits. A code changes only at the slots the map
    moves, by (new - old digit) times their weights (`weights`, the base-q
    place value of each slot), in all at most q^nslots - 1 either way."""
    moved, sources, coeffs = slot_map
    new = digits[sources[:, 0]] * coeffs[:, :1]
    for j in range(1, sources.shape[1]):
        new += digits[sources[:, j]] * coeffs[:, j : j + 1]
    return block + weights[moved] @ (_mod(new, q) - digits[moved])


def _point_rows(codes: Optional[np.ndarray], n_points: int, image):
    """Row indices of the points whose base-q codes are `image` (an
    array), or None if one of them is not a point. codes is None for an
    unfiltered enumeration, whose codes are its rows 0..n_points-1."""
    if codes is None:
        return image if 0 <= image.min() and image.max() < n_points else None
    pos = np.minimum(np.searchsorted(codes, image), n_points - 1)
    return pos if np.array_equal(codes[pos], image) else None


def _orbit_seeds(
    Q: Quiver, q: int, d: Tuple[int, ...], budget: int
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of GL_d on the points of _enumerate_points: (their base-q
    codes, or None when every tuple is a point (a code is then its index),
    seed point indices, orbit sizes, orbit index of each point), seeds
    increasing. A seed is the lex-least point of its orbit, found by
    min-label propagation with pointer jumping over one permutation of the
    points per generator of _gl_generators that moves a slot (_slot_maps),
    so at most three per vertex. The labels flow one way, from a point's
    image to the point; as each generator has finite order, its cycles
    carry them round, and at the fixed point a label is constant on every
    orbit. Generator permutations, labels and orbit indices are in the
    narrowest dtype that holds the point count. The points' digits are
    expanded _SUBCHUNK entries at a time, slot-major, and each block is
    imaged under every slot map by row gathers and one reduction mod q
    (_slot_images), with no nslots x nslots matrix."""
    layer = "enumerate_iso_classes"
    codes = _enumerate_points(Q, q, d, budget)
    nslots = sum(r * c for r, c in _arrow_shapes(Q, d))
    n_points = q ** nslots if codes is None else len(codes)
    # digits (< q) times generator entries (< q), summed over at most four terms
    image_dtype = _int_dtype(layer, 4 * (q - 1) ** 2, "generator images", d, q)
    index_dtype = _int_dtype(layer, n_points - 1, "point indices", d, q)
    # image codes take the dtype of the codes they are searched among
    weights = np.array(
        [q ** k for k in range(nslots - 1, -1, -1)], dtype=np.int64 if codes is None else codes.dtype
    )
    slot_maps = _slot_maps(Q, d, q, image_dtype)
    perms = [np.empty(n_points, dtype=index_dtype) for _ in slot_maps]  # perm[i] = index of point i's image
    rows = max(1, _SUBCHUNK // max(1, nslots))
    for a in range(0, n_points, rows):
        block = np.arange(a, min(a + rows, n_points)) if codes is None else codes[a : a + rows]
        digits = _coeff_digit_block(block, nslots, q, image_dtype).T.copy()
        for slot_map, perm in zip(slot_maps, perms):
            image = _slot_images(block, digits, slot_map, weights, q)
            pos = _point_rows(codes, n_points, image)
            if pos is None:
                raise ConsistencyError(
                    f"{layer} at dimension vector {d}, q={q}: a generator maps an "
                    "enumerated point outside the point set"
                )
            perm[a : a + rows] = pos
    labels = np.arange(n_points, dtype=index_dtype)
    while True:
        before = labels.copy()
        for perm in perms:
            np.minimum(labels, labels[perm], out=labels)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, before):
            break
    # every label is now its orbit's seed, the one point it labels itself
    is_seed = labels == np.arange(n_points, dtype=index_dtype)
    seeds = np.flatnonzero(is_seed)
    owner = (np.cumsum(is_seed, dtype=index_dtype) - 1)[labels]
    return codes, seeds, np.bincount(owner, minlength=len(seeds)), owner


IsoClass = Tuple[object, QuiverRep, int]  # (label, representative, orbit size)


class _Chains:
    """The kind of a nilpotent single cycle, the Jordan loop included. Each
    representation M is a sum of uniserial chains, m_I copies of the chain
    I (one start vertex and length) each, so a label is a tuple of
    partitions, the parts at vertex I the lengths of the chains that start
    there; a Jordan label is the bare partition, in dominance order.
    classify reads the label from the ranks of the path maps (cyclic_type).
    End M modulo its radical is the product of the rings M_{m_I}(F_q), so
    classes takes each orbit size |GL_d| / |Aut M| from the closed form
    |Aut M| = q^(dim End M - sum m_I^2) prod |GL_{m_I}(F_q)|, which
    aut_count's scan checks in the tests, with dim End M counted from the
    chains (end_dim), not solved for."""

    def classes(self, Q: Quiver, q: int, d: Tuple[int, ...], budget: int):
        out: List[IsoClass] = []
        total = gl_order_vec(d, q)
        for label in cyclic_labels_for_dim(Q, d):
            rep = rep_from_label(Q, q, label)
            mults = self.chains(Q, label).values()
            a = q ** (self.end_dim(Q, label) - sum(m * m for m in mults))
            a *= math.prod(gl_order(m, q) for m in mults)
            if total % a:
                raise ConsistencyError(
                    f"enumerate_iso_classes at dimension vector {d}, q={q}: the closed-form "
                    f"|Aut| {a} of label {label} does not divide |GL_d| = {total} "
                    "(orbit-stabilizer division failed)"
                )
            out.append((label, rep, total // a))
        return 0, (out, None, None)

    def classify(self, M: QuiverRep, budget: int):
        label = cyclic_type(M)
        return 0, label[0] if M.quiver.jordan else label

    def parts(self, Q: Quiver, label) -> Tuple[Partition, ...]:
        """A label as the tuple of partitions the chain code reads: a Jordan
        label, a bare partition, is its one-vertex case."""
        return (as_partition(label),) if Q.jordan else label

    def chains(self, Q: Quiver, label) -> Counter:
        """The multiplicity m_I of each chain I = (start vertex, length)."""
        return Counter((i, l) for i, la in enumerate(self.parts(Q, label)) for l in la)

    def end_dim(self, Q: Quiver, label) -> int:
        """dim End M of a label's chain sum: over ordered pairs of its chains
        U(i, l), U(j, m), dim Hom(U(i, l), U(j, m)) counts the slots k of
        U(j, m) where the top of U(i, l) can go, those at vertex i (k = i - j
        mod n) that l arrows carry past its end (m - l <= k < m)."""
        n = Q.n
        chains = self.chains(Q, label).items()
        total = 0
        for (i, l), a in chains:
            for (j, m), b in chains:
                lo = max(0, m - l)
                total += a * b * len(range(lo + (i - j - lo) % n, m, n))
        return total

    def label_dim(self, Q: Quiver, label) -> Tuple[int, ...]:
        dims = [0] * Q.n
        for start, la in enumerate(self.parts(Q, label)):
            for part in la:
                for c in range(part):
                    dims[(start + c) % Q.n] += 1
        return tuple(dims)

    def rep(self, Q: Quiver, q: int, label) -> QuiverRep:
        """Direct sum of a label's chains: each part l of the partition at
        vertex I is a chain of l basis slots at I, I+1, ... (mod n), each
        arrow sending a slot to the next. A vertex's basis runs chain by
        chain in label order, as in a fold of direct_sum over the chains."""
        n = Q.n
        dims = [0] * n
        links = []  # (vertex of a slot, its position there, the next slot's position)
        for start, la in enumerate(self.parts(Q, label)):
            for part in la:
                prev = None
                for c in range(part):
                    v = (start + c) % n
                    if prev is not None:
                        links.append(prev + (dims[v],))
                    prev = (v, dims[v])
                    dims[v] += 1
        eff = Q.effective_arrows()
        arrow_from = {s: idx for idx, (s, _) in enumerate(eff)}
        mats = [[[0] * dims[s] for _ in range(dims[t])] for s, t in eff]
        for v, src, dst in links:
            mats[arrow_from[v]][dst][src] = 1
        return QuiverRep(Q, q, tuple(dims), tuple(tuple(tuple(r) for r in m) for m in mats))


class _Orbits:
    """The kind of every other quiver, and of any quiver under
    force_generic: the classes are the GL_d orbits of the enumerated points
    (_orbit_seeds), each labelled (d, mats) by its lex-least point. classify
    looks a representation's base-q point code up among those points, so it
    needs what the enumeration needs. Where no arrow acts, the one point,
    the zero tuple, is the one class, of orbit size 1, with no codes and no
    owner to look up."""

    def classes(self, Q: Quiver, q: int, d: Tuple[int, ...], budget: int):
        if _no_arrow_acts(Q, d):
            mats = _zero_mats(Q, d)
            return 1, ([((d, mats), QuiverRep(Q, q, d, mats), 1)], None, None)
        codes, seeds, sizes, owner = _orbit_seeds(Q, q, d, budget)
        shapes = _arrow_shapes(Q, d)
        nslots = sum(r * c for r, c in shapes)
        digits = _coeff_digit_block(seeds if codes is None else codes[seeds], nslots, q, np.int64)
        out: List[IsoClass] = []
        for row, size in zip(digits, sizes.tolist()):
            seed = _point_mats(row, shapes)
            out.append(((d, seed), QuiverRep(Q, q, d, seed), size))
        return _space_size(Q, q, d), (out, codes, owner)

    def classify(self, M: QuiverRep, budget: int):
        Q, q = M.quiver, M.q
        needed = _space_size(Q, q, M.dims)
        _require_budget("classify_rep", needed, budget, M.dims, q)
        classes, codes, owner = _iso_classes(Q, q, M.dims, budget)
        if owner is None:  # the one point where no arrow acts
            return needed, classes[0][0]
        code = 0  # row-major over the arrows in order, as the points' codes
        for row in itertools.chain.from_iterable(M.mats):
            for x in row:
                code = code * q + x
        pos = _point_rows(codes, len(owner), np.asarray(code))
        if pos is None:
            raise ConsistencyError(
                f"classify_rep at dimension vector {M.dims}, q={q}: the representation "
                "is not among the enumerated points"
            )
        return needed, classes[owner[pos]][0]

    def label_dim(self, Q: Quiver, label) -> Tuple[int, ...]:
        return tuple(label[0])

    def rep(self, Q: Quiver, q: int, label) -> QuiverRep:
        dims, mats = label
        return QuiverRep(Q, q, tuple(dims), mats)


_CHAINS, _ORBITS = _Chains(), _Orbits()


def _kind(Q: Quiver, force_generic: bool = False):
    """The kind of Q; force_generic takes the orbits, the closed forms' oracle."""
    return _CHAINS if Q.nilpotent and Q.is_single_cycle() and not force_generic else _ORBITS


def enumerate_iso_classes(
    Q: Quiver,
    q: int,
    d,
    budget: Optional[int] = None,
    force_generic: bool = False,
) -> List[IsoClass]:
    """Isomorphism classes of representations with dimension vector d,
    nilpotent ones only when the quiver is flagged nilpotent.

    Returns (label, representative, orbit_size) triples, deterministically
    ordered, from Q's kind (_kind); force_generic takes the orbit
    enumeration on every quiver.
    """
    if isinstance(d, int):
        d = (d,)
    d = tuple(int(x) for x in d)
    if len(d) != Q.n or any(x < 0 for x in d):
        raise ValueError("bad dimension vector")
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    return _iso_classes(Q, q, d, budget, force_generic)[0]


def _iso_classes(Q: Quiver, q: int, d: Tuple[int, ...], budget: Optional[int], force_generic: bool = False):
    """enumerate_iso_classes's cached value: (classes, point codes, class
    index of each point), as _orbit_seeds gives them; codes is None when
    every tuple is a point, and both are None for the chain kind and for
    the one point of a dimension vector on which no arrow acts."""
    kind = _kind(Q, force_generic)
    # keyed on the kind: where no closed form applies, force_generic runs
    # the same enumeration as a plain call
    compute = functools.partial(kind.classes, Q, q, d)
    return _cached("enumerate_iso_classes", (Q, q, d, kind), budget, d, q, compute)


def classify_rep(M: QuiverRep, budget: Optional[int] = None):
    """Canonical IsoLabel of a representation, from its quiver's kind."""
    return _cached("classify_rep", M, budget, M.dims, M.q, lambda budget: _kind(M.quiver).classify(M, budget))


def _label_kind(Q: Quiver, label):
    """The kind that reads `label`: Q's own, or the orbits for an orbit label
    (d, mats) of a chain quiver, as force_generic lists them. Such a label's
    second entry holds one matrix (a tuple) per arrow, where a chain label's
    holds a partition's parts or is one."""
    kind = _kind(Q)
    if kind is _CHAINS and len(label) == 2:
        mats = label[1]
        if isinstance(mats, tuple) and len(mats) == len(Q.arrows) and all(isinstance(m, tuple) for m in mats):
            return _ORBITS
    return kind


def label_dim(Q: Quiver, label) -> Tuple[int, ...]:
    """Dimension vector of an IsoLabel."""
    return _label_kind(Q, label).label_dim(Q, label)


def rep_from_label(Q: Quiver, q: int, label) -> QuiverRep:
    return _label_kind(Q, label).rep(Q, q, label)


# ---------------------------------------------------------------------------
# submodule counting
# ---------------------------------------------------------------------------


def _column_dtype(d: int, p: int):
    """dtype of subspace column indices and dimensions, all at most d."""
    return _int_dtype("submodule_type_table", d, "subspace columns", (d,), p)


@functools.lru_cache(maxsize=16)
def _vertex_subspaces(d: int, p: int, dtype) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All subspaces of F_p^d, dimension 0 to d in turn: (E (S, d, d) in
    `dtype`, the matrix whose row c_i is the i-th RREF basis row, c_i the
    i-th pivot, and whose other rows are zero, so that v - vE reduces v
    against the subspace; the columns in pivot-first order (S, d); the
    dimensions (S,)), the last two in the narrowest integer dtype holding
    d. Within one dimension the pivot patterns run in lexicographic order;
    within one pattern the free entries (row-major over pivot row and
    column) count up in base p, the first one most significant. Each
    pattern's unit pivots and free digits are written straight into E, so
    the build holds one pattern's digits beside the arrays. Every table of
    the same (d, p, dtype) reads them, so the last few are kept,
    read-only."""
    mats = np.zeros((sum(subspace_count(d, k, p) for k in range(d + 1)), d, d), dtype=dtype)
    orders = np.empty((len(mats), d), dtype=_column_dtype(d, p))
    kdims = np.empty(len(mats), dtype=orders.dtype)
    start = 0
    for k in range(d + 1):
        for piv in itertools.combinations(range(d), k):
            free = [(c, j) for c in piv for j in range(c + 1, d) if j not in piv]
            stop = start + p ** len(free)
            block = mats[start:stop]
            block[:, piv, piv] = 1
            if free:
                rows, cols = zip(*free)
                block[:, rows, cols] = _coeff_digit_block(np.arange(stop - start), len(free), p, dtype)
            orders[start:stop] = piv + tuple(j for j in range(d) if j not in piv)
            kdims[start:stop] = k
            start = stop
    out = mats, orders, kdims
    for a in out:
        a.setflags(write=False)
    return out


@functools.lru_cache(maxsize=64)
def _corner_masks(d_s: int, d_t: int) -> np.ndarray:
    """(d_s + 1, d_t + 1, 2, d_t, d_s) uint8, read-only: at [k_s, k_t], the
    0/1 masks of a d_t x d_s block's bottom right (d_t - k_t) x (d_s - k_s)
    corner, then of its top left k_t x k_s one."""
    rows = np.arange(d_t)[None, None, :, None] < np.arange(d_t + 1)[None, :, None, None]
    cols = np.arange(d_s)[None, None, None, :] < np.arange(d_s + 1)[:, None, None, None]
    out = np.stack([~rows & ~cols, rows & cols], axis=2).astype(np.uint8)
    out.setflags(write=False)
    return out


def _submodule_dtype(dims: Sequence[int], p: int):
    """Array dtype of submodule_type_table at these dimensions: before
    reduction its products (stability images and checks, quotient
    reductions) reach max(d) (p-1)^2, so the narrowest of int16, int32 and
    int64 that holds that, and Python ints (object arrays) past int64."""
    worst = max(dims) * (p - 1) ** 2
    if worst > np.iinfo(np.int64).max:
        return object
    return _int_dtype("submodule_type_table", worst, "subspace products", dims, p)


def submodule_type_table(
    R: QuiverRep, budget: Optional[int] = None
) -> Dict[Tuple[object, object], int]:
    """Counts of stable subspaces of R bucketed by (quotient label, sub
    label); one enumeration serves every (M, N) query against this R. It is
    submodule_type_tables([R]), a kernel pass of one."""
    return submodule_type_tables([R], budget=budget)[0]


def submodule_type_tables(
    reps: Sequence[QuiverRep], budget: Optional[int] = None
) -> List[Dict[Tuple[object, object], int]]:
    """submodule_type_table of each of reps, in order; the reps share one
    quiver, q and dimension vector. The tables not yet kept are built in one
    kernel pass, and each is kept and checked as its lone build would be.

    Each subspace U_v of vertex v is held as its matrix E_v
    (_vertex_subspaces). For an arrow X : s -> t the rows of I = E_s X^T
    are the images of U_s's basis, and I E_t rebuilds them from their
    coordinates at U_t's pivots, so X U_s lies in U_t iff I E_t = I mod p:
    a table over all (rep, U_s, U_t), or (rep, U_s) for a loop. The (rep,
    subspace tuple) pairs run rep-major, each rep's tuples in
    itertools.product order; for those stable under every arrow, the sub
    matrix is I read at (U_s pivots, U_t pivots) and the quotient matrix
    X^T (1 - E_t), X's columns reduced against U_t, read at (U_s
    non-pivots, U_t non-pivots), both transposed. The subspace matrices,
    images and reductions are all in _submodule_dtype(dims, q), the
    narrowest dtype holding max(d) (q-1)^2: int16 up to q = 127 at d = 2
    and q = 61 at d = 9. The reps go through a group at a time, a group
    holding one rep's stability tables and tuples or at most a chunk of
    each, so a pass holds no more than its largest lone table would.

    Each chunk of stable pairs writes its subs and quotients as byte keys
    (uint8 entries while q <= 256), and classify_rep runs once per distinct
    key of the pass, in the order the pairs meet them, quotient before sub;
    one tally per chunk then counts each (rep, quotient, sub), so each
    rep's table keeps its keys in the order its own tuples meet them. A
    rep's first stable tuple is the zero sub, whose quotient is the rep
    itself, and no sub or quotient needs more points to classify than it
    does; so a table's budget is its tuple count, then its rep's own
    classify_rep need, the order a cold build meets them, and a pass that
    one of its reps would refuse refuses with that rep's BudgetError. A
    kept table is checked against both, and makes no classify_rep call.
    Where no arrow acts, _semisimple_tables builds the table in closed
    form instead of the kernel, with the same budget checks, classify_rep
    calls and key order."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if any((R.quiver, R.q, R.dims) != (reps[0].quiver, reps[0].q, reps[0].dims) for R in reps[1:]):
        raise ValueError("submodule_type_tables needs reps of one quiver, q and dimension vector")
    cold = [R for R in dict.fromkeys(reps) if ("submodule_type_table", R) not in _CACHE]
    if cold:
        build = _semisimple_tables if _no_arrow_acts(reps[0].quiver, reps[0].dims) else _submodule_tables
        for R, hit in zip(cold, build(cold, budget)):
            _CACHE["submodule_type_table", R] = hit
    tables = []
    for R in reps:
        tuples, table = _CACHE["submodule_type_table", R]
        _require_budget("submodule_type_table", tuples, budget, R.dims, R.q, "subspace tuples")
        _require_budget("classify_rep", _CACHE["classify_rep", R][0], budget, R.dims, R.q)
        tables.append(table)
    return tables


def _subspace_tuples(reps: List[QuiverRep], budget: int) -> int:
    """How many subspace tuples, one subspace per vertex, the reps' table
    scans, checked against the budget."""
    p, dims = reps[0].q, reps[0].dims
    total = math.prod(sum(subspace_count(d, k, p) for k in range(d + 1)) for d in dims)
    _require_budget("submodule_type_table", total, budget, dims, p, "subspace tuples")
    return total


def _semisimple_tables(reps: List[QuiverRep], budget: int):
    """_submodule_tables in closed form where no arrow acts (_no_arrow_acts),
    with no numpy and no subspace store. Every subspace tuple is then
    stable, with quotient and sub the zero tuples at d - k and k, k the
    sub's dimension vector, so the entry of k is prod_v [d_v choose k_v]_q.
    The k run in lexicographic order, the order the kernel's tuples first
    meet them, each classifying its quotient, then its sub, as the kernel
    does; k = 0's quotient is R itself. The reps, all the zero tuple at d,
    share one table, and the budget still counts every subspace tuple."""
    Q, p, dims = reps[0].quiver, reps[0].q, reps[0].dims
    total_tuples = _subspace_tuples(reps, budget)
    table: Dict[Tuple[object, object], int] = {}
    for k in itertools.product(*(range(d + 1) for d in dims)):
        quo = tuple(d - x for d, x in zip(dims, k))
        pair = tuple(classify_rep(_unvalidated_rep(Q, p, e, _zero_mats(Q, e)), budget=budget) for e in (quo, k))
        table[pair] = math.prod(subspace_count(d, x, p) for d, x in zip(dims, k))
    return [(total_tuples, table) for _ in reps]


def _submodule_tables(reps: List[QuiverRep], budget: int):
    """One kernel pass: for each rep, (subspace tuples scanned, its
    submodule_type_table)."""
    Q, p, dims = reps[0].quiver, reps[0].q, reps[0].dims
    total_tuples = _subspace_tuples(reps, budget)
    eff = Q.effective_arrows()
    dtype = _submodule_dtype(dims, p)
    # every array below has at most `step` rows of at most max(d)^2 entries
    step = max(1, _CHUNK // max(1, max(dims)) ** 2)
    by_dim = {d: _vertex_subspaces(d, p, dtype) for d in set(dims)}
    subs, orders, kdims = zip(*(by_dim[d] for d in dims))
    sizes = [len(e) for e in subs]
    # a group of reps holds one rep's stability tables and tuples, or at
    # most `step` of each
    per_rep = sum(sizes[s] if s == t else sizes[s] * sizes[t] for s, t in eff)
    group = max(1, step // max(per_rep, total_tuples))
    # a key row: a tag (0 quotient, 1 sub), the sub's dimension vector k,
    # then each arrow's pivot-first block with the entries outside the
    # quotient's (sub's) corner zeroed, so equal rows are equal reps
    worst = max(p - 1, max(dims))
    key_dtype = np.uint8 if worst <= 255 else _int_dtype(
        "submodule_type_table", worst, "sub and quotient key entries", dims, p
    )
    width = 1 + len(dims) + sum(dims[s] * dims[t] for s, t in eff)
    void = np.dtype((np.void, width * np.dtype(key_dtype).itemsize))
    labels: Dict[bytes, object] = {}  # byte key -> its label
    tables: List[Dict[Tuple[object, object], int]] = [{} for _ in reps]
    for first in range(0, len(reps), group):
        batch = reps[first : first + group]
        # `span` (U_s, U_t) pairs or tuples of every rep of the group make
        # at most `step` rows: all of each rep's, or `step` of one rep's
        span = max(1, step // len(batch))
        # each arrow's X^T for every rep of the group, (g, d_s, d_t)
        xts = [
            np.array([R.mats[a] for R in batch], dtype=dtype)
            .reshape(len(batch), dims[t], dims[s]).transpose(0, 2, 1)
            for a, (s, t) in enumerate(eff)
        ]
        stable = []
        for (s, t), xt in zip(eff, xts):
            shape = (sizes[s],) if s == t else (sizes[s], sizes[t])
            ok = np.empty((len(batch), math.prod(shape)), dtype=bool)
            for start in range(0, ok.shape[1], span):
                pairs = np.arange(start, min(start + span, ok.shape[1]))
                i_s, i_t = (pairs, pairs) if s == t else np.unravel_index(pairs, shape)
                img = (subs[s][i_s] @ xt[:, None]) % p
                ok[:, pairs] = ((img @ subs[t][i_t]) % p == img).all(axis=(2, 3))
            stable.append(ok.reshape(len(batch), *shape))
        for start in range(0, total_tuples, span):
            idx = np.unravel_index(np.arange(start, min(start + span, total_tuples)), sizes)
            ok = np.ones((len(batch), len(idx[0])), dtype=bool)
            for (s, t), stab in zip(eff, stable):
                ok &= stab[:, idx[s]] if s == t else stab[:, idx[s], idx[t]]
            # the stable (rep, tuple) pairs, rep-major
            r, at = np.nonzero(ok)
            if not len(r):
                continue
            idx = [i[at] for i in idx]
            n = len(r)
            ks = np.stack([k[i] for k, i in zip(kdims, idx)], axis=1)
            # rows 2j and 2j+1 of keys are the j-th stable pair's quotient and sub
            keys = np.empty((n, 2, width), dtype=key_dtype)
            keys[:, :, 0] = (0, 1)
            keys[:, :, 1 : 1 + len(dims)] = ks[:, None, :]
            off = 1 + len(dims)
            for (s, t), xt in zip(eff, xts):
                # one rep's X^T broadcasts; a group's is read per row
                xt = xt[r] if len(batch) > 1 else xt
                e_s, e_t = subs[s][idx[s]], subs[t][idx[t]]
                img = (e_s @ xt) % p
                red = (xt - (xt @ e_t) % p) % p
                # rows at U_s's pivots (E_s's diagonal 1s) from I, the others
                # from X^T (1 - E_t); with rows and columns put pivot-first and
                # transposed, the sub matrix is the top left k_t x k_s corner and
                # the quotient matrix the bottom right one
                both = np.where(np.diagonal(e_s, axis1=1, axis2=2)[:, :, None] == 1, img, red)
                rows, cols = orders[s][idx[s]][:, :, None], orders[t][idx[t]][:, None, :]
                both = both[np.arange(n)[:, None, None], rows, cols].transpose(0, 2, 1)
                size = dims[s] * dims[t]
                corners = _corner_masks(dims[s], dims[t])[ks[:, s], ks[:, t]]
                keys[:, :, off : off + size] = (both[:, None] * corners).reshape(n, 2, size)
                off += size
            flat = keys.reshape(2 * n, width)
            row_keys = flat.view(void).ravel().tolist()
            # classify each key new to the pass where the pairs first meet
            # it (quotient before sub), so the first BudgetError is the
            # per-tuple one
            i = 0
            for row_key in dict.fromkeys(row_keys):
                if row_key not in labels:
                    # keys come in the order first met, so i only grows
                    i = row_keys.index(row_key, i)
                    labels[row_key] = classify_rep(_key_rep(Q, p, dims, flat[i]), budget=budget)
            for (j, quo, sub), count in Counter(zip(r.tolist(), row_keys[::2], row_keys[1::2])).items():
                table = tables[first + j]
                pair = (labels[quo], labels[sub])
                table[pair] = table.get(pair, 0) + count
    return [(total_tuples, table) for table in tables]


def _key_rep(Q: Quiver, p: int, dims: Tuple[int, ...], key: np.ndarray) -> QuiverRep:
    """The sub (tag 1) or quotient (tag 0) of R that a key row of
    _submodule_tables stands for: its corner of each arrow's block."""
    vals = key.tolist()
    is_sub, ks = vals[0], vals[1 : 1 + len(dims)]
    rdims = ks if is_sub else [d - k for d, k in zip(dims, ks)]
    mats = []
    off = 1 + len(dims)
    for s, t in Q.effective_arrows():
        # the sub's corner starts at (0, 0), the quotient's at (k_t, k_s)
        w = dims[s]
        first = off if is_sub else off + ks[t] * w + ks[s]
        mats.append(tuple(tuple(vals[first + i * w : first + i * w + rdims[s]]) for i in range(rdims[t])))
        off += w * dims[t]
    return _unvalidated_rep(Q, p, tuple(rdims), tuple(mats))


def count_submodules(
    R: QuiverRep, M_label, N_label, budget: Optional[int] = None
) -> int:
    """Number of subrepresentations L of R with L of type N_label and R/L of
    type M_label."""
    Q = R.quiver
    dm = label_dim(Q, M_label)
    dn = label_dim(Q, N_label)
    if tuple(a + b for a, b in zip(dm, dn)) != R.dims:
        raise ValueError("dimension vectors of M and N must sum to that of R")
    return submodule_type_table(R, budget=budget).get((M_label, N_label), 0)
