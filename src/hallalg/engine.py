"""Backend-generic Hall algebra engine.

Elements are finite sums of basis symbols [M] k_alpha, stored as
{(label, k_offset): scalar}. Two backends ship: the generic classical one
(partitions, scalars Laurent in t, trivial Euler form, k symbols collapse)
and quiver representations over a fixed prime q (scalars in Q(sqrt q),
k offsets in Z^vertices).

All multiplication is the twisted one: [M][N] = v^<M,N> sum_R G^R_MN [R],
with G the submodule count. The coproduct, Green pairing, antipode (two
independent routes), inverse antipode, quantum Serre residual and the
Drinfeld double cross-relation are built on top of the same backend
protocol. This is the only implementation of the Hopf operations and the
only Hall element type; hallalg.classical's symmetric-function bridge
(to_symfun, from_symfun, hl_pairing) works on CLASSICAL's elements.

A backend gives its structure constants one dimension vector at a time:
row(M, N), every nonzero G^R_MN of one product as {R: G}; subtable(R),
every nonzero G^R_MN of one R as {(M, N): G}; hall(R, M, N), one Hall
number, a lookup into them; and aut(M), |Aut M|. Products read rows; the
coproduct and the closed antipode read subtables. Each backend memoizes
_subtables(gamma), the subtables of every R of dimension gamma: on
quivers one submodule_type_tables pass over the class representatives of
gamma, classically the product rows of weight gamma transposed. A quiver
row is read from the subtables of its dimension, transposed once per
dimension; a classical row is classical._product_row with the lighter
factor on the right, which hallalg.classical caches.

Each backend instance keeps one memo, filled by the functions decorated
with _memoized (class tables, subtables and quiver rows of a dimension,
coproduct terms, antipode values, classes of a dimension and each 1/a_M
in the pairing ring); it lives as long as the backend. On quivers the
classes entry of a dimension vector also holds each class's index,
representative and |Aut|, all read from its enumeration, and the memo
keeps each label's dimension vector and report string and the Euler form
of each pair of dimension vectors asked for. The quiver backend builds
its zero and one scalars once, when it checks q, and hands out those;
scalars are immutable, so sharing them is safe.

multiply and TensorElement.product take each pair of basis terms through
one step, _basis_product: the twist exponent, the offset sum and the
product row {R: G^R_MN}.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .exactnum import (
    BudgetError,
    ConsistencyError,
    LaurentPoly,
    LinearCombination,
    QrtScalar,
    RationalFunction,
    _qrt,
    balanced_qfactorial,
    laurent_at_nu,
)
from .partitions import all_partitions, aut_poly, dominance_key, parse_partition, render_partition
from . import classical, quiverrep
from .quiverrep import Quiver, enumerate_iso_classes, label_dim


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------


def _memoized(fn):
    """Memoize fn(b, *args) in the backend's memo, keyed by fn's qualified
    name and args; values are never None."""
    name = fn.__qualname__

    @functools.wraps(fn)
    def recall(b, *args):
        key = (name, args)
        val = b._memo.get(key)
        if val is None:
            val = b._memo[key] = fn(b, *args)
        return val

    return recall


class ClassicalGeneric:
    """Generic classical backend: labels are partitions, scalars are Laurent
    polynomials in t, the Euler form vanishes so every twist is 1 and the k
    symbols are invisible (offset length 0)."""

    offset_len = 0
    name = "classical"

    def __init__(self):
        self._memo: Dict = {}

    # labels and grading
    @_memoized
    def zero_label(self):
        return ()

    def normalize_gamma(self, gamma) -> Tuple[int, ...]:
        if isinstance(gamma, int):
            return (gamma,)
        gamma = tuple(int(g) for g in gamma)
        if len(gamma) != 1:
            raise ValueError("classical backend grades by a single integer")
        return gamma

    def classes_of_dim(self, gamma) -> List[Tuple[int, ...]]:
        (n,) = self.normalize_gamma(gamma)
        return self._classes(n) if n >= 0 else []

    @_memoized
    def _classes(self, n: int) -> List[Tuple[int, ...]]:
        return sorted(all_partitions(n), key=dominance_key)

    def dim_of(self, label) -> Tuple[int, ...]:
        return (sum(label),)

    def offset_of_dim(self, dim) -> Tuple[int, ...]:
        return ()

    # structure constants
    def hall(self, R, M, N):
        # labels are canonical partitions, so skip hall_poly's normalization
        return classical._hall_poly(R, M, N)

    def row(self, M, N) -> Dict:
        """{R: G^R_MN} over the nonzero terms: classical's product row, read
        with the lighter factor on the right (the algebra is commutative)."""
        if sum(N) > sum(M):
            M, N = N, M
        return classical._product_row(M, N)

    def subtable(self, R) -> Dict:
        """{(M, N): G^R_MN} over every split |M| + |N| = |R| whose Hall
        polynomial is nonzero."""
        return self._subtables(sum(R))[R]

    @_memoized
    def _subtables(self, n: int) -> Dict:
        """{R: subtable(R)} for every R of weight n: the product rows of
        weight n, transposed."""
        tables = {R: {} for R in self._classes(n)}
        for m in range(n + 1):
            for M in all_partitions(m):
                for N in all_partitions(n - m):
                    for R, g in self.row(M, N).items():
                        tables[R][M, N] = g
        return tables

    def aut(self, label):
        return aut_poly(label)

    def euler_a(self, alpha, beta) -> int:
        return 0

    def sym_a(self, alpha, beta) -> int:
        return 0

    # scalars
    def zero(self):
        return LaurentPoly.zero()

    def one(self):
        return LaurentPoly.one()

    def from_int(self, n: int):
        return LaurentPoly.from_int(n)

    def nu_power(self, k: int):
        if k != 0:
            raise ConsistencyError(
                "classical backend has a trivial multiplicative form; "
                f"got v^{k}"
            )
        return LaurentPoly.one()

    def coeff_div(self, a, b):
        try:
            return a.divexact(b)
        except ValueError as exc:
            raise ConsistencyError(
                f"{self.name} backend: {a.render()} divided by {b.render()} "
                "is not a Laurent polynomial"
            ) from exc

    def check_element_scalar(self, c) -> None:
        pass  # Laurent by construction

    # pairing scalars live in the rational function field
    def to_pairing(self, c):
        if isinstance(c, RationalFunction):
            return c
        return RationalFunction(c, LaurentPoly.one())

    def pairing_zero(self):
        return RationalFunction.zero()

    # label serialization for reports
    def label_string(self, label) -> str:
        return render_partition(label)

    def parse_label(self, s: str):
        return parse_partition(s)


class QuiverAtQ:
    """Quiver representations over F_q: labels from enumerate_iso_classes,
    scalars in Q(sqrt q), K-offsets in Z^vertices."""

    def __init__(self, quiver: Quiver, q: int, budget: Optional[int] = None):
        # building the scalars checks that q is prime
        self._zero = QrtScalar(q, 0)
        self._one = QrtScalar(q, 1)
        self.quiver = quiver
        self.q = q
        self.budget = quiverrep.DEFAULT_BUDGET if budget is None else budget
        self.offset_len = quiver.n
        self.name = f"quiver(q={q})"
        self._memo: Dict = {}

    @_memoized
    def zero_label(self):
        return self.classes_of_dim((0,) * self.quiver.n)[0]

    def normalize_gamma(self, gamma) -> Tuple[int, ...]:
        if isinstance(gamma, int):
            if self.quiver.n != 1:
                raise ValueError("integer K-class only valid for one-vertex quivers")
            return (gamma,)
        gamma = tuple(int(g) for g in gamma)
        if len(gamma) != self.quiver.n:
            raise ValueError("K-class length must match the vertex count")
        return gamma

    def classes_of_dim(self, gamma) -> List:
        gamma = self.normalize_gamma(gamma)
        if any(g < 0 for g in gamma):
            return []
        return self._classes(gamma)[0]

    @_memoized
    def _classes(self, gamma: Tuple[int, ...]) -> Tuple[List, Dict]:
        """(labels in enumeration order, {label: (index, representative,
        |Aut|)}), from one enumerate_iso_classes call; by orbit-stabilizer
        |Aut M| = |GL_gamma| / |orbit of M|."""
        classes = enumerate_iso_classes(self.quiver, self.q, gamma, budget=self.budget)
        gl = quiverrep.gl_order_vec(gamma, self.q)
        by_label = {lab: (i, rep, gl // size) for i, (lab, rep, size) in enumerate(classes)}
        return [lab for lab, _, _ in classes], by_label

    @_memoized
    def dim_of(self, label) -> Tuple[int, ...]:
        return label_dim(self.quiver, label)

    def offset_of_dim(self, dim) -> Tuple[int, ...]:
        return tuple(dim)

    def _class(self, label) -> Tuple[int, quiverrep.QuiverRep, int]:
        return self._classes(self.dim_of(label))[1][label]

    def rep(self, label):
        """The class representative enumerate_iso_classes returned."""
        return self._class(label)[1]

    def row(self, M, N) -> Dict:
        """{R: G^R_MN} over the nonzero terms, from the subtables of
        dim M + dim N."""
        return self._rows(_add_offsets(self.dim_of(M), self.dim_of(N))).get((M, N), {})

    def subtable(self, R) -> Dict:
        """{(M, N): G^R_MN} for every nonzero entry, from R's submodule type
        table (keyed by quotient type, then sub type)."""
        return self._subtables(self.dim_of(R))[R]

    def hall(self, R, M, N):
        return self.subtable(R).get((M, N), self._zero)

    @_memoized
    def _subtables(self, gamma: Tuple[int, ...]) -> Dict:
        """{R: subtable(R)} for every class R of dimension gamma, from one
        submodule_type_tables pass over their representatives."""
        labels = self.classes_of_dim(gamma)
        tables = quiverrep.submodule_type_tables([self.rep(R) for R in labels], budget=self.budget)
        return {
            R: {key: _qrt(self.q, cnt, 0, 1) for key, cnt in table.items()}
            for R, table in zip(labels, tables)
        }

    @_memoized
    def _rows(self, gamma: Tuple[int, ...]) -> Dict:
        """{(M, N): row(M, N)} for every nonzero row of dimension gamma: the
        subtables of gamma, transposed."""
        rows: Dict = {}
        for R, table in self._subtables(gamma).items():
            for key, g in table.items():
                rows.setdefault(key, {})[R] = g
        return rows

    def aut(self, label):
        return _qrt(self.q, self._class(label)[2], 0, 1)

    @_memoized
    def euler_a(self, alpha, beta) -> int:
        return quiverrep.euler_form_add(self.quiver, alpha, beta)

    def sym_a(self, alpha, beta) -> int:
        return self.euler_a(alpha, beta) + self.euler_a(beta, alpha)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n: int):
        return QrtScalar(self.q, n)

    def nu_power(self, k: int):
        return QrtScalar.nu(self.q, k)

    def coeff_div(self, a, b):
        return a / b

    def check_element_scalar(self, c) -> None:
        if not c.has_qpower_denominator():
            raise ConsistencyError(
                "element coefficient has a non-q-power denominator: "
                f"{c!r}"
            )

    def to_pairing(self, c):
        return c

    def pairing_zero(self):
        return self._zero

    @_memoized
    def label_string(self, label) -> str:
        dim = self.dim_of(label)
        return f"c{self._class(label)[0]}@({','.join(str(d) for d in dim)})"

    def parse_label(self, s: str):
        s = s.strip()
        if not s.startswith("c") or "@" not in s:
            raise ValueError(f"bad class label {s!r}; expected cIDX@(d1,...)")
        idx_part, dim_part = s[1:].split("@", 1)
        idx = int(idx_part)
        dim_part = dim_part.strip()
        if dim_part.startswith("(") and dim_part.endswith(")"):
            dim_part = dim_part[1:-1]
        dim = tuple(int(x) for x in dim_part.split(",") if x.strip() != "")
        classes = self.classes_of_dim(dim)
        if not 0 <= idx < len(classes):
            raise ValueError(f"class index {idx} out of range for dimension {dim}")
        return classes[idx]


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


def _zero_offset(b) -> Tuple[int, ...]:
    return (0,) * b.offset_len


class HallElement(LinearCombination):
    """Finite sum of [label] k_offset terms over one backend, stored as
    {(label, k_offset): scalar}."""

    __slots__ = ()

    @classmethod
    def basis(cls, backend, label, offset: Optional[Tuple[int, ...]] = None) -> "HallElement":
        off = _zero_offset(backend) if offset is None else tuple(offset)
        if len(off) != backend.offset_len:
            raise ValueError("k-offset length must match the backend")
        return cls(backend, {(label, off): backend.one()})

    @classmethod
    def k(cls, backend, offset) -> "HallElement":
        return cls.basis(backend, backend.zero_label(), tuple(offset))

    @classmethod
    def one(cls, backend) -> "HallElement":
        return cls.basis(backend, backend.zero_label())

    def is_plain(self) -> bool:
        z = _zero_offset(self.backend)
        return all(off == z for _, off in self.terms)

    def coeff(self, label, offset: Optional[Tuple[int, ...]] = None):
        off = _zero_offset(self.backend) if offset is None else tuple(offset)
        return self.terms.get((label, off), self.backend.zero())

    def __mul__(self, other: "HallElement") -> "HallElement":
        return multiply(self.backend, self, other)

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (self.backend.dim_of(kv[0][0]), kv[0][1], kv[0][0]),
        )

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for (label, off), c in self.sorted_terms():
            s = f"({c!r})[{self.backend.label_string(label)}]"
            if any(off):
                s += f"k{off}"
            bits.append(s)
        return " + ".join(bits)


class TensorElement(LinearCombination):
    """Finite sum of (x-term tensor y-term) over one backend, stored as
    {((label, k_offset), (label, k_offset)): scalar}."""

    __slots__ = ()

    def coeff(self, left_key, right_key):
        return self.terms.get((left_key, right_key), self.backend.zero())

    def product(self, other: "TensorElement", twisted: bool) -> "TensorElement":
        """Componentwise product; the twisted variant inserts the sign
        v^(wt(y), wt(z))_sym between the inner legs. Twisting is only defined
        for plain (k-free) tensors."""
        b = self.backend
        _check_same_backend(b, other.backend)
        out: Dict = {}
        for ((xl, xo), (yl, yo)), c1 in self.terms.items():
            for ((zl, zo), (wl, wo)), c2 in other.terms.items():
                e = 0
                if twisted:
                    if any(xo) or any(yo) or any(zo) or any(wo):
                        raise ValueError("twisted product is defined on k-free tensors")
                    e = b.sym_a(b.dim_of(yl), b.dim_of(zl))
                e1, lo, lrow = _basis_product(b, xl, xo, zl, zo)
                e2, ro, rrow = _basis_product(b, yl, yo, wl, wo)
                e += e1 + e2
                # a leg's coefficients v^e G are those multiply checks on a
                # product of two basis terms; a power of v keeps the part of
                # a denominator prime to q, so checking G checks v^e G
                for g in itertools.chain(lrow.values(), rrow.values()):
                    b.check_element_scalar(g)
                factor = c1 * c2
                if e:
                    factor = factor * b.nu_power(e)
                for A, ga in lrow.items():
                    fa = factor * ga
                    for B, gb in rrow.items():
                        key = ((A, lo), (B, ro))
                        add = fa * gb
                        out[key] = out[key] + add if key in out else add
        return TensorElement(b, out)

    def sorted_terms(self):
        b = self.backend

        def key(kv):
            (lk, rk) = kv[0]
            return (
                b.dim_of(lk[0]), lk[1], lk[0],
                b.dim_of(rk[0]), rk[1], rk[0],
            )

        return sorted(self.terms.items(), key=key)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for ((ll, lo), (rl, ro)), c in self.sorted_terms():
            s = f"({c!r})[{self.backend.label_string(ll)}]"
            if any(lo):
                s += f"k{lo}"
            s += f" (x) [{self.backend.label_string(rl)}]"
            if any(ro):
                s += f"k{ro}"
            bits.append(s)
        return " + ".join(bits)


def _check_same_backend(a, b):
    if a is not b:
        raise ValueError("elements live over different backends")


def _add_offsets(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _neg_offset(a: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(-x for x in a)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def _basis_product(b, M, alpha, N, beta) -> Tuple[int, Tuple[int, ...], Dict]:
    """[M]k_alpha [N]k_beta = v^e sum_R G^R_MN [R]k_{alpha+beta}, as
    (e, alpha + beta, {R: G}), with e = (alpha, N)_sym + <M, N>."""
    dN = b.dim_of(N)
    e = b.euler_a(b.dim_of(M), dN) + b.sym_a(alpha, dN)
    return e, _add_offsets(alpha, beta), b.row(M, N)


def multiply(b, x: HallElement, y: HallElement) -> HallElement:
    """Twisted Hall product on the extended algebra."""
    _check_same_backend(b, x.backend)
    _check_same_backend(b, y.backend)
    out: Dict = {}
    for (M, alpha), cx in x.terms.items():
        for (N, beta), cy in y.terms.items():
            e, off, row = _basis_product(b, M, alpha, N, beta)
            factor = cx * cy
            if e:
                factor = factor * b.nu_power(e)
            for R, g in row.items():
                key = (R, off)
                add = factor * g
                out[key] = out[key] + add if key in out else add
    elem = HallElement(b, out)
    for c in elem.terms.values():
        b.check_element_scalar(c)
    return elem


def one_gamma(b, gamma) -> HallElement:
    """Sum of every class of K-class gamma, coefficient 1."""
    labels = b.classes_of_dim(gamma)
    return HallElement(b, {(lab, _zero_offset(b)): b.one() for lab in labels})


# ---------------------------------------------------------------------------
# coproduct and counit
# ---------------------------------------------------------------------------


@_memoized
def _delta_basis(b, R) -> List[Tuple[object, object, object]]:
    """Terms (M, N, coeff) of Delta([R]) without offsets applied, one per
    nonzero entry of R's subtable: coeff = v^<M,N> (a_M a_N / a_R) G^R_MN."""
    aR = b.aut(R)
    out = []
    for (M, N), g in b.subtable(R).items():
        coeff = b.coeff_div(b.aut(M) * b.aut(N) * g, aR)
        e = b.euler_a(b.dim_of(M), b.dim_of(N))
        if e:
            coeff = coeff * b.nu_power(e)
        out.append((M, N, coeff))
    return out


def _dim_splits(b, dR) -> List[Tuple[int, ...]]:
    ranges = [range(d + 1) for d in dR]
    return [tuple(v) for v in itertools.product(*ranges)]


def comultiply(b, x: HallElement) -> TensorElement:
    """Extended coproduct: Delta([R]k_a) = sum coeff [M]k_{dim(N)+a} (x) [N]k_a."""
    _check_same_backend(b, x.backend)
    out: Dict = {}
    for (R, alpha), c in x.terms.items():
        for M, N, coeff in _delta_basis(b, R):
            dN = b.dim_of(N)
            left = (M, _add_offsets(b.offset_of_dim(dN), alpha))
            right = (N, alpha)
            key = (left, right)
            add = coeff * c
            out[key] = out[key] + add if key in out else add
    elem = TensorElement(b, out)
    for c in elem.terms.values():
        b.check_element_scalar(c)
    return elem


def comultiply_plain(b, x: HallElement) -> TensorElement:
    """k-free coproduct Delta' (the k symbols dropped); input must be plain."""
    _check_same_backend(b, x.backend)
    if not x.is_plain():
        raise ValueError("plain coproduct needs a k-free element")
    z = _zero_offset(b)
    out: Dict = {}
    for (R, _), c in x.terms.items():
        for M, N, coeff in _delta_basis(b, R):
            key = ((M, z), (N, z))
            add = coeff * c
            out[key] = out[key] + add if key in out else add
    return TensorElement(b, out)


def counit(b, x: HallElement):
    """eps([M]k_a) = 1 if M = 0 else 0."""
    _check_same_backend(b, x.backend)
    zero_lab = b.zero_label()
    total = b.zero()
    for (M, _), c in x.terms.items():
        if M == zero_lab:
            total = total + c
    return total


# ---------------------------------------------------------------------------
# Green pairing
# ---------------------------------------------------------------------------


def pairing(b, x: HallElement, y: HallElement):
    """([M]k_a, [N]k_b) = delta_MN v^(a,b)_sym / a_M, extended bilinearly.
    Returned in the pairing scalar ring (rational functions for the
    classical backend)."""
    _check_same_backend(b, x.backend)
    _check_same_backend(b, y.backend)
    total = b.pairing_zero()
    for (M, alpha), cx in x.terms.items():
        for (N, beta), cy in y.terms.items():
            if M != N:
                continue
            num = cx * cy
            s = b.sym_a(alpha, beta)
            if s:
                num = num * b.nu_power(s)
            total = total + b.to_pairing(num) * _inv_aut(b, M)
    return total


def pairing_tensor(b, t1: TensorElement, t2: TensorElement):
    """Pairing of tensors, componentwise: (x (x) y, z (x) w) = (x,z)(y,w).
    Only terms with equal labels on both legs pair to nonzero, so the
    smaller tensor is bucketed by (left label, right label) and each term
    of the larger one visits just its bucket. The pairing is symmetric, so
    which of t1 and t2 is bucketed does not change the value."""
    _check_same_backend(b, t1.backend)
    _check_same_backend(b, t2.backend)
    if len(t2.terms) > len(t1.terms):
        t1, t2 = t2, t1
    by_labels: Dict[Tuple, List] = {}
    for (lk2, rk2), c2 in t2.terms.items():
        by_labels.setdefault((lk2[0], rk2[0]), []).append((lk2, rk2, c2))
    total = b.pairing_zero()
    for (lk1, rk1), c1 in t1.terms.items():
        for lk2, rk2, c2 in by_labels.get((lk1[0], rk1[0]), ()):
            p1 = _pair_terms(b, lk1, lk2)
            p2 = _pair_terms(b, rk1, rk2)
            total = total + b.to_pairing(c1 * c2) * p1 * p2
    return total


def _pair_terms(b, key1, key2):
    (M, alpha), (N, beta) = key1, key2
    if M != N:
        return b.pairing_zero()
    s = b.sym_a(alpha, beta)
    return b.to_pairing(b.nu_power(s)) * _inv_aut(b, M) if s else _inv_aut(b, M)


@_memoized
def _inv_aut(b, M):
    """1/a_M in the pairing ring; both rings keep a canonical form, so
    multiplying by it equals dividing by a_M."""
    return b.to_pairing(b.one()) / b.to_pairing(b.aut(M))


# ---------------------------------------------------------------------------
# antipode, closed form, inverse
# ---------------------------------------------------------------------------


def _k_left_mul(b, gamma: Tuple[int, ...], x: HallElement) -> HallElement:
    """Left multiplication by k_gamma: k_g [X]k_d = v^(g,X)_sym [X]k_{g+d}."""
    out: Dict = {}
    for (X, delta), c in x.terms.items():
        s = b.sym_a(gamma, b.dim_of(X))
        coeff = c * b.nu_power(s) if s else c
        key = (X, _add_offsets(gamma, delta))
        out[key] = out[key] + coeff if key in out else coeff
    return HallElement(b, out)


def _extend_over_k(b, x: HallElement, basis_map) -> HallElement:
    """Extend an antihomomorphism known on the [M] (basis_map(b, M)) to
    [M]k_a by f([M]k_a) = k_{-a} f([M]), and linearly."""
    _check_same_backend(b, x.backend)
    total = HallElement.zero(b)
    for (M, alpha), c in x.terms.items():
        base = basis_map(b, M)
        if any(alpha):
            base = _k_left_mul(b, _neg_offset(alpha), base)
        total = total + base.scale(c)
    for c in total.terms.values():
        b.check_element_scalar(c)
    return total


@_memoized
def _antipode_basis(b, M) -> HallElement:
    """S([M]) by the recursion from m(1 (x) S)Delta = unit . counit."""
    zero_lab = b.zero_label()
    if M == zero_lab:
        return HallElement.one(b)
    acc = HallElement.basis(b, M)
    for A, Bb, coeff in _delta_basis(b, M):
        if A == zero_lab or Bb == zero_lab:
            continue
        piece = HallElement(b, {(A, b.offset_of_dim(b.dim_of(Bb))): coeff})
        acc = acc + multiply(b, piece, _antipode_basis(b, Bb))
    return -_k_left_mul(b, _neg_offset(b.offset_of_dim(b.dim_of(M))), acc)


def antipode(b, x: HallElement) -> HallElement:
    """S, extended by S([M]k_a) = k_{-a} S([M])."""
    return _extend_over_k(b, x, _antipode_basis)


def _nonzero_dim_seqs(b, dim: Tuple[int, ...]) -> List[Tuple[Tuple[int, ...], ...]]:
    """All ordered tuples of nonzero dimension vectors summing to dim."""
    if all(d == 0 for d in dim):
        return [()]
    out = []
    parts = [p for p in _dim_splits(b, dim) if any(p)]
    for first in parts:
        rest_dim = tuple(a - f for a, f in zip(dim, first))
        for rest in _nonzero_dim_seqs(b, rest_dim):
            out.append((first,) + rest)
    return out


def _filtration_count(b, R, seq, memo):
    """Number of strict chains in R with successive quotient types seq
    (top-down); pure Hall-number recursion."""
    if len(seq) == 1:
        return b.one() if seq[0] == R else b.zero()
    key = (R, seq)
    if key in memo:
        return memo[key]
    T1 = seq[0]
    total = b.zero()
    for (T, S), g in b.subtable(R).items():
        if T != T1:
            continue
        inner = _filtration_count(b, S, seq[1:], memo)
        if not inner.is_zero():
            total = total + g * inner
    memo[key] = total
    return total


@_memoized
def _antipode_closed_basis(b, M) -> HallElement:
    """S([M]) by the closed filtration sum; independent of the recursion."""
    if M == b.zero_label():
        return HallElement.one(b)
    dM = b.dim_of(M)
    aM = b.aut(M)
    memo: Dict = {}
    acc = HallElement.zero(b)
    for dims in _nonzero_dim_seqs(b, dM):
        r = len(dims)
        # v-exponent from the pairwise Euler forms of the quotient dims
        e = 0
        for i in range(r):
            for j in range(i + 1, r):
                e += b.euler_a(dims[i], dims[j])
        for types in itertools.product(*(b.classes_of_dim(d) for d in dims)):
            n_flags = _filtration_count(b, M, types, memo)
            if n_flags.is_zero():
                continue
            coeff = n_flags
            for T in types:
                coeff = coeff * b.aut(T)
            if e:
                coeff = coeff * b.nu_power(e)
            if r % 2:
                coeff = -coeff
            prod = HallElement.basis(b, types[0])
            for T in types[1:]:
                prod = multiply(b, prod, HallElement.basis(b, T))
            acc = acc + prod.scale(coeff)
    acc = HallElement(
        b, {key: b.coeff_div(c, aM) for key, c in acc.terms.items()}
    )
    out = _k_left_mul(b, _neg_offset(b.offset_of_dim(dM)), acc)
    for c in out.terms.values():
        b.check_element_scalar(c)
    return out


def antipode_closed(b, x: HallElement) -> HallElement:
    return _extend_over_k(b, x, _antipode_closed_basis)


@_memoized
def _antipode_inv_basis(b, M) -> HallElement:
    """S^{-1}([M]) from the reversed-coproduct recursion: collecting the
    B = M term of m(S^{-1} (x) 1)Delta^op = unit . counit gives
    S^{-1}([M]) = (-[M] - sum_{A,B nonzero} coeff S^{-1}([B]) [A]k_B) k_{-M}."""
    zero_lab = b.zero_label()
    if M == zero_lab:
        return HallElement.one(b)
    acc = HallElement.basis(b, M)
    for A, Bb, coeff in _delta_basis(b, M):
        if A == zero_lab or Bb == zero_lab:
            continue
        piece = HallElement(b, {(A, b.offset_of_dim(b.dim_of(Bb))): coeff})
        acc = acc + multiply(b, _antipode_inv_basis(b, Bb), piece)
    shift = _neg_offset(b.offset_of_dim(b.dim_of(M)))
    return HallElement(
        b, {(X, _add_offsets(delta, shift)): -c for (X, delta), c in acc.terms.items()}
    )


def antipode_inv(b, x: HallElement) -> HallElement:
    """S^{-1}; like S it is an antihomomorphism, so
    S^{-1}([M]k_a) = S^{-1}(k_a applied last) = k_{-a} S^{-1}([M])."""
    return _extend_over_k(b, x, _antipode_inv_basis)


# ---------------------------------------------------------------------------
# structural residuals
# ---------------------------------------------------------------------------


def green_compat_residual(b, x: HallElement, y: HallElement) -> TensorElement:
    """Delta'(xy) - Delta'(x) *tw Delta'(y); zero certifies Green's theorem
    for this pair. Inputs must be k-free."""
    _check_same_backend(b, x.backend)
    _check_same_backend(b, y.backend)
    if not (x.is_plain() and y.is_plain()):
        raise ValueError("green residual is defined on k-free inputs")
    lhs = comultiply_plain(b, multiply(b, x, y))
    rhs = comultiply_plain(b, x).product(comultiply_plain(b, y), twisted=True)
    return lhs - rhs


def divided_power(b, x: HallElement, n: int) -> HallElement:
    """x^n / [n]!_v (balanced v-factorial at the backend's v)."""
    if n < 0:
        raise ValueError("divided power needs n >= 0")
    out = HallElement.one(b)
    for _ in range(n):
        out = multiply(b, out, x)
    if n <= 1:
        return out
    if isinstance(b, ClassicalGeneric):
        raise ValueError("divided powers need the v-scalar backend")
    fact = laurent_at_nu(balanced_qfactorial(n), b.q)
    return HallElement(
        b, {key: c / fact for key, c in out.terms.items()}
    )


def serre_residual(Q: Quiver, q: int, i, j, budget: Optional[int] = None) -> HallElement:
    """Quantum Serre residual sum_{l=0}^{m} (-1)^l [S_i]^(l) [S_j] [S_i]^(m-l)
    with m = 1 - a_ij; zero certifies the relation."""
    b = QuiverAtQ(Q, q, budget=budget)
    iv = Q.vertex_index(i) if isinstance(i, str) else int(i)
    jv = Q.vertex_index(j) if isinstance(j, str) else int(j)
    if iv == jv:
        raise ValueError("serre residual needs distinct vertices")
    ei = tuple(1 if v == iv else 0 for v in range(Q.n))
    ej = tuple(1 if v == jv else 0 for v in range(Q.n))
    a_ij = b.sym_a(ei, ej)
    m = 1 - a_ij
    si = b.classes_of_dim(ei)[0]
    sj = b.classes_of_dim(ej)[0]
    Ei = HallElement.basis(b, si)
    Ej = HallElement.basis(b, sj)
    total = HallElement.zero(b)
    for l in range(m + 1):
        term = multiply(
            b, multiply(b, divided_power(b, Ei, l), Ej), divided_power(b, Ei, m - l)
        )
        if l % 2:
            term = -term
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Drinfeld double cross-relation
# ---------------------------------------------------------------------------


def _triple_terms(b, key):
    """Sweedler triples of Delta^2 of a single [M]k_a term: list of
    (term1, term2, term3, coeff) with term = (label, offset)."""
    (M, alpha) = key
    out = []
    for A, B, c1 in _delta_basis(b, M):
        dB = b.dim_of(B)
        # Delta([M]k_alpha) = c1 [A]k_{B+alpha} (x) [B]k_alpha; split A further
        for A1, A2, c2 in _delta_basis(b, A):
            off_B_alpha = _add_offsets(b.offset_of_dim(dB), alpha)
            t1 = (A1, _add_offsets(b.offset_of_dim(b.dim_of(A2)), off_B_alpha))
            t2 = (A2, off_B_alpha)
            t3 = (B, alpha)
            out.append((t1, t2, t3, c1 * c2))
    return out


def drinfeld_cross(
    b, x_minus: HallElement, y_plus: HallElement, sweedler_reversed: bool = False
) -> Dict:
    """Reorder x^- y^+ into the normal form of the reduced double:
    {(y_label, k_offset, x_label): scalar} meaning [Y]^+ k_offset [X]^-.

    Uses x^- y^+ = sum (x_1, y_3) (S^{-1}(x_3), y_1) y_2^+ x_2^-, with both
    Sweedler decompositions from the standard iterated coproduct. The
    sweedler_reversed flag replaces the x-decomposition by its reverse (the
    opposite-coproduct reading); it exists for falsification tests and fails
    the one-vertex oracle.
    """
    _check_same_backend(b, x_minus.backend)
    _check_same_backend(b, y_plus.backend)
    out: Dict = {}
    for xkey, cx in x_minus.terms.items():
        xtriples = _triple_terms(b, xkey)
        if sweedler_reversed:
            xtriples = [(t3, t2, t1, c) for (t1, t2, t3, c) in xtriples]
        for ykey, cy in y_plus.terms.items():
            ytriples = _triple_terms(b, ykey)
            for x1, x2, x3, cxt in xtriples:
                sx3 = antipode_inv(b, HallElement(b, {x3: b.one()}))
                for y1, y2, y3, cyt in ytriples:
                    p1 = _pair_terms(b, x1, y3)
                    if p1.is_zero():
                        continue
                    p2 = b.pairing_zero()
                    for skey, sc in sx3.terms.items():
                        p = _pair_terms(b, skey, y1)
                        if not p.is_zero():
                            p2 = p2 + b.to_pairing(sc) * p
                    if p2.is_zero():
                        continue
                    scalar = (
                        b.to_pairing(cx * cy * cxt * cyt) * p1 * p2
                    )
                    (Y2, gamma) = y2
                    (X2, delta) = x2
                    # [Y]k+_g [X]k-_d -> v^{-(d, X)_sym} [Y] k_{g-d} [X]
                    s = b.sym_a(delta, b.dim_of(X2))
                    if s:
                        scalar = scalar * b.to_pairing(b.nu_power(-s))
                    key = (Y2, tuple(g - d for g, d in zip(gamma, delta)), X2)
                    out[key] = out[key] + scalar if key in out else scalar
    return {k: v for k, v in out.items() if not v.is_zero()}


# the classical backend of hallalg.classical's from_symfun and hl_pairing
CLASSICAL = ClassicalGeneric()
