"""Deterministic rendering and record serialization for elements, tensors
and double normal forms. Strings here are what the CLI emits, so the rules
are fixed: terms ordered by K-class then label, scalars rendered exactly;
LaTeX coefficients factor into [n]_+ pieces when a full factorization exists.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exactnum import LaurentPoly, QrtScalar, RationalFunction, qint_plus


def render_scalar(c) -> str:
    if isinstance(c, (LaurentPoly, RationalFunction)):
        return c.render()
    if isinstance(c, QrtScalar):
        return c.render()
    if isinstance(c, Fraction):
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    if isinstance(c, int):
        return str(c)
    raise TypeError(f"cannot render scalar of type {type(c).__name__}")


def _coeff_prefix(c) -> str:
    """Coefficient as a term prefix: '' for 1, '-' for -1, parenthesized when
    it contains a sum or a quotient."""
    s = render_scalar(c)
    if s == "1":
        return ""
    if s == "-1":
        return "-"
    body = s[1:].replace("^-", "^")
    if any(ch in body for ch in "+-") or "/" in s:
        return f"({s})"
    return s


def _offset_str(off: Tuple[int, ...]) -> str:
    return "(" + ",".join(str(o) for o in off) + ")"


def _label_str(b, label) -> str:
    ls = b.label_string(label)
    return ls if ls.startswith("[") else f"[{ls}]"


def _term_str(b, label, off: Tuple[int, ...]) -> str:
    is_zero_label = label == b.zero_label()
    has_off = any(off)
    if is_zero_label and not has_off:
        return "1"
    if is_zero_label:
        return f"k{_offset_str(off)}"
    s = _label_str(b, label)
    if has_off:
        s += f"k{_offset_str(off)}"
    return s


def _scaled_term(c, term: str) -> str:
    """c times a rendered term; c times the unit term is the bare scalar."""
    return render_scalar(c) if term == "1" else _coeff_prefix(c) + term


def render_element(x) -> str:
    if x.is_zero():
        return "0"
    b = x.backend
    return " + ".join(_scaled_term(c, _term_str(b, label, off)) for (label, off), c in x.sorted_terms())


def render_tensor(t) -> str:
    if t.is_zero():
        return "0"
    b = t.backend
    bits = []
    for ((ll, lo), (rl, ro)), c in t.sorted_terms():
        prefix = _coeff_prefix(c)
        left = _term_str(b, ll, lo)
        if left == "1" and prefix:
            # c * (1 (x) y): print the scalar itself in the left slot, else
            # the digits of c and of the unit run together
            left, prefix = ("-1" if prefix == "-" else prefix), ""
        s = f"{prefix}{left} (x) {_term_str(b, rl, ro)}"
        bits.append(s)
    return " + ".join(bits)


def sorted_double_items(b, d: Dict) -> List:
    def key(kv):
        (ylab, off, xlab) = kv[0]
        return (b.dim_of(ylab), off, ylab, b.dim_of(xlab), xlab)

    return sorted(d.items(), key=key)


def render_double(b, d: Dict) -> str:
    """Normal form {(y_label, k_offset, x_label): scalar} as a string; the
    plus copy prints first, then the k symbol, then the minus copy."""
    if not d:
        return "0"
    bits = []
    zl = b.zero_label()
    for (ylab, off, xlab), c in sorted_double_items(b, d):
        parts = []
        if ylab != zl:
            parts.append(_label_str(b, ylab) + "+")
        if any(off):
            parts.append(f"k{_offset_str(off)}")
        if xlab != zl:
            parts.append(_label_str(b, xlab) + "-")
        bits.append(_scaled_term(c, " ".join(parts) if parts else "1"))
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# record (JSON/CSV) forms
# ---------------------------------------------------------------------------


# the fields of one record, in the order JSON and CSV output list them
ELEMENT_FIELDS = ("label", "k_offset", "coeff")
TENSOR_FIELDS = ("left_label", "left_k_offset", "right_label", "right_k_offset", "coeff")


def element_records(x) -> List[Dict]:
    b = x.backend
    return [
        dict(zip(ELEMENT_FIELDS, (b.label_string(label), list(off), render_scalar(c))))
        for (label, off), c in x.sorted_terms()
    ]


def tensor_records(t) -> List[Dict]:
    b = t.backend
    return [
        dict(zip(TENSOR_FIELDS, (b.label_string(ll), list(lo), b.label_string(rl), list(ro), render_scalar(c))))
        for ((ll, lo), (rl, ro)), c in t.sorted_terms()
    ]


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------


def factor_qint_plus(p: LaurentPoly) -> Optional[Tuple[int, int, List[int]]]:
    """Write p as c * t^k * prod [n_i]_+ with integer c, or None.

    Greedy largest-first division; [n]_+ = 1 + t + ... + t^(n-1). Returns
    (c, k, [n_1 >= n_2 >= ...]).
    """
    if p.is_zero():
        return None
    k = p.valuation()
    cur = p.shift(-k)
    c = cur.coeff(0)
    if c == 0:
        return None
    try:
        cur = cur.divexact(LaurentPoly.from_int(c))
    except ValueError:
        return None
    factors: List[int] = []
    while not cur.is_one():
        deg = cur.degree()
        found = None
        for n in range(deg + 1, 1, -1):
            try:
                cur2 = cur.divexact(qint_plus(n))
            except ValueError:
                continue
            found = (n, cur2)
            break
        if found is None:
            return None
        factors.append(found[0])
        cur = found[1]
    return (c, k, factors)


def _brace_exponents(s: str) -> str:
    import re

    return re.sub(r"\^(-?\d+)", r"^{\1}", s)


def latex_scalar(c) -> str:
    if isinstance(c, LaurentPoly):
        fac = factor_qint_plus(c)
        if fac is not None:
            cc, k, factors = fac
            bits = []
            if cc == -1:
                bits.append("-")
            elif cc != 1 or (k == 0 and not factors):
                bits.append(str(cc))
            if k != 0:
                bits.append(f"t^{{{k}}}" if k != 1 else "t")
            for n in factors:
                bits.append(f"[{n}]_+")
            return "".join(bits) if bits not in ([], ["-"]) else ("-1" if bits == ["-"] else "1")
        return _brace_exponents(c.render())
    if isinstance(c, RationalFunction):
        if c.den.is_one():
            return latex_scalar(c.num)
        return r"\frac{" + latex_scalar(c.num) + "}{" + latex_scalar(c.den) + "}"
    if isinstance(c, QrtScalar):
        sp = c.as_signed_nu_power()
        if sp is not None:
            sign, kk = sp
            s = "-" if sign < 0 else ""
            if kk == 0:
                return s + "1"
            return f"{s}v^{{{kk}}}" if kk != 1 else s + "v"
        return _brace_exponents(c.render())
    return render_scalar(c)


def _latex_term(b, label, off) -> str:
    is_zero_label = label == b.zero_label()
    has_off = any(off)
    bits = []
    if not is_zero_label:
        ls = b.label_string(label)
        inner = ls[1:-1] if ls.startswith("[") and ls.endswith("]") else r"\text{" + ls + r"}"
        bits.append(f"[{inner}]")
    if has_off:
        bits.append(r"k_{" + _offset_str(off) + r"}")
    if not bits:
        return "1"
    return r"\,".join(bits)


def latex_element(x) -> str:
    if x.is_zero():
        return "0"
    b = x.backend
    bits = []
    for (label, off), c in x.sorted_terms():
        s = latex_scalar(c)
        term = _latex_term(b, label, off)
        if s == "1" and term != "1":
            bits.append(term)
        elif s == "-1" and term != "1":
            bits.append("-" + term)
        elif term == "1":
            bits.append(s if len(s) < 2 or "+" not in s[1:] else f"({s})")
        else:
            wrapped = s if ("+" not in s[1:] and "-" not in s[1:].replace("^{-", "^{")) else f"\\left({s}\\right)"
            bits.append(wrapped + r"\," + term)
    return " + ".join(bits)


def latex_tensor(t) -> str:
    if t.is_zero():
        return "0"
    b = t.backend
    bits = []
    for ((ll, lo), (rl, ro)), c in t.sorted_terms():
        s = latex_scalar(c)
        left = _latex_term(b, ll, lo)
        right = _latex_term(b, rl, ro)
        if s == "1":
            bits.append(left + r" \otimes " + right)
        elif s == "-1":
            bits.append("-" + left + r" \otimes " + right)
        else:
            wrapped = s if ("+" not in s[1:] and "-" not in s[1:].replace("^{-", "^{")) else f"\\left({s}\\right)"
            if left == "1":
                # c * (1 (x) y): the scalar occupies the left slot
                bits.append(wrapped + r" \otimes " + right)
            else:
                bits.append(wrapped + r"\," + left + r" \otimes " + right)
    return " + ".join(bits)
