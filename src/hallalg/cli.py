"""Batch front end.

Subcommands: hallpoly, mult, comult, antipode, verify. Output is byte
deterministic for identical inputs; --out writes the payload to a file and
keeps stdout quiet. Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 resource budget exceeded, 4 internal invariant failed
(ConsistencyError).
"""

import argparse
import io
import json
import sys
from typing import List, Optional, Tuple

from .classical import hall_poly
from .engine import (
    antipode as engine_antipode,
    ClassicalGeneric,
    comultiply,
    HallElement,
    multiply,
    QuiverAtQ,
)
from .exactnum import BudgetError, ConsistencyError, is_prime, LaurentPoly
from .partitions import parse_partition, render_partition
from .quiverrep import count_submodules, jordan_rep, Quiver
from .serialize import (
    element_records,
    latex_element,
    latex_tensor,
    render_element,
    render_scalar,
    render_tensor,
    tensor_records,
)
from .verify import all_passed, run_suite, SUITE_NAMES


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hallalg",
        description="Exact Hall algebra computations and verification suites.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, backend=True):
        if backend:
            sp.add_argument(
                "--backend", choices=("classical", "quiver"), default="classical"
            )
        sp.add_argument("--quiver", metavar="FILE", help="quiver file (JSON)")
        sp.add_argument("--q", type=int, default=2, help="field size (prime)")
        sp.add_argument("--budget", type=int, default=None, help="enumeration budget")
        sp.add_argument(
            "--format", choices=("json", "csv", "latex"), default="json"
        )
        sp.add_argument("--out", metavar="FILE", help="write output file, quiet stdout")

    hp = sub.add_parser("hallpoly", help="Hall polynomial for a partition triple")
    hp.add_argument("nu")
    hp.add_argument("mu")
    hp.add_argument("la")
    hp.add_argument(
        "--check-q",
        metavar="LIST",
        help="comma-separated primes; brute-force count and compare",
    )
    common(hp, backend=False)

    for name, helptext in (
        ("mult", "product of an element expression"),
        ("comult", "coproduct of an element expression"),
        ("antipode", "antipode of an element expression"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("expr", help="factors joined by '*': labels and scalars")
        common(sp)

    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("suite", choices=SUITE_NAMES)
    vp.add_argument("--deg", type=int, default=None, help="degree / dimension bound")
    vp.add_argument("--check-q", metavar="LIST", help="comma-separated field sizes")
    common(vp)
    return p


# ---------------------------------------------------------------------------
# element expressions
# ---------------------------------------------------------------------------


def _parse_offset(tok: str) -> Tuple[int, ...]:
    body = tok.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if not body.strip():
        return ()
    return tuple(int(x) for x in body.split(","))


def _scalar_factor(b, tok: str):
    """Integer always; Laurent in t for classical; v-powers for quiver."""
    text = tok.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    try:
        return b.from_int(int(text))
    except ValueError:
        pass
    if isinstance(b, ClassicalGeneric):
        return LaurentPoly.parse(text)
    neg = text.startswith("-")
    if neg:
        text = text[1:].strip()
    if text == "v":
        s = b.nu_power(1)
    elif text.startswith("v^"):
        s = b.nu_power(int(text[2:]))
    else:
        raise ValueError(
            f"cannot parse scalar {tok!r}: use integers or v^k on this backend"
        )
    return -s if neg else s


def parse_element(b, expr: str) -> HallElement:
    """Product grammar: factors joined by '*'; each factor is a basis label
    ('[2,1]' classical, 'c0@(1,1)' quiver), a k symbol 'k(a1,...)', or a
    scalar (integer; Laurent in t for classical; v^k for quiver)."""
    acc = HallElement.one(b)
    for tok in expr.split("*"):
        tok = tok.strip()
        if not tok:
            raise ValueError("empty factor in expression")
        if tok.startswith("["):
            if not isinstance(b, ClassicalGeneric):
                raise ValueError("partition labels belong to the classical backend")
            acc = multiply(b, acc, HallElement.basis(b, parse_partition(tok)))
        elif tok.startswith("k(") and tok.endswith(")"):
            off = _parse_offset(tok[1:])
            if len(off) != b.offset_len:
                raise ValueError(
                    f"k offset {tok!r} has length {len(off)}; backend needs {b.offset_len}"
                )
            acc = multiply(b, acc, HallElement.k(b, off))
        elif tok.startswith("c") and "@" in tok:
            acc = multiply(b, acc, HallElement.basis(b, b.parse_label(tok)))
        else:
            acc = acc.scale(_scalar_factor(b, tok))
    return acc


def _load_backend(args):
    if args.backend == "classical":
        return ClassicalGeneric()
    if not is_prime(args.q):
        raise ValueError(f"--q must be prime for the quiver backend, got {args.q}")
    if args.quiver:
        Q = Quiver.load(args.quiver)
    else:
        raise ValueError("the quiver backend needs --quiver FILE")
    return QuiverAtQ(Q, args.q, budget=args.budget)


# ---------------------------------------------------------------------------
# payload rendering
# ---------------------------------------------------------------------------


def _csv_text(header: List[str], rows: List[List[str]]) -> str:
    import csv  # only CSV output needs it, so importing the CLI skips it

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _latex_escape(s: str) -> str:
    for ch in ("\\", "&", "%", "#", "_", "{", "}"):
        s = s.replace(ch, "\\" + ch)
    return s


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_hallpoly(args) -> Tuple[str, bool]:
    nu = parse_partition(args.nu)
    mu = parse_partition(args.mu)
    la = parse_partition(args.la)
    poly = hall_poly(nu, mu, la)
    checks = []
    failed = False
    if args.check_q:
        for qs in args.check_q.split(","):
            q = int(qs.strip())
            if not is_prime(q):
                raise ValueError(f"--check-q entries must be prime, got {q}")
            if sum(nu) == sum(mu) + sum(la):
                brute = count_submodules(jordan_rep(nu, q), mu, la, budget=args.budget)
            else:
                brute = 0
            ev = poly.evaluate(q)
            match = ev == brute
            failed = failed or not match
            checks.append(
                {
                    "q": q,
                    "evaluated": render_scalar(ev),
                    "brute": brute,
                    "match": match,
                }
            )
    if args.format == "json":
        data = {
            "nu": render_partition(nu),
            "mu": render_partition(mu),
            "la": render_partition(la),
            "polynomial": poly.render(),
            "checks": checks,
        }
        return json.dumps(data, indent=2) + "\n", failed
    if args.format == "csv":
        rows = [[render_partition(nu), render_partition(mu), render_partition(la), poly.render()]]
        text = _csv_text(["nu", "mu", "la", "polynomial"], rows)
        if checks:
            text += _csv_text(
                ["q", "evaluated", "brute", "match"],
                [[c["q"], c["evaluated"], c["brute"], str(c["match"]).lower()] for c in checks],
            )
        return text, failed
    from .serialize import latex_scalar

    lines = [
        f"$P^{{{render_partition(nu)}}}_{{{render_partition(mu)},{render_partition(la)}}}(t) = {latex_scalar(poly)}$"
    ]
    for c in checks:
        verdict = "ok" if c["match"] else "MISMATCH"
        lines.append(
            f"% q={c['q']}: evaluated {c['evaluated']}, brute {c['brute']} ({verdict})"
        )
    return "\n".join(lines) + "\n", failed


def cmd_element_op(args) -> Tuple[str, bool]:
    b = _load_backend(args)
    x = parse_element(b, args.expr)
    if args.command == "mult":
        result = x
    elif args.command == "antipode":
        result = engine_antipode(b, x)
    else:
        result = comultiply(b, x)
    is_tensor = args.command == "comult"
    if args.format == "json":
        data = {
            "backend": b.name,
            "expr": args.expr,
            ("tensor" if is_tensor else "element"): (
                tensor_records(result) if is_tensor else element_records(result)
            ),
            "rendered": render_tensor(result) if is_tensor else render_element(result),
        }
        return json.dumps(data, indent=2) + "\n", False
    if args.format == "csv":
        if is_tensor:
            recs = tensor_records(result)
            header = ["left_label", "left_k_offset", "right_label", "right_k_offset", "coeff"]
            rows = [
                [
                    r["left_label"],
                    ";".join(str(v) for v in r["left_k_offset"]),
                    r["right_label"],
                    ";".join(str(v) for v in r["right_k_offset"]),
                    r["coeff"],
                ]
                for r in recs
            ]
        else:
            recs = element_records(result)
            header = ["label", "k_offset", "coeff"]
            rows = [
                [r["label"], ";".join(str(v) for v in r["k_offset"]), r["coeff"]]
                for r in recs
            ]
        return _csv_text(header, rows), False
    body = latex_tensor(result) if is_tensor else latex_element(result)
    return f"${body}$\n", False


def cmd_verify(args) -> Tuple[str, bool]:
    quiver = Quiver.load(args.quiver) if args.quiver else None
    check_q = None
    if args.check_q:
        check_q = [int(x.strip()) for x in args.check_q.split(",")]
    report = run_suite(
        args.suite,
        backend=args.backend,
        quiver=quiver,
        q=args.q,
        deg=args.deg,
        budget=args.budget,
        check_q=check_q,
    )
    failed = not all_passed(report)
    if args.format == "json":
        return json.dumps(report, indent=2) + "\n", failed
    if args.format == "csv":
        rows = [[c["id"], c["status"], c["lhs"], c["rhs"]] for c in report["checks"]]
        return _csv_text(["id", "status", "lhs", "rhs"], rows), failed
    lines = [
        r"\begin{tabular}{ll}",
        r"\texttt{" + _latex_escape(report["suite"]) + r"} & checks \\",
    ]
    for c in report["checks"]:
        lines.append(
            r"\texttt{" + _latex_escape(c["id"]) + r"} & " + c["status"] + r" \\"
        )
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n", failed


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "hallpoly":
            text, failed = cmd_hallpoly(args)
        elif args.command in ("mult", "comult", "antipode"):
            text, failed = cmd_element_op(args)
        else:
            text, failed = cmd_verify(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(text, args.out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
