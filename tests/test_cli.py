"""CLI surface: goldens, formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hallalg
from hallalg.cli import main
from hallalg.quiverrep import Quiver


def run(argv):
    buf, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, buf.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def a2_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("quivers") / "a2.json"
    p.write_text(json.dumps(Quiver.a2().to_json()))
    return str(p)


def test_hallpoly_goldens():
    code, out, _ = run(["hallpoly", "(1,1)", "(1)", "(1)", "--check-q", "2,3"])
    assert code == 0
    data = json.loads(out)
    assert data["polynomial"] == "t + 1"
    assert [(c["q"], c["brute"], c["match"]) for c in data["checks"]] == [
        (2, 3, True),
        (3, 4, True),
    ]
    assert json.loads(run(["hallpoly", "(2)", "(1)", "(1)"])[1])["polynomial"] == "1"
    assert json.loads(run(["hallpoly", "(2,1)", "(2)", "(1)"])[1])["polynomial"] == "t"
    assert json.loads(run(["hallpoly", "(2,1)", "(1)", "(2)"])[1])["polynomial"] == "t"
    # degree mismatch is the zero polynomial, not an error
    code, out, _ = run(["hallpoly", "(3)", "(2)", "(2)"])
    assert code == 0 and json.loads(out)["polynomial"] == "0"


def test_mult_classical_golden():
    code, out, _ = run(["mult", "--backend", "classical", "[1]*[1]"])
    assert code == 0
    data = json.loads(out)
    assert data["rendered"] == "(t + 1)[1,1] + [2]"
    assert data["element"] == [
        {"label": "[1,1]", "k_offset": [], "coeff": "t + 1"},
        {"label": "[2]", "k_offset": [], "coeff": "1"},
    ]


def test_antipode_and_comult_classical():
    code, out, _ = run(["antipode", "--backend", "classical", "[1]"])
    assert code == 0
    assert json.loads(out)["rendered"] == "-[1]"
    code, out, _ = run(["comult", "--backend", "classical", "[2]"])
    assert code == 0
    data = json.loads(out)
    assert len(data["tensor"]) == 3
    assert data["rendered"] == "1 (x) [2] + (1 - t^-1)[1] (x) [1] + [2] (x) 1"


def test_scalar_prefixes():
    code, out, _ = run(["mult", "--backend", "classical", "(t+1)*[2]"])
    assert code == 0
    assert json.loads(out)["element"][0]["coeff"] == "t + 1"
    # leading-dash expressions need the usual '--' end-of-options marker
    code, out, _ = run(["mult", "--backend", "classical", "--", "-2*[1]"])
    assert json.loads(out)["element"][0]["coeff"] == "-2"


def test_quiver_mult_and_k(a2_path):
    code, out, _ = run(
        ["mult", "--backend", "quiver", "--quiver", a2_path, "--q", "2",
         "c0@(1,0)*c0@(0,1)"]
    )
    assert code == 0
    recs = json.loads(out)["element"]
    assert [r["coeff"] for r in recs] == ["v^-1", "v^-1"]
    code, out, _ = run(
        ["mult", "--backend", "quiver", "--quiver", a2_path, "--q", "2",
         "c0@(0,1)*c0@(1,0)"]
    )
    recs = json.loads(out)["element"]
    assert len(recs) == 1 and recs[0]["coeff"] == "1"
    code, out, _ = run(
        ["antipode", "--backend", "quiver", "--quiver", a2_path, "--q", "2", "k(1,0)"]
    )
    recs = json.loads(out)["element"]
    assert recs == [{"label": "c0@(0,0)", "k_offset": [-1, 0], "coeff": "1"}]
    code, out, _ = run(
        ["mult", "--backend", "quiver", "--quiver", a2_path, "--q", "3",
         "v^2*c0@(1,0)"]
    )
    assert json.loads(out)["element"][0]["coeff"] == "v^2"


JORDAN_MULT_ROWS = (
    "label,k_offset,coeff\n"
    "c5@(6),0,v^6\n"
    "c6@(6),0,3\n"
    "c8@(6),0,v^2\n"
    "c9@(6),0,1\n"
)


def _jordan_mult(path):
    return run(
        ["mult", "c1@(3)*c2@(3)", "--backend", "quiver", "--quiver", str(path), "--format", "csv"]
    )


def test_jordan_mult_golden(tmp_path):
    # cN@(d) on the Jordan loop indexes the partitions of d in dominance
    # order; at d = 6 it differs from lexicographic order
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(Quiver.jordan_quiver().to_json()))
    code, out, _ = _jordan_mult(path)
    assert code == 0
    assert out == JORDAN_MULT_ROWS


def test_legacy_jordan_file_gives_the_same_report(tmp_path):
    # a file that flags the Jordan loop with "jordan": true, as files did
    # before loops were arrows, reads as the one-loop nilpotent quiver
    path = tmp_path / "legacy.json"
    path.write_text(
        json.dumps({"vertices": ["1"], "arrows": [], "nilpotent": True, "jordan": True})
    )
    assert _jordan_mult(path) == (0, JORDAN_MULT_ROWS, "")


def test_verify_suites_pass(a2_path):
    code, out, _ = run(["verify", "serre", "--quiver", a2_path, "--q", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["suite"] == "serre"
    assert all(c["status"] == "pass" for c in rep["checks"])
    code, out, _ = run(["verify", "double-a1", "--q", "3"])
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["checks"]]
    assert "double-a1-coeff[q=3]" in ids
    code, out, _ = run(["verify", "hl-norms", "--deg", "3", "--check-q", "2"])
    assert code == 0
    code, out, _ = run(["verify", "steinitz", "--deg", "4"])
    assert code == 0


def test_formats(a2_path):
    code, out, _ = run(["verify", "double-a1", "--q", "2", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "id,status,lhs,rhs"
    code, out, _ = run(["verify", "serre", "--quiver", a2_path, "--format", "latex"])
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    code, out, _ = run(["mult", "--backend", "classical", "[1]*[1]", "--format", "csv"])
    assert out.splitlines()[0] == "label,k_offset,coeff"
    code, out, _ = run(["mult", "--backend", "classical", "[1]*[1]*[1]", "--format", "latex"])
    assert code == 0 and "[3]_+" in out and "[2]_+" in out


def test_byte_determinism_and_out(tmp_path, a2_path):
    args = ["comult", "--backend", "quiver", "--quiver", a2_path, "--q", "2", "c1@(1,1)"]
    out1 = run(args)[1]
    out2 = run(args)[1]
    assert out1 == out2
    target = tmp_path / "res.json"
    code, out3, _ = run(args + ["--out", str(target)])
    assert code == 0 and out3 == ""
    assert target.read_text() == out1


def test_exit_codes(a2_path):
    assert run(["verify", "nope"])[0] == 2
    assert run(["hallpoly", "x", "(1)", "(1)"])[0] == 2
    assert run(["mult", "--backend", "quiver", "c0@(1,0)"])[0] == 2
    assert run(["mult", "--backend", "quiver", "--quiver", a2_path, "--q", "4", "c0@(1,0)"])[0] == 2
    assert run(["mult", "--backend", "quiver", "--quiver", a2_path, "--q", "2", "c9@(1,0)"])[0] == 2
    assert run(["mult", "--backend", "classical", "[1]*"])[0] == 2
    code = run(
        ["verify", "orbit-stabilizer", "--quiver", a2_path, "--q", "2",
         "--deg", "7", "--budget", "10"]
    )[0]
    assert code == 3


def test_quiver_file_flags_must_be_booleans(tmp_path):
    # a --quiver file whose flag is not a JSON boolean is a usage error (2),
    # not a quiver read by the flag's truth
    two_cycle = {
        "vertices": ["0", "1"],
        "arrows": [{"source": "0", "target": "1"}, {"source": "1", "target": "0"}],
    }
    for data, code, flag in (
        ({**two_cycle, "nilpotent": False}, 0, None),
        ({**two_cycle, "nilpotent": "false"}, 2, "nilpotent"),
        ({"vertices": ["1"], "arrows": [], "jordan": "no"}, 2, "jordan"),
    ):
        path = tmp_path / "quiver.json"
        path.write_text(json.dumps(data))
        got, out, err = run(["verify", "orbit-stabilizer", "--quiver", str(path), "--q", "2", "--deg", "2"])
        assert got == code, (data, err)
        if flag:
            assert out == "" and f'quiver JSON flag "{flag}" must be true or false' in err


def test_quiver_file_structure_must_be_strings(tmp_path):
    # a --quiver file whose vertices are not a list of strings, or whose
    # arrow ends are not strings, is a usage error (2), not a quiver read
    # from their str()
    for data, what in (
        ({"vertices": "12", "arrows": [{"source": 1, "target": 2}]}, '"vertices" must be a list of strings'),
        ({"vertices": ["1", "2"], "arrows": [{"source": 1, "target": 2}]}, 'arrow "source" and "target"'),
    ):
        path = tmp_path / "quiver.json"
        path.write_text(json.dumps(data))
        got, out, err = run(["verify", "orbit-stabilizer", "--quiver", str(path), "--q", "2", "--deg", "2"])
        assert got == 2 and out == "" and what in err, (data, err)


def test_consistency_error_exit_code(monkeypatch):
    # a broken internal invariant is neither a usage error (2) nor a budget
    # overrun (3)
    import hallalg.cli
    from hallalg.exactnum import ConsistencyError

    def broken(args):
        raise ConsistencyError("orbit-stabilizer division failed")

    monkeypatch.setattr(hallalg.cli, "cmd_hallpoly", broken)
    code, out, err = run(["hallpoly", "(1,1)", "(1)", "(1)"])
    assert code == 4
    assert out == ""
    assert "orbit-stabilizer division failed" in err


def test_inexact_classical_coproduct_exit_code(monkeypatch):
    # a coproduct coefficient outside Z[t, t^-1] is an internal
    # inconsistency (4), not a usage error (2)
    from hallalg.engine import ClassicalGeneric

    aut = ClassicalGeneric.aut
    monkeypatch.setattr(
        ClassicalGeneric, "aut", lambda b, la: aut(b, la) * (2 if la == (1, 1) else 1)
    )
    code, out, err = run(["comult", "--backend", "classical", "[1,1]"])
    assert code == 4
    assert out == ""
    assert "classical backend" in err and "not a Laurent polynomial" in err


def test_dominance_cross_check_exit_code(monkeypatch):
    # the check in transpose_dominance_leq is an error, not an assert, so it
    # survives python -O and reaches the CLI as exit code 4
    import hallalg.classical
    import hallalg.partitions

    # run the cross-check cold: a cached expansion would skip it. The
    # product row expands its lighter factor, which must have weight >= 2
    # for the elementary expansion to compare two partitions
    for fn in ("elementary_expansion", "ibasis_in_elementary", "_product_row"):
        getattr(hallalg.classical, fn).cache_clear()
    monkeypatch.setattr(hallalg.partitions, "conjugate", lambda la: tuple(la))
    code, out, err = run(["hallpoly", "(2,2)", "(1,1)", "(1,1)"])
    assert code == 4
    assert out == ""
    assert "disagree" in err


def test_render_tensor_scalar_times_unit_factor():
    # c * (1 (x) y) must show the scalar in the left slot, not glue its
    # digits onto the unit
    from hallalg.engine import comultiply_plain, HallElement, multiply, QuiverAtQ
    from hallalg.serialize import latex_tensor, render_tensor

    b = QuiverAtQ(Quiver.a2(), 2)
    big = b.classes_of_dim((2, 0))[0]
    s = b.classes_of_dim((1, 0))[0]
    prod = multiply(b, HallElement.basis(b, big), HallElement.basis(b, s))
    t = comultiply_plain(b, prod)
    assert render_tensor(t).startswith("14 (x) [c0@(3,0)]")
    assert latex_tensor(t).startswith(r"14 \otimes ")


GOLDENS = Path(__file__).resolve().parents[1] / "hallbench" / "goldens" / "cli"

# runs the requests in order in a fresh interpreter and prints, as JSON,
# which of the probed modules the import and each request loaded, and each
# request's exit code and stdout
_IMPORT_PROBE = """
import contextlib, io, json, sys
probed = ("csv", "dataclasses", "inspect", "numpy")
loaded = lambda: {m for m in probed if m in sys.modules}
import hallalg.cli

new, outs = {"import": sorted(loaded())}, {}
for name, argv in json.loads(sys.argv[1]):
    before = loaded()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hallalg.cli.main(argv)
    outs[name] = [code, buf.getvalue()]
    new[name] = sorted(loaded() - before)
print(json.dumps({"new": new, "out": outs}))
"""


def test_classical_requests_leave_numpy_unloaded(a2_path):
    # numpy loads on the first call into a quiverrep kernel and csv on the
    # first CSV output, so starting the CLI loads neither, and no classical
    # request of the benchmark's cli mix loads numpy, dataclasses or inspect;
    # nor does the A1 double, whose one-point classes and Gaussian-binomial
    # tables are closed forms
    requests = [
        ("hallpoly-latex", ["hallpoly", "[3,2,1]", "[2,1]", "[2,1]", "--format", "latex"]),
        ("mult-classical", ["mult", "[1]*[2,1]*[1]", "--backend", "classical"]),
        ("comult-classical-latex",
         ["comult", "[3,1]", "--backend", "classical", "--format", "latex"]),
        ("antipode-classical-csv",
         ["antipode", "[2,2]", "--backend", "classical", "--format", "csv"]),
        ("verify-green", ["verify", "green", "--deg", "4"]),
        ("verify-double-a1", ["verify", "double-a1", "--q", "2"]),
        ("mult-quiver", ["mult", "c0@(1,0)*c0@(0,1)*c0@(1,0)", "--backend", "quiver",
                         "--quiver", a2_path, "--q", "3"]),
    ]
    env = dict(os.environ)
    src = str(Path(hallalg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(requests)],
        env=env, capture_output=True, text=True, check=True,
    )
    got = json.loads(proc.stdout)
    new = got["new"]
    # numpy may bring inspect or dataclasses with it; only its own load is pinned
    assert "numpy" in new.pop("mult-quiver")
    assert new == {
        "import": [], "hallpoly-latex": [], "mult-classical": [],
        "comult-classical-latex": [], "antipode-classical-csv": ["csv"],
        "verify-green": [], "verify-double-a1": [],
    }
    for name, _ in requests:
        assert got["out"][name] == [0, (GOLDENS / f"{name}.out").read_text()], name
