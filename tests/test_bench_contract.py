"""What the benchmark (hallbench/) reads of hallalg. Its span tracer
(hallbench/tracer.py) wraps hallalg functions and methods by name; a name it
lists that no longer resolves crashes every traced benchmark run, so a
refactor that drops one fails here instead. Its verify suites compare their
reports with hallbench/goldens, which this file reads too."""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "hallbench" / "tracer.py"


def _tracer_spans():
    spec = importlib.util.spec_from_file_location("hallbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_tracer_spans_resolve():
    # a function is replaced through its module attribute, a method through
    # its class's own __dict__ (an inherited method is not enough)
    missing = []
    for mod_name, qual, _ in _tracer_spans():
        module = importlib.import_module(f"hallalg.{mod_name}")
        if "." in qual:
            cls_name, meth = qual.split(".")
            found = callable(vars(getattr(module, cls_name, object)).get(meth))
        else:
            found = callable(getattr(module, qual, None))
        if not found:
            missing.append(f"{mod_name}.{qual}")
    assert not missing, missing


# The twelve verify suites the benchmark times, by their golden key, with
# the arguments hallbench/workloads.py passes.
GOLDENS = Path(__file__).resolve().parents[1] / "hallbench" / "goldens"
_BUDGET = 3 ** 16
_TIMED_SUITES = {
    "classical": {
        "verify.green[classical,deg=5]": ("green", {"deg": 5}),
        "verify.hopf-pairing[classical,deg=5]": ("hopf-pairing", {"deg": 5}),
        "verify.steinitz[classical,deg=7]": ("steinitz", {"deg": 7}),
    },
    "quiver-hopf": {
        "verify.hopf-pairing[cyclic3,q=2,deg=4]": (
            "hopf-pairing", {"backend": "quiver", "quiver": "cyclic3", "q": 2, "deg": 4}),
        "verify.green[kronecker,q=2,deg=4]": (
            "green", {"backend": "quiver", "quiver": "kronecker", "q": 2, "deg": 4}),
        "verify.antipode[a2,q=2,deg=4]": (
            "antipode", {"backend": "quiver", "quiver": "a2", "q": 2, "deg": 4}),
        "verify.serre[kronecker,q=2]": ("serre", {"quiver": "kronecker", "q": 2}),
        **{f"verify.double-a1[q={q}]": ("double-a1", {"q": q}) for q in (2, 3, 5, 7)},
    },
    "quiver-scan": {
        "verify.orbit-stabilizer[cyclic3,q=2,deg=4]": (
            "orbit-stabilizer",
            {"quiver": "cyclic3", "q": 2, "deg": 4, "budget": _BUDGET}),
    },
}


def test_verify_reports_match_benchmark_goldens():
    # a report that changes by one byte fails here, without a benchmark run
    from hallalg.quiverrep import Quiver
    from hallalg.verify import run_suite

    quivers = {"a2": Quiver.a2(), "kronecker": Quiver.kronecker(), "cyclic3": Quiver.cyclic(3)}
    compared = 0
    for workload, suites in _TIMED_SUITES.items():
        goldens = json.loads((GOLDENS / f"{workload}.json").read_text())
        for key, (name, kwargs) in suites.items():
            if "quiver" in kwargs:
                kwargs = {**kwargs, "quiver": quivers[kwargs["quiver"]]}
            report = run_suite(name, **kwargs)
            digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:20]
            assert [len(report["checks"]), digest] == goldens[key], key
            compared += 1
    assert compared == 12
