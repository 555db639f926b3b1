"""The benchmark's span tracer (hallbench/tracer.py) wraps hallalg functions
and methods by name; a name it lists that no longer resolves crashes every
traced benchmark run, so a refactor that drops one fails here instead."""

import importlib
import importlib.util
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
