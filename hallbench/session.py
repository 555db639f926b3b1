"""One benchmark session: a fresh interpreter that imports hallalg and makes
one workload's fixed list of public calls.

Usage (run.py starts it; PYTHONPATH must reach the hallalg sources):

    python3 hallbench/session.py --workload classical --seed 1 [--trace]
    python3 hallbench/session.py --import-only
    python3 hallbench/session.py --known-defects --seed 1

Each call is timed between two calibration slices. The session prints one
JSON object on stdout: the import timing, every call's raw seconds with the
slices on either side, the oracle results, the work counts, ru_maxrss and,
when traced, the span summary.
"""

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

from common import calib_slice

BENCH = Path(__file__).resolve().parent


class Session:
    def __init__(self, goldens, record: bool, first_slice: float, tracer=None):
        self.calls = []
        self.tracer = tracer
        self.checks = {}
        self.counts = {}
        self.goldens = goldens
        self.record = record
        self._slice = first_slice

    def call(self, group, fn, *args, **kwargs):
        """Time one public call; an exception is recorded, not raised (the
        call's oracle then fails)."""
        error = None
        if self.tracer is not None:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            out = None
            error = f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.active = False
        after = calib_slice()
        self.calls.append(
            {"group": group, "raw_s": raw, "slice_before": self._slice,
             "slice_after": after, "error": error}
        )
        self._slice = after
        return out

    def check(self, op_id, predicate, detail=""):
        try:
            ok = bool(predicate())
        except Exception as exc:
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        self.checks[op_id] = {"ok": ok, "detail": "" if ok else detail}

    def golden(self, op_id, value_fn):
        """Compare a JSON-able value with its golden (or record it)."""
        try:
            got = json.loads(json.dumps(value_fn()))
        except Exception as exc:
            self.checks[op_id] = {"ok": False, "detail": f"{type(exc).__name__}: {exc}"}
            return
        if self.record:
            self.goldens[op_id] = got
        want = self.goldens.get(op_id)
        ok = got == want
        self.checks[op_id] = {"ok": ok, "detail": "" if ok else f"got {got!r}, golden {want!r}"}

    def add_count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--session-id", default="0")
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--record-goldens", action="store_true")
    ap.add_argument("--spans-out", help="write the raw spans of a traced session here")
    ap.add_argument("--known-defects", action="store_true",
                    help="run the untimed known-defect probe instead of a workload")
    args = ap.parse_args(argv)

    before = calib_slice()
    t0 = time.perf_counter()
    import hallalg.cli  # noqa: F401  (imports every hallalg module)
    import_s = time.perf_counter() - t0
    after = calib_slice()
    import numpy

    result = {
        "setup": {"raw_s": import_s, "slice_before": before, "slice_after": after},
        "numpy": numpy.__version__,
    }
    if args.known_defects:
        from workloads import probe_aut_int16

        result["known_defects"] = probe_aut_int16(random.Random(args.seed))
    elif not args.import_only:
        from tracer import Tracer
        from workloads import WORKLOADS

        tracer = None
        if args.trace:
            tracer = Tracer(args.session_id)
            tracer.install()
        golden_path = BENCH / "goldens" / f"{args.workload}.json"
        goldens = {} if args.record_goldens else json.loads(golden_path.read_text())
        s = Session(goldens, args.record_goldens, after, tracer)
        WORKLOADS[args.workload](s, random.Random(args.seed))
        if args.record_goldens:
            golden_path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
        result.update(calls=s.calls, checks=s.checks, counts=s.counts)
        if tracer is not None:
            result["spans"] = tracer.summary()
            if args.spans_out:
                tracer.write(args.spans_out)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
