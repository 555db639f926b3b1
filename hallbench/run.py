"""hallalg benchmark: cold sessions, calibrated against machine speed.

    python3 hallbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hallbench/run.py --smoke            # every workload once, all metrics
    python3 hallbench/run.py --record-goldens   # rewrite goldens/ from this tree

Run from the repository root (the directory holding src/hallalg and
BENCHMARK.json). Each sample is a cold session: a fresh interpreter that
imports hallalg and makes one workload's fixed list of public calls
(session.py), or for the ``cli`` workload one request through
``hallalg.cli.main`` (cli_child.py). Sessions run one at a time, with numpy
and BLAS limited to one thread.

Calibration: before and after every measured call a fixed pure-Python slice
is timed (common.py). A call's calibrated seconds are its raw seconds times
(NOMINAL / mean(slice before, slice after)) ** ELASTICITY, where NOMINAL
(--nominal-slice-s) and ELASTICITY (--slice-elasticity) are fixed in
BENCHMARK.json's command. Raw seconds are kept in the results file.

The last stdout line is the result: with --trace 0 the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. The lines before it
give the stamp (git sha, versions, nproc, seed, sessions) and the noise
record, which are also written to hallbench/results/.
"""

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import Calibration, calib_slice, iqr, median, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("classical", "quiver-scan", "quiver-hopf", "cli")
SETUP_IMPORTS = 7
CHILD_TIMEOUT_S = 150

# The cli workload's request mix. Quiver files live in data/; every stdout
# is compared byte for byte with goldens/cli/<name>.out.
CLI_MIX = (
    ("hallpoly-check", ["hallpoly", "[2,1]", "[1]", "[1,1]", "--check-q", "2,3"]),
    ("hallpoly-latex", ["hallpoly", "[3,2,1]", "[2,1]", "[2,1]", "--format", "latex"]),
    ("mult-classical", ["mult", "[1]*[2,1]*[1]", "--backend", "classical"]),
    ("comult-classical-latex", ["comult", "[3,1]", "--backend", "classical", "--format", "latex"]),
    ("antipode-classical-csv", ["antipode", "[2,2]", "--backend", "classical", "--format", "csv"]),
    ("mult-quiver", ["mult", "c0@(1,0)*c0@(0,1)*c0@(1,0)", "--backend", "quiver",
                     "--quiver", "@a2.json", "--q", "3"]),
    ("comult-quiver-csv", ["comult", "c1@(1,1)", "--backend", "quiver",
                           "--quiver", "@kronecker.json", "--q", "2", "--format", "csv"]),
    ("antipode-quiver-latex", ["antipode", "c0@(1,1)", "--backend", "quiver",
                               "--quiver", "@a2.json", "--q", "2", "--format", "latex"]),
    ("verify-double-a1", ["verify", "double-a1", "--q", "2"]),
    ("verify-green", ["verify", "green", "--deg", "4"]),
)


def child_env():
    env = dict(os.environ)
    # imports read cached bytecode, as from an installed package; the
    # discarded warm-up import writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd):
    """Run a child to completion (killed and reaped on timeout); returns
    (exit code, stdout bytes, stderr text)."""
    proc = subprocess.run(
        [sys.executable] + cmd, cwd=ROOT, env=child_env(), capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")


def session_child(extra):
    code, out, err = run_child([str(BENCH / "session.py")] + extra)
    if code != 0:
        raise RuntimeError(f"session {' '.join(extra)} exited {code}: {err.strip()[-400:]}")
    return json.loads(out)


# ---------------------------------------------------------------------------
# noise record and stamp
# ---------------------------------------------------------------------------


def read_steal_jiffies():
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def read_loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except (OSError, IndexError, ValueError):
        return 0.0


def stamp(seed, sessions, numpy_version):
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or "unknown"
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
        "sessions": sessions,
    }


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def run_setup(cal):
    """Import-only sessions: one discarded warm-up (it may compile bytecode),
    then SETUP_IMPORTS measured ones."""
    session_child(["--import-only"])
    recs = [session_child(["--import-only"]) for _ in range(SETUP_IMPORTS)]
    return [cal.of(r["setup"]) for r in recs], recs[0]["numpy"]


def run_sessions(workload, seed, seconds, trace):
    """Cold sessions one at a time while the next one, at the median session
    wall time, would end by the deadline. With trace, sessions alternate
    untraced / traced, and at least one of each runs."""
    start = time.perf_counter()
    plain, traced, walls = [], [], []
    crashed = 0
    while crashed <= 2:
        is_traced = trace and len(walls) % 2 == 1
        extra = ["--workload", workload, "--seed", str(seed), "--session-id", str(len(walls))]
        if is_traced:
            extra += ["--trace", "--spans-out", str(RESULTS / f"spans-{workload}.json")]
        t0 = time.perf_counter()
        try:
            rec = session_child(extra)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"session {len(walls)} failed: {exc}", file=sys.stderr)
            crashed += 1
            rec = None
        walls.append(time.perf_counter() - t0)
        if rec is not None:
            rec["wall_s"] = walls[-1]
            (traced if is_traced else plain).append(rec)
        elapsed = time.perf_counter() - start
        if len(walls) >= (2 if trace else 1) and elapsed + median(walls) > seconds:
            break
    return plain, traced, crashed


def session_total(rec, cal):
    return sum(cal.of(c) for c in rec["calls"])


def span_metrics(summaries):
    """Median over traced samples of every span field."""
    return {
        f"span.{name}.{field}": median(s[name][field] for s in summaries)
        for name in summaries[0]
        for field in summaries[0][name]
    }


def run_known_defects(seed):
    """The untimed known-defect probe (workloads.probe_aut_int16) in its own
    interpreter. Its wrong results are reported, not counted as failed
    operations: they show a defect of the program that the timed workload
    does not exercise."""
    return session_child(["--known-defects", "--seed", str(seed)])["known_defects"]


def run_inprocess(workload, seed, seconds, trace, cal):
    plain, traced, crashed = run_sessions(workload, seed, seconds, trace)
    if not plain:
        raise RuntimeError("no session completed")
    layers = {}
    for g in sorted({c["group"] for r in plain for c in r["calls"]}):
        layers[g + "_s"] = median(
            sum(cal.of(c) for c in r["calls"] if c["group"] == g) for r in plain
        )
    layers.update(plain[0]["counts"])
    if layers.get("quiverrep.enumerate_s"):
        layers["quiverrep.enumerate_points_per_s"] = (
            layers["quiverrep.enumerate_points"] / layers["quiverrep.enumerate_s"]
        )
    if layers.get("quiverrep.aut_scan_s"):
        layers["quiverrep.aut_points_per_s"] = layers["quiverrep.aut_points"] / (
            layers["quiverrep.aut_scan_s"] + layers["quiverrep.aut_scan_large_q_s"]
        )
    layers["bench.session_raw_s"] = median(sum(c["raw_s"] for c in r["calls"]) for r in plain)
    session_s = median(session_total(r, cal) for r in plain)
    if traced:
        layers.update(span_metrics([r["spans"] for r in traced]))
        layers["trace.overhead_frac"] = (
            median(session_total(r, cal) for r in traced) / session_s - 1.0
        )
    checks = [(op, res["ok"], res["detail"]) for r in plain + traced for op, res in r["checks"].items()]
    checks.append(("sessions:completed", crashed == 0, f"{crashed} sessions crashed"))
    return {
        "end_to_end": {
            "setup_s": [cal.of(r["setup"]) for r in plain],
            "session_s": session_s,
            "peak_rss_mb": median(r["maxrss_kb"] / 1024.0 for r in plain),
        },
        "per_layer": layers,
        "checks": checks,
        "samples": len(plain) + len(traced),
        "slices": [c[k] for r in plain for c in r["calls"] for k in ("slice_before", "slice_after")],
        "sessions": [
            {k: r[k] for k in ("setup", "calls", "maxrss_kb", "wall_s")} | {"traced": t}
            for t, group in ((False, plain), (True, traced)) for r in group
        ],
    }


# ---------------------------------------------------------------------------
# cli workload
# ---------------------------------------------------------------------------


def cli_args(args):
    return [str(BENCH / "data" / a[1:]) if a.startswith("@") else a for a in args]


def cli_golden(name):
    return BENCH / "goldens" / "cli" / f"{name}.out"


def cli_request(name, args, traced, before_slice, record=False):
    """One request in a fresh interpreter, timed from this process, with its
    stdout and exit code checked."""
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        timing_path = os.path.join(tmp, "timing.json")
        t_spawn = time.perf_counter()
        code, out, err = run_child(
            [str(BENCH / "cli_child.py"), timing_path,
             str(RESULTS / "spans-cli.json") if traced else "-", "--"] + cli_args(args)
        )
        wall = time.perf_counter() - t_spawn
        after = calib_slice()
        with open(timing_path) as fh:
            timing = json.load(fh)
    if record:
        cli_golden(name).parent.mkdir(exist_ok=True)
        cli_golden(name).write_bytes(out)
    golden = cli_golden(name).read_bytes() if cli_golden(name).exists() else None
    ok = code == 0 and out == golden
    return {
        "name": name, "traced": traced, "ok": ok,
        "detail": "" if ok else f"exit {code}, stdout matches golden: {out == golden}, "
                                f"stderr: {err[-200:]}",
        "stdout_bytes": len(out), "raw_s": wall,
        "interp_raw_s": timing["start"] - t_spawn,
        "import_raw_s": timing["main_start"] - timing["import_start"],
        "main_raw_s": timing["end"] - timing["main_start"],
        "slice_before": before_slice, "slice_after": after,
        "maxrss_kb": timing["maxrss_kb"], "spans": timing.get("spans"),
    }


def run_cli_mix(order, traced, slice_now, record=False):
    """One pass through the request mix; returns the request records and
    the slice after the last request."""
    reqs = []
    for idx in order:
        name, args = CLI_MIX[idx]
        try:
            rec = cli_request(name, args, traced, slice_now, record)
        except (OSError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"cli request {name} failed: {exc}", file=sys.stderr)
            reqs.append({"name": name, "ok": False, "detail": str(exc), "crashed": True})
            continue
        slice_now = rec["slice_after"]
        reqs.append(rec)
    return reqs, slice_now


def run_cli(seed, seconds, trace, cal):
    """Closed loop with one client: shuffled passes through the mix while the
    next pass, at the median pass wall time, would end by the deadline. With
    trace, passes alternate untraced / traced."""
    rng = random.Random(seed)
    start = time.perf_counter()
    slice_now = calib_slice()
    reqs, walls, traced_mixes = [], [], []
    while True:
        order = list(range(len(CLI_MIX)))
        rng.shuffle(order)
        is_traced = trace and len(walls) % 2 == 1
        t0 = time.perf_counter()
        mix, slice_now = run_cli_mix(order, is_traced, slice_now)
        reqs += mix
        if is_traced:
            traced_mixes.append([r["spans"] for r in mix if not r.get("crashed")])
        walls.append(time.perf_counter() - t0)
        if len(walls) >= (2 if trace else 1) and time.perf_counter() - start + median(walls) > seconds:
            break
    done = [r for r in reqs if not r.get("crashed")]
    plain = [r for r in done if not r["traced"]]
    if not plain:
        raise RuntimeError("no cli request completed")
    request_s = [cal.of(r) for r in plain]
    layers = {
        "cli.interp_s": median(cal.of(r, "interp_raw_s") for r in plain),
        "cli.import_s": median(cal.of(r, "import_raw_s") for r in plain),
        "cli.main_s": median(cal.of(r, "main_raw_s") for r in plain),
        "cli.request_p90_s": percentile(request_s, 90),
        "serialize.stdout_bytes": sum({r["name"]: r["stdout_bytes"] for r in done}.values()),
        "bench.session_raw_s": median(r["raw_s"] for r in plain),
    }
    if traced_mixes:
        # spans of one pass through the mix, summed over its requests
        layers.update(span_metrics([
            {name: {f: sum(s[name][f] for s in mix) for f in mix[0][name]} for name in mix[0]}
            for mix in traced_mixes if mix
        ]))
        layers["trace.overhead_frac"] = (
            median(cal.of(r) for r in done if r["traced"]) / median(request_s) - 1.0
        )
    return {
        "end_to_end": {
            "setup_s": [],
            "session_s": median(request_s),
            "peak_rss_mb": median(r["maxrss_kb"] / 1024.0 for r in plain),
        },
        "per_layer": layers,
        "checks": [(f"cli.{r['name']}", r["ok"], r["detail"]) for r in reqs],
        "samples": len(done),
        "slices": [r[k] for r in plain for k in ("slice_before", "slice_after")],
        "requests": [{k: v for k, v in r.items() if k != "spans"} for r in done],
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src" / "hallalg" / "__init__.py"
    if not src.is_file() or not spec_path.is_file():
        raise SystemExit(f"error: run from a hallalg checkout ({src} or {spec_path} missing)")
    return json.loads(spec_path.read_text())


def tally(checks):
    """Operations attempted, and the failed ones with a reason. An operation
    is one oracle check, by id; it fails if it failed in any sample, so the
    count depends on the seed only."""
    status, reasons = {}, {}
    for op, ok, detail in checks:
        status[op] = status.get(op, True) and ok
        if not ok:
            reasons.setdefault(op, detail)
    return len(status), {op: reasons[op] for op, ok in sorted(status.items()) if not ok}


def measure(workload, seed, seconds, trace, cal):
    steal0, load0 = read_steal_jiffies(), read_loadavg()
    setups, numpy_version = run_setup(cal)
    if workload == "cli":
        run = run_cli(seed, seconds, trace, cal)
    else:
        run = run_inprocess(workload, seed, seconds, trace, cal)
    setups += run["end_to_end"]["setup_s"]
    run["end_to_end"]["setup_s"] = median(setups)
    slices = run.pop("slices")
    run["noise"] = {
        "calib_slice_median_s": median(slices),
        "calib_slice_iqr_s": iqr(slices),
        "steal_jiffies": read_steal_jiffies() - steal0,
        "loadavg_start": load0,
        "loadavg_end": read_loadavg(),
    }
    run["per_layer"].update({
        "bench.calib_slice_s": run["noise"]["calib_slice_median_s"],
        "bench.calib_slice_iqr_s": run["noise"]["calib_slice_iqr_s"],
        "bench.steal_jiffies": run["noise"]["steal_jiffies"],
        "bench.sessions": run["samples"],
        "bench.loadavg_start": load0,
        "bench.loadavg_end": run["noise"]["loadavg_end"],
    })
    if workload == "quiver-scan" and trace:
        run["known_defects"] = run_known_defects(seed)
        run["per_layer"]["known_defect.aut_int16_wrong"] = sum(
            d["wrong"] for d in run["known_defects"]
        )
    run["attempted"], run["failures"] = tally(run.pop("checks"))
    run["stamp"] = stamp(seed, run["samples"], numpy_version)
    run["setup_samples_s"] = setups
    return run


def result_line(spec, run, trace):
    """The result object: every metric BENCHMARK.json names for this mode;
    one a workload does not touch reads 0."""
    section = "per_layer" if trace else "end_to_end"
    metrics = {
        e["name"]: {"value": run[section].get(e["name"], 0), "unit": e["unit"]}
        for e in spec[section]
    }
    return {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hallalg cold-session benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--nominal-slice-s", type=float, default=0.0032,
                    help="slice time that calibrated seconds are scaled to")
    ap.add_argument("--slice-elasticity", type=float, default=0.7,
                    help="exponent of the slice ratio in the calibration")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload once, all oracles and metrics printed")
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args(argv)
    spec = load_spec()
    RESULTS.mkdir(exist_ok=True)
    cal = Calibration(args.nominal_slice_s, args.slice_elasticity)
    if args.record_goldens:
        return record_goldens(args.seed)
    if args.smoke:
        return smoke(args.seed, cal, spec)
    if not args.workload:
        ap.error("--workload is required")
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), cal)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(run, indent=1) + "\n")
    print("stamp " + json.dumps(run["stamp"]))
    print("noise " + json.dumps(run["noise"]))
    if run["failures"]:
        print("failed " + json.dumps(run["failures"]))
    if run.get("known_defects"):
        print("known-defects " + json.dumps(run["known_defects"]))
    print(json.dumps(result_line(spec, run, bool(args.trace))))
    return 0


def smoke(seed, cal, spec):
    """Every workload once, with set-up, one untraced and one traced sample:
    every oracle is checked and every metric printed by name with its unit.
    Exits non-zero if the harness broke or any operation failed; the
    known-defect probe is reported, and does not fail the smoke run."""
    broken = False
    for workload in WORKLOADS:
        t0 = time.perf_counter()
        try:
            run = measure(workload, seed, 0, True, cal)
        except (RuntimeError, ValueError, OSError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: harness error: {exc}")
            broken = True
            continue
        print(f"{workload}: attempted {run['attempted']} failed {len(run['failures'])} "
              f"({time.perf_counter() - t0:.1f} s)")
        for op, why in run["failures"].items():
            print(f"  FAILED {op}: {why}")
        broken = broken or bool(run["failures"])
        for d in run.get("known_defects", ()):
            print(f"  KNOWN DEFECT aut_count a2(1,2) q={d['q']} map {tuple(d['map'])}: "
                  f"got {d['got']}, want {d['want']}{' (wrong)' if d['wrong'] else ''}")
        for section in ("end_to_end", "per_layer"):
            for e in spec[section]:
                print(f"  {e['name']} {run[section].get(e['name'], 0):.6g} {e['unit']}")
    return 1 if broken else 0


def record_goldens(seed):
    """Rewrite goldens/ from the current tree: one session per in-process
    workload and one pass through the cli mix."""
    for workload in WORKLOADS[:-1]:
        session_child(["--workload", workload, "--seed", str(seed), "--record-goldens"])
    run_cli_mix(range(len(CLI_MIX)), False, calib_slice(), record=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
