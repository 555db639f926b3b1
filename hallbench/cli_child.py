"""One CLI request in a fresh interpreter, through ``hallalg.cli.main``.

Usage: cli_child.py TIMING_FILE SPANS_FILE -- CLI_ARGS...

Stdout and the exit code are the CLI's own. The perf_counter readings at
interpreter start, after ``import hallalg.cli`` and after ``main`` go to
TIMING_FILE as JSON, with ru_maxrss. Unless SPANS_FILE is ``-`` the request is
traced: the span summary joins the timing record and the raw spans go to
SPANS_FILE.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    timing_path, spans_path = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:]
    t_import = time.perf_counter()
    import hallalg.cli

    t_main = time.perf_counter()
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer("cli")
        tracer.install()
        tracer.active = True
        t_main = time.perf_counter()
    try:
        code = hallalg.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    t_end = time.perf_counter()
    record = {
        "start": T_START,
        "import_start": t_import,
        "main_start": t_main,
        "end": t_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["spans"] = tracer.summary()
        tracer.write(spans_path)
    with open(timing_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
