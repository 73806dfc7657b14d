"""Run one towerlim CLI command in this fresh interpreter and report on it.

Usage: python3 child.py SRC_DIR SPEC_JSON

SPEC_JSON is {"argv": [...] or null, "trace": bool}.  A null argv only
imports the package (a set-up probe).  The last line of standard output is
one JSON object:

    imported     time.monotonic() when `import towerlim.cli` returned
    wall_s       seconds spent in cli.main(argv), less the pace slices run
                 during it (see pace.py)
    pace_s       mean seconds of one pace slice around and during the command
    exit         its exit code (null if it raised)
    error        the traceback if it raised
    report       what the command wrote to standard output
    layers       raw per-layer counters of the traced run (trace only)
    peak_rss_mb  ru_maxrss of this process
"""

import sys
import time


def main(imported: float) -> None:
    import contextlib
    import io
    import json
    import resource
    import traceback

    import towerlim.cli

    import pace

    spec = json.loads(sys.argv[2])
    out = {"imported": imported}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        buf = io.StringIO()
        out["exit"] = None
        pacer = pace.Pacer()
        try:
            with contextlib.redirect_stdout(buf):
                pace.warm_up()
                pacer.start()
                try:
                    t0 = time.perf_counter()
                    out["exit"] = towerlim.cli.main(spec["argv"])
                    wall = time.perf_counter() - t0
                finally:
                    pacer.stop()
                out["wall_s"] = wall - pacer.inside_s
                out["pace_s"] = pacer.pace_s()
        except Exception:
            out["error"] = traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.restore()
        out["report"] = buf.getvalue()
        if tracer is not None:
            out["layers"] = tracer.raw()
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    # Nothing but the interpreter itself runs before this import, so the
    # parent can time set-up from its spawn to `imported`.
    sys.path.insert(0, sys.argv[1])
    import towerlim.cli  # noqa: F401

    main(time.monotonic())
