"""Benchmark worker: runs one round of a workload's jobs in a fresh process.

usage: worker.py SRC_DIR [--trace SPANS_FILE]

Imports ``fanolab.cli`` from SRC_DIR, prints ``ready``, reads the job list
(JSON) from stdin, calls ``fanolab.cli.main(["--json", *argv])`` for each
job in order with stdout captured, and prints one JSON object with each
job's exit code, output and time, the round's job time raw and at the
reference host speed (calib.py), the probe times and the peak RSS.
With --trace it records spans (see spans.py), writes them to SPANS_FILE and
adds the per-layer metrics.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from calib import JobClock
from reference import term_count


def _pick_input(job, results):
    """The fewest-term node at the given depth of an earlier graph job."""
    src = job["input_from"]
    nodes = json.loads(results[src["job"]]["stdout"])["nodes"]
    level = [n["polynomial"] for n in nodes if n["depth"] == src["depth"]]
    return min(level, key=term_count)


def main():
    start = time.perf_counter()
    src = os.path.realpath(sys.argv[1])
    sys.path.insert(0, src)
    import fanolab.cli
    import_s = time.perf_counter() - start
    if not os.path.realpath(fanolab.cli.__file__).startswith(src + os.sep):
        sys.exit(f"fanolab was imported from {fanolab.cli.__file__}, "
                 f"not from {src}")
    tracer = None
    if len(sys.argv) > 3 and sys.argv[2] == "--trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)

    jobs = json.load(sys.stdin)
    results = {}
    clock = JobClock(sampling=tracer is None)
    for job in jobs:
        argv = job["argv"]
        if "input_from" in job:
            try:
                picked = _pick_input(job, results)
            except (KeyError, ValueError) as exc:
                results[job["id"]] = {"argv": argv, "rc": None, "s": 0.0,
                                      "stdout": "", "stderr": repr(exc)}
                continue
            argv = [picked if a == "{input}" else a for a in argv]
        if tracer is not None:
            tracer.job = job["id"]
        out, err = io.StringIO(), io.StringIO()
        clock.start()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = fanolab.cli.main(["--json", *argv])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        dt = clock.stop()
        results[job["id"]] = {"argv": argv, "rc": rc, "s": dt,
                              "stdout": out.getvalue(),
                              "stderr": err.getvalue()[-2000:]}

    wall, ref_wall = clock.finish()
    payload = {"import_s": import_s, "wall_s": wall, "ref_wall_s": ref_wall,
               "probe_s": [b - a for a, b in clock.probes],
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024,
               "jobs": results}
    if tracer is not None:
        payload["layers"] = tracer.metrics()
        payload["calls"] = tracer.calls()
        payload["spans"] = len(tracer.names)
        tracer.write(sys.argv[3])
    json.dump(payload, sys.stdout)


if __name__ == "__main__":
    main()
