"""fanolab benchmark: runs one workload and prints its metrics.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``.  run.py makes the workload's job list from the seed (gen.py),
then runs it as a closed loop: one client, one job at a time, each round of
the job list in a fresh worker process (worker.py).  Outputs are checked
against independent references (reference.py) after each round, outside the
timed region.

--trace 0 runs rounds while the next one is expected to end within S
seconds (at least one) and reports the end-to-end metrics, each the median
over the run: ref_wall_s (one round's job time), setup_s (worker spawn to
``import fanolab.cli`` done) and peak_rss_mb (the worker's ru_maxrss).  The
two times are given at a reference host speed (calib.py), because the
shared host's own speed drifts far more than the bounds; the raw times are
printed beside them.
--trace 1 runs one untraced and one traced round and reports the per-layer
metrics of spans.py plus the tracing overhead.  The last line of stdout is
the JSON result; per-job input properties and the spans are written under
.bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import reference
from calib import FIRST_PROBES, REFERENCE_PROBE_S
from spans import EXPECTED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 11
ROUND_TIMEOUT_S = 150
REPORTED = ("ref_wall_s", "setup_s", "peak_rss_mb")


class BenchError(Exception):
    pass


def run_round(jobs, spans_file=None):
    """Spawn a worker, time it to ready, run the jobs; (setup_s, result).

    ``result`` is None when the worker died."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC)]
    if spans_file is not None:
        cmd += ["--trace", str(spans_file)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, cwd=ROOT, env=env,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready.strip() != "ready":
            proc.communicate(timeout=ROUND_TIMEOUT_S)
            raise BenchError(f"worker failed to start (exit "
                             f"{proc.returncode})")
        out, _ = proc.communicate(json.dumps(jobs), timeout=ROUND_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        return setup, None
    return setup, json.loads(out)


def check_round(jobs, result, seed, verdicts):
    """Failure reasons by job id.  ``verdicts`` caches the verdict of each
    (job, exit code, output), since rounds repeat identical outputs."""
    if result is None:
        return {job["id"]: "worker died" for job in jobs}
    failures = {}
    for job in jobs:
        r = result["jobs"][job["id"]]
        key = (job["id"], r["rc"], r["stdout"])
        if key not in verdicts:
            verdicts[key] = reference.check_job(job, r["rc"], r["stdout"],
                                                seed)
        if verdicts[key] is not None:
            failures[job["id"]] = verdicts[key]
    return failures


def record_inputs(workload, seed, jobs, result):
    """Write each job's input properties; return a one-line summary."""
    rows = []
    for job in jobs:
        props = dict(job["props"])
        if "input_from" in job and result is not None:
            argv = result["jobs"][job["id"]]["argv"]
            props["terms"] = reference.term_count(argv[1])
        rows.append({"id": job["id"], "argv": job["argv"], **props})
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-inputs.json"
    path.write_text(json.dumps(rows, indent=1) + "\n")
    terms = sum(r.get("terms", 0) for r in rows)
    box = sum(r.get("box_volume", 0) for r in rows)
    skew = max(r.get("skew", 1) for r in rows)
    return (f"{len(jobs)} jobs; inputs: {terms} terms, bounding-box volume "
            f"{box}, max GL skew {skew} ({path.relative_to(ROOT)})")


def summary(values):
    """Median and quartiles (the median thrice for a single value)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def unit_of(name):
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def timed_run(workload, seed, seconds, jobs):
    verdicts, failures = {}, {}
    walls, ref_walls, rss, rounds_s = [], [], [], []
    setups, ref_setups = [], []
    attempted = n_failed = 0
    start = time.perf_counter()
    result = None

    def add_setup(setup, result):
        setups.append(setup)
        if result is not None:
            # the worker's first probes run right after its set-up
            ref_setups.append(setup * REFERENCE_PROBE_S / statistics.median(
                result["probe_s"][:FIRST_PROBES]))

    # another round only while it is expected to end within the seconds;
    # checks are left out of the estimate, as later rounds reuse verdicts
    while not walls or (time.perf_counter() - start
                        + sum(rounds_s) / len(rounds_s) <= seconds):
        round_start = time.perf_counter()
        setup, result = run_round(jobs)
        rounds_s.append(time.perf_counter() - round_start)
        add_setup(setup, result)
        attempted += len(jobs)
        failed = check_round(jobs, result, seed, verdicts)
        failures.update(failed)
        n_failed += len(failed)
        if result is None:
            break
        walls.append(result["wall_s"])
        ref_walls.append(result["ref_wall_s"])
        rss.append(result["peak_rss_mb"])
    while len(setups) < SETUP_SAMPLES:
        add_setup(*run_round([]))
    print(f"{workload} seed {seed}: " + record_inputs(workload, seed, jobs,
                                                      result))
    metrics = {}
    # wall_s and raw_setup_s are the same times at the host's speed of the
    # moment; they are printed for reference, not reported as metrics
    for name, unit, values, what in (
            ("ref_wall_s", "s", ref_walls, "rounds"),
            ("wall_s", "s", walls, "rounds"),
            ("setup_s", "s", ref_setups, "spawns"),
            ("raw_setup_s", "s", setups, "spawns"),
            ("peak_rss_mb", "MB", rss, "rounds")):
        med, q1, q3 = summary(values or [0.0])
        if name in REPORTED:
            metrics[name] = {"value": med, "unit": unit}
        print(f"{name:12} {med:10.4f} {unit:3} median of {len(values)} "
              f"{what}; quartiles {q1:.4f} .. {q3:.4f}")
    print(f"{'failed_ratio':12} {n_failed / attempted:10.4f} fraction "
          f"({n_failed} of {attempted} jobs)")
    return failures, attempted, n_failed, metrics


def traced_run(workload, seed, jobs):
    verdicts, failures = {}, {}
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"{workload}-seed{seed}-spans.csv"
    _, plain = run_round(jobs)
    _, traced = run_round(jobs, spans_file)
    n_failed = 0
    for result in (plain, traced):
        failed = check_round(jobs, result, seed, verdicts)
        failures.update(failed)
        n_failed += len(failed)
    if plain is None or traced is None:
        raise BenchError("a worker died; see the failures above")
    print(f"{workload} seed {seed}: " + record_inputs(workload, seed, jobs,
                                                      traced))
    silent = [n for n in EXPECTED[workload] if not traced["calls"].get(n)]
    if silent:
        raise BenchError(f"traced run saw no call of {', '.join(silent)}")
    layers = dict(traced["layers"])
    layers["cli.import_s"] = traced["import_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["trace.spans"] = traced["spans"]
    metrics = {}
    for name, value in layers.items():
        metrics[name] = {"value": value, "unit": unit_of(name)}
        print(f"{name:42} {value:14.6f} {unit_of(name)}")
    print(f"spans written to {spans_file.relative_to(ROOT)}")
    return failures, 2 * len(jobs), n_failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fanolab" / "cli.py").is_file():
        print(f"error: no fanolab sources under {SRC}", file=sys.stderr)
        return 1
    jobs = gen.make_jobs(args.workload, args.seed)
    try:
        # byte-compiles the sources, so the first timed spawn does not
        run_round([])
        if args.trace:
            failures, attempted, failed, metrics = traced_run(
                args.workload, args.seed, jobs)
        else:
            failures, attempted, failed, metrics = timed_run(
                args.workload, args.seed, args.seconds, jobs)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for jid, reason in sorted(failures.items()):
        print(f"FAILED {jid}: {reason}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
