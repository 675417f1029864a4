"""Self-test of the benchmark.  usage: python3 bench/selftest.py

Runs every workload at minimal size, untraced and traced, and checks every
output against its reference; checks that one seed always gives
byte-identical inputs, also under another hash seed; checks that the job
clock leaves its probes out of job times; checks the references
against each other and that they reject wrong outputs; and checks that the
metric names printed match BENCHMARK.json.  Exits 0 when all pass.
"""

import json
import os
import random
import subprocess
import sys
import time

import calib
import gen
import reference
import run

FAILURES = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def test_determinism():
    for workload in gen.WORKLOADS:
        a = json.dumps(gen.make_jobs(workload, 7))
        expect(a == json.dumps(gen.make_jobs(workload, 7)),
               f"{workload}: seed 7 gives identical inputs twice")
        expect(a != json.dumps(gen.make_jobs(workload, 8)),
               f"{workload}: seeds 7 and 8 give different inputs")
        code = ("import json, gen; print(json.dumps("
                f"gen.make_jobs({workload!r}, 7)))")
        other = subprocess.run(
            [sys.executable, "-c", code], cwd=run.HERE, capture_output=True,
            text=True, env=dict(os.environ, PYTHONHASHSEED="12345"),
            check=True).stdout.strip()
        expect(a == other, f"{workload}: identical inputs under another "
                           "hash seed")


def test_references():
    for name, base, n in (("p2", gen.P2, 13), ("p1p1", gen.P1P1, 13),
                          ("p3", gen.P3, 13), ("p1cubed", gen.P1CUBED, 9),
                          ("cubic", gen.CUBIC, 9)):
        series = [reference.SERIES[name](k) for k in range(n)]
        expect(reference.naive_period(base, n) == series,
               f"closed form of {name} matches constant terms of powers")
    weights = {reference.triangle_weights(list(
        gen.image(gen.P2, gen.gl_matrix(random.Random(s), 2, 4))))
        for s in range(5)}
    expect(weights == {(1, 1, 1)}, "triangle weights are GL-invariant")
    expect(all(reference.boundary_points(v) + reference.boundary_points(
        _dual(v)) == 12 for v in gen.POLYGONS), "polygon duality: 12")
    cube = gen.SOLIDS[3][1]
    sheared = [gen.apply([[1, 1, 0], [0, 1, 0], [0, 0, 1]], v) for v in cube]
    expect(reference.lattice_equivalent(cube, sheared),
           "a sheared cube is lattice-equivalent to the cube")
    expect(not reference.lattice_equivalent(
        cube, [tuple(2 * x for x in v) for v in cube]),
        "a dilated cube is not lattice-equivalent to the cube")


def _dual(vertices):
    """Vertices of the dual of a reflexive polygon (edge inner normals)."""
    vs = reference.hull2d(vertices)
    out = []
    for a, b in zip(vs, vs[1:] + vs[:1]):
        n = (a[1] - b[1], b[0] - a[0])
        c = a[0] * n[0] + a[1] * n[1]
        out.append((-n[0] // c, -n[1] // c))
    return out


def test_rejects_wrong_outputs():
    job = gen.make_jobs("periods", 1)[-1]
    terms = [str(reference.SERIES["cubic"](k)) for k in range(job["check"]
                                                              ["n"])]
    good = json.dumps({"terms": terms})
    terms[4] = str(int(terms[4]) + 1)
    expect(reference.check_job(job, 0, good, 1) is None,
           "period reference accepts the closed form")
    expect(reference.check_job(job, 0, json.dumps({"terms": terms}), 1)
           is not None, "period reference rejects a wrong term")
    job = gen.make_jobs("rigidity", 1)[3]  # nf of the first polygon
    nf = {"matrix": [[1, 0, -1], [0, 1, -1]]}
    expect(reference.check_job(job, 0, json.dumps(nf), 1) is None,
           "nf reference accepts an equivalent vertex matrix")
    nf = {"matrix": [[1, 0, -2], [0, 1, -1]]}
    expect(reference.check_job(job, 0, json.dumps(nf), 1) is not None,
           "nf reference rejects an inequivalent vertex matrix")


def test_job_clock():
    clock = calib.JobClock()
    times = []
    for _ in range(3):
        clock.start()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        times.append(clock.stop())
    raw, ref = clock.finish()
    expect(len(clock.probes) >= 5, "job clock probes during the jobs")
    shortest = min(b - a for a, b in clock.probes)
    expect(sum(times) < 0.9 - 2 * shortest,
           "job clock leaves probe time out of the job times")
    expect(abs(raw - sum(times)) < 1e-6,
           "job clock: round time is the sum of the job times")
    expect(ref > 0, "job clock gives a reference time")


def test_minimal_workloads():
    for workload in gen.WORKLOADS:
        jobs = gen.make_jobs(workload, 3, minimal=True)
        failures, attempted, failed, metrics = run.timed_run(
            workload, 3, 0, jobs)
        expect(not failures and attempted == len(jobs),
               f"{workload}: minimal round matches its references "
               f"{sorted(failures.items())}")
        failures, _, _, layers = run.traced_run(workload, 3, jobs)
        expect(not failures, f"{workload}: minimal traced round matches its "
                             "references")
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        expect(set(metrics) == {m["name"] for m in declared["end_to_end"]},
               f"{workload}: end-to-end metrics match BENCHMARK.json")
        expect(set(layers) == {m["name"] for m in declared["per_layer"]},
               f"{workload}: per-layer metrics match BENCHMARK.json")


def main():
    test_determinism()
    test_references()
    test_rejects_wrong_outputs()
    test_job_clock()
    test_minimal_workloads()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
