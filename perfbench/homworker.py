"""Runs ``diacat.functors`` hom-set enumeration in-process.

No CLI path runs ``enumerate_homs`` on arbitrary inputs, so the hom-scan
workload calls it from this fresh interpreter:

    python3 perfbench/homworker.py JOBS.json setup
    python3 perfbench/homworker.py JOBS.json run SECONDS TRACE_OUT|-

``setup`` imports diacat and builds and certifies every input, then exits;
its wall time is the workload's set-up time.  ``run`` does the same, then
times passes over the job list and prints one JSON object.  With a trace
path it runs one untraced pass, installs the tracer, runs one traced pass
and writes the tracer's spans and counters there.
"""

import json
import sys
import time
from pathlib import Path

from calibrate import work

perf = time.perf_counter


def setup(jobs_path):
    t0 = perf()
    from diacat import documents, functors
    import_s = perf() - t0
    spec = json.loads(Path(jobs_path).read_text(encoding="utf-8"))
    work = Path(jobs_path).parent

    def load(name):
        return documents.algebra_from_document(
            documents.load_document(str(work / name)), check=True)

    # looked up at call time, so that the tracer's rebinding is seen
    ops = {"homs": lambda a, b: len(functors.enumerate_homs(a, b)),
           "iso": lambda a, b: _iso_columns(functors.find_algebra_isomorphism(a, b))}
    calls = [(ops[j["op"]], load(j["a"]), load(j["b"])) for j in spec["jobs"]]
    return calls, import_s


def _iso_columns(m):
    if m is None:
        return None
    mat, f = m.matrix, m.matrix.field
    return [[f.format(mat.entries[r][c]) for r in range(mat.rows)]
            for c in range(mat.cols)]


def run_pass(calls, tracer=None):
    """[seconds, result, calibration seconds] per job; untraced passes time
    ``calibrate.work`` after every job, as the CLI workloads do."""
    out = []
    for idx, (op, a, b) in enumerate(calls):
        if tracer is not None:
            tracer.job = idx
        t0 = perf()
        result = op(a, b)
        out.append([perf() - t0, result, None if tracer else work()])
    return out


def main(argv):
    calls, import_s = setup(argv[0])
    if argv[1] == "setup":
        return 0
    seconds, trace_out = float(argv[2]), argv[3]
    from run import run_passes
    if trace_out == "-":
        times, results = run_passes(lambda: run_pass(calls), seconds)
        print(json.dumps({"pass_s": times, "passes": results}))
        return 0
    from tracer import Tracer, install
    t0 = perf()
    untraced = run_pass(calls)
    untraced_s = perf() - t0
    tracer = Tracer()
    install(tracer)
    t0 = perf()
    traced = run_pass(calls, tracer)
    traced_s = perf() - t0
    tracer.dump(trace_out, {"cli.import_s": import_s})
    print(json.dumps({"pass_s": [untraced_s, traced_s],
                      "passes": [untraced, traced]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
