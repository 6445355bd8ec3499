"""The diacat benchmark: end-to-end times of certified verdicts, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The inputs are made
from the seed before anything is timed.  One client runs one job at a time
(a closed loop).  The job list of the workload is run in whole passes, at
least two (three for verify-batteries), until the next pass would end
after ``--seconds``.  CLI jobs run
``python3 -m diacat.cli`` in a fresh interpreter each; hom-scan jobs call
``diacat.functors`` in one worker interpreter.  Every output is checked,
and the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with every time scaled by
calibration runs between the jobs (see ``calibrate.py``).  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics, recorded by
``tracer.py`` from outside the program.  ``--record`` stores the stdout
digests (at the default seed) or the invariant counts (traced) of the run
in ``reference.json`` instead of comparing against them; use it only on a
commit whose outputs are known to be right.
"""

import argparse
import ast
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import gen
import oracle
from tracer import COUNTERS, GROUPS, INVARIANTS

perf = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0      # seed whose stdout digests are stored in the reference
# With an odd number of jobs per pass, the median job time of two or three
# passes is made of copies of the one middle job.  verify-batteries runs
# three, so that its tail (the 11th largest job time) is the middle of the
# three copies of its 4th-largest battery, not the larger of two copies.
MIN_PASSES = {"verify-batteries": 3}
SETUP_RUNS = 3
JOB_TIMEOUT = 120     # s per job
PASS_LIMIT = 140      # s; no pass starts that could end later than this
IN_PROCESS = {"hom-scan"}
CONSTRUCT_OUTPUT = {"Ud": ("algebra", "dias"), "U": ("algebra", "as"),
                    "XUd": ("xmod", "dias"), "XU": ("xmod", "as")}


def run_passes(run_pass, seconds, min_passes=2):
    """Whole passes, at least ``min_passes``, while the next one (by the
    median so far) still ends within ``seconds``; returns (pass times,
    results)."""
    times, results = [], []
    start = perf()
    while True:
        t0 = perf()
        results.append(run_pass())
        times.append(perf() - t0)
        elapsed = perf() - start
        if elapsed + max(times) > PASS_LIMIT:
            break
        if len(times) >= min_passes and elapsed + statistics.median(times) > seconds:
            break
    return times, results


def tail_percentile(samples):
    """The highest whole percentile with at least ten samples above it."""
    return max(0, math.floor(100 * (samples - 10) / samples))


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# processes


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("DIACAT_MAX_DIM", None)
    return env


def run_process(cmd, timeout=JOB_TIMEOUT):
    """(exit code or None on timeout, stdout bytes, wall seconds)."""
    t0 = perf()
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           env=child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, b"", perf() - t0
    return p.returncode, p.stdout, perf() - t0


def calibration():
    """Seconds of ``calibrate.work`` in a fresh interpreter, just now."""
    return float(run_process([sys.executable, str(HERE / "calibrate.py")])[1])


def scale(cals):
    """Factor that brings times measured next to these calibration
    samples to the host speed ``calibrate.REFERENCE_S`` stands for."""
    return calibrate.REFERENCE_S / statistics.fmean(cals)


def median_setup(cmd):
    """Median wall time of SETUP_RUNS fresh set-up processes, scaled by
    calibration runs between them; and whether all of them succeeded."""
    times, cals, ok = [], [], True
    for _ in range(SETUP_RUNS):
        rc, _, dt = run_process(cmd)
        ok = ok and rc == 0
        times.append(dt)
        cals.append(calibration())
    return statistics.median(times) * scale(cals), ok


# ---------------------------------------------------------------------------
# output checks


def check_cli(job, rc, out):
    """None when a CLI job's exit code and stdout are right, else why not."""
    if rc != job["rc"]:
        return f"exit code {rc}, expected {job['rc']}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    cmd = job["argv"][0]
    if cmd == "construct":
        kind, flavor = CONSTRUCT_OUTPUT[job["argv"][1]]
        if ("xmod" if "mu" in doc else "algebra", doc.get("flavor")) != (kind, flavor):
            return f"construct output is not a {flavor} {kind}"
    elif cmd == "verify":
        if doc.get("what") != job["argv"][1] or doc.get("passed") is not True:
            return "verify battery did not pass"
    else:
        e = job["expect"]
        items = [[it["passed"], list(ast.literal_eval(it["where"]))
                  if it["where"] else None] for it in doc.get("items", [])]
        got = (doc.get("kind"), doc.get("flavor"), doc.get("dims"), items,
               doc.get("passed"))
        if got != (e["kind"], e["flavor"], e["dims"], e["items"], job["rc"] == 0):
            return "check report differs from the oracle's prediction"
    return None


def check_hom(job, result, files, ref_found):
    """None when an in-process hom job's result is right, else why not."""
    if job["op"] == "homs":
        want = ref_found if job["found"] is None else job["found"]
        if want is not None and result != want:
            return f"{result} morphisms, expected {want}"
        return None
    if result is None:
        return "no isomorphism found between isomorphic algebras"
    docs = [json.loads(files[job[s]]) for s in ("a", "b")]
    F = oracle.Field(0 if docs[0]["field"] == "Q" else docs[0]["p"])
    n = docs[0]["dim"]
    tabs = [[{} for _ in oracle.PRODUCT_KEYS[d["flavor"]]] for d in docs]
    for d, t in zip(docs, tabs):
        for table, key in zip(t, oracle.PRODUCT_KEYS[d["flavor"]]):
            for i, j, k, c in d[key]:
                table.setdefault((i, j), {})[k] = F.parse(c)
    cols = [{r: F.parse(c) for r, c in enumerate(col) if F.parse(c) != 0}
            for col in result]
    dense = [[F.parse(c) for c in col] for col in result]
    if oracle.rref(F, dense, n)[1] != n or not oracle.is_morphism(F, tabs[0], tabs[1], cols, n):
        return "returned map is not a bijective morphism"
    return None


# ---------------------------------------------------------------------------
# runs


class Run:
    def __init__(self, workload, seed, seconds, trace, record):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.record = trace, record
        self.min_passes = MIN_PASSES.get(workload, 2)
        self.attempted = self.failed = 0
        self.problems = []
        self.reference = (json.loads(REFERENCE.read_text(encoding="utf-8"))
                          if REFERENCE.exists() else {})
        self.work = WORK / workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.jobs, self.files = gen.build(workload, seed)
        for name, text in self.files.items():
            (self.work / name).write_text(text, encoding="utf-8")

    def fail(self, what):
        self.problems.append(what)

    def tally(self, name, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            self.fail(f"{name}: {problem}")

    # -- CLI workloads -----------------------------------------------------

    def argv(self, job):
        return [str(self.work / a["file"]) if isinstance(a, dict) else a
                for a in job["argv"]]

    def cli_pass(self, traced=False, calibrated=False):
        """(exit code, stdout, seconds, calibration seconds or None) per job."""
        out = []
        for idx, job in enumerate(self.jobs):
            if traced:
                cmd = [sys.executable, str(HERE / "tracer.py"),
                       str(self.work / f"trace-{idx:02d}.json"), str(idx), "--"]
            else:
                cmd = [sys.executable, "-m", "diacat.cli"]
            out.append((*run_process(cmd + self.argv(job)),
                        calibration() if calibrated else None))
        return out

    def check_cli_pass(self, results, first):
        digests = self.reference.get("digests", {}).get(self.workload, {})
        for job, (rc, out, _, _), ref in zip(self.jobs, results, first):
            problem = check_cli(job, rc, out)
            if not problem and out != ref[1]:
                problem = "stdout differs from the first pass"
            if not problem and self.seed == DEFAULT_SEED and not self.record:
                want = digests.get(job["name"])
                if want != [rc, hashlib.sha256(out).hexdigest()]:
                    problem = "exit code or stdout digest differs from the reference"
            self.tally(job["name"], problem)

    # -- in-process workload -----------------------------------------------

    def hom_worker(self, mode, *args):
        jobs_path = self.work / "jobs.json"
        jobs_path.write_text(json.dumps({"jobs": self.jobs}), encoding="utf-8")
        return [sys.executable, str(HERE / "homworker.py"), str(jobs_path),
                mode, *map(str, args)]

    def hom_run(self, trace_out):
        rc, out, _ = run_process(self.hom_worker("run", self.seconds, trace_out),
                                 timeout=PASS_LIMIT + 30)
        if rc != 0:
            self.fail(f"hom worker exited with {rc}")
            return [], []
        doc = json.loads(out)
        return doc["pass_s"], doc["passes"]

    def check_hom_passes(self, passes):
        found = self.reference.get("hom_found", {})
        for results in passes:
            for job, (_, result, _), first in zip(self.jobs, results, passes[0]):
                problem = check_hom(job, result, self.files, found.get(job["name"]))
                if not problem and result != first[1]:
                    problem = "result differs from the first pass"
                self.tally(job["name"], problem)

    # -- the two modes -----------------------------------------------------

    def end_to_end(self):
        if self.workload in IN_PROCESS:
            setup_s, ok = median_setup(self.hom_worker("setup"))
            _, passes = self.hom_run("-")
            self.check_hom_passes(passes)
            timed = [[(dt, cal) for dt, _, cal in p] for p in passes]
        else:
            setup_s, ok = median_setup([sys.executable, "-c", "import diacat.cli"])
            _, passes = run_passes(lambda: self.cli_pass(calibrated=True),
                                   self.seconds, self.min_passes)
            for p in passes:
                self.check_cli_pass(p, passes[0])
            timed = [[(dt, cal) for _, _, dt, cal in p] for p in passes]
        if not ok:
            self.fail("set-up run failed")
        if not passes:
            return {}, {}
        if self.record and self.seed == DEFAULT_SEED:
            if self.workload in IN_PROCESS:
                self.reference.setdefault("hom_found", {}).update(
                    {j["name"]: r for j, (_, r, _) in zip(self.jobs, passes[0])
                     if j["op"] == "homs"})
            else:
                self.reference.setdefault("digests", {})[self.workload] = {
                    j["name"]: [rc, hashlib.sha256(out).hexdigest()]
                    for j, (rc, out, _, _) in zip(self.jobs, passes[0])}
        # each pass is scaled by the calibration runs between its own jobs
        factors = [scale([cal for _, cal in p]) for p in timed]
        pass_s = [f * sum(dt for dt, _ in p) for f, p in zip(factors, timed)]
        job_s = [f * dt for f, p in zip(factors, timed) for dt, _ in p]
        q = tail_percentile(self.min_passes * len(self.jobs))
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(pass_s), "s"),
            "job_s.p50": (statistics.median(job_s), "s"),
            "job_s.tail": (nearest_rank(job_s, q), "s"),
            "peak_rss_mb": (rss, "MB"),
            "ok_frac": (1 - self.failed / max(1, self.attempted), "ratio"),
        }
        detail = {"passes": len(pass_s), "pass_s": pass_s,
                  "raw_pass_s": [sum(dt for dt, _ in p) for p in timed],
                  "scale": factors, "job_samples": len(job_s),
                  "tail_percentile": q, "setup_runs": SETUP_RUNS}
        return metrics, detail

    def per_layer(self):
        if self.workload in IN_PROCESS:
            paths = [self.work / "trace-worker.json"]
            pass_s, passes = self.hom_run(str(paths[0]))
            self.check_hom_passes(passes)
        else:
            paths = [self.work / f"trace-{i:02d}.json" for i in range(len(self.jobs))]
            t0 = perf()
            untraced = self.cli_pass()
            t1 = perf()
            traced = self.cli_pass(traced=True)
            pass_s = [t1 - t0, perf() - t1]
            self.check_cli_pass(untraced, untraced)
            self.check_cli_pass(traced, untraced)
        try:
            traces = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
        except (OSError, ValueError) as exc:
            self.fail(f"trace not readable: {exc}")
            return {}, {}
        groups = {g: [sum(t["groups"][g][0] for t in traces),
                      sum(t["groups"][g][1] for t in traces)] for g in GROUPS}
        counters = {c: sum(t["counters"][c] for t in traces) for c in COUNTERS}
        self.check_invariants(counters)
        space = counters["functors.homs.space"]
        m = {"fields.ops": (counters["fields.ops"], "count")}
        for g, (calls, self_s) in groups.items():
            if g not in ("fields", "envelope", "envelope.free", "functors.verify",
                         "documents"):
                m[f"{g}.calls"] = (calls, "count")
            m[f"{g}.self_s"] = (self_s, "s")
        for c in COUNTERS[1:]:
            m[c] = (counters[c], "bytes" if c.startswith("documents") else "count")
        m["functors.homs.yield"] = (counters["functors.homs.found"] / space
                                    if space else 0.0, "ratio")
        m["cli.import_s"] = (statistics.median(t["cli.import_s"] for t in traces), "s")
        m["trace.overhead_s"] = (pass_s[1] - pass_s[0], "s")
        detail = {"untraced_pass_s": pass_s[0], "traced_pass_s": pass_s[1],
                  "invariants": {k: counters[k] for k in INVARIANTS}}
        return m, detail

    def check_invariants(self, counters):
        got = {k: counters[k] for k in INVARIANTS}
        want = dict(self.reference.get("invariants", {}).get(self.workload, {}))
        if self.workload == "check-corpus":
            # the oracle knows every report, so the covered triples follow
            want["algebra.check.triples"] = sum(
                oracle.algebra_check_triples(j["expect"]["flavor"], j["expect"]["dims"][0],
                                             j["expect"]["items"])
                for j in self.jobs if j["expect"]["kind"] == "algebra")
            want["actions.check.triples"] = sum(
                oracle.action_check_triples(j["expect"]["flavor"], *j["expect"]["dims"],
                                            j["expect"]["items"])
                for j in self.jobs if j["expect"]["kind"] == "xmod")
        if self.record:
            self.reference.setdefault("invariants", {})[self.workload] = got
        elif got != want:
            self.fail(f"invariant counts {got} differ from the reference {want}")


# ---------------------------------------------------------------------------
# run metadata (not gated)


def metadata():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            commit = path.read_text().strip() if path.exists() else None
        else:
            commit = ref
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": commit,
            "src_lines": src_lines}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "diacat" / "cli.py").is_file():
        print(f"no diacat sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, args.trace, args.record)
    metrics, detail = run.per_layer() if args.trace else run.end_to_end()
    if args.record:
        REFERENCE.write_text(json.dumps(run.reference, indent=1, sort_keys=True)
                             + "\n", encoding="utf-8")
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "detail": detail,
                      "meta": metadata()}))
    if not metrics:
        run.attempted = run.failed = max(1, run.attempted)
    print(json.dumps({
        "correct": not run.problems and bool(metrics),
        "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
