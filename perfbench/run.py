"""End-to-end benchmark of the swcohom command line.

    python3 perfbench/run.py --workload divisibility --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout.  Each job of the seeded
workload (see jobs.py) is one fresh ``python -m swcohom.cli ...``
process with the checkout's ``src`` on PYTHONPATH, run one at a time in
a closed loop (one client) until ``--seconds`` have passed.  Every
job's exit status, stdout and stderr are checked by oracles.py.

--trace 0 reports the end-to-end metrics.  Between jobs, and never
counted as jobs, set-up probes time ``import swcohom`` inside a fresh
interpreter, and reference probes time ``python -c pass``, which runs
no swcohom code.  Every time and rate is given in seconds of a machine
on which the bare interpreter starts and exits in REFERENCE_S: each job
and set-up probe is scaled by REFERENCE_S over the median of the
REFERENCE_WINDOW reference times nearest to it.  The speed of a shared
virtual machine drifts by a third within minutes, and this scaling
cancels most of that drift; the unscaled values are printed with the
run's metadata.

--trace 1 reports the per-layer metrics.  Each job runs twice: plainly
and under traceboot.py with ``-X importtime``.  The traced stdout and
exit status must equal the plain ones, and the difference in child CPU
time gives the tracing overhead.

After the measured jobs, one probe job per known defect of the
workload (see README.md) runs against the same oracle.  Its verdict is
printed with the run's metadata; it is neither measured nor counted.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  ``failed`` counts the measured jobs
whose output broke the oracle; ``correct`` is false when any job
failed, or when a layer that the workload never reaches did work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from importlib import metadata

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from jobs import WORKLOADS, defect_probes, stream  # noqa: E402
from oracles import Oracle  # noqa: E402

BOOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traceboot.py")
JOB_TIMEOUT_S = 60
PROBE_EVERY = 5      # jobs between two set-up and reference probes
REFERENCE_S = 0.05   # the nominal `python -c pass`, in seconds
REFERENCE_WINDOW = 5  # reference probes in the median that scales a job
PROBE_CODE = ("import time; t = time.perf_counter(); import swcohom; "
              "print(repr(time.perf_counter() - t))")

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("cpu_s_per_job", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)

# modules whose cumulative -X importtime is reported
IMPORTS = ("swcohom", "swcohom.degree", "mpmath", "swcohom.lattices",
           "swcohom.reduction")
MODULES = ("cli", "rational", "series", "divisibility", "fourmanifold",
           "chamber", "lattices", "linalg", "reduction", "degree")
PER_LAYER = (
    [f"import.{m}_s" for m in IMPORTS]
    + ["cli.main.self_s", "rational.format_rational.calls",
       "rational.format_rational.self_s",
       "series.taylor_coefficients_a.calls", "series.taylor_coefficients_a.self_s",
       "series.TruncatedSeries.__mul__.calls",
       "divisibility.sw_divisibility_lower_bound.self_s",
       "lattices.validate.calls", "lattices.find_characteristic.calls",
       "lattices.enumerate_coset_by_norm.calls",
       "lattices.enumerate_coset_by_norm.self_s",
       "lattices.enumerate_coset_by_norm.hits",
       "lattices.enumerate_coset_by_norm.vectors",
       "lattices.diagonal_witness.self_s",
       "linalg.ldl.calls", "linalg.ldl.self_s",
       "linalg.bareiss_leading_minors.self_s", "linalg.solve_mod2.calls",
       "reduction.choose_reduction_subspace.self_s",
       "reduction.verify_miss_condition.calls",
       "reduction.verify_miss_condition.self_s",
       "reduction.reduce_and_degree.self_s", "reduction.ReductionProblem.f.calls",
       "linalg.gram_schmidt.self_s", "linalg.nullspace.calls",
       "degree.brouwer_degree.calls",
       "degree.brouwer_degree.dim2.total_s", "degree.brouwer_degree.dim3.total_s",
       "degree.boundary_evals.dim2", "degree.boundary_evals.dim3"]
    + [f"{m}.self_s" for m in MODULES]
    + ["trace.overhead_frac", "trace.jobs"]
)

# layers a workload never reaches: their counts must be exactly 0
MUST_BE_ZERO = {
    "series.taylor_coefficients_a.calls": ("lattice", "reduce"),
    "lattices.enumerate_coset_by_norm.calls": ("divisibility", "reduce"),
    "degree.brouwer_degree.calls": ("divisibility", "lattice"),
}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "frac" if name.endswith("_frac") else "count"


class Runner:
    """Spawns children one at a time; files live in a scratch directory."""

    def __init__(self, root: str, scratch: str):
        self.scratch = scratch
        self.env = dict(os.environ)
        # an installed package has compiled bytecode; let the children
        # write it once instead of compiling every module in every job
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.out_path = os.path.join(scratch, "stdout")
        self.err_path = os.path.join(scratch, "stderr")

    def spawn(self, args):
        """Run ``python args``; wall time is spawn to exit."""
        with open(self.out_path, "w+b") as out, open(self.err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, wait_status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(wait_status)
            out.seek(0)
            err.seek(0)
            return {
                "wall": wall,
                "status": proc.returncode,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_kb": usage.ru_maxrss,
                "stdout": out.read().decode("utf-8", "replace"),
                "stderr": err.read().decode("utf-8", "replace"),
            }

    def probe(self) -> float:
        r = self.spawn(["-c", PROBE_CODE])
        if r["status"] != 0:
            raise SystemExit(f"cannot import swcohom: {r['stderr'].strip()}")
        return float(r["stdout"])


class Tally:
    """Oracle verdicts over a run."""

    def __init__(self):
        self.oracle = Oracle()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.subcommands = Counter()

    def record(self, job, result):
        self.attempted += 1
        self.subcommands[job.subcommand] += 1
        reason = self.oracle.check(job, result["status"], result["stdout"],
                                   result["stderr"])
        if reason is not None:
            self.failed += 1
            self.problems.append(f"{' '.join(job.argv)}: {reason}")


def probe_defects(runner, oracle, probes) -> dict:
    """Known defect -> whether its probe job still fails, and how."""
    verdicts = {}
    for job in probes:
        r = runner.spawn(["-m", "swcohom.cli", *job.argv])
        reason = oracle.check(job, r["status"], r["stdout"], r["stderr"])
        verdicts[job.defect] = "fixed" if reason is None else f"fails: {reason}"
    return verdicts


def timed_run(runner, jobs, seconds, tally):
    """End-to-end metrics, and the unscaled times for the metadata."""
    probes, references, results = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if len(results) % PROBE_EVERY == 0:
            probes.append(runner.probe())
            references.append(runner.spawn(["-c", "pass"])["wall"])
        job = next(jobs)
        result = runner.spawn(["-m", "swcohom.cli", *job.argv])
        tally.record(job, result)
        results.append(result)
    # the machine's speed around each probe: the median of the reference
    # times nearest to it; a job takes the factor of the probe before it
    h = REFERENCE_WINDOW // 2
    factors = [REFERENCE_S / statistics.median(references[max(0, i - h):i + h + 1])
               for i in range(len(references))]
    per_job = [factors[n // PROBE_EVERY] for n in range(len(results))]
    unscaled = _summary(probes, [r["wall"] for r in results],
                        [r["cpu"] for r in results])
    values = _summary([t * f for t, f in zip(probes, factors)],
                      [r["wall"] * f for r, f in zip(results, per_job)],
                      [r["cpu"] * f for r, f in zip(results, per_job)])
    values["peak_rss_mb"] = max(r["rss_kb"] for r in results) / 1024
    values["ok_frac"] = (tally.attempted - tally.failed) / tally.attempted
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return metrics, {"reference_s": statistics.median(references),
                     "unscaled": unscaled}


def _summary(probes, walls, cpus) -> dict:
    return {
        "setup_s": statistics.median(probes),
        "jobs_per_s": len(walls) / sum(walls),
        "latency_p50_s": statistics.median(walls),
        "latency_p90_s": statistics.quantiles(walls, n=10, method="inclusive")[8],
        "cpu_s_per_job": sum(cpus) / len(cpus),
    }


def _import_times(stderr: str) -> dict:
    """Cumulative seconds per module from ``-X importtime`` lines."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, module = line.split("|")
            if cumulative.strip().isdigit():
                out[module.strip()] = int(cumulative) / 1e6
    return out


def traced_run(runner, jobs, seconds, tally, workload):
    flat = Counter()
    plain_cpu = traced_cpu = 0.0
    mismatches = []
    deadline = time.perf_counter() + seconds
    spans_path = os.path.join(runner.scratch, "spans.json")
    n = 0
    while time.perf_counter() < deadline:
        job = next(jobs)
        n += 1
        plain = runner.spawn(["-m", "swcohom.cli", *job.argv])
        tally.record(job, plain)
        if os.path.exists(spans_path):
            os.remove(spans_path)
        traced = runner.spawn(["-X", "importtime", BOOT, spans_path, str(n), *job.argv])
        if ((traced["stdout"], traced["status"]) != (plain["stdout"], plain["status"])
                or not os.path.exists(spans_path)):
            mismatches.append(" ".join(job.argv))
            continue
        plain_cpu += plain["cpu"]
        traced_cpu += traced["cpu"]
        times = _import_times(traced["stderr"])
        for module in IMPORTS:
            flat[f"import.{module}_s"] += times.get(module, 0.0)
        with open(spans_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        for name, (calls, _, self_ns) in trace["spans"].items():
            flat[f"{name}.calls"] += calls
            flat[f"{name}.self_s"] += self_ns / 1e9
            flat[f"{name.split('.')[0]}.self_s"] += self_ns / 1e9
        for key, value in trace["counters"].items():
            if key.endswith("_ns"):
                flat[key[:-3] + "_s"] += value / 1e9
            else:
                flat[key] += value
    flat["trace.overhead_frac"] = (traced_cpu - plain_cpu) / plain_cpu
    flat["trace.jobs"] = n
    problems = [f"traced run differs or left no trace: {m}" for m in mismatches]
    problems += [f"{name} = {flat[name]} on {workload}, expected 0"
                 for name, where in MUST_BE_ZERO.items()
                 if workload in where and flat[name] != 0]
    metrics = {}
    for name in PER_LAYER:
        unit = unit_of(name)
        value = flat.get(name, 0)
        metrics[name] = {"value": float(value) if unit != "count" else value,
                         "unit": unit}
    return metrics, problems


def run_info(args, tally, defects) -> dict:
    commit = None
    if os.path.isdir(".git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        mpmath_version = metadata.version("mpmath")
    except metadata.PackageNotFoundError:
        mpmath_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "jobs_per_subcommand": dict(sorted(tally.subcommands.items())),
        "known_defects": defects,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "swcohom", "cli.py")):
        print("run.py: no src/swcohom here; run it from the root of a swcohom "
              "checkout", file=sys.stderr)
        return 2

    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        runner = Runner(root, scratch)
        files = os.path.join(scratch, "inputs")
        os.mkdir(files)
        jobs = stream(args.workload, args.seed, files)
        probes = defect_probes(args.workload, args.seed, files)
        runner.spawn(["-c", "import swcohom.cli"])  # compiles the bytecode
        tally = Tally()
        if args.trace:
            metrics, problems = traced_run(runner, jobs, args.seconds, tally,
                                           args.workload)
        else:
            (metrics, scaling), problems = timed_run(runner, jobs, args.seconds,
                                                     tally), []
        defects = probe_defects(runner, tally.oracle, probes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems += tally.problems
    info = run_info(args, tally, defects)
    if not args.trace:
        info.update(scaling)
    print("# run " + json.dumps(info))
    for problem in problems:
        print(f"# FAIL {problem}")
    for name, m in metrics.items():
        print(f"# {args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
