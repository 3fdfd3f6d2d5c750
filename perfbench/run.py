"""End-to-end and per-layer benchmark of the acdii synth -> invert -> verify pipeline.

Usage, from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``all`` (the default) runs the workloads ``BENCHMARK.json`` declares; a
workload of ``workloads.py`` that it does not declare runs only when named.

Each workload runs in its own child process (``child.py``): whole jobs
through the CLI entry point for ``--seconds`` (at least two jobs; the
default is ``run_seconds`` of ``BENCHMARK.json``), with the
set-up (import ``acdii.cli`` and parse the config) timed in a fresh
interpreter after each job, and every job's outputs checked.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer ones.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it name every
metric with its unit and sample count, and record the environment.  The
full record, with every job, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEADLINE_S = 170.0
# timings measure the program, not the scheduler
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


# -- environment ----------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "pinned_env": PINNED_ENV,
    }


# -- one workload ----------------------------------------------------------------


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


TIME_UNITS = ("s", "ms")


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values):
    """(p, value) for the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    p = int(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float):
    workdir = ROOT / ".perfbench_work" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), name, str(seed), str(seconds),
             str(int(trace)), str(workdir)],
            env=dict(os.environ, **PINNED_ENV), check=True, stdout=subprocess.DEVNULL,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        child = json.loads((workdir / "child.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(name, seed, trace, child)


def summarize(name: str, seed: int, trace: bool, child: dict) -> dict:
    jobs = child["jobs"]
    problems = [f"job {j['job']}: {msg}" for j in jobs for msg in j["failed"]]
    # jobs that ran every command and whose results were read; a job that
    # failed a check still measured its times
    measured = [j for j in jobs if "solution_error" in j]
    plain = [j for j in measured if not j["traced"]]
    traced = [j for j in measured if j["traced"]]
    spec = _spec()
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}

    m = {}  # name -> (value, unit, sample count)

    def sample(key, vals, unit=None):
        m[key] = (_median(vals), unit or units[key], len(vals))

    sample("wall_s", [j["wall_s"] for j in plain])
    sample("setup_s", child["setup_s"])
    m["peak_rss_mb"] = (child["peak_rss_mb"], units["peak_rss_mb"], 1)
    sample("duality_gap", [j["duality_gap"] for j in plain])
    sample("solution_error", [j["solution_error"] for j in plain])
    for cmd in workloads.commands(name):
        sample(f"{cmd}_s", [j["times"][cmd] for j in plain], "s")
    if workloads.inverts(name):
        sample("c_rel_linf", [j["c_rel_linf"] for j in plain], "rel")
    failed = sum(1 for j in jobs if j["failed"])
    m["failure_ratio"] = (failed / len(jobs), "ratio", len(jobs))

    # exact counts must repeat in every job that produced them
    for key in measured[0]["counts"] if measured else ():
        vals = {json.dumps(j["counts"][key]) for j in measured}
        if len(vals) > 1:
            problems.append(f"count {key} differs between jobs: {sorted(vals)}")
    layer_rows = [dict(j["layers"], **j["counts"]) for j in traced]
    if trace and layer_rows:
        for key in layer_rows[0]:
            vals = [row[key] for row in layer_rows]
            if units[key] in TIME_UNITS:
                sample(key, vals)
            else:
                if len(set(map(json.dumps, vals))) > 1:
                    problems.append(f"count {key} differs between traced jobs: {vals}")
                m[key] = (vals[0], units[key], len(vals))
        unt = _median([j["wall_s"] for j in plain])
        m["trace.overhead_s"] = (m["trace.wall_s"][0] - unt, units["trace.overhead_s"],
                                 len(layer_rows))
    elif trace:
        problems.append("no traced job completed")

    tail = tail_percentile([j["wall_s"] for j in plain])
    if tail is not None:
        m[f"wall_s.p{tail[0]}"] = (tail[1], "s", len(plain))
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems,
        "attempted": len(jobs),
        "failed": failed,
        "problems": problems,
        "metrics": m,
        "setup_samples": child["setup_s"],
        "jobs": jobs,
        "elapsed_s": child["elapsed_s"],
    }


# -- output ----------------------------------------------------------------------


def result_line(res: dict, declared: list[dict], prefix: str = "") -> dict:
    # a metric with no sample (no job ran every command) reads 0; such a run is not correct
    return {
        prefix + entry["name"]: {
            "value": res["metrics"].get(entry["name"], (0.0,))[0],
            "unit": entry["unit"],
        }
        for entry in declared
    }


def print_report(res: dict) -> None:
    print(f"== {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"jobs {res['attempted']}  failed {res['failed']}  correct {res['correct']}")
    for name, (value, unit, n) in res["metrics"].items():
        print(f"  {name:36s} {value!r:>24} {unit:6s} (n={n})")
    for msg in res["problems"]:
        print(f"  problem: {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    spec = _spec()
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "acdii" / "cli.py").is_file():
        sys.stderr.write(f"no acdii sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    # "all" is every workload BENCHMARK.json declares
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    declared = spec["per_layer" if trace else "end_to_end"]
    env = environment(args.seed)
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)

    results = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            res = run_workload(name, args.seed, args.seconds, trace, deadline)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            sys.stderr.write(f"{name}: benchmark run failed: {exc}\n")
            return 1
        res["environment"] = env
        (outdir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1))
        print_report(res)
        results.append(res)

    print(json.dumps({"environment": env}, sort_keys=True))
    prefix = len(results) > 1
    metrics = {}
    for res in results:
        metrics.update(result_line(res, declared, res["workload"] + "/" if prefix else ""))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
