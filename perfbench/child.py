"""One workload's closed loop, run in its own interpreter by ``run.py``.

Usage: python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE WORKDIR

Runs whole jobs through ``acdii.cli.main`` one after another, one client,
until SECONDS have passed and at least two jobs ran (the byte-identity
check needs two).  With TRACE 1, every second job is traced, so the run
also holds the untraced jobs the tracing overhead is measured against.
After each job, one fresh interpreter times the set-up (``probe_setup.py``),
so the set-up samples spread over the whole run.  Writes WORKDIR/child.json
with every job's times, checks and counts, the set-up samples, and this
process's peak resident memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import acdii.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_JOBS = 2
SETUP_PROBES = 21
HASHED = ("u_star.field", "c_rec.field", "recon.json", "audits.json")


def _result_counts(recon: dict, audits: dict) -> dict:
    diag = recon["diagnostics"]
    fp = diag.get("fixedpoint", {"total_inner_iterations": 0})
    pd = diag.get("primaldual", {"iterations": 0, "pd_gap": 0.0})
    return {
        "inverse.fixedpoint.inner_iterations": fp["total_inner_iterations"],
        "inverse.primaldual.iterations": pd["iterations"],
        "inverse.primaldual.pd_gap": pd["pd_gap"],
        "geometry.area_minimality.violations": audits["audits"]["area_minimality"]["violations"],
    }


def _check(name: str, job: dict, job_dir: Path) -> list[str]:
    """Read the job's results; return the correctness checks it failed."""
    audits = json.loads((job_dir / "audits.json").read_text())
    failed = [f"gate {g} failed" for g in workloads.GATES if not audits["gates"][g]]
    job["duality_gap"] = audits["audits"]["minimality"]["duality_gap"]
    if workloads.inverts(name):
        recon = json.loads((job_dir / "recon.json").read_text())
        job["c_rel_linf"] = recon["diagnostics"]["c_rel_linf_off_mask"]
        job["solution_error"] = job["c_rel_linf"]
        if not job["c_rel_linf"] <= workloads.C_REL_LINF_BOUND:
            failed.append(f"c_rel_linf {job['c_rel_linf']:.3e} above the bound")
        job["counts"] = _result_counts(recon, audits)
    else:
        ladder = audits["audits"]["penalization_ladder"]
        if ladder["skipped"]:
            failed.append("penalization ladder skipped")
        else:
            job["solution_error"] = ladder["final_distance_rel"]
            for key in ("distance_monotone", "energy_monotone"):
                if not ladder[key]:
                    failed.append(f"ladder {key} is false")
        job["counts"] = _result_counts({"diagnostics": {}}, audits)
    job["hashes"] = {
        f: hashlib.sha256((job_dir / f).read_bytes()).hexdigest()
        for f in HASHED if (job_dir / f).exists()
    }
    return failed


def run_job(name: str, k: int, cfg_path: Path, job_dir: Path, fp_tol: float,
            traced: bool) -> dict:
    """Run one job; it fails if a command exits non-zero or a check fails.

    Once every command has run (``verify`` exits 1 when a gate fails, after
    writing ``audits.json``), the job's times and results are recorded
    whether or not it failed.
    """
    shutil.rmtree(job_dir, ignore_errors=True)
    tracer = tracing.Tracer(k) if traced else None
    job = {"job": k, "traced": traced, "rc": {}, "times": {}, "failed": []}
    try:
        with tracing.instrument(tracer) if traced else contextlib.nullcontext():
            for cmd in workloads.commands(name):
                argv = [cmd, "--config", str(cfg_path), "--quiet"]
                t0 = time.perf_counter()
                with tracer.span("cli." + cmd) if traced else contextlib.nullcontext():
                    rc = acdii.cli.main(argv)
                job["times"][cmd] = time.perf_counter() - t0
                job["rc"][cmd] = rc
                if rc != 0:
                    job["failed"].append(f"{cmd} exited {rc}")
                    break
        if len(job["times"]) == len(workloads.commands(name)):
            job["wall_s"] = sum(job["times"].values())
            job["failed"] += _check(name, job, job_dir)
    except Exception:  # a crashed job is a failed job; the loop goes on
        job["failed"].append(traceback.format_exc())
    if traced:
        job["layers"] = tracing.job_metrics(tracer.spans, fp_tol)
    return job


def probe_setup(cfg_path: Path) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe_setup.py")), str(cfg_path)],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workdir = argv
    seed, seconds, trace, workdir = int(seed), float(seconds), trace == "1", Path(workdir)
    job_dir = workdir / "job"
    cfg = workloads.config(name, seed, str(job_dir))
    cfg_path = workdir / "job.json"
    cfg_path.write_text(json.dumps(cfg))
    fp_tol = acdii.cli.parse_config(cfg)["inverse"]["fp_tol"]

    jobs, setups = [], []
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
        k = len(jobs)
        jobs.append(run_job(name, k, cfg_path, job_dir, fp_tol, trace and k % 2 == 1))
        setups.append(probe_setup(cfg_path))
    elapsed = time.perf_counter() - start
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(cfg_path))
    # criterion 12: one config, so every job must write the same bytes
    ref = jobs[0].get("hashes")
    for job in jobs[1:]:
        if job.get("hashes") != ref:
            job["failed"].append("result hashes differ from job 0")

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"jobs": jobs, "setup_s": setups, "peak_rss_mb": peak_kb / 1024.0, "elapsed_s": elapsed}
    (workdir / "child.json").write_text(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
