"""Tests of the benchmark harness itself, on small grids.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import sys

import numpy as np
import pytest

import child
import run
import tracing
import workloads
from acdii.cli import parse_config  # importable once child has put src on the path

# small grids that keep every workload's checks passing
SMALL = {"fp-bump-129": 17, "pd-bump-65": 17, "inclusions-ladder-257": 97}
FP_TOL = parse_config({})["inverse"]["fp_tol"]


def _traced_job(name, tmp_path, k, traced=True):
    job_dir = tmp_path / "job"
    cfg = workloads.config(name, 5, str(job_dir), n=SMALL[name])
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(cfg))
    return child.run_job(name, k, cfg_path, job_dir, FP_TOL, traced)


def _exact(job):
    units = {e["name"]: e["unit"] for e in run._spec()["per_layer"]}
    return {k: v for k, v in dict(job["layers"], **job["counts"]).items()
            if units[k] not in run.TIME_UNITS}


def test_instrument_rebinds_every_imported_name_and_restores_it():
    originals = {(mod, attr): getattr(sys.modules[mod], attr)
                 for mod, attr, _, _ in tracing.TARGETS}
    acdii_modules = [m for k, m in sys.modules.items() if k.startswith("acdii")]
    with tracing.instrument(tracing.Tracer(0)):
        for orig in originals.values():
            for mod in acdii_modules:
                assert all(v is not orig for v in vars(mod).values()), mod.__name__
        # names imported elsewhere now point at the same wrapper
        assert sys.modules["acdii.inverse"].assemble is sys.modules["acdii.forward"].assemble
        assert sys.modules["acdii.cli"].extract_level_set is sys.modules["acdii.geometry"].extract_level_set
    for (mod, attr), orig in originals.items():
        assert getattr(sys.modules[mod], attr) is orig
    assert sys.modules["acdii.inverse"].solve_dirichlet is originals[("acdii.forward", "solve_dirichlet")]


def test_wrappers_return_the_value_unchanged_and_count_cg_iterations():
    forward = sys.modules["acdii.forward"]
    from acdii.fields import Grid2D, ScalarField, TensorField2

    grid = Grid2D(17, 17, 1 / 16, 1 / 16)
    sigma0 = TensorField2.constant(grid, 2.0, 0.3, 1.0)
    x, y = grid.node_coords()
    f = ScalarField(grid, np.sin(3 * x) + y)
    plain = forward.solve_dirichlet(forward.assemble(1.5, sigma0, grid), f)
    tracer = tracing.Tracer(0)
    with tracing.instrument(tracer):
        traced = forward.solve_dirichlet(forward.assemble(1.5, sigma0, grid), f)
    assert np.array_equal(plain.values, traced.values)
    system = forward.assemble(1.5, sigma0, grid)
    b, _ = system.rhs(f.values.ravel()[grid.boundary_ids])
    _, _, its = forward._pcg(system.matrix, b, 1e-10, 10_000)
    metrics = tracing.job_metrics(tracer.spans, FP_TOL)
    assert metrics["forward.cg.iterations"] == its > 0
    assert metrics["forward.assemble.calls"] == metrics["forward.solve.calls"] == 1


@pytest.mark.parametrize("name", workloads.NAMES)
def test_two_traced_runs_give_identical_counts_and_bytes(name, tmp_path):
    first = _traced_job(name, tmp_path, 1)
    second = _traced_job(name, tmp_path, 3)
    plain = _traced_job(name, tmp_path, 2, traced=False)
    for job in (first, second, plain):
        assert job["failed"] == []
    assert _exact(first) == _exact(second)
    # tracing changes no output byte
    assert first["hashes"] == second["hashes"] == plain["hashes"]
    counts = first["layers"]
    assert counts["forward.solve.calls"] > 0
    assert counts["forward.cg.iterations"] > 0
    assert counts["geometry.extract_level_set.calls"] > 0
    assert counts["io.bytes_written"] > 0 and counts["io.bytes_read"] > 0


def test_layer_self_times_add_up_to_the_traced_wall_time(tmp_path):
    job = _traced_job("fp-bump-129", tmp_path, 1)
    layers = job["layers"]
    total = sum(layers[f"layer.{name}.self_s"] for name in tracing.LAYERS)
    assert total == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["trace.wall_s"] == pytest.approx(job["wall_s"], rel=1e-2)
    assert job["counts"]["inverse.fixedpoint.inner_iterations"] > 0


def test_stages_converged_counts_the_stages_that_met_fp_tol(tmp_path):
    # at n = 17 and fp_tol 1e-5 the first stage runs out of inner
    # iterations and the others converge
    fp_tol, job_dir = 1e-5, tmp_path / "job"
    cfg = workloads.config("fp-bump-129", 5, str(job_dir), n=17)
    cfg["inverse"]["fp_tol"] = fp_tol
    (tmp_path / "job.json").write_text(json.dumps(cfg))
    job = child.run_job("fp-bump-129", 1, tmp_path / "job.json", job_dir, fp_tol, True)
    assert job["failed"] == []
    stages = json.loads((job_dir / "recon.json").read_text())["diagnostics"]["fixedpoint"]["stages"]
    max_inner = parse_config(cfg)["inverse"]["max_inner"]
    early = sum(1 for st in stages if st["inner_iterations"] < max_inner)
    # a stage that ran max_inner iterations may have met fp_tol on the last one
    assert 0 < early <= job["layers"]["inverse.fixedpoint.stages_converged"] < len(stages)


def test_every_declared_metric_is_reported(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    jobs = [_traced_job("fp-bump-129", tmp_path, k, traced=k % 2 == 1) for k in range(2)]
    res = run.summarize("fp-bump-129", 5, True, {
        "jobs": jobs, "setup_s": [0.5, 0.6], "peak_rss_mb": 80.0, "elapsed_s": 1.0})
    assert res["correct"], res["problems"]
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert entry["name"] in res["metrics"], entry["name"]
        assert res["metrics"][entry["name"]][1] == entry["unit"], entry["name"]


def test_every_declared_workload_is_defined():
    declared = [w["name"] for w in run._spec()["workloads"]]
    assert declared and set(declared) <= set(workloads.NAMES)
    # exposes a known area-minimality defect on some seeds; runs only when named
    assert "inclusions-ladder-257" not in declared
