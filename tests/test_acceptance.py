"""Acceptance gate: twelve numbered criteria, one PASS/FAIL line each.

The verdict lines are echoed in the terminal summary after the run (and
inline with `pytest -s`).  Every criterion asserts, so the suite fails
loudly if any line says FAIL.
"""

import json
import time

import numpy as np
import pytest

from acdii.cli import main as cli_main
from acdii.data import compute_current, synthesize_triplet
from acdii.fields import Grid2D, ScalarField, TensorField2, grad
from acdii.forward import (
    InclusionSet,
    Layout,
    assemble,
    disk_cells,
    energy,
    solve_dirichlet,
    solve_inclusion_limit,
    solve_penalized,
)
from acdii.geometry import area_minimality_audit, curvature_residual
from acdii.inverse import (
    TVProblem,
    classify_inclusions,
    coarea_audit,
    duality_gap,
    minimality_audit,
    minimize_tv_fixedpoint,
    reconstruct,
    recover_c,
)
from conftest import bump_problem, bump_triplet, make_grid, record_acceptance, rotated_tensor
from test_forward import dense_solve


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    record_acceptance(line)
    return ok


@pytest.fixture(scope="module")
def bump65():
    return bump_triplet(65)


@pytest.fixture(scope="module")
def recon65(bump65):
    return reconstruct(TVProblem(bump65), algorithm="both")


@pytest.fixture(scope="module")
def bump129():
    return bump_triplet(129)


def _u_true(trip):
    return ScalarField(trip.grid, np.asarray(trip.provenance["u_true"]))


def test_criterion_01_affine_exactness():
    t0 = time.perf_counter()
    grid = make_grid(33)
    sigma0 = rotated_tensor(grid, 0.4, 3.0, 1.0)
    x, y = grid.node_coords()
    f = 2.0 * x + 3.0 * y - 1.0
    u = solve_dirichlet(assemble(1.7, Layout(sigma0)), ScalarField(grid, f), tol=1e-12)
    err = float(np.max(np.abs(u.values - f)))
    dt = time.perf_counter() - t0
    ok = err <= 1e-9 and dt < 1.0
    assert _verdict(1, "affine boundary data reproduced exactly", ok,
                    f"linf {err:.3e}, {dt:.2f}s")


def test_criterion_02_cg_matches_dense_direct():
    grid = Grid2D(8, 8, 1.0 / 7.0, 1.0 / 7.0)
    xc, yc = grid.cell_centers()
    c_cells = 1.0 + 0.5 * np.exp(-((xc - 0.5) ** 2 + (yc - 0.5) ** 2) / (2 * 0.15**2))
    sigma0 = rotated_tensor(grid, np.pi / 6.0, 2.0, 1.0)
    x, y = grid.node_coords()
    f = np.sin(np.pi * (x + 0.5 * y)) + 0.3 * x
    u_dense = dense_solve(grid, c_cells, sigma0, f)
    u = solve_dirichlet(assemble(c_cells, Layout(sigma0)), ScalarField(grid, f), tol=1e-13)
    rel = float(np.linalg.norm(u.values - u_dense) / np.linalg.norm(u_dense))
    ok = rel <= 1e-10
    assert _verdict(2, "iterative solve matches dense direct solve", ok, f"rel l2 {rel:.3e}")


def test_criterion_03_duality_gap_fine_grid(bump129):
    t0 = time.perf_counter()
    u = _u_true(bump129)
    c_true = np.asarray(bump129.provenance["c_true"])
    gap = duality_gap(u, bump129.f, c_true, bump129.a, bump129.sigma0)
    dt = time.perf_counter() - t0
    ok = gap <= 1e-3 and dt < 30.0
    assert _verdict(3, "duality identity on noiseless fine-grid data", ok,
                    f"gap {gap:.3e}, {dt:.1f}s")


def test_criterion_04_perturbation_minimality(recon65, bump65):
    res = minimality_audit(recon65.u_star, bump65.a, bump65.sigma0, trials=20, seed=0)
    floor = -1e-8 * res["tv_value"]
    ok = res["min_margin"] >= floor and res["trials"] == 20
    assert _verdict(4, "20 seeded perturbations never lower the functional", ok,
                    f"min margin {res['min_margin']:.3e} vs floor {floor:.3e}")


def test_criterion_05_inverse_crime_recovery(bump65):
    t0 = time.perf_counter()
    rep = reconstruct(TVProblem(bump65), algorithm="both")
    dt = time.perf_counter() - t0
    c_err = rep.diagnostics["c_rel_linf_off_mask"]
    cross = rep.diagnostics["cross_algorithm_rel_l2"]
    ok = c_err <= 5e-2 and cross <= 1e-2 and dt < 120.0
    assert _verdict(5, "factor recovered and the two minimizers agree", ok,
                    f"c linf {c_err:.3e}, fp-vs-pd {cross:.3e}, {dt:.1f}s of 120s")


def test_criterion_06_data_scaling_equivariance():
    trip = bump_triplet(33)
    grid = trip.grid
    u1, i1 = minimize_tv_fixedpoint(TVProblem(trip))
    doubled = synthesize_triplet(
        ScalarField(grid, 2.0 * np.asarray(trip.provenance["c_true"]), location="cell"),
        trip.sigma0, trip.f, grid,
    )
    u2, i2 = minimize_tv_fixedpoint(TVProblem(doubled))
    du = float(np.max(np.abs(u1.values - u2.values)))
    rel_u = du / max(float(np.max(np.abs(u1.values))), 1e-300)
    rel_f = abs(i2["tv_final"] - 2.0 * i1["tv_final"]) / (2.0 * i1["tv_final"])
    ok = rel_u <= 1e-8 and rel_f <= 1e-12
    assert _verdict(6, "doubling the data fixes the minimizer and doubles the value",
                    ok, f"u change {rel_u:.3e}, value mismatch {rel_f:.3e}")


def test_criterion_07_coarea_identity(bump129):
    res = coarea_audit(_u_true(bump129), bump129.a, bump129.sigma0, n_levels=200)
    ok = res["rel_discrepancy"] <= 2e-2
    assert _verdict(7, "level-set integral rebuilds the functional", ok,
                    f"discrepancy {res['rel_discrepancy']:.3e} over 200 levels")


def test_criterion_08_curvature_residual_refinement(bump129):
    def rms_of(trip, sigma0):
        # -div J of the current recovered from the data under sigma0
        u = _u_true(trip)
        c, mask, _ = recover_c(u, trip.a, sigma0)
        return curvature_residual(compute_current(u, c, sigma0, dead=mask), mask)[1]

    r33, r65 = (rms_of(trip, trip.sigma0) for trip in (bump_triplet(33), bump_triplet(65)))
    r129 = rms_of(bump129, bump129.sigma0)
    swapped = TensorField2(
        bump129.grid, bump129.sigma0.s22, bump129.sigma0.s12, bump129.sigma0.s11
    )
    control = rms_of(bump129, swapped)
    ok = (r33 / r65 >= 2.0) and (r65 / r129 >= 2.0) and (control >= 5.0 * r129)
    assert _verdict(8, "equipotentials behave like metric minimal surfaces", ok,
                    f"rms {r33:.2e}/{r65:.2e}/{r129:.2e}, control {control:.2e}")


def test_criterion_09_area_minimality(bump129):
    u = _u_true(bump129)
    grid = bump129.grid
    x, y = grid.node_coords()
    competitors = []
    for i in range(5):
        w = 0.05 * np.sin(np.pi * x * (i + 1)) * np.sin(np.pi * y * (i % 3 + 1))
        competitors.append(ScalarField(grid, u.values + w))
    res = area_minimality_audit(u, competitors, bump129.a, bump129.sigma0, n_levels=20,
                                tol_rel=0.01)
    ok = res["violations"] == 0 and len(res["levels"]) == 20
    assert _verdict(9, "no competitor level set beats the equipotential area", ok,
                    f"{res['violations']} violations, min margin {res['min_margin']:.2e}")


def test_criterion_10_penalization_ladder():
    grid = make_grid(65)
    disk = disk_cells(grid, (0.5, 0.5), 0.18)
    incl = InclusionSet(grid, perfect=[disk])
    sigma0 = rotated_tensor(grid, 0.3, 2.0, 1.0)
    x, _ = grid.node_coords()
    f = ScalarField(grid, x)
    u0 = solve_inclusion_limit(1.0, sigma0, f, incl)
    ref = float(np.linalg.norm(u0.values))
    i0 = energy(u0, 1.0, sigma0, incl)
    dists, energies = [], []
    ks = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    for k, uk in zip(ks, solve_penalized(ks, 1.0, sigma0, f, incl, tol=1e-12)):
        dists.append(float(np.linalg.norm(uk.values - u0.values)) / ref)
        energies.append(energy(uk, 1.0, sigma0, incl, k=k))
    monotone = all(a >= b for a, b in zip(dists, dists[1:]))
    egap = abs(energies[-1] - i0) / abs(i0)
    ok = monotone and dists[3] <= 1e-2 and egap <= 1e-2
    assert _verdict(10, "penalized problems converge to the tied limit", ok,
                    f"dists {dists[0]:.1e}->{dists[-1]:.1e}, d(k=1e-4) {dists[3]:.1e}, "
                    f"energy gap {egap:.1e}")


def test_criterion_11_inclusion_classification():
    n = 65
    grid = make_grid(n)
    sigma0 = TensorField2.constant(grid, 1.0, 0.0, 1.0)
    ones = ScalarField(grid, np.ones(grid.cell_shape), location="cell")
    x, y = grid.node_coords()
    f = ScalarField(grid, x)
    disk = disk_cells(grid, (0.5, 0.5), 0.18)

    results = []

    trip_p = synthesize_triplet(ones, sigma0, f, grid,
                                inclusions=InclusionSet(grid, perfect=[disk]))
    u_p = _u_true(trip_p)
    _, mask_p, diag_p = recover_c(u_p, trip_p.a, sigma0)
    lab_p = classify_inclusions(u_p, trip_p.a, sigma0, mask_p,
                                diag_p["delta_grad"], diag_p["delta_a"])
    results.append([l["label"] for l in lab_p] == ["perfect"])

    trip_i = synthesize_triplet(ones, sigma0, f, grid,
                                inclusions=InclusionSet(grid, insulating=[disk]))
    u_i = _u_true(trip_i)
    _, mask_i, diag_i = recover_c(u_i, trip_i.a, sigma0)
    lab_i = classify_inclusions(u_i, trip_i.a, sigma0, mask_i,
                                diag_i["delta_grad"], diag_i["delta_a"])
    results.append([l["label"] for l in lab_i] == ["insulating"])

    # radial potential with the data deleted on the disk: the constant rim
    # trace hides which wall it is, but the data jump is not conductivity-like
    r = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2)
    u_r = ScalarField(grid, r)
    amag = np.hypot(*grad(grid, r))
    av = np.where(disk, 0.0, amag)
    a_r = ScalarField(grid, av, location="cell")
    _, mask_r, diag_r = recover_c(u_r, a_r, sigma0)
    lab_r = classify_inclusions(u_r, a_r, sigma0, mask_r,
                                diag_r["delta_grad"], diag_r["delta_a"])
    results.append(
        len(lab_r) == 1 and lab_r[0]["label"] in ("perfect-or-insulating", "undetermined")
    )

    got = (
        [l["label"] for l in lab_p]
        + [l["label"] for l in lab_i]
        + [l["label"] for l in lab_r]
    )
    ok = all(results)
    assert _verdict(11, "inclusion kinds identified from one measurement", ok,
                    f"{sum(results)}/3 correct: {got}")


def test_criterion_12_reruns_byte_identical(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "grid": {"nx": 33, "ny": 33, "lx": 1.0, "ly": 1.0},
        "truth": {
            "c": {"kind": "gaussian_bump", "base": 1.0, "amplitude": 0.5,
                  "center": [0.5, 0.5], "width": 0.15},
            "sigma0": {"kind": "rotated_diag", "angle": 0.5236, "d1": 2.0, "d2": 1.0},
            "f": {"kind": "linear", "gx": 1.0, "gy": 0.0},
        },
        "inverse": {"algorithm": "fixedpoint"},
        "output": {"directory": str(out)},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["synth", "--config", str(path), "--quiet"]) == 0
    cfg["input"] = {"triplet": str(out)}
    path.write_text(json.dumps(cfg))
    assert cli_main(["invert", "--config", str(path), "--quiet"]) == 0
    names = ("u_star.field", "c_rec.field", "mask_z.field", "recon.json")
    first = {name: (out / name).read_bytes() for name in names}
    assert cli_main(["invert", "--config", str(path), "--quiet"]) == 0
    identical = all((out / name).read_bytes() == first[name] for name in names)
    assert _verdict(12, "repeated inversion is byte-identical", identical,
                    f"{len(names)} artifacts compared")
