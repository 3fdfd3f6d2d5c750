"""Weighted-TV minimization: functional, both solvers, duality, recovery."""

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from acdii import forward, inverse
from acdii.data import AdmissibleTriplet, compute_current, solve_truth, synthesize_triplet
from acdii.fields import (
    Grid2D,
    ScalarField,
    TensorField2,
    VectorField2,
    cell_operator,
    grad,
    grad_adjoint,
    nodes_of_cells,
    rel_l2,
    sym2_det,
    sym2_sqrt,
    tv_density,
    weighted_tv,
)
from acdii.forward import (
    InclusionSet,
    Layout,
    assemble,
    cg_correction,
    disk_cells,
    solve_dirichlet,
)
from acdii.inverse import (
    TVConfigError,
    TVProblem,
    _EPS_STAGES,
    _PD_CHECK,
    _PD_TOL,
    _eps_schedule,
    _normalized_data,
    boundary_flux_integral,
    classify_inclusions,
    coarea_audit,
    dual_feasibility,
    duality_gap,
    minimality_audit,
    minimize_tv_fixedpoint,
    minimize_tv_primal_dual,
    reconstruct,
    recover_c,
    sine_perturbations,
)
from conftest import bump_problem, bump_triplet, make_grid, rotated_tensor


def _loop_weighted_tv(u, a, sigma0, eps=0.0):
    """Independent re-derivation: per-cell averaged one-sided differences in
    the sigma0-norm plus the hourglass term (s11 hy^2 + s22 hx^2) / 12 of
    the cell's twist, smoothed by eps, times the cell area; plain loops."""
    g = u.grid
    total = 0.0
    v = u.values
    for j in range(g.ny - 1):
        for i in range(g.nx - 1):
            dx = 0.5 * ((v[j, i + 1] - v[j, i]) + (v[j + 1, i + 1] - v[j + 1, i])) / g.hx
            dy = 0.5 * ((v[j + 1, i] - v[j, i]) + (v[j + 1, i + 1] - v[j, i + 1])) / g.hy
            s = np.array(
                [
                    [sigma0.s11[j, i], sigma0.s12[j, i]],
                    [sigma0.s12[j, i], sigma0.s22[j, i]],
                ]
            )
            q = np.array([dx, dy])
            b = (v[j, i] - v[j, i + 1] - v[j + 1, i] + v[j + 1, i + 1]) / (g.hx * g.hy)
            hg = (s[0, 0] * g.hy**2 + s[1, 1] * g.hx**2) / 12.0 * b * b
            total += a.values[j, i] * np.sqrt(q @ s @ q + hg + eps * eps) * g.hx * g.hy
    return total


def test_weighted_tv_matches_loop_oracle():
    rng = np.random.default_rng(17)
    g = Grid2D(9, 7, 0.125, 1.0 / 6.0)
    u = ScalarField(g, rng.standard_normal((7, 9)))
    a = ScalarField(g, rng.uniform(0.1, 2.0, (6, 8)), location="cell")
    # a random SPD tensor per cell: L L^T + 0.1 I
    l11, l21, l22 = rng.standard_normal((3, 6, 8))
    spd = TensorField2(g, l11 * l11 + 0.1, l11 * l21, l21 * l21 + l22 * l22 + 0.1)
    for sigma0, eps in ((rotated_tensor(g, 0.37, 2.4, 0.8), 0.0), (spd, 0.0), (spd, 0.3)):
        assert weighted_tv(u.values, a.values, sigma0, eps) == pytest.approx(
            _loop_weighted_tv(u, a, sigma0, eps), rel=1e-12
        )


def test_weighted_tv_known_value():
    g = make_grid(9)
    x, _ = g.node_coords()
    u = ScalarField(g, x)
    a = ScalarField(g, np.ones(g.cell_shape), location="cell")
    s = TensorField2.constant(g, 1.0, 0.0, 1.0)
    assert weighted_tv(u.values, a.values, s) == pytest.approx(1.0, rel=1e-12)


def test_weighted_tv_one_homogeneous():
    rng = np.random.default_rng(2)
    g = make_grid(9)
    u = rng.standard_normal((9, 9))
    a = rng.uniform(0.5, 1.5, g.cell_shape)
    s = rotated_tensor(g, 0.2, 3.0, 1.0)
    base = weighted_tv(u, a, s)
    for t in (0.0, 0.3, 2.0, -1.7):
        assert weighted_tv(t * u, a, s) == pytest.approx(abs(t) * base, abs=1e-12)


def test_tv_linear_in_weight():
    rng = np.random.default_rng(4)
    g = make_grid(9)
    u = rng.standard_normal((9, 9))
    a1 = rng.uniform(0.1, 1.0, g.cell_shape)
    a2 = rng.uniform(0.1, 1.0, g.cell_shape)
    s = rotated_tensor(g, 1.0, 2.0, 0.5)
    assert weighted_tv(u, a1 + a2, s) == pytest.approx(
        weighted_tv(u, a1, s) + weighted_tv(u, a2, s), rel=1e-12
    )


def _trivial_triplet(n=17):
    grid = make_grid(n)
    sigma0 = TensorField2.constant(grid, 1.0, 0.0, 1.0)
    c = ScalarField(grid, np.ones(grid.cell_shape), location="cell")
    x, _ = grid.node_coords()
    return synthesize_triplet(c, sigma0, ScalarField(grid, x), grid), x


def test_fixedpoint_recovers_linear_potential():
    trip, x = _trivial_triplet()
    u, info = minimize_tv_fixedpoint(TVProblem(trip))
    assert np.max(np.abs(u.values - x)) <= 1e-6
    assert info["algorithm"] == "fixedpoint"
    assert not info["nonmonotone_flag"]


def test_fixedpoint_stages_report_cg_work_and_convergence(monkeypatch):
    # at n = 17, fp_tol 1e-8 and three steps per stage the last stage runs
    # out of steps short of fp_tol (its third step changes u by 1.3e-7)
    calls = []

    def counted(matrix, r, forcing, cap):
        x, its, met = cg_correction(matrix, r, forcing, cap)
        calls.append((its, met))
        return x, its, met

    monkeypatch.setattr(inverse, "cg_correction", counted)
    problem = TVProblem(bump_triplet(17), fp_tol=1e-8, max_inner=3)
    _, info = minimize_tv_fixedpoint(problem)
    stages = info["stages"]
    for st in stages:
        assert st["converged"] == (st["final_rel_change"] <= st["tol"])
        assert st["converged"] or st["inner_iterations"] == problem.max_inner
        # one CG solve per step; its iterations, one V-cycle each, are counted
        steps = calls[:st["inner_iterations"]]
        del calls[:st["inner_iterations"]]
        assert len(steps) == st["inner_iterations"] == len(st["smoothed_history"])
        assert st["vcycles"] == sum(its for its, _ in steps) >= st["inner_iterations"]
        assert st["cap_hits"] == sum(not met for _, met in steps)
        assert st["monotone"] and st["cuts"] >= 0
    assert not calls
    assert not stages[-1]["converged"]
    assert stages[-1]["inner_iterations"] == problem.max_inner
    # the run's one CG solve to a tolerance is the initial cold solve
    assert info["total_cg_iterations"] > 0


@pytest.mark.parametrize("fp_tol", [1e-10, 1e-6, 2.0])
def test_fixedpoint_warm_start_stages_stop_at_sqrt_fp_tol(fp_tol):
    # every stage but the last only warm-starts the next, so it stops at
    # max(sqrt(fp_tol), fp_tol); the returned last stage stops at fp_tol
    problem = TVProblem(bump_triplet(17), fp_tol=fp_tol)
    _, info = minimize_tv_fixedpoint(problem)
    stages = info["stages"]
    assert len(stages) == _EPS_STAGES
    for st in stages[:-1]:
        assert st["tol"] == max(np.sqrt(fp_tol), fp_tol)
    assert stages[-1]["tol"] == fp_tol
    for st in stages:
        assert st["converged"] == (st["final_rel_change"] <= st["tol"])


def test_accelerated_fixedpoint_converges_every_stage(bump33, monkeypatch):
    # count the multigrid hierarchies built: one for the initial solve and
    # one per stage, whose operator every step of the stage reuses
    builds = []

    class CountingMultigrid(forward.Multigrid):
        def __init__(self, matrix, layout):
            builds.append(matrix.shape)
            super().__init__(matrix, layout)

    monkeypatch.setattr(forward, "Multigrid", CountingMultigrid)
    problem = TVProblem(bump33)
    u, info = minimize_tv_fixedpoint(problem)
    assert len(builds) == 1 + _EPS_STAGES
    assert info["total_inner_iterations"] > _EPS_STAGES
    assert all(st["converged"] for st in info["stages"])
    # Newton-chord steps: 29 here, where the Anderson-mixed defect
    # correction took 137 and the unmixed lagged iteration ran out of 8 x 50
    assert info["total_inner_iterations"] <= 60
    assert _lagged_step_change(problem, u) <= 0.1 * problem.fp_tol


def _lagged_step_change(problem, u):
    """rel_l2(u, Phi(u)), Phi the lagged-diffusivity step at the final eps solved by CG."""
    grid, sigma0, _, a_hat, void = _normalized_data(problem)
    eps = _eps_schedule(sigma0)[-1]
    weight = tv_density(u.values, sigma0, eps)
    system = assemble(np.where(~void, a_hat / weight, 1.0), Layout(sigma0, exclude_cells=void))
    step = solve_dirichlet(system, problem.triplet.f, tol=1e-13)
    return rel_l2(u.values, step.values)


def _checkpoint_spacing(trip):
    return _PD_CHECK * max(trip.grid.nx, trip.grid.ny)


def test_primal_dual_records_gap_at_tv_checkpoints(bump33, recon33):
    info = recon33.diagnostics["primaldual"]
    gaps = info["gap_history"]
    record_every = _checkpoint_spacing(bump33)
    assert len(gaps) == len(info["tv_history"]) == info["iterations"] // record_every
    assert all(np.isfinite(gaps)) and min(gaps) >= 0.0
    # the last checkpoint is the last iteration, where pd_gap is taken
    assert gaps[-1] == pytest.approx(info["pd_gap"], abs=1e-12)
    assert gaps[-1] < gaps[0]


def _pd_stop_measures(info, trip):
    """(gap, div B rms l / max a) at each checkpoint: the two the rule gates on."""
    grid = trip.grid
    length = max((grid.nx - 1) * grid.hx, (grid.ny - 1) * grid.hy)
    amax = float(np.max(trip.a.values))
    return [(g, d * length / amax) for g, d in zip(info["gap_history"], info["divergence_history"])]


def test_primal_dual_stops_at_first_checkpoint_meeting_both_tolerances(bump33, recon33):
    info = recon33.diagnostics["primaldual"]
    record_every = _checkpoint_spacing(bump33)
    assert info["converged"] is True
    assert info["iterations"] < info["max_iterations"] == 200 * 33
    assert info["iterations"] % record_every == 0
    measures = _pd_stop_measures(info, bump33)
    assert len(measures) == info["iterations"] // record_every
    gap, div = measures[-1]
    assert gap <= _PD_TOL and div <= _PD_TOL
    gap, div = measures[-2]
    assert gap > _PD_TOL or div > _PD_TOL


def test_primal_dual_void_patch_runs_its_cap_unconverged():
    trip = _pd_triplet(True)
    u, B, info = minimize_tv_primal_dual(TVProblem(trip))
    assert info["max_iterations"] == 200 * trip.grid.nx
    assert info["iterations"] == info["max_iterations"]
    assert info["converged"] is False
    assert len(info["gap_history"]) == 50
    # the last checkpoint, at the cap, still fails the rule
    gap, div = _pd_stop_measures(info, trip)[-1]
    assert gap > _PD_TOL or div > _PD_TOL


def test_primal_dual_stop_is_invariant_under_doubled_data():
    # doubling from 1/2 c to c and from c to 2c: a rule on the raw div B
    # would stop one of the pairs at different checkpoints
    trip = bump_triplet(17)
    grid = trip.grid
    c_true = np.asarray(trip.provenance["c_true"])

    def run(scale):
        scaled = synthesize_triplet(
            ScalarField(grid, scale * c_true, location="cell"), trip.sigma0, trip.f, grid
        )
        return minimize_tv_primal_dual(TVProblem(scaled))

    runs = [run(scale) for scale in (0.5, 1.0, 2.0)]
    for (u1, B1, i1), (u2, B2, i2) in zip(runs, runs[1:]):
        assert i1["converged"] and i2["converged"]
        assert i1["iterations"] == i2["iterations"] < i1["max_iterations"]
        assert np.array_equal(u1.values, u2.values)
        assert np.array_equal(2.0 * B1.v1, B2.v1) and np.array_equal(2.0 * B1.v2, B2.v2)
        assert i2["tv_final"] == 2.0 * i1["tv_final"]


def test_primal_dual_cap_does_not_move_the_stop(bump33):
    # the checkpoints follow the grid, not the cap: a larger cap checks the
    # same steps and stops at the same one
    runs = [
        minimize_tv_primal_dual(TVProblem(bump33, pd_iterations=k * 200 * 33))
        for k in (1, 2, 5)
    ]
    u0, B0, i0 = runs[0]
    for u, B, info in runs:
        assert info["converged"] is True and info["iterations"] == 264
        assert np.array_equal(u.values, u0.values)
        assert np.array_equal(B.v1, B0.v1) and np.array_equal(B.v2, B0.v2)
        assert info["gap_history"] == i0["gap_history"]


def _with_f(trip, fvals):
    return AdmissibleTriplet(ScalarField(trip.grid, fvals), trip.sigma0, trip.a, trip.grid)


def test_primal_dual_default_steps_are_equivariant_under_affine_boundary_data():
    # tau / sigma follows osc(f)^2, so u follows f and b does not move
    trip = bump_triplet(17)
    u1, B1, i1 = minimize_tv_primal_dual(TVProblem(trip))
    u2, B2, i2 = minimize_tv_primal_dual(TVProblem(_with_f(trip, 2.0 * trip.f.values)))
    u3, _, i3 = minimize_tv_primal_dual(TVProblem(_with_f(trip, trip.f.values + 0.25)))
    assert i1["converged"] and i1["iterations"] == i2["iterations"] == i3["iterations"]
    assert np.array_equal(u2.values, 2.0 * u1.values)
    assert np.array_equal(B1.v1, B2.v1) and np.array_equal(B1.v2, B2.v2)
    assert np.max(np.abs(u3.values - (u1.values + 0.25))) <= 1e-8


def test_primal_dual_stops_early_on_the_n65_bump():
    # with the Gershgorin step bound and the relaxed step the rule stops
    # this run at its second checkpoint, 520 steps, with c at 4.9e-7; with
    # the entrywise bound M (4/hx^2 + 4/hy^2), twice as large here, it
    # would stop at the third
    rep = reconstruct(TVProblem(bump_triplet(65)), algorithm="primaldual")
    info = rep.diagnostics["primaldual"]
    assert info["converged"] is True
    assert info["iterations"] <= 520
    assert rep.diagnostics["c_rel_linf_off_mask"] <= 1e-5
    assert info["pd_gap"] <= 1e-6
    assert rep.diagnostics["duality_gap"] <= 1e-8


def test_primal_dual_constant_boundary_data_gives_constant_potential():
    bump = bump_triplet(17)
    trip = _with_f(bump, np.full(bump.grid.shape, 0.7))
    u, B, info = minimize_tv_primal_dual(TVProblem(trip))
    assert info["tau"] * info["sigma_step"] * info["l2"] == pytest.approx(1.0, rel=1e-12)
    assert info["converged"] is True
    assert np.all(np.isfinite(u.values)) and np.max(np.abs(u.values - 0.7)) <= 1e-12
    assert np.all(np.isfinite(B.v1)) and np.all(np.isfinite(B.v2))


@pytest.mark.parametrize("nx, ny, ly", [(17, 17, 1.0), (17, 13, 1.0), (33, 9, 3.0)],
                         ids=["17x17", "17x13", "33x9-stretched"])
def test_primal_dual_step_bound_is_at_least_the_operator_norm(nx, ny, ly):
    # the recorded l2 must bound lambda_max(K1^T K1), or tau sigma l2 = 1
    # would not be the step condition; on these grids it is within 1.5x of
    # it and below the entrywise bound M (4/hx^2 + 4/hy^2); on the 33x9
    # grid hy = 12 hx
    grid = Grid2D(nx, ny, 1.0 / (nx - 1), ly / (ny - 1))
    xc, yc = grid.cell_centers()
    x, _ = grid.node_coords()
    c = ScalarField(grid, 1.0 + 0.5 * np.exp(-((xc - 0.5) ** 2 + (yc - 0.5) ** 2) / 0.045),
                    location="cell")
    for sigma0 in (rotated_tensor(grid, np.pi / 6.0, 2.0, 1.0), _fiber_tensor(grid),
                   TensorField2.constant(grid, 1.0, 0.0, 1.0)):
        trip = synthesize_triplet(c, sigma0, ScalarField(grid, x), grid)
        _, _, info = minimize_tv_primal_dual(TVProblem(trip, pd_iterations=1))
        k1 = cell_operator(grid, sigma0, 1.0)
        lam = eigsh((k1.T @ k1).tocsc(), k=1, which="LA", return_eigenvectors=False)[0]
        assert lam <= info["l2"] <= 1.5 * lam
        assert info["l2"] <= sigma0.M * (4.0 / grid.hx**2 + 4.0 / grid.hy**2)


def test_primal_dual_recovers_linear_potential():
    trip, x = _trivial_triplet()
    u, B, info = minimize_tv_primal_dual(TVProblem(trip))
    assert np.max(np.abs(u.values - x)) <= 1e-4
    assert info["dual_feasibility"] <= 1e-10
    assert info["pd_gap"] <= 1e-6


def _twist(grid, vals):
    """Per-cell hourglass amplitude (u_sw - u_se - u_nw + u_ne) / (hx hy)."""
    return (vals[:-1, :-1] - vals[:-1, 1:] - vals[1:, :-1] + vals[1:, 1:]) / (grid.hx * grid.hy)


def _twist_adjoint(grid, w):
    """Transpose of `_twist`: sum_cells twist(u) w == sum_nodes u _twist_adjoint(w)."""
    t = w / (grid.hx * grid.hy)
    out = np.zeros(grid.shape)
    out[:-1, :-1] += t
    out[:-1, 1:] -= t
    out[1:, :-1] -= t
    out[1:, 1:] += t
    return out


def _dense_gershgorin(grid, apply_k, apply_kt):
    """max row sum of |K^T K|, K^T K built column by column from unit vectors."""
    cols = []
    for i in range(grid.n_nodes):
        e = np.zeros(grid.n_nodes)
        e[i] = 1.0
        cols.append(apply_kt(apply_k(e.reshape(grid.shape))).ravel())
    return float(np.max(np.sum(np.abs(np.array(cols)), axis=0)))


def _reference_primal_dual(problem, steps):
    """The primal-dual loop on array slices, one numpy call per term.

    Same iteration as `minimize_tv_primal_dual`, written with `grad` /
    `grad_adjoint`, the hourglass twist and its adjoint, and the Dirichlet
    values re-imposed after each primal step: the primal step uhat, the
    dual step bhat of three rows per cell from the extrapolation
    2 uhat - u, projected onto the 3-D ball of radius a, then (u, b) moved
    by 1.9 times the way to (uhat, bhat).  L^2 is the Gershgorin bound of
    K^T K for the masked operator K, built here from those array
    functions.  B, the pairing and the three-row div B are taken from
    bhat; the gap's primal term runs over the cells where a does not
    vanish.  It runs `steps` iterations with a checkpoint every
    4 max(nx, ny) of them, and has no stopping rule of its own.
    Returns (u, (B1, B2), histories, L^2).
    """
    grid, sigma0, amax, a_hat, void = _normalized_data(problem)
    t = problem.triplet
    r11, r12, r22 = sym2_sqrt(sigma0.s11, sigma0.s12, sigma0.s22)
    hg = np.sqrt((sigma0.s11 * grid.hy**2 + sigma0.s22 * grid.hx**2) / 12.0)
    active = ~void

    def apply_k(vals):
        g1, g2 = grad(grid, vals)
        return (np.where(active, r11 * g1 + r12 * g2, 0.0),
                np.where(active, r12 * g1 + r22 * g2, 0.0),
                np.where(active, hg * _twist(grid, vals), 0.0))

    def apply_kt(w):
        w1, w2, w3 = (np.where(active, x, 0.0) for x in w)
        return (grad_adjoint(grid, r11 * w1 + r12 * w2, r12 * w1 + r22 * w2)
                + _twist_adjoint(grid, hg * w3))

    l2 = _dense_gershgorin(grid, apply_k, apply_kt)
    fb = t.f.values.ravel()[grid.boundary_ids]
    omega = float(fb.max() - fb.min()) or 1.0
    tau, sig = omega / (4.0 * np.sqrt(l2)), 4.0 / (omega * np.sqrt(l2))
    a_active = np.where(active, a_hat, 0.0)
    system = assemble(1.0, Layout(sigma0, exclude_cells=void))
    uv = solve_dirichlet(system, t.f).values.copy()
    rho = 1.9
    b = np.zeros((3,) + grid.cell_shape)
    hist = {"tv_history": [], "gap_history": [], "divergence_history": []}
    record_every = 4 * max(grid.nx, grid.ny)
    for it in range(steps):
        u_hat = uv - tau * apply_kt(b)
        u_hat.ravel()[grid.boundary_ids] = fb
        bh = b + sig * np.array(apply_k(2.0 * u_hat - uv))
        nrm = np.sqrt(np.sum(bh**2, axis=0))
        bh *= np.where(nrm > a_hat, a_hat / np.maximum(nrm, 1e-300), 1.0)
        uv = uv + rho * (u_hat - uv)
        b = b + rho * (bh - b)
        if (it + 1) % record_every == 0:
            hist["tv_history"].append(amax * weighted_tv(uv, a_hat, sigma0))
            primal = weighted_tv(uv, a_active, sigma0)
            pairing = float(np.sum(np.array(apply_k(uv)) * bh)) * grid.cell_area
            hist["gap_history"].append(abs(primal - pairing) / primal)
            div = amax * apply_kt(bh)[grid.interior_mask()]
            hist["divergence_history"].append(float(np.sqrt(np.mean(div**2))))
    b1, b2 = amax * (r11 * bh[0] + r12 * bh[1]), amax * (r12 * bh[0] + r22 * bh[1])
    return uv, (b1, b2), hist, l2


def _pd_triplet(void_patch=False, zero_below=0.0):
    """23x15 cells of a 0.05 x 0.08 grid, sigma0 rotating and stretching per cell.

    void_patch zeroes a on a 4x5 block of cells, zero_below on the cells
    where a <= zero_below max(a).
    """
    grid = Grid2D(23, 15, 0.05, 0.08)
    xc, yc = grid.cell_centers()
    angle = 0.4 + 0.8 * xc - 0.5 * yc
    d1 = 2.0 + np.sin(3.0 * xc)
    d2 = 1.0 + 0.5 * yc
    ct, st = np.cos(angle), np.sin(angle)
    sigma0 = TensorField2(
        grid, d1 * ct * ct + d2 * st * st, (d1 - d2) * st * ct, d1 * st * st + d2 * ct * ct
    )
    r2 = (xc - 0.6) ** 2 + (yc - 0.5) ** 2
    c = ScalarField(grid, 1.0 + 0.5 * np.exp(-r2 / 0.05), location="cell")
    x, y = grid.node_coords()
    trip = synthesize_triplet(c, sigma0, ScalarField(grid, x + 0.3 * y), grid)
    if void_patch or zero_below > 0.0:
        a = trip.a.values.copy()
        if void_patch:
            a[5:9, 8:13] = 0.0
        a[a <= zero_below * np.max(a)] = 0.0
        trip = AdmissibleTriplet(trip.f, sigma0, ScalarField(grid, a, location="cell"), grid)
    return trip


def _array_rel(x, ref):
    x, ref = np.asarray(x), np.asarray(ref)
    return float(np.max(np.abs(x - ref))) / float(np.max(np.abs(ref)))


@pytest.mark.parametrize(
    "void_patch, zero_below",
    [(False, 0.0), (True, 0.0), (False, 0.9)],
    ids=["varying-sigma0", "void-patch", "void-floor"],
)
def test_primal_dual_matches_reference_loop(void_patch, zero_below):
    problem = TVProblem(_pd_triplet(void_patch, zero_below))
    u, B, info = minimize_tv_primal_dual(problem)
    u_ref, (b1_ref, b2_ref), hist, l2 = _reference_primal_dual(problem, info["iterations"])
    assert info["l2"] == pytest.approx(l2, rel=1e-12)
    assert _array_rel(u.values, u_ref) <= 1e-12
    assert _array_rel(B.v1, b1_ref) <= 1e-12
    assert _array_rel(B.v2, b2_ref) <= 1e-12
    assert _array_rel(info["tv_history"], hist["tv_history"]) <= 1e-12
    assert _array_rel(info["divergence_history"], hist["divergence_history"]) <= 1e-12
    # the gap is already a fraction of F, so its rounding is absolute
    gaps = np.asarray(info["gap_history"])
    assert gaps.size == info["iterations"] // _checkpoint_spacing(problem.triplet)
    assert np.max(np.abs(gaps - hist["gap_history"])) <= 1e-12


@pytest.mark.parametrize("void_patch", [False, True], ids=["varying-sigma0", "void-patch"])
def test_primal_dual_returns_a_feasible_dual_field(void_patch):
    # the relaxed dual iterate may leave the ball; B is the projected one
    trip = _pd_triplet(void_patch)
    u, B, info = minimize_tv_primal_dual(TVProblem(trip))
    amax = float(np.max(trip.a.values))
    assert info["relaxation"] == 1.9
    assert info["dual_feasibility"] == dual_feasibility(B, trip.a, trip.sigma0)
    assert info["dual_feasibility"] <= 1e-12 * amax


def test_primal_dual_gap_closes_above_void_floor():
    # with a zeroed below 0.9 max(a) most cells are excluded and carry no
    # dual field; the gap counts only the optimized cells, while tv_final
    # stays the full F
    trip = _pd_triplet(zero_below=0.9)
    problem = TVProblem(trip)
    u, B, info = minimize_tv_primal_dual(problem)
    assert np.count_nonzero(trip.a.values <= 0.9 * np.max(trip.a.values)) > trip.a.values.size // 2
    assert info["pd_gap"] <= 1e-3
    assert info["gap_history"][-1] == info["pd_gap"]
    assert info["tv_final"] == weighted_tv(u.values, trip.a.values, trip.sigma0)


def test_primal_dual_records_divergence_at_checkpoints(bump33, recon33):
    info = recon33.diagnostics["primaldual"]
    divs = info["divergence_history"]
    record_every = _checkpoint_spacing(bump33)
    assert len(divs) == len(info["tv_history"]) == info["iterations"] // record_every
    assert divs[-1] == info["dual_divergence_rms"]
    assert divs[-1] < divs[0]


def test_scaling_data_leaves_minimizer_fixed():
    # argmin invariance and exact 1-homogeneity of the minimum value
    trip = bump_triplet(17)
    grid = trip.grid
    u1, i1 = minimize_tv_fixedpoint(TVProblem(trip))
    doubled = synthesize_triplet(
        ScalarField(grid, 2.0 * np.asarray(trip.provenance["c_true"]), location="cell"),
        trip.sigma0,
        trip.f,
        grid,
    )
    u2, i2 = minimize_tv_fixedpoint(TVProblem(doubled))
    assert np.array_equal(u1.values, u2.values)
    assert i2["tv_final"] == pytest.approx(2.0 * i1["tv_final"], rel=1e-12)


def test_sine_perturbations_match_the_full_grid_mode_sum():
    # the draws broadcast 1-D sine tables; the reference sums the nine
    # full-grid products in the same order, so the bytes agree
    g = Grid2D(21, 13, 0.05, 0.08)
    x, y = g.node_coords()
    u = ScalarField(g, np.sin(3.0 * x) * y)
    lx, ly = 20 * g.hx, 12 * g.hy
    urange = float(np.max(u.values)) - float(np.min(u.values))
    rng = np.random.default_rng(7)
    draws = sine_perturbations(u, 4, 7, 0.05)
    assert len(draws) == 4
    for w in draws:
        coef = rng.standard_normal((3, 3))
        ref = np.zeros(g.shape)
        for p in range(1, 4):
            for q in range(1, 4):
                ref += coef[p - 1, q - 1] * np.sin(p * np.pi * x / lx) * np.sin(q * np.pi * y / ly)
        ref.ravel()[g.boundary_ids] = 0.0
        ref *= 0.05 * urange / float(np.max(np.abs(ref)))
        assert np.array_equal(w, ref)


def test_minimality_audit_accepts_minimizer(recon33, bump33):
    res = minimality_audit(recon33.u_star, bump33.a, bump33.sigma0, trials=20, seed=0)
    assert res["min_margin"] >= -1e-8 * res["tv_value"]
    assert res["n_negative"] == 0


def test_minimality_audit_flags_non_minimizer(bump33):
    grid = bump33.grid
    x, y = grid.node_coords()
    u_true = np.asarray(bump33.provenance["u_true"])
    bad = ScalarField(grid, u_true + 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y))
    res = minimality_audit(bad, bump33.a, bump33.sigma0, trials=20, seed=0)
    assert res["min_margin"] < 0.0


def test_every_feasible_dual_field_bounds_the_functional(recon33, bump33):
    grid = bump33.grid
    rng = np.random.default_rng(11)
    u = recon33.u_star
    fval = weighted_tv(u.values, bump33.a.values, bump33.sigma0)
    g1, g2 = grad(grid, u.values)
    for _ in range(5):
        b1 = rng.standard_normal(grid.cell_shape)
        b2 = rng.standard_normal(grid.cell_shape)
        nrm = bump33.sigma0.inv_norm(b1, b2)
        scale = np.where(nrm > 0, np.minimum(1.0, bump33.a.values / np.maximum(nrm, 1e-300)), 0.0)
        B = VectorField2(grid, b1 * scale, b2 * scale)
        assert dual_feasibility(B, bump33.a, bump33.sigma0) <= 1e-12
        pair_grad = float(np.sum(g1 * B.v1 + g2 * B.v2)) * grid.cell_area
        pair_adj = float(np.sum(u.values * grad_adjoint(grid, B.v1, B.v2))) * grid.cell_area
        assert pair_grad == pytest.approx(pair_adj, abs=1e-10 * max(1.0, abs(pair_grad)))
        assert pair_grad <= fval * (1.0 + 1e-12)


def test_duality_gap_small_at_solution_large_off_solution(bump33):
    grid = bump33.grid
    u_true = ScalarField(grid, np.asarray(bump33.provenance["u_true"]))
    c_true = np.asarray(bump33.provenance["c_true"])
    gap = duality_gap(u_true, bump33.f, c_true, bump33.a, bump33.sigma0)
    assert gap <= 1e-3
    x, y = grid.node_coords()
    bad = ScalarField(grid, u_true.values + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y))
    assert duality_gap(bad, bump33.f, c_true, bump33.a, bump33.sigma0) > 0.05


def test_primal_dual_minimizer_closes_the_duality_gap(bump33):
    # at a minimizer of F_h, M^T (|K| J3) vanishes on the interior nodes,
    # so only the boundary rows (the flux) remain to balance F_h
    rep = reconstruct(TVProblem(bump33), algorithm="primaldual")
    assert rep.diagnostics["primaldual"]["converged"]
    assert rep.diagnostics["duality_gap"] <= 1e-8


def _fiber_tensor(grid):
    # a sigma0 that varies in space: the principal axis turns by
    # theta = pi/6 + 0.9 sin(pi x) sin(pi y) + 0.6 x y, eigenvalues
    # d1 = 3 + cos(2 pi x) along it and d2 = 1 across, at cell centers
    x, y = grid.cell_centers()
    theta = np.pi / 6.0 + 0.9 * np.sin(np.pi * x) * np.sin(np.pi * y) + 0.6 * x * y
    d1 = 3.0 + np.cos(2.0 * np.pi * x)
    ct, st = np.cos(theta), np.sin(theta)
    return TensorField2(grid, d1 * ct * ct + st * st, (d1 - 1.0) * st * ct, d1 * st * st + ct * ct)


def test_duality_gap_at_truth_under_varying_sigma0():
    # the stored truth is the FEM potential and a = c rho_h, so it is the
    # exact minimizer of F_h: the gap is the CG residual, not a quadrature
    # error that falls under refinement; the bump's constant sigma0 is the
    # control
    for n in (33, 65):
        grid, c, bump_sigma0, f = bump_problem(n)
        for sigma0 in (_fiber_tensor(grid), bump_sigma0):
            trip = synthesize_triplet(c, sigma0, f, grid)
            u_true = ScalarField(grid, np.asarray(trip.provenance["u_true"]))
            assert duality_gap(u_true, f, c, trip.a, sigma0) <= 1e-8


def test_fixedpoint_returns_a_fixed_point_under_varying_sigma0():
    # the Newton step solves with the Hessian of the stage's first iterate
    # only, but its fixed point is where the gradient of F_eps vanishes: the
    # exact lagged step from u barely moves it (3.0e-12 at fp_tol 1e-10)
    grid, c, _, f = bump_problem(33)
    problem = TVProblem(synthesize_triplet(c, _fiber_tensor(grid), f, grid))
    u, info = minimize_tv_fixedpoint(problem)
    assert all(st["converged"] for st in info["stages"])
    assert _lagged_step_change(problem, u) <= 0.1 * problem.fp_tol


def test_fixedpoint_recovers_c_under_varying_sigma0():
    # the fiber sigma0 at n = 65: every stage meets its tol and c comes
    # back to 1.48e-5 off the mask, under the 2e-5 the Newton item targets
    # (the defect-correction fixed point stopped at 6.4e-5)
    grid, c, _, f = bump_problem(65)
    trip = synthesize_triplet(c, _fiber_tensor(grid), f, grid)
    report = reconstruct(TVProblem(trip))
    assert all(st["converged"] for st in report.diagnostics["fixedpoint"]["stages"])
    assert report.diagnostics["c_rel_linf_off_mask"] <= 2e-5


def test_fixedpoint_descends_on_noisy_data():
    # 1% noise at n = 33: the line search keeps F_eps monotone in every
    # stage (2 halvings in all), each stage meets its tol, u stays finite
    grid, c, sigma0, f = bump_problem(33)
    trip = synthesize_triplet(c, sigma0, f, grid, noise_level=0.01, seed=3)
    u, info = minimize_tv_fixedpoint(TVProblem(trip))
    assert not info["nonmonotone_flag"]
    for st in info["stages"]:
        assert st["monotone"] and st["converged"]
        assert np.all(np.diff(st["smoothed_history"]) <= 1e-10 * (1.0 + st["smoothed_history"][0]))
    assert np.isfinite(u.values).all()


def test_boundary_flux_integral_known_value():
    # u = -x and c = 1 give J = (1, 0) on the unit square: the east wall
    # (f = 1, J.n = 1) alone contributes, so the weighted outflow of f = x
    # is exactly 1
    g = make_grid(17)
    x, _ = g.node_coords()
    f = ScalarField(g, x)
    s = TensorField2.constant(g, 1.0, 0.0, 1.0)
    assert boundary_flux_integral(f, ScalarField(g, -x), 1.0, s) == pytest.approx(1.0, rel=1e-12)


def test_recover_c_inverse_crime(recon33):
    assert recon33.diagnostics["c_rel_linf_off_mask"] <= 5e-2
    assert recon33.diagnostics["u_rel_l2"] <= 1e-2
    assert recon33.diagnostics["cross_algorithm_rel_l2"] <= 1e-2
    assert int(recon33.mask_z.sum()) == 0


def test_recovered_conductivity_regenerates_data(recon33, bump33):
    cfill = np.where(recon33.mask_z, 1.0, recon33.c_rec.values)
    _, _, a2 = solve_truth(cfill, bump33.sigma0, bump33.f, bump33.grid)
    cells = ~recon33.mask_z
    d = a2.values[cells] - bump33.a.values[cells]
    rel = float(np.sqrt(np.sum(d * d)) / np.sqrt(np.sum(bump33.a.values[cells] ** 2)))
    assert rel <= 2.0 * recon33.diagnostics["u_rel_l2"]


def test_gradient_aligns_with_transported_current(recon33, bump33):
    grid = bump33.grid
    u_true = ScalarField(grid, np.asarray(bump33.provenance["u_true"]))
    J = compute_current(u_true, np.asarray(bump33.provenance["c_true"]), bump33.sigma0)
    i11, i12, i22 = (
        np.asarray(v)
        for v in (
            bump33.sigma0.s22,
            -bump33.sigma0.s12,
            bump33.sigma0.s11,
        )
    )
    det = sym2_det(*bump33.sigma0.entries)
    w1 = -(i11 * J.v1 + i12 * J.v2) / det
    w2 = -(i12 * J.v1 + i22 * J.v2) / det
    g1, g2 = grad(bump33.grid, recon33.u_star.values)
    amax = float(np.max(bump33.a.values))
    sel = bump33.a.values >= 0.2 * amax
    dot = g1 * w1 + g2 * w2
    norms = np.hypot(g1, g2) * np.hypot(w1, w2)
    ang = np.arccos(np.clip(dot[sel] / np.maximum(norms[sel], 1e-300), -1.0, 1.0))
    assert float(np.max(ang)) <= 1e-2


def test_fixedpoint_fills_nodes_without_stiffness_as_the_solves_do():
    # the interior nodes of the insulating disk touch no cell where a is
    # positive, so no unknown: the fixed point's potential carries there the
    # neighbor-mean fill of the other nodes that `solve_dirichlet` gives
    grid, c, sigma0, f = bump_problem(33)
    incl = InclusionSet(grid, perfect=[disk_cells(grid, (0.3, 0.7), 0.1)],
                        insulating=[disk_cells(grid, (0.7, 0.3), 0.08)])
    trip = synthesize_triplet(c, sigma0, f, grid, inclusions=incl)
    u, info = minimize_tv_fixedpoint(TVProblem(trip))
    assert info["stages"][-1]["converged"]
    cut_off = grid.interior_mask() & ~nodes_of_cells(trip.a.values > 0)
    assert cut_off.sum() == 12
    assert np.array_equal(u.values, _loop_fill(u.values, cut_off))


def _loop_fill(values, holes):
    """Independent neighbor-mean fill with plain loops: each sweep gives
    every hole with a known 4-neighbor the mean of its known ones, summed
    in the order j - 1, j + 1, i - 1, i + 1."""
    out, todo = values.copy(), set(zip(*np.nonzero(holes)))
    while todo:
        sweep = {}
        for j, i in todo:
            known = [(q, p) for q, p in ((j - 1, i), (j + 1, i), (j, i - 1), (j, i + 1))
                     if 0 <= q < out.shape[0] and 0 <= p < out.shape[1] and (q, p) not in todo]
            if known:
                sweep[j, i] = sum(out[q, p] for q, p in known) / len(known)
        assert sweep
        for node, value in sweep.items():
            out[node] = value
            todo.discard(node)
    return out


def test_insulating_component_fully_masked_and_labeled():
    grid = make_grid(33)
    disk = disk_cells(grid, (0.5, 0.5), 0.2)
    incl = InclusionSet(grid, insulating=[disk])
    sigma0 = TensorField2.constant(grid, 1.0, 0.0, 1.0)
    x, _ = grid.node_coords()
    c = ScalarField(grid, np.ones(grid.cell_shape), location="cell")
    trip = synthesize_triplet(c, sigma0, ScalarField(grid, x), grid, inclusions=incl)
    rep = reconstruct(TVProblem(trip), algorithm="fixedpoint")
    assert bool(np.all(rep.mask_z[disk]))
    assert any(lab["label"] == "insulating" for lab in rep.labels)


def test_perfect_component_classified_from_tied_potential():
    # flatness is judged in |.|_{sigma0} with the recovery's own cutoffs,
    # so the tied disk is labelled under an anisotropic sigma0 too
    grid = make_grid(33)
    disk = disk_cells(grid, (0.5, 0.5), 0.2)
    incl = InclusionSet(grid, perfect=[disk])
    x, _ = grid.node_coords()
    c = ScalarField(grid, np.ones(grid.cell_shape), location="cell")
    for sigma0 in (TensorField2.constant(grid, 1.0, 0.0, 1.0), rotated_tensor(grid, 0.4, 4.0, 1.0)):
        trip = synthesize_triplet(c, sigma0, ScalarField(grid, x), grid, inclusions=incl)
        u_tied = ScalarField(grid, np.asarray(trip.provenance["u_true"]))
        _, mask, diag = recover_c(u_tied, trip.a, sigma0)
        labels = classify_inclusions(u_tied, trip.a, sigma0, mask,
                                     diag["delta_grad"], diag["delta_a"])
        assert [lab["label"] for lab in labels] == ["perfect"]
        assert labels[0]["max_gradient"] == 0.0


def test_recover_c_mask_diagnostics(bump33, recon33):
    c_rec, mask, diag = recover_c(recon33.u_star, bump33.a, bump33.sigma0,
                                  delta_grad=1e9)
    # absurd cutoff masks everything; recovery must say so, not divide
    assert bool(np.all(mask))
    assert diag["masked_cells"] == mask.size
    assert np.all(np.isfinite(c_rec.values))


def test_problem_validation():
    trip, _ = _trivial_triplet(9)
    with pytest.raises(TVConfigError):
        reconstruct(TVProblem(trip), algorithm="gradient-descent")


def test_coarea_on_linear_potential():
    g = make_grid(17)
    x, _ = g.node_coords()
    u = ScalarField(g, x)
    a = ScalarField(g, np.ones(g.cell_shape), location="cell")
    s = TensorField2.constant(g, 1.0, 0.0, 1.0)
    res = coarea_audit(u, a, s, n_levels=200)
    assert res["tv"] == pytest.approx(1.0, rel=1e-12)
    assert res["rel_discrepancy"] <= 2e-2


def test_coarea_constant_potential_degenerate():
    g = make_grid(9)
    u = ScalarField(g, np.full((9, 9), 3.7))
    a = ScalarField(g, np.ones(g.cell_shape), location="cell")
    s = TensorField2.constant(g, 1.0, 0.0, 1.0)
    res = coarea_audit(u, a, s, n_levels=50)
    assert res["tv"] == 0.0
    assert res["level_integral"] == 0.0
