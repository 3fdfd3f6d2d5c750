"""Weighted-TV minimization: functional, both solvers, duality, recovery."""

import numpy as np
import pytest

from acdii import forward
from acdii.data import AdmissibleTriplet, compute_a, compute_current, synthesize_triplet
from acdii.fields import (
    Grid2D,
    ScalarField,
    TensorField2,
    VectorField2,
    divergence,
    grad,
    grad_adjoint,
    gradient,
    rel_l2,
    smoothed_tv,
    sym2_sqrt,
    tv_density,
    weighted_tv,
)
from acdii.forward import InclusionSet, assemble, disk_cells, solve_dirichlet
from acdii.inverse import (
    TVConfigError,
    TVProblem,
    _Anderson,
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
)
from conftest import bump_problem, bump_triplet, make_grid, rotated_tensor


def _loop_weighted_tv(u, a, sigma0):
    """Independent re-derivation: per-cell averaged one-sided differences,
    sigma0-norm, midpoint quadrature, plain Python loops."""
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
            total += a.values[j, i] * np.sqrt(q @ s @ q) * g.hx * g.hy
    return total


def test_weighted_tv_matches_loop_oracle():
    rng = np.random.default_rng(17)
    g = Grid2D(9, 7, 0.125, 1.0 / 6.0)
    u = ScalarField(g, rng.standard_normal((7, 9)))
    a = ScalarField(g, rng.uniform(0.1, 2.0, (6, 8)), location="cell")
    sigma0 = rotated_tensor(g, 0.37, 2.4, 0.8)
    assert weighted_tv(u, a, sigma0) == pytest.approx(
        _loop_weighted_tv(u, a, sigma0), rel=1e-12
    )


def test_weighted_tv_known_value():
    g = make_grid(9)
    x, _ = g.node_coords()
    u = ScalarField(g, x)
    a = ScalarField(g, np.ones(g.cell_shape), location="cell")
    s = TensorField2.constant(g, 1.0, 0.0, 1.0)
    assert weighted_tv(u, a, s) == pytest.approx(1.0, rel=1e-12)


def test_weighted_tv_one_homogeneous():
    rng = np.random.default_rng(2)
    g = make_grid(9)
    u = ScalarField(g, rng.standard_normal((9, 9)))
    a = ScalarField(g, rng.uniform(0.5, 1.5, g.cell_shape), location="cell")
    s = rotated_tensor(g, 0.2, 3.0, 1.0)
    base = weighted_tv(u, a, s)
    for t in (0.0, 0.3, 2.0, -1.7):
        ut = ScalarField(g, t * u.values)
        assert weighted_tv(ut, a, s) == pytest.approx(abs(t) * base, abs=1e-12)


def test_tv_linear_in_weight():
    rng = np.random.default_rng(4)
    g = make_grid(9)
    u = ScalarField(g, rng.standard_normal((9, 9)))
    a1 = ScalarField(g, rng.uniform(0.1, 1.0, g.cell_shape), location="cell")
    a2 = ScalarField(g, rng.uniform(0.1, 1.0, g.cell_shape), location="cell")
    s = rotated_tensor(g, 1.0, 2.0, 0.5)
    both = ScalarField(g, a1.values + a2.values, location="cell")
    assert weighted_tv(u, both, s) == pytest.approx(
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


def test_fixedpoint_stages_report_cg_work_and_convergence():
    # at n = 17, fp_tol 1e-5 and five inner iterations per stage the first
    # stages run out of inner iterations and the last ones converge
    problem = TVProblem(bump_triplet(17), fp_tol=1e-5, max_inner=5)
    _, info = minimize_tv_fixedpoint(problem)
    stages = info["stages"]
    for st in stages:
        assert st["converged"] == (st["final_rel_change"] <= problem.fp_tol)
        assert st["converged"] or st["inner_iterations"] == problem.max_inner
        assert st["cg_iterations"] > 0
    assert not stages[0]["converged"] and stages[-1]["converged"]
    # the run total also counts the initial cold solve
    assert info["total_cg_iterations"] > sum(st["cg_iterations"] for st in stages)


def test_accelerated_fixedpoint_converges_every_stage(bump33, monkeypatch):
    # count the multigrid hierarchies built: one for the initial solve and
    # one per stage, whose later steps refill only the fine level
    builds = []

    class CountingMultigrid(forward.Multigrid):
        def __init__(self, matrix, prolongations, hierarchy=None):
            if hierarchy is None:
                builds.append(matrix.shape)
            super().__init__(matrix, prolongations, hierarchy)

    monkeypatch.setattr(forward, "Multigrid", CountingMultigrid)
    problem = TVProblem(bump33)
    u, info = minimize_tv_fixedpoint(problem)
    assert len(builds) == 1 + problem.eps_stages
    assert info["total_inner_iterations"] > problem.eps_stages
    assert all(st["converged"] for st in info["stages"])
    # half of the 8 x 50 budget, which the unmixed lagged iteration uses
    # up here without meeting fp_tol in any stage
    assert info["total_inner_iterations"] <= 200
    # u is a fixed point: one more lagged step at the final eps barely moves it
    grid, sigma0, _, a_hat, void = _normalized_data(problem)
    eps = problem.eps_start() * problem.eps_ratio ** (problem.eps_stages - 1)
    weight = tv_density(*grad(grid, u.values), sigma0, eps)
    system = assemble(np.where(~void, a_hat / weight, 1.0), sigma0, grid, exclude_cells=void)
    step = solve_dirichlet(system, bump33.f, tol=problem.cg_tol, x0=u.values)
    assert rel_l2(u.values, step.values) <= 10.0 * problem.fp_tol


def test_anderson_mixing_solves_affine_map_exactly():
    # on an affine contraction of R^4, type-II mixing with full history is
    # GMRES in disguise: the residual vanishes after dim + 1 steps
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    A = q @ np.diag([0.8, -0.6, 0.3, 0.1]) @ q.T
    b = rng.standard_normal(4)
    mixer = _Anderson((2, 2))
    u = np.zeros((2, 2))
    for _ in range(5):
        u = mixer.step(u, (A @ u.ravel() + b).reshape(2, 2) - u)
    assert mixer.restarts == 0
    assert np.max(np.abs(u.ravel() - np.linalg.solve(np.eye(4) - A, b))) <= 1e-12


def test_anderson_singular_gram_takes_plain_step():
    mixer = _Anderson((3,))
    u0, u1, r = np.zeros(3), np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 0.25])
    assert np.array_equal(mixer.step(u0, r), u0 + r)
    # the same residual again: the one difference row is zero, the 1x1
    # Gram matrix is singular, and the plain step is taken
    assert np.array_equal(mixer.step(u1, r.copy()), u1 + r)
    assert mixer.restarts == 1 and mixer.pushed == 0


def test_anderson_growing_residual_clears_history():
    mixer = _Anderson((3,))
    mixer.step(np.zeros(3), np.array([1.0, -2.0, 0.5]))
    r1 = np.array([0.5, -1.0, 0.0])
    mixed = mixer.step(np.ones(3), r1)
    assert mixer.pushed == 1 and not np.array_equal(mixed, np.ones(3) + r1)
    # a larger residual, not collinear with the stored difference: the
    # Gram system would be regular, but the history is cleared instead
    u2, r2 = np.full(3, 2.0), np.array([0.0, 3.0, 3.0])
    assert np.array_equal(mixer.step(u2, r2), u2 + r2)
    assert mixer.restarts == 1 and mixer.pushed == 0
    mixer.reset()
    assert mixer.restarts == 0


def test_primal_dual_records_gap_at_tv_checkpoints(recon33):
    info = recon33.diagnostics["primaldual"]
    gaps = info["gap_history"]
    assert len(gaps) == len(info["tv_history"]) == 50
    assert all(np.isfinite(gaps)) and min(gaps) >= 0.0
    # the last checkpoint is the last iteration, where pd_gap is taken
    assert gaps[-1] == pytest.approx(info["pd_gap"], abs=1e-12)
    assert gaps[-1] < gaps[0]


def test_primal_dual_recovers_linear_potential():
    trip, x = _trivial_triplet()
    u, B, info = minimize_tv_primal_dual(TVProblem(trip))
    assert np.max(np.abs(u.values - x)) <= 1e-4
    assert info["dual_feasibility"] <= 1e-10
    assert info["pd_gap"] <= 1e-6


def _reference_primal_dual(problem):
    """The primal-dual loop on array slices, one numpy call per term.

    Same iteration as `minimize_tv_primal_dual`, written with `grad` /
    `grad_adjoint` and the Dirichlet values re-imposed after each primal
    step; the gap's primal term runs over the cells above the void floor.
    Returns (u, (B1, B2), histories).
    """
    grid, sigma0, amax, a_hat, void = _normalized_data(problem)
    t = problem.triplet
    l2 = sigma0.M * (4.0 / grid.hx**2 + 4.0 / grid.hy**2)
    tau = problem.pd_tau if problem.pd_tau is not None else 1.0 / np.sqrt(l2)
    sig = problem.pd_sigma if problem.pd_sigma is not None else 1.0 / np.sqrt(l2)
    iters = problem.pd_iterations or 200 * max(grid.nx, grid.ny)
    r11, r12, r22 = sym2_sqrt(sigma0.s11, sigma0.s12, sigma0.s22)
    active = ~void
    a_active = np.where(active, a_hat, 0.0)
    system = assemble(1.0, sigma0, grid, exclude_cells=void)
    uv = solve_dirichlet(system, t.f, tol=problem.cg_tol).values.copy()
    fvals = t.f.values.ravel()[grid.boundary_ids]
    ubar = uv.copy()
    b1 = np.zeros(grid.cell_shape)
    b2 = np.zeros(grid.cell_shape)
    hist = {"tv_history": [], "gap_history": [], "divergence_history": []}
    record_every = max(iters // 50, 1)
    for it in range(iters):
        g1, g2 = grad(grid, ubar)
        b1 += sig * np.where(active, r11 * g1 + r12 * g2, 0.0)
        b2 += sig * np.where(active, r12 * g1 + r22 * g2, 0.0)
        nrm = np.hypot(b1, b2)
        scale = np.where(nrm > a_hat, a_hat / np.maximum(nrm, 1e-300), 1.0)
        b1 *= scale
        b2 *= scale
        q1 = r11 * b1 + r12 * b2
        q2 = r12 * b1 + r22 * b2
        u_new = uv - tau * grad_adjoint(grid, q1, q2)
        u_new.ravel()[grid.boundary_ids] = fvals
        ubar = 2.0 * u_new - uv
        uv = u_new
        if (it + 1) % record_every == 0:
            hist["tv_history"].append(amax * smoothed_tv(grid, a_hat, sigma0, uv))
            primal = smoothed_tv(grid, a_active, sigma0, uv)
            g1, g2 = grad(grid, uv)
            pairing = float(np.sum(g1 * q1 + g2 * q2)) * grid.cell_area
            hist["gap_history"].append(abs(primal - pairing) / primal)
            div = grad_adjoint(grid, amax * q1, amax * q2)[grid.interior_mask()]
            hist["divergence_history"].append(float(np.sqrt(np.mean(div**2))))
    return uv, (amax * (r11 * b1 + r12 * b2), amax * (r12 * b1 + r22 * b2)), hist


def _pd_triplet(void_patch=False):
    """23x15 cells of a 0.05 x 0.08 grid, sigma0 rotating and stretching per cell."""
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
    if void_patch:
        a = trip.a.values.copy()
        a[5:9, 8:13] = 0.0
        trip = AdmissibleTriplet(trip.f, sigma0, ScalarField(grid, a, location="cell"), grid)
    return trip


def _array_rel(x, ref):
    x, ref = np.asarray(x), np.asarray(ref)
    return float(np.max(np.abs(x - ref))) / float(np.max(np.abs(ref)))


@pytest.mark.parametrize(
    "void_patch, settings",
    [
        (False, {}),
        (True, {}),
        (False, {"pd_tau": 0.004, "pd_sigma": 0.02}),
        (False, {"void_floor": 0.9}),
    ],
    ids=["varying-sigma0", "void-patch", "unequal-steps", "void-floor"],
)
def test_primal_dual_matches_reference_loop(void_patch, settings):
    problem = TVProblem(_pd_triplet(void_patch), **settings)
    u_ref, (b1_ref, b2_ref), hist = _reference_primal_dual(problem)
    u, B, info = minimize_tv_primal_dual(problem)
    assert _array_rel(u.values, u_ref) <= 1e-12
    assert _array_rel(B.v1, b1_ref) <= 1e-12
    assert _array_rel(B.v2, b2_ref) <= 1e-12
    assert _array_rel(info["tv_history"], hist["tv_history"]) <= 1e-12
    assert _array_rel(info["divergence_history"], hist["divergence_history"]) <= 1e-12
    # the gap is already a fraction of F, so its rounding is absolute
    gaps = np.asarray(info["gap_history"])
    assert gaps.size == 50
    assert np.max(np.abs(gaps - hist["gap_history"])) <= 1e-12


def test_primal_dual_gap_closes_above_void_floor():
    # with void_floor 0.9 most cells are excluded and carry no dual field;
    # the gap counts only the optimized cells, while tv_final stays the full F
    trip = _pd_triplet()
    problem = TVProblem(trip, void_floor=0.9)
    u, B, info = minimize_tv_primal_dual(problem)
    assert np.count_nonzero(trip.a.values <= 0.9 * np.max(trip.a.values)) > trip.a.values.size // 2
    assert info["pd_gap"] <= 1e-3
    assert info["gap_history"][-1] == info["pd_gap"]
    assert info["tv_final"] == weighted_tv(u, trip.a, trip.sigma0)


def test_primal_dual_records_divergence_at_checkpoints(recon33):
    info = recon33.diagnostics["primaldual"]
    divs = info["divergence_history"]
    assert len(divs) == len(info["tv_history"]) == 50
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
    fval = weighted_tv(u, bump33.a, bump33.sigma0)
    gr = gradient(u)
    for _ in range(5):
        b1 = rng.standard_normal(grid.cell_shape)
        b2 = rng.standard_normal(grid.cell_shape)
        nrm = bump33.sigma0.inv_norm(b1, b2)
        scale = np.where(nrm > 0, np.minimum(1.0, bump33.a.values / np.maximum(nrm, 1e-300)), 0.0)
        B = VectorField2(grid, b1 * scale, b2 * scale)
        assert dual_feasibility(B, bump33.a, bump33.sigma0) <= 1e-12
        pair_grad = float(np.sum(gr.v1 * B.v1 + gr.v2 * B.v2)) * grid.cell_area
        pair_div = -float(np.sum(u.values * divergence(B).values)) * grid.cell_area
        assert pair_grad == pytest.approx(pair_div, abs=1e-10 * max(1.0, abs(pair_grad)))
        assert pair_grad <= fval * (1.0 + 1e-12)


def test_duality_gap_small_at_solution_large_off_solution(bump33):
    grid = bump33.grid
    u_true = ScalarField(grid, np.asarray(bump33.provenance["u_true"]))
    J = compute_current(u_true, np.asarray(bump33.provenance["c_true"]), bump33.sigma0)
    gap = duality_gap(u_true, bump33.f, J, bump33.a, bump33.sigma0)
    assert gap <= 1e-3
    x, y = grid.node_coords()
    bad = ScalarField(grid, u_true.values + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y))
    assert duality_gap(bad, bump33.f, J, bump33.a, bump33.sigma0) > 0.05


def test_boundary_flux_integral_known_value():
    # B = (1, 0) on the unit square: the east wall (f = 1, B.n = 1) alone
    # contributes, so the weighted outflow of f = x is exactly 1
    g = make_grid(17)
    x, _ = g.node_coords()
    f = ScalarField(g, x)
    J = VectorField2(g, np.ones(g.cell_shape), np.zeros(g.cell_shape))
    assert boundary_flux_integral(f, J) == pytest.approx(1.0, rel=1e-12)


def test_recover_c_inverse_crime(recon33):
    assert recon33.diagnostics["c_rel_linf_off_mask"] <= 5e-2
    assert recon33.diagnostics["u_rel_l2"] <= 1e-2
    assert recon33.diagnostics["cross_algorithm_rel_l2"] <= 1e-2
    assert int(recon33.mask_z.sum()) == 0


def test_recovered_conductivity_regenerates_data(recon33, bump33):
    grid = bump33.grid
    cfill = np.where(recon33.mask_z, 1.0, recon33.c_rec.values)
    u2 = solve_dirichlet(assemble(cfill, bump33.sigma0, grid), bump33.f, tol=1e-12)
    a2 = compute_a(compute_current(u2, cfill, bump33.sigma0), bump33.sigma0)
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
    det = bump33.sigma0.det()
    w1 = -(i11 * J.v1 + i12 * J.v2) / det
    w2 = -(i12 * J.v1 + i22 * J.v2) / det
    gr = gradient(recon33.u_star)
    amax = float(np.max(bump33.a.values))
    sel = bump33.a.values >= 0.2 * amax
    dot = gr.v1 * w1 + gr.v2 * w2
    norms = np.hypot(gr.v1, gr.v2) * np.hypot(w1, w2)
    ang = np.arccos(np.clip(dot[sel] / np.maximum(norms[sel], 1e-300), -1.0, 1.0))
    assert float(np.max(ang)) <= 1e-2


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
    grid = make_grid(33)
    disk = disk_cells(grid, (0.5, 0.5), 0.2)
    incl = InclusionSet(grid, perfect=[disk])
    sigma0 = TensorField2.constant(grid, 1.0, 0.0, 1.0)
    x, _ = grid.node_coords()
    c = ScalarField(grid, np.ones(grid.cell_shape), location="cell")
    trip = synthesize_triplet(c, sigma0, ScalarField(grid, x), grid, inclusions=incl)
    u_tied = ScalarField(grid, np.asarray(trip.provenance["u_true"]))
    _, mask, diag = recover_c(u_tied, trip.a, sigma0)
    labels = classify_inclusions(u_tied, trip.a, mask, grid, tol_a=diag["delta_a"])
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
        TVProblem(trip, eps_ratio=1.0)
    with pytest.raises(TVConfigError):
        TVProblem(trip, eps_stages=0)
    with pytest.raises(TVConfigError):
        TVProblem(trip, eps0=-1.0)
    with pytest.raises(TVConfigError):
        reconstruct(TVProblem(trip), algorithm="gradient-descent")


def test_primal_dual_step_bound_enforced():
    trip, _ = _trivial_triplet(9)
    prob = TVProblem(trip, pd_tau=10.0, pd_sigma=10.0)
    with pytest.raises(TVConfigError):
        minimize_tv_primal_dual(prob)


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
