"""Weighted total-variation recovery of the conformal conductivity factor.

Given an admissible triplet (f, sigma0, a), the potential is the unique
minimizer over boundary data f of

    F[v] = integral of a (sigma0 grad v . grad v)^(1/2),

here its discrete form F_h[v] = sum_K a_K |K| rho_K(v), rho_K = |M_K v|
with M = `fields.cell_operator` at weight 1 (`fields.weighted_tv`, with
its density `fields.tv_density`), and the factor follows pointwise as
c = a / rho_h(u*).  Two independent minimizers of F_h are provided and
kept separate on purpose:

- a Newton-chord minimization of the smoothed F_eps with an
  eps-continuation schedule, whose limit is the lagged-diffusivity fixed
  point div(c_eff sigma0 grad u) = 0, c_eff = a / (rho_h(u)^2 +
  eps^2)^(1/2): the exact stationarity of F_eps, since |K| rho_K^2 is
  the element energy (Vogel & Oman 1996).  Each stage assembles the
  Hessian of F_eps once, at its first iterate; each step solves it
  inexactly by CG against the matrix-free gradient
  (`fields.tv_gradient`) and is accepted by Armijo backtracking on F_eps
  (Chan, Golub & Mulet 1999 on Newton for TV);
- a primal-dual (Chambolle-Pock type) saddle-point scheme on
  min_u max_b <M u, b> over the per-cell balls |b_K| <= a_K in R^3, the
  three rows of M per cell, with a step bound L^2 that is the Gershgorin
  bound of the operator (`l2` in its record); the projection onto a ball
  is a radial scaling, and each step is over-relaxed (Condat 2013),
  which keeps the saddle point and the step condition and stops in
  33-50% fewer steps on the measured grids.

The audits read two adjoints.  The duality identity (`duality_gap`,
`boundary_flux_integral`) pairs F_h with the three-row current
J3 = -c M u through M^T, whose boundary rows are the Dirichlet
reactions; the returned dual field B and `dual_feasibility` keep the
physical two-row current sigma0^(1/2) b, as does the curvature audit.

Both routes normalize a by its maximum internally.  The minimizer is
invariant under a -> alpha a, and with the fixed eps schedule the
iterations are identical bit for bit, so the functional value scales
exactly and the argmin does not move.

Cells where a vanishes are excluded from the solves (a natural Neumann
wall, matching the deleted-cell treatment of insulating regions); the
recovered factor is masked wherever the data or the gradient is too
small to divide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import AdmissibleTriplet
from .fields import (
    ScalarField,
    TensorField2,
    VectorField2,
    cell_operator,
    energy_gradient,
    label_cells,
    nodes_of_cells,
    rel_l2,
    sym2_apply,
    sym2_sqrt,
    tv_density,
    tv_gradient,
    tv_hessian,
    weighted_tv,
)
from .forward import Layout, _dot, _matvec, assemble, cg_correction, solve_dirichlet
from .geometry import weighted_perimeter
from .schema import InputError, Key, validate


class TVConfigError(InputError):
    pass


ALGORITHMS = ("fixedpoint", "primaldual", "both")
# type, default and range of each TVProblem setting; the config's inverse
# section is this table plus the algorithm
TV_SCHEMA = {
    "fp_tol": Key("num", 1e-10, "(0, inf)"),
    "max_inner": Key("int", 200, "[1, inf)"),
    "pd_iterations": Key("int", None, "[1, inf)"),
}


@dataclass
class TVProblem:
    """Configuration for the TV minimizers.

    fp_tol and max_inner stop each eps-stage of the fixed point (see
    `minimize_tv_fixedpoint`); its eps schedule (`_eps_schedule`), the
    forcing, cap and line search of its Newton steps (`_FORCING`,
    `_CG_CAP`, `_ARMIJO`, `_SLACK`, `_MAX_CUTS`) and the CG tolerance of
    both minimizers' initial solves (`forward.CG_TOL`) are fixed.
    pd_iterations caps the primal-dual steps; their sizes follow from f
    and the operator, and the checkpoints of its stopping rule from the grid
    (see `minimize_tv_primal_dual`).  Cells where a vanishes are left
    out of the solves.  `TV_SCHEMA` holds the type, default and range of
    every setting.
    """

    triplet: AdmissibleTriplet
    fp_tol: float = TV_SCHEMA["fp_tol"].default
    max_inner: int = TV_SCHEMA["max_inner"].default
    pd_iterations: int | None = TV_SCHEMA["pd_iterations"].default

    def __post_init__(self):
        settings = {name: getattr(self, name) for name in TV_SCHEMA}
        validate(TV_SCHEMA, settings, TVConfigError, where="TVProblem")


# the fixed point's eps-continuation: _EPS_STAGES smoothings halving from
# 0.1 / sqrt(m), m the recorded lower ellipticity bound of sigma0
_EPS_STAGES = 8


def _eps_schedule(sigma0: TensorField2) -> list[float]:
    """The smoothings of the eps-stages, in units of rho_h (`tv_density`).

    That unit makes them invariant under rescaling a.
    """
    eps0 = 0.1 / np.sqrt(sigma0.m)
    return [eps0 * 0.5**s for s in range(_EPS_STAGES)]


# -- the functional -----------------------------------------------------------


def dual_feasibility(B: VectorField2, a: ScalarField, sigma0: TensorField2) -> float:
    """Worst violation max over cells of (|B|_{sigma0^{-1}} - a)_+ ; 0 means feasible."""
    excess = sigma0.inv_norm(B.v1, B.v2) - a.values
    return float(np.max(np.maximum(excess, 0.0)))


def _normalized_data(problem: TVProblem):
    """(grid, sigma0, max a, a / max a, the void cells where a vanishes)."""
    t = problem.triplet
    amax = float(np.max(t.a.values))
    if amax <= 0.0:
        raise TVConfigError("data a vanishes identically; nothing to minimize")
    a_hat = t.a.values / amax
    return t.grid, t.sigma0, amax, a_hat, a_hat <= 0.0


def _masked_rel_change(new, old):
    # its own function so that a tracer can hook the change that ends a stage
    return rel_l2(old, new)


# the Newton step's CG stops at _FORCING times |gradient| or _CG_CAP
# iterations; Armijo backtracking asks for _ARMIJO times the predicted
# decrease, less the round-off slack _SLACK (1 + |F_eps|) that the
# monotone flag allows, in at most _MAX_CUTS halvings
_FORCING = 0.5
_CG_CAP = 40
_ARMIJO = 1e-4
_SLACK = 1e-10
_MAX_CUTS = 40


def minimize_tv_fixedpoint(problem: TVProblem):
    """Newton-chord minimization of the smoothed F_h with eps-continuation.

    Each eps-stage minimizes F_eps[u] = sum_K a_K |K| rho_eps,K(u),
    rho_eps = (rho_h^2 + eps^2)^(1/2), over u = f on the boundary; its
    stationary point is the lagged-diffusivity fixed point, since
    A(a / rho_eps(u)) u is the gradient of F_eps (`fields.tv_gradient`).
    The stage assembles the Hessian H of F_eps at its first iterate
    (`fields.tv_hessian`) with its multigrid hierarchy, once.  Each step
    takes the gradient g matrix-free, solves H s = g by CG from zero to
    the forcing _FORCING |g| under the cap _CG_CAP
    (`forward.cg_correction`), and accepts u - t s, t = 1, 1/2, ..., by
    Armijo backtracking on F_eps with the round-off slack
    _SLACK (1 + |F_eps|).  The new iterate is expanded from the unknowns
    as the solves' potentials are (`forward.Layout.expand`): nodes with no
    stiffness get the neighbor-mean fill.

    A stage ends at the first step whose full relative change
    |s| / |u - s| is <= tol, which it takes, after max_inner steps, or
    when no step length down to 2^-_MAX_CUTS decreases F_eps.  Only the
    last stage, whose potential is returned, uses tol = fp_tol; the
    warm-start stages before it stop at max(sqrt(fp_tol), fp_tol)
    (inexact continuation, Hale, Yin & Zhang 2008).

    Returns (u, info).  info records, per stage, F_eps of each iterate
    (`smoothed_history`, absolute units), the steps (`inner_iterations`),
    the CG iterations, one V-cycle each (`vcycles`), the steps whose CG
    hit the cap (`cap_hits`), the line-search halvings (`cuts`), `tol`,
    the last full relative change, whether it met tol (`converged`), and
    whether F_eps never rose beyond the slack (`monotone`; any rise sets
    `nonmonotone_flag`).  `total_cg_iterations` counts the initial
    solve's CG iterations, the one solve to a tolerance.
    """
    grid, sigma0, amax, a_hat, void = _normalized_data(problem)
    triplet = problem.triplet
    # eps lives in rho_h units, so it is untouched by the
    # normalization of a; that keeps the whole iteration identical under
    # a -> alpha a (the gradient and the Hessian just rescale, which the
    # forcing stop, the multigrid cycle and the line search cannot see).
    schedule = _eps_schedule(sigma0)

    layout = Layout(sigma0, exclude_cells=void)
    system = assemble(1.0, layout)
    uvals = solve_dirichlet(system, triplet.f).values.copy()
    total_cg = system.cg_iterations
    system = None

    def tv(rho):  # F_eps of a_hat from its density
        return float(np.sum(a_hat * rho)) * grid.cell_area

    stages = []
    flagged = False
    total_inner = 0
    warm_tol = max(float(np.sqrt(problem.fp_tol)), problem.fp_tol)
    for stage, eps_hat in enumerate(schedule, 1):
        tol = problem.fp_tol if stage == len(schedule) else warm_tol
        values, vcycles, cap_hits, cuts = [], 0, 0, 0
        for inner in range(1, problem.max_inner + 1):
            rho, gradient = tv_gradient(uvals, a_hat, sigma0, eps_hat)
            value = tv(rho)
            values.append(value)
            if inner == 1:
                hessian = assemble(tv_hessian(uvals, a_hat, sigma0, eps_hat), layout).matrix
            # this layout ties no nodes, so the gradient gathers as u does
            g = layout.gather(gradient)
            s, its, met = cg_correction(hessian, g, _FORCING, _CG_CAP)
            vcycles += its
            cap_hits += not met
            full = layout.expand(layout.gather(uvals) - s, uvals)
            rel = _masked_rel_change(full, uvals)
            if rel <= tol:
                uvals = full
                break
            # sufficient decrease along -s, whose slope is -g.s < 0
            decrease = _ARMIJO * _dot(g, s)
            ceiling = value + _SLACK * (1.0 + abs(value))
            step, trial = full - uvals, full
            for halvings in range(_MAX_CUTS + 1):
                t = 0.5**halvings
                if halvings:
                    trial = uvals + t * step
                if tv(tv_density(trial, sigma0, eps_hat)) <= ceiling - t * decrease:
                    break
            else:
                cuts += _MAX_CUTS
                break
            cuts += halvings
            uvals = trial
        # the stage's hierarchy goes before the next stage builds its own
        hessian = None
        total_inner += inner
        drops = np.diff(np.asarray(values))
        monotone = bool(np.all(drops <= _SLACK * (1.0 + abs(values[0]))))
        if not monotone:
            flagged = True
        stages.append(
            {
                "eps": eps_hat,
                "inner_iterations": inner,
                "vcycles": vcycles,
                "cap_hits": cap_hits,
                "cuts": cuts,
                "tol": tol,
                "converged": rel <= tol,
                "final_rel_change": rel,
                "smoothed_history": [amax * v for v in values],
                "monotone": monotone,
            }
        )

    info = {
        "algorithm": "fixedpoint",
        "stages": stages,
        "total_inner_iterations": total_inner,
        "total_cg_iterations": total_cg,
        "nonmonotone_flag": flagged,
        "tv_final": weighted_tv(uvals, triplet.a.values, sigma0),
    }
    return ScalarField(grid, uvals, location="node"), info


# tolerance of the primal-dual stopping rule, on the relative gap and on
# the div B rms in units of max(a) / (longer side of the domain)
_PD_TOL = 1e-6

# checkpoints of the stopping rule fall every _PD_CHECK max(nx, ny) steps:
# the fiftieth of the default cap, so a default run checks where it always
# did, and a larger cap no longer moves the stop
_PD_CHECK = 4

# step ratio tau / sigma = (omega / _PD_BALANCE)^2, omega the
# oscillation of f on the boundary: u moves on the scale of f and the
# normalized dual on the scale 1, so the ratio follows f.  On F_h with the
# Gershgorin bound, the relaxed rule stops on the bumps at n = 17 / 33 /
# 65 / 129 after 136 / 264 / 520 / 1,032 steps and on the fiber sigma0 at
# n = 33 / 65 after 264 / 780.  Balances 2, 2.83, 5.66 and 8 take as many
# or more steps on every one of these (up to 2.5x at 8), and 2.83, the
# only one as fast on three of them, takes 1.5x on the other three.
_PD_BALANCE = 4.0

# relaxation rho of the primal-dual step, (u, b) += rho ((uhat, bhat) -
# (u, b)); any rho in (0, 2) keeps the fixed point under tau sigma L^2 <= 1
# (Condat 2013).  On the same six cases rho = 1.9 stops after the steps
# above, against 204 / 396 / 780 / 1,548 and 528 / 1,300 unrelaxed;
# rho = 1.5, 1.7 and 1.8 stop with it on the bumps, 1.5 and 1.7 later on
# the fiber sigma0 at n = 33 (396), and rho = 1.95 stops with it but
# leaves c at 2.7e-5 on the n = 17 bump against 3.4e-8.  So rho is the
# usual near-2 choice, not a value tuned to one grid.
_PD_RELAX = 1.9


def minimize_tv_primal_dual(problem: TVProblem):
    """Saddle-point minimization of F_h; returns (u, B, info) with B dual feasible.

    F_h[u] = sum_K a_K |K| |M_K u| with M = `cell_operator` at weight 1,
    so its saddle form pairs M u with a dual b of three rows per cell in
    the ball |b_K| <= a_K.  The operator is K1 = 1_active M, and
    L^2 = `l2` is the Gershgorin bound of K1^T K1 (max row sum of
    |K1^T K1|), computed once per call from K1: a bound of |K1|^2, so the
    step condition holds, and on square grids about half of the
    M (4/hx^2 + 4/hy^2) an entrywise estimate gives.  The steps are
    tau = omega / (_PD_BALANCE L) and sigma = _PD_BALANCE / (omega L),
    omega = max f - min f over the boundary nodes (1 when f is constant
    there), so tau sigma L^2 = 1; any steps within that bound reach the
    same saddle point, and these only set the path.  The iteration is
    equivariant under f -> alpha f + beta: u follows f, b does not move,
    and the stop is the same.  Constant boundary data f = k has the exact
    saddle point u = k, B = 0, which is returned after 0 iterations: F[u]
    is 0 there, so the relative gap of an iterate would only measure
    round-off.

    The loop runs on two sparse matrices built once per call: K = sigma
    K1 and the primal step (tau / sigma) K^T with its Dirichlet rows
    zeroed.  An iteration is the primal step uhat = u - (tau/sigma) K^T b,
    the dual ascent bhat = b + K (2 uhat - u) with the radial projection
    of each cell's 3-vector bhat onto the ball |bhat| <= a, and the
    relaxation (u, b) += rho ((uhat, bhat) - (u, b)) with rho = _PD_RELAX,
    all on preallocated buffers (`relaxation` in info).  The initial
    solve leaves f on the boundary and the step is zero there, so u keeps
    its Dirichlet trace.  For rho > 1 the relaxed b may leave the ball,
    so B, the pairing and the dual residual are taken from the projected
    bhat.  B is the physical current: amax sigma0^(1/2) times the first
    two rows of bhat, so |B|_{sigma0^{-1}} <= a holds to round-off
    (`dual_feasibility`).  The third row, the hourglass row's multiplier,
    is a discretization term with no physical current of its own.

    Every _PD_CHECK max(nx, ny) steps info records the functional F_h
    (`tv_history`), the relative primal-dual gap |F_A[u] - <K1 u, bhat>| /
    F_A[u] (`gap_history`), and the interior rms of K1^T bhat, the
    three-row div B (`divergence_history`).  F_A is F_h over the cells the
    scheme optimizes, the cells where a does not vanish; B vanishes on
    the others.  The gap measures complementarity only: once u and b pair
    up it can vanish while div B, the stationarity of u, is still falling.
    So the loop stops at the first checkpoint where both the gap and the
    div B rms times l / max(a), l the longer side of the domain, are
    <= _PD_TOL (`converged`); `pd_iterations` (default 200 max(nx, ny)) is
    only the cap, `max_iterations`: it ends the loop but moves no
    checkpoint, and `iterations` counts the steps run.  Both quantities
    are scale-free, so the stop, u and B / max(a) do not change when a is
    scaled.  `pd_gap` and `dual_divergence_rms` are the two at the end,
    and `tv_final` is the full F_h.

    Spacings so small or so large that tau or sigma is no positive normal
    float (hx or hy below about 1e-154 or above about 1e154) raise
    TVConfigError.
    """
    grid, sigma0, amax, a_hat, void = _normalized_data(problem)
    t = problem.triplet
    rim = t.f.values.ravel()[grid.boundary_ids]
    omega = float(np.max(rim) - np.min(rim))
    width = omega or 1.0
    active = ~void
    # spacings beyond the floats make the bound inf or nan, which the step check reports
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        k_op = cell_operator(grid, sigma0, active.astype(np.float64))
        k_op.eliminate_zeros()
        # Gershgorin: the largest row sum of |K1^T K1| bounds its largest eigenvalue
        l2 = float(np.max(abs(k_op.T @ k_op).sum(axis=1)))
        tau = width / (_PD_BALANCE * np.sqrt(l2))
        sig = _PD_BALANCE / (width * np.sqrt(l2))
    tiny = np.finfo(np.float64).tiny
    if not (tiny <= tau < np.inf and tiny <= sig < np.inf):
        raise TVConfigError(
            f"the primal-dual steps are no positive normal floats on this grid "
            f"(hx {grid.hx:.3g}, hy {grid.hy:.3g}, oscillation of f {omega:.3g}): "
            f"tau {tau:.3g}, sigma {sig:.3g}"
        )
    iters = (
        problem.pd_iterations
        if problem.pd_iterations is not None
        else 200 * max(grid.nx, grid.ny)
    )
    info = {
        "algorithm": "primaldual",
        "max_iterations": iters,
        "l2": l2,
        "tau": tau,
        "sigma_step": sig,
        "relaxation": _PD_RELAX,
    }
    if omega == 0.0:
        # the exact saddle point: a relative gap of F[u] = 0 is round-off
        zero = np.zeros(grid.cell_shape)
        info.update(iterations=0, converged=True, tv_history=[], gap_history=[],
                    divergence_history=[], tv_final=0.0, pairing=0.0, pd_gap=0.0,
                    dual_divergence_rms=0.0, dual_feasibility=0.0)
        u = ScalarField(grid, np.full(grid.shape, rim[0]), location="node")
        return u, VectorField2(grid, zero, zero.copy()), info

    interior = grid.interior_mask().ravel()
    k_op.data *= sig
    kt_op = k_op.T.tocsr()
    kt_op.data *= tau / sig
    kt_op.data[np.repeat(~interior, np.diff(kt_op.indptr))] = 0.0
    kt_op.eliminate_zeros()

    system = assemble(1.0, Layout(sigma0, exclude_cells=void))
    u = solve_dirichlet(system, t.f).values.ravel().copy()
    ubar, step = np.empty_like(u), np.empty_like(u)
    b = np.zeros((3, a_hat.size))
    b_flat = b.reshape(-1)
    bhat, kubar = np.zeros_like(b), np.empty(b.size)
    bhat_flat = bhat.reshape(-1)
    square = np.empty_like(b)
    scale = np.empty(a_hat.size)
    a_cells = a_hat.ravel()
    a_floor = np.maximum(a_cells, 1e-300)
    a_active = np.where(active, a_hat, 0.0)

    def gap_and_pairing():
        # relative gap over the optimized cells and <K1 u, bhat>/amax, from the same K
        primal = weighted_tv(u.reshape(grid.shape), a_active, sigma0)
        pairing = float(np.sum((k_op @ u) * bhat_flat)) / sig * grid.cell_area
        return abs(primal - pairing) / max(primal, 1e-300), pairing

    def divergence_rms():
        # rms of the three-row div(B / amax): tau K1^T bhat on interior
        # nodes, divided by tau
        step = kt_op @ bhat_flat
        return float(np.sqrt(np.mean(step[interior] ** 2))) / tau

    length = max((grid.nx - 1) * grid.hx, (grid.ny - 1) * grid.hy)
    f_hist = []
    gap_hist = []
    div_hist = []
    record_every = _PD_CHECK * max(grid.nx, grid.ny)
    converged = False
    for it in range(iters):
        # primal step uhat = u - step, extrapolation ubar = 2 uhat - u
        _matvec(kt_op, b_flat, step)
        np.subtract(u, step, out=ubar)
        ubar -= step
        np.add(b_flat, _matvec(k_op, ubar, kubar), out=bhat_flat)
        # scale a / max(|bhat|, a): exactly 1 inside the ball, a / |bhat| outside
        np.multiply(bhat, bhat, out=square)
        np.add(square[0], square[1], out=scale)
        scale += square[2]
        np.sqrt(scale, out=scale)
        np.maximum(scale, a_floor, out=scale)
        np.divide(a_cells, scale, out=scale)
        bhat *= scale
        # relaxation (u, b) += rho ((uhat, bhat) - (u, b))
        step *= _PD_RELAX
        u -= step
        np.subtract(bhat, b, out=b)
        b *= _PD_RELAX - 1.0
        b += bhat
        if (it + 1) % record_every == 0:
            f_hist.append(amax * weighted_tv(u.reshape(grid.shape), a_hat, sigma0))
            gap_hist.append(gap_and_pairing()[0])
            div_hat = divergence_rms()
            div_hist.append(amax * div_hat)
            if gap_hist[-1] <= _PD_TOL and div_hat * length <= _PD_TOL:
                converged = True
                break

    u_final = ScalarField(grid, u.reshape(grid.shape), location="node")
    b1, b2 = (comp.reshape(grid.cell_shape) for comp in bhat[:2])
    B = VectorField2(grid, *(amax * q for q in sym2_apply(*sym2_sqrt(*sigma0.entries), b1, b2)))
    gap, pairing_hat = gap_and_pairing()
    info.update({
        "iterations": it + 1,
        "converged": converged,
        "tv_history": f_hist,
        "gap_history": gap_hist,
        "divergence_history": div_hist,
        "tv_final": weighted_tv(u_final.values, t.a.values, sigma0),
        "pairing": amax * pairing_hat,
        "pd_gap": gap,
        "dual_divergence_rms": amax * divergence_rms(),
        "dual_feasibility": dual_feasibility(B, t.a, sigma0),
    })
    return u_final, B, info


# -- audits --------------------------------------------------------------------


def boundary_flux_integral(f: ScalarField, u: ScalarField, c, sigma0: TensorField2) -> float:
    """Outer-boundary integral of f (J . nu) for the current of F_h at u.

    The current has three rows per cell, J3 = -c M u with M =
    `cell_operator` at weight 1, and c a cell array or field (0 on the
    cells it leaves out).  The node array M^T (|K| J3) =
    -`energy_gradient(u, c)` is the discrete -div J of the bilinear
    element: its interior rows are minus the gradient of F_h at u when
    c = a / rho_h, and its boundary rows are the Dirichlet reactions, the
    outward flux.  The integral is f dotted with those boundary rows.
    (The curvature audit reads the physical two-row current instead:
    `geometry.curvature_residual`.)
    """
    rim = u.grid.boundary_ids
    c = c.values if isinstance(c, ScalarField) else c
    flux = -energy_gradient(u.values, c, sigma0).ravel()[rim]
    return float(np.dot(f.values.ravel()[rim], flux))


def duality_gap(u: ScalarField, f: ScalarField, c, a: ScalarField,
                sigma0: TensorField2) -> float:
    """|F_h[u] + boundary integral of f (J.nu)| / max(F_h[u], tiny).

    The flux is `boundary_flux_integral` of the current J3 = -c M u.  For
    c = a / rho_h off the masked cells (c = 0 on them), summation by parts
    makes the numerator
    |sum_masked a rho_h |K| - sum_interior u (M^T |K| J3)|, whose interior
    sum vanishes at an exact minimizer of F_h; at the FEM truth with
    a = c rho_h it is the CG residual.
    """
    fval = weighted_tv(u.values, a.values, sigma0)
    flux = boundary_flux_integral(f, u, c, sigma0)
    return abs(fval + flux) / max(fval, 1e-300)


def sine_perturbations(u: ScalarField, count: int, seed: int, amplitude: float = 0.05) -> list:
    """Seeded smooth zero-trace node arrays w, the competitors u +/- w of the audits.

    Each draw takes random coefficients on the first 3x3 sine modes of
    the bounding box and scales the sum to `amplitude` times the range
    of u.
    """
    grid = u.grid
    rng = np.random.default_rng(seed)
    urange = float(np.max(u.values)) - float(np.min(u.values))
    x, y = grid.node_coords()
    lx = (grid.nx - 1) * grid.hx
    ly = (grid.ny - 1) * grid.hy
    # the 1-D mode tables, broadcast to the grid in the loop
    sx = [np.sin(p * np.pi * x[:1, :] / lx) for p in range(1, 4)]
    sy = [np.sin(q * np.pi * y[:, :1] / ly) for q in range(1, 4)]
    out = []
    for _ in range(count):
        coef = rng.standard_normal((3, 3))
        w = np.zeros(grid.shape)
        for p in range(3):
            for q in range(3):
                w += coef[p, q] * sx[p] * sy[q]
        w.ravel()[grid.boundary_ids] = 0.0
        wmax = float(np.max(np.abs(w)))
        if wmax > 0.0:
            w *= amplitude * max(urange, 1e-300) / wmax
        out.append(w)
    return out


def minimality_audit(u: ScalarField, a: ScalarField, sigma0: TensorField2,
                     trials: int = 20, seed: int = 0, amplitude: float = 0.05) -> dict:
    """Functional margins F[u +/- w] - F[u] over `sine_perturbations` w.

    The reported margin of a trial is the worse of its two signs.  A
    candidate far from the minimizer shows negative margins, while at
    the minimizer every margin is nonnegative up to quadrature round-off.
    """
    f0 = weighted_tv(u.values, a.values, sigma0)
    margins = []
    for w in sine_perturbations(u, trials, seed, amplitude):
        margins.append(min(weighted_tv(u.values + w, a.values, sigma0) - f0,
                           weighted_tv(u.values - w, a.values, sigma0) - f0))
    return {
        "tv_value": f0,
        "margins": margins,
        "min_margin": min(margins) if margins else 0.0,
        "n_negative": int(sum(1 for m in margins if m < 0.0)),
        "trials": trials,
        "seed": seed,
        "amplitude": amplitude,
    }


def recover_c(u_star: ScalarField, a: ScalarField, sigma0: TensorField2,
              delta_grad: float | None = None):
    """Pointwise factor c = a / rho_h(u*) off the degenerate set.

    rho_h is the density of F_h (`tv_density`).  Cells with
    rho_h(u*) <= delta_grad or a <= delta_a are masked out (value 0,
    flagged in mask_Z); delta_grad defaults to 1e-6 max rho_h(u*), and
    delta_a is 1e-8 max(a).  Returns
    (c_rec, mask_Z, diagnostics); diagnostics records both cutoffs and
    separates the two reasons for masking, including the zero-data cells
    that still carry gradient (the interface-like set the recovery never
    divides on).
    """
    grid = u_star.grid
    nrm = tv_density(u_star.values, sigma0)
    avals = a.values
    nmax = float(np.max(nrm))
    amax = float(np.max(avals))
    dg = delta_grad if delta_grad is not None else 1e-6 * max(nmax, 1e-300)
    da = 1e-8 * max(amax, 1e-300)
    ok = (nrm > dg) & (avals > da)
    cvals = np.where(ok, avals / np.where(ok, nrm, 1.0), 0.0)
    mask_z = ~ok
    small = nrm <= dg
    diagnostics = {
        "delta_grad": dg,
        "delta_a": da,
        "masked_cells": int(mask_z.sum()),
        "small_gradient_cells": int(small.sum()),
        "interface_cells": int(((avals <= da) & ~small).sum()),
        "small_gradient_measure": float(small.sum()) * grid.cell_area,
    }
    return ScalarField(grid, cvals, location="cell"), mask_z, diagnostics


# the rim-trace wiggle a smooth equipotential rim produces, in units of
# max(hx, hy) max|grad u*|
_OSC_FACTOR = 4.0
# exponent of the Holder-quotient probe and its threshold in units of
# max(a) / h^_HOLDER_ALPHA
_HOLDER_ALPHA = 0.5
_HOLDER_FACTOR = 0.25


def _holder_quotient(avals, comp, other, hx, hy):
    best = 0.0
    pair = (comp[:, :-1] & other[:, 1:]) | (other[:, :-1] & comp[:, 1:])
    if pair.any():
        d = np.abs(avals[:, :-1] - avals[:, 1:])
        best = max(best, float(np.max(d[pair])) / hx**_HOLDER_ALPHA)
    pair = (comp[:-1, :] & other[1:, :]) | (other[:-1, :] & comp[1:, :])
    if pair.any():
        d = np.abs(avals[:-1, :] - avals[1:, :])
        best = max(best, float(np.max(d[pair])) / hy**_HOLDER_ALPHA)
    return best


def classify_inclusions(u_star: ScalarField, a: ScalarField, sigma0: TensorField2, mask_z,
                        delta_grad: float, delta_a: float) -> list[dict]:
    """Label each 4-connected component of the degenerate set.

    The component is flat where rho_h(u*) <= delta_grad and
    data-free where a <= delta_a: the cutoffs `recover_c` chose for the
    mask, in the norm of the functional's density (`tv_density`).

    - 'perfect': the gradient vanishes on the component while the data
      does not (current flows through a region the potential does not
      vary on);
    - 'insulating': the data vanishes and the trace of u* oscillates on
      the component rim (no current crosses, but the potential varies
      along the wall);
    - 'perfect-or-insulating': the data vanishes, the rim trace is
      constant within the oscillation tolerance, and the data fails a
      Holder-quotient regularity probe across the interface (exponent
      _HOLDER_ALPHA), which rules out a benign conductivity explaining it;
    - 'undetermined': anything else, in particular a constant rim trace
      with data regular across the interface, which one measurement
      genuinely cannot decide.

    The oscillation tolerance is 4 max(hx, hy) max rho_h(u*), the
    size of the discrete trace wiggle a smooth equipotential rim produces.
    """
    grid = u_star.grid
    mask = np.asarray(mask_z, dtype=bool)
    gmag = tv_density(u_star.values, sigma0)
    avals = a.values
    # Scales come from the cells where u* is meaningful: on a masked
    # insulating component the nodal values are fill, not physics.
    live = ~mask
    scale_g = float(np.max(gmag[live])) if np.any(live) else float(np.max(gmag))
    scale_a = float(np.max(avals))
    to = _OSC_FACTOR * max(grid.hx, grid.hy) * scale_g
    h = min(grid.hx, grid.hy)
    holder_threshold = _HOLDER_FACTOR * max(scale_a, 1e-300) / h**_HOLDER_ALPHA

    comp_map, ncomp = label_cells(mask)
    out = []
    for ci in range(1, ncomp + 1):
        comp = comp_map == ci
        max_grad = float(np.max(gmag[comp]))
        max_a = float(np.max(avals[comp]))
        rim_vals = u_star.values[nodes_of_cells(comp) & nodes_of_cells(~comp)]
        osc = float(np.max(rim_vals) - np.min(rim_vals)) if rim_vals.size else 0.0
        quot = _holder_quotient(avals, comp, ~comp, grid.hx, grid.hy)
        if max_grad <= delta_grad and max_a > delta_a:
            label = "perfect"
        elif max_a <= delta_a and osc > to:
            label = "insulating"
        elif max_a <= delta_a and osc <= to and quot > holder_threshold:
            label = "perfect-or-insulating"
        else:
            label = "undetermined"
        out.append(
            {
                "component": ci,
                "cells": int(comp.sum()),
                "label": label,
                "max_gradient": max_grad,
                "max_a": max_a,
                "boundary_oscillation": osc,
                "oscillation_tol": to,
                "holder_quotient": quot,
                "holder_threshold": holder_threshold,
            }
        )
    return out


def coarea_audit(u: ScalarField, a: ScalarField, sigma0: TensorField2,
                 n_levels: int = 200) -> dict:
    """Compare F[u] with the level-set reconstruction of its coarea form.

    The level integral is a trapezoid rule over n_levels equispaced
    levels spanning the range of u, weighting each level-curve segment
    by a (sigma0 nu . nu)^(1/2) with nu the curve normal.  The extreme
    levels carry half weight and typically contribute nothing (the set
    {u > umax} is empty), so the endpoint bias is one interior sample.
    """
    umin = float(np.min(u.values))
    umax = float(np.max(u.values))
    tv = weighted_tv(u.values, a.values, sigma0)
    if umax <= umin or n_levels < 2:
        return {
            "tv": tv,
            "level_integral": 0.0,
            "rel_discrepancy": abs(tv) / max(abs(tv), 1e-300),
        }
    delta = (umax - umin) / (n_levels - 1)
    levels = [umin + j * delta for j in range(n_levels)]
    perims = weighted_perimeter(u, levels, a, sigma0)
    weights = np.full(n_levels, delta)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    integral = float(np.dot(weights, perims))
    return {
        "tv": tv,
        "level_integral": integral,
        "rel_discrepancy": abs(tv - integral) / max(tv, 1e-300),
    }


# -- orchestration --------------------------------------------------------------


@dataclass
class ReconReport:
    """Everything one run of the recovery produces."""

    u_star: ScalarField
    c_rec: ScalarField
    mask_z: np.ndarray
    labels: list[dict]
    diagnostics: dict = field(default_factory=dict)


def reconstruct(problem: TVProblem, algorithm: str = "fixedpoint") -> ReconReport:
    """Run the recovery end to end on an admissible triplet.

    algorithm is 'fixedpoint', 'primaldual', or 'both'; with 'both' the
    fixed-point potential is the one carried forward and the relative
    l2 distance between the two potentials is recorded.  When the
    triplet's provenance carries the synthetic truth, relative errors
    against it are included.
    """
    if algorithm not in ALGORITHMS:
        raise TVConfigError(f"unknown algorithm {algorithm!r}")
    t = problem.triplet
    diagnostics: dict = {}
    u_fp = u_pd = None
    if algorithm in ("fixedpoint", "both"):
        u_fp, info_fp = minimize_tv_fixedpoint(problem)
        diagnostics["fixedpoint"] = info_fp
    if algorithm in ("primaldual", "both"):
        u_pd, B, info_pd = minimize_tv_primal_dual(problem)
        diagnostics["primaldual"] = info_pd
    u_star = u_fp if u_fp is not None else u_pd
    if u_fp is not None and u_pd is not None:
        diagnostics["cross_algorithm_rel_l2"] = rel_l2(u_pd.values, u_fp.values)

    # the fixed-point scheme cannot push a gradient much below its final
    # smoothing, so that is the natural degeneracy cutoff
    delta_grad = 3.0 * _eps_schedule(t.sigma0)[-1]
    c_rec, mask_z, rec_diag = recover_c(u_star, t.a, t.sigma0, delta_grad=delta_grad)
    diagnostics["recovery"] = rec_diag
    labels = classify_inclusions(u_star, t.a, t.sigma0, mask_z,
                                 rec_diag["delta_grad"], rec_diag["delta_a"])

    diagnostics["duality_gap"] = duality_gap(u_star, t.f, c_rec, t.a, t.sigma0)

    prov = t.provenance or {}
    if prov.get("c_true") is not None:
        c_true = np.asarray(prov["c_true"], dtype=np.float64)
        ok = ~mask_z
        denom = np.where(ok, np.abs(c_true), 1.0)
        err = np.where(ok, np.abs(c_rec.values - c_true) / denom, 0.0)
        diagnostics["c_rel_linf_off_mask"] = float(np.max(err))
    if prov.get("u_true") is not None:
        u_true = np.asarray(prov["u_true"], dtype=np.float64)
        diagnostics["u_rel_l2"] = rel_l2(u_star.values, u_true)

    return ReconReport(
        u_star=u_star,
        c_rec=c_rec,
        mask_z=mask_z,
        labels=labels,
        diagnostics=diagnostics,
    )
