"""Weighted total-variation recovery of the conformal conductivity factor.

Given an admissible triplet (f, sigma0, a), the potential is the unique
minimizer over boundary data f of

    F[v] = integral of a (sigma0 grad v . grad v)^(1/2)

(`fields.weighted_tv`, with its density `fields.tv_density`), and the
factor follows pointwise as c = a / |grad u*|_{sigma0}.  Two independent
minimizers are provided and kept separate on purpose:

- a lagged-diffusivity fixed point with an eps-continuation schedule:
  the map Phi solves div(c_eff sigma0 grad u) = 0 with
  c_eff = a / (|grad u_prev|^2_{sigma0} + eps^2)^(1/2), and each stage
  iterates it under type-II Anderson mixing over the last five steps
  (restarted at every stage, reset to the plain step Phi(u) whenever the
  residual Phi(u) - u grows or the mixing system is singular), which
  reaches the same fixed point as the plain iteration in fewer solves;
  the multigrid coarse levels of those solves are rebuilt once per stage
  and only the fine level at every step;
- a primal-dual (Chambolle-Pock type) saddle-point scheme on
  min_u max_B <grad u, B> over the dual ball |B|_{sigma0^{-1}} <= a,
  with a closed-form per-cell projection realized by radial scaling in
  the sigma0^{-1} norm (a sigma0^(1/2) change of variables makes that
  scaling the exact Euclidean projection).

Both routes normalize a by its maximum internally.  The minimizer is
invariant under a -> alpha a, and with the default schedule the
iterations are identical bit for bit, so the functional value scales
exactly and the argmin does not move.

Cells where a vanishes are excluded from the solves (a natural Neumann
wall, matching the deleted-cell treatment of insulating regions); the
recovered factor is masked wherever the data or the gradient is too
small to divide.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from scipy import ndimage

from .data import AdmissibleTriplet, compute_current
from .fields import (
    _CROSS,
    Grid2D,
    ScalarField,
    TensorField2,
    VectorField2,
    grad,
    grad_operator,
    gradient,
    nodes_of_cells,
    rel_l2,
    smoothed_tv,
    sym2_apply,
    sym2_sqrt,
    tv_density,
    weighted_tv,
)
from .forward import _dot, assemble, solve_dirichlet
from .geometry import extract_level_set, weighted_perimeter
from .schema import Key, validate


class TVConfigError(ValueError):
    pass


ALGORITHMS = ("fixedpoint", "primaldual", "both")


@dataclass
class TVProblem:
    """Configuration for the TV minimizers.

    eps0 is the starting smoothing of the fixed-point scheme, in units of
    |grad u|_{sigma0} (so it is invariant under rescaling a); when None
    it defaults to 0.1 / sqrt(m) with m the recorded lower ellipticity
    bound of sigma0.  delta_grad and delta_a are the degeneracy cutoffs
    of the pointwise recovery; when None, delta_grad defaults to three
    times the final smoothing of the eps schedule and delta_a to 1e-8
    times max(a).  `TV_SCHEMA` holds the type and range of every setting.
    """

    triplet: AdmissibleTriplet
    eps0: float | None = None
    eps_ratio: float = 0.5
    eps_stages: int = 8
    fp_tol: float = 1e-8
    max_inner: int = 50
    cg_tol: float = 1e-10
    pd_tau: float | None = None
    pd_sigma: float | None = None
    pd_iterations: int | None = None
    delta_grad: float | None = None
    delta_a: float | None = None
    void_floor: float = 0.0

    def __post_init__(self):
        settings = {name: getattr(self, name) for name in TV_SCHEMA}
        validate(TV_SCHEMA, settings, TVConfigError, where="TVProblem")

    def eps_start(self) -> float:
        """The first smoothing of the eps schedule, eps0 or its default."""
        return self.eps0 if self.eps0 is not None else 0.1 / np.sqrt(self.triplet.sigma0.m)


# type and range of each setting; the defaults are TVProblem's, and the
# config's inverse section is this table plus the algorithm
_TV_RULES = {
    "eps0": ("num", "(0, inf)"),
    "eps_ratio": ("num", "(0, 1)"),
    "eps_stages": ("int", "[1, inf)"),
    "fp_tol": ("num", "(0, inf)"),
    "max_inner": ("int", "[1, inf)"),
    "cg_tol": ("num", "(0, inf)"),
    "pd_tau": ("num", "(0, inf)"),
    "pd_sigma": ("num", "(0, inf)"),
    "pd_iterations": ("int", "[1, inf)"),
    "delta_grad": ("num", "(0, inf)"),
    "delta_a": ("num", "(0, inf)"),
    "void_floor": ("num", "[0, inf)"),
}
TV_SCHEMA = {
    f.name: Key(_TV_RULES[f.name][0], f.default, _TV_RULES[f.name][1])
    for f in fields(TVProblem)
    if f.name != "triplet"
}


# -- the functional -----------------------------------------------------------


def dual_feasibility(B: VectorField2, a: ScalarField, sigma0: TensorField2) -> float:
    """Worst violation max over cells of (|B|_{sigma0^{-1}} - a)_+ ; 0 means feasible."""
    excess = sigma0.inv_norm(B.v1, B.v2) - a.values
    return float(np.max(np.maximum(excess, 0.0)))


def _normalized_data(problem: TVProblem):
    t = problem.triplet
    amax = float(np.max(t.a.values))
    if amax <= 0.0:
        raise TVConfigError("data a vanishes identically; nothing to minimize")
    a_hat = t.a.values / amax
    void = a_hat <= problem.void_floor
    if void.all():
        raise TVConfigError("all cells fall below the void floor")
    return t.grid, t.sigma0, amax, a_hat, void


def _masked_rel_change(new, old):
    # its own function so that a tracer can hook the change that ends a stage
    return rel_l2(old, new)


# history depth m of the Anderson mixing: differences of the last m steps
_ANDERSON_DEPTH = 5


class _Anderson:
    """Type-II Anderson mixing of one eps-stage (Walker & Ni 2011).

    `step(u, r)` takes the iterate u_k and its residual r_k = Phi(u_k) - u_k
    and returns u_{k+1} = u_k + r_k - (dU + dR) gamma, where the rows of
    dU and dR are the differences of the last _ANDERSON_DEPTH iterates and
    residuals and gamma solves the Gram system (dR^T dR) gamma = dR^T r_k.
    The plain step u_k + r_k = Phi(u_k) is taken, with the history
    cleared, at the first step and whenever |r_k| > |r_{k-1}| or the Gram
    system is singular or yields a non-finite gamma; `restarts` counts
    these last two resets.  Inner products use the pairwise `_dot`, so a
    rerun repeats every step bit for bit.
    """

    def __init__(self, shape):
        self.du = np.empty((_ANDERSON_DEPTH,) + shape)
        self.dr = np.empty((_ANDERSON_DEPTH,) + shape)
        self.reset()

    def reset(self):
        """Start a new stage: no history, no restarts."""
        self.pushed = 0  # difference rows stored since the last reset, round-robin
        self.restarts = 0
        self._last = None  # (u, r, |r|) of the previous step

    def step(self, u, r):
        rnorm = np.sqrt(_dot(r, r))
        last, self._last = self._last, (u, r, rnorm)
        if last is None:
            return u + r
        if rnorm > last[2]:
            return self._restart(u, r)
        row = self.pushed % _ANDERSON_DEPTH
        np.subtract(u, last[0], out=self.du[row])
        np.subtract(r, last[1], out=self.dr[row])
        self.pushed += 1
        k = min(self.pushed, _ANDERSON_DEPTH)
        gram = np.empty((k, k))
        for i in range(k):
            for j in range(i + 1):
                gram[i, j] = gram[j, i] = _dot(self.dr[i], self.dr[j])
        rhs = np.array([_dot(self.dr[i], r) for i in range(k)])
        try:
            gamma = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            return self._restart(u, r)
        if not np.all(np.isfinite(gamma)):
            return self._restart(u, r)
        out = u + r
        for i in range(k):
            out -= gamma[i] * (self.du[i] + self.dr[i])
        return out

    def _restart(self, u, r):
        self.pushed = 0
        self.restarts += 1
        return u + r


def minimize_tv_fixedpoint(problem: TVProblem):
    """Anderson-accelerated lagged-diffusivity minimization with eps-continuation.

    The map Phi(u) is one lagged-diffusivity step: assemble with
    c_eff = a / (|grad u|^2_{sigma0} + eps^2)^(1/2) and solve, warm
    started at u.  Each eps-stage iterates u_{k+1} = mix(u_k, Phi(u_k) - u_k)
    with `_Anderson`, restarted at the stage, and ends with Phi(u_k) at
    the first relative change |Phi(u_k) - u_k| / |Phi(u_k)| <= fp_tol or
    after max_inner steps.  Each step refills the matrix on one layout;
    its multigrid coarse levels are built at a stage's first step and kept
    for the stage, whose coefficient barely moves (CG still meets cg_tol).

    Returns (u, info).  info records, per stage, the smoothed functional
    of each Phi(u_k) (in absolute units), the inner and CG iteration
    counts, the last relative change, whether it met fp_tol
    (`converged`), the number of Anderson safeguard resets (`restarts`),
    and whether that functional never rose beyond round-off from one
    Phi(u_k) to the next (`monotone`).  A mixed iterate carries no descent
    guarantee, so on hard data (noise, inclusions) a stage can rise
    slightly; that is flagged in `nonmonotone_flag`, not fatal.  The
    run's CG total also counts the initial solve.
    """
    grid, sigma0, amax, a_hat, void = _normalized_data(problem)
    t = problem.triplet
    # eps lives in |grad u|_{sigma0} units, so it is untouched by the
    # normalization of a; that keeps the whole iteration identical under
    # a -> alpha a (the effective coefficient just rescales, which CG
    # relative tolerances and the multigrid cycle cannot see).
    eps0_hat = problem.eps_start()
    schedule = [eps0_hat * problem.eps_ratio**s for s in range(problem.eps_stages)]

    system = assemble(1.0, sigma0, grid, exclude_cells=void)
    u = solve_dirichlet(system, t.f, tol=problem.cg_tol)
    uvals = u.values.copy()
    total_cg = system.cg_iterations
    mixer = _Anderson(grid.shape)

    stages = []
    flagged = False
    total_inner = 0
    for eps_hat in schedule:
        mixer.reset()
        hist = []
        cg = 0
        for inner in range(1, problem.max_inner + 1):
            weight = tv_density(*grad(grid, uvals), sigma0, eps_hat)
            c_eff = np.where(~void, a_hat / weight, 1.0)
            # a stage's first step builds the coarse levels; later ones keep them
            system = assemble(c_eff, sigma0, grid, exclude_cells=void, layout=system.layout,
                              hierarchy=system.matrix if inner > 1 else None)
            phi = solve_dirichlet(system, t.f, tol=problem.cg_tol, x0=uvals).values
            cg += system.cg_iterations
            rel = _masked_rel_change(phi, uvals)
            hist.append(amax * smoothed_tv(grid, a_hat, sigma0, phi, eps_hat))
            if rel <= problem.fp_tol or inner == problem.max_inner:
                uvals = phi
                break
            uvals = mixer.step(uvals, phi - uvals)
        total_inner += inner
        total_cg += cg
        drops = np.diff(np.asarray(hist))
        monotone = bool(np.all(drops <= 1e-10 * (1.0 + abs(hist[0]))))
        if not monotone:
            flagged = True
        stages.append(
            {
                "eps": eps_hat,
                "inner_iterations": inner,
                "cg_iterations": cg,
                "converged": rel <= problem.fp_tol,
                "final_rel_change": rel,
                "restarts": mixer.restarts,
                "smoothed_history": hist,
                "monotone": monotone,
            }
        )

    u_final = ScalarField(grid, uvals, location="node")
    info = {
        "algorithm": "fixedpoint",
        "stages": stages,
        "total_inner_iterations": total_inner,
        "total_cg_iterations": total_cg,
        "nonmonotone_flag": flagged,
        "tv_final": weighted_tv(u_final, t.a, sigma0),
    }
    return u_final, info


def minimize_tv_primal_dual(problem: TVProblem):
    """Saddle-point minimization; returns (u, B, info) with B dual feasible.

    Steps default to tau = sigma = 1/L with L^2 = M (4/hx^2 + 4/hy^2) an
    upper bound for the weighted gradient norm; explicit steps violating
    tau sigma L^2 <= 1 are a configuration error.

    The loop runs on two sparse matrices built once per call by
    `grad_operator`: K = sigma 1_active sigma0^(1/2) grad and the primal
    step (tau / sigma) K^T with its Dirichlet rows zeroed.  An iteration
    is the dual ascent b += K ubar, the radial projection of b onto the
    ball |b| <= a, and the primal step u -= (tau/sigma) K^T b with the
    extrapolation ubar = 2 u_new - u_old, all on preallocated buffers.
    The initial solve leaves f on the boundary and the step is zero there,
    so u keeps its Dirichlet trace.

    Every max(iterations // 50, 1) steps info records the functional F
    (`tv_history`), the relative primal-dual gap |F_A[u] - <grad u, B>| /
    F_A[u] (`gap_history`), and the interior rms of div B
    (`divergence_history`).  F_A is F over the cells the scheme optimizes,
    the cells above the void floor; B vanishes on the others.  `pd_gap`
    and `dual_divergence_rms` are the same quantities at the end, and
    `tv_final` is the full F.  The gap measures complementarity only:
    once u and B pair up it can vanish while div B, the stationarity of
    u, is still falling, so a stopping rule needs both numbers.
    """
    grid, sigma0, amax, a_hat, void = _normalized_data(problem)
    t = problem.triplet
    l2 = sigma0.M * (4.0 / grid.hx**2 + 4.0 / grid.hy**2)
    tau = problem.pd_tau if problem.pd_tau is not None else 1.0 / np.sqrt(l2)
    sig = problem.pd_sigma if problem.pd_sigma is not None else 1.0 / np.sqrt(l2)
    if tau * sig * l2 > 1.0 + 1e-9:
        raise TVConfigError(
            f"primal-dual steps violate tau*sigma*L^2 <= 1 (got {tau * sig * l2:.3f})"
        )
    iters = (
        problem.pd_iterations
        if problem.pd_iterations is not None
        else 200 * max(grid.nx, grid.ny)
    )

    root = sym2_sqrt(sigma0.s11, sigma0.s12, sigma0.s22)
    active = ~void
    interior = grid.interior_mask().ravel()
    k_op = grad_operator(grid, *(sig * np.where(active, r, 0.0) for r in root))
    k_op.eliminate_zeros()
    kt_op = k_op.T.tocsr()
    kt_op.data *= tau / sig
    kt_op.data[np.repeat(~interior, np.diff(kt_op.indptr))] = 0.0
    kt_op.eliminate_zeros()

    system = assemble(1.0, sigma0, grid, exclude_cells=void)
    u = solve_dirichlet(system, t.f, tol=problem.cg_tol).values.ravel().copy()
    ubar = u.copy()
    b = np.zeros((2, a_hat.size))
    b_flat = b.reshape(-1)
    square = np.empty_like(b)
    scale = np.empty(a_hat.size)
    a_cells = a_hat.ravel()
    a_floor = np.maximum(a_cells, 1e-300)
    a_active = np.where(active, a_hat, 0.0)

    def gap_and_pairing():
        # relative gap over the optimized cells and <grad u, B>/amax, from the same K
        primal = smoothed_tv(grid, a_active, sigma0, u.reshape(grid.shape))
        pairing = float(np.sum((k_op @ u) * b_flat)) / sig * grid.cell_area
        return abs(primal - pairing) / max(primal, 1e-300), pairing

    def divergence_rms(step):
        # the step is tau grad^T sigma0^(1/2) b on interior nodes, and B = amax sigma0^(1/2) b
        return amax / tau * float(np.sqrt(np.mean(step[interior] ** 2)))

    f_hist = []
    gap_hist = []
    div_hist = []
    record_every = max(iters // 50, 1)
    for it in range(iters):
        b_flat += k_op @ ubar
        # scale a / max(|b|, a): exactly 1 inside the ball, a / |b| outside
        np.multiply(b, b, out=square)
        np.add(square[0], square[1], out=scale)
        np.sqrt(scale, out=scale)
        np.maximum(scale, a_floor, out=scale)
        np.divide(a_cells, scale, out=scale)
        b *= scale
        step = kt_op @ b_flat
        u -= step
        np.subtract(u, step, out=ubar)
        if (it + 1) % record_every == 0:
            f_hist.append(amax * smoothed_tv(grid, a_hat, sigma0, u.reshape(grid.shape)))
            gap_hist.append(gap_and_pairing()[0])
            div_hist.append(divergence_rms(step))

    u_final = ScalarField(grid, u.reshape(grid.shape), location="node")
    b1, b2 = (comp.reshape(grid.cell_shape) for comp in b)
    B = VectorField2(grid, *(amax * q for q in sym2_apply(*root, b1, b2)))
    gap, pairing_hat = gap_and_pairing()
    info = {
        "algorithm": "primaldual",
        "iterations": iters,
        "tau": tau,
        "sigma_step": sig,
        "tv_history": f_hist,
        "gap_history": gap_hist,
        "divergence_history": div_hist,
        "tv_final": weighted_tv(u_final, t.a, sigma0),
        "pairing": amax * pairing_hat,
        "pd_gap": gap,
        "dual_divergence_rms": divergence_rms(step),
        "dual_feasibility": dual_feasibility(B, t.a, sigma0),
    }
    return u_final, B, info


# -- audits --------------------------------------------------------------------


def boundary_flux_integral(f: ScalarField, current: VectorField2) -> float:
    """Trapezoid quadrature of the outer-boundary integral of f (J . n).

    Each outer edge of a rim cell contributes the node average of f on
    that edge times the cell's normal flux times the edge length.
    """
    grid = current.grid
    fv, j1, j2 = f.values, current.v1, current.v2
    sides = (  # (rim cells, per-cell term, edge length): south, north, west, east
        (np.s_[0, :], -0.5 * (fv[:-1, :-1] + fv[:-1, 1:]) * j2, grid.hx),
        (np.s_[-1, :], 0.5 * (fv[1:, :-1] + fv[1:, 1:]) * j2, grid.hx),
        (np.s_[:, 0], -0.5 * (fv[:-1, :-1] + fv[1:, :-1]) * j1, grid.hy),
        (np.s_[:, -1], 0.5 * (fv[:-1, 1:] + fv[1:, 1:]) * j1, grid.hy),
    )
    total = 0.0
    for rim, term, h in sides:
        # summed over the whole zero-padded cell array: a fixed summation order
        on_rim = np.zeros(grid.cell_shape, dtype=bool)
        on_rim[rim] = True
        total += float(np.sum(np.where(on_rim, term, 0.0))) * h
    return total


def duality_gap(u: ScalarField, f: ScalarField, current: VectorField2,
                a: ScalarField, sigma0: TensorField2) -> float:
    """|F[u] + boundary integral of f (J.n)| / max(F[u], tiny).

    At the true potential the two terms cancel (integration by parts of
    the divergence-free current), so the gap is pure discretization.
    """
    fval = weighted_tv(u, a, sigma0)
    flux = boundary_flux_integral(f, current)
    return abs(fval + flux) / max(fval, 1e-300)


def sine_perturbations(u: ScalarField, count: int, seed: int, amplitude: float) -> list:
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
    out = []
    for _ in range(count):
        coef = rng.standard_normal((3, 3))
        w = np.zeros(grid.shape)
        for p in range(1, 4):
            for q in range(1, 4):
                w += coef[p - 1, q - 1] * np.sin(p * np.pi * x / lx) * np.sin(q * np.pi * y / ly)
        w.ravel()[grid.boundary_ids] = 0.0
        wmax = float(np.max(np.abs(w)))
        if wmax > 0.0:
            w *= amplitude * max(urange, 1e-300) / wmax
        out.append(w)
    return out


def minimality_audit(u: ScalarField, a: ScalarField, sigma0: TensorField2,
                     trials: int = 20, seed: int = 0, amplitude: float = 0.05,
                     f: ScalarField | None = None,
                     current: VectorField2 | None = None) -> dict:
    """Functional margins F[u +/- w] - F[u] over `sine_perturbations` w.

    The reported margin of a trial is the worse of its two signs.  A
    candidate far from the minimizer shows negative margins, while at
    the minimizer every margin is nonnegative up to quadrature round-off.
    The duality identity is reported alongside when f and the current
    are supplied.
    """
    grid = u.grid
    f0 = weighted_tv(u, a, sigma0)
    margins = []
    for w in sine_perturbations(u, trials, seed, amplitude):
        up = ScalarField(grid, u.values + w, location="node")
        um = ScalarField(grid, u.values - w, location="node")
        margins.append(min(weighted_tv(up, a, sigma0) - f0, weighted_tv(um, a, sigma0) - f0))
    report = {
        "tv_value": f0,
        "margins": margins,
        "min_margin": min(margins) if margins else 0.0,
        "n_negative": int(sum(1 for m in margins if m < 0.0)),
        "trials": trials,
        "seed": seed,
        "amplitude": amplitude,
    }
    if f is not None and current is not None:
        report["duality_gap"] = duality_gap(u, f, current, a, sigma0)
    return report


def recover_c(u_star: ScalarField, a: ScalarField, sigma0: TensorField2,
              delta_grad: float | None = None, delta_a: float | None = None):
    """Pointwise factor c = a / |grad u*|_{sigma0} off the degenerate set.

    Cells with |grad u*|_{sigma0} <= delta_grad or a <= delta_a are
    masked out (value 0, flagged in mask_Z).  Returns
    (c_rec, mask_Z, diagnostics); diagnostics separates the two reasons
    for masking, including the zero-data cells that still carry gradient
    (the interface-like set the recovery never divides on).
    """
    grid = u_star.grid
    gr = gradient(u_star)
    nrm = tv_density(gr.v1, gr.v2, sigma0)
    avals = a.values
    nmax = float(np.max(nrm))
    amax = float(np.max(avals))
    dg = delta_grad if delta_grad is not None else 1e-6 * max(nmax, 1e-300)
    da = delta_a if delta_a is not None else 1e-8 * max(amax, 1e-300)
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


def classify_inclusions(u_star: ScalarField, a: ScalarField, mask_z, grid: Grid2D,
                        tol_grad: float | None = None, tol_a: float | None = None) -> list[dict]:
    """Label each 4-connected component of the degenerate set.

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

    The conservative tol_grad default (1e-6 of the gradient scale)
    expects a potential whose flat regions are exact, as produced by the
    tied forward solve; iterative minimizers stall earlier, so pass the
    matching recovery cutoff instead.  The oscillation tolerance is
    4 max(hx, hy) max|grad u*|, the size of the discrete trace wiggle a
    smooth equipotential rim produces.
    """
    mask = np.asarray(mask_z, dtype=bool)
    gr = gradient(u_star)
    gmag = np.hypot(gr.v1, gr.v2)
    avals = a.values
    # Scales come from the cells where u* is meaningful: on a masked
    # insulating component the nodal values are fill, not physics.
    live = ~mask
    scale_g = float(np.max(gmag[live])) if np.any(live) else float(np.max(gmag))
    scale_a = float(np.max(avals))
    tg = tol_grad if tol_grad is not None else 1e-6 * max(scale_g, 1e-300)
    ta = tol_a if tol_a is not None else 1e-8 * max(scale_a, 1e-300)
    to = _OSC_FACTOR * max(grid.hx, grid.hy) * scale_g
    h = min(grid.hx, grid.hy)
    holder_threshold = _HOLDER_FACTOR * max(scale_a, 1e-300) / h**_HOLDER_ALPHA

    comp_map, ncomp = ndimage.label(mask, structure=_CROSS)
    out = []
    for ci in range(1, ncomp + 1):
        comp = comp_map == ci
        max_grad = float(np.max(gmag[comp]))
        max_a = float(np.max(avals[comp]))
        rim_vals = u_star.values[nodes_of_cells(comp) & nodes_of_cells(~comp)]
        osc = float(np.max(rim_vals) - np.min(rim_vals)) if rim_vals.size else 0.0
        quot = _holder_quotient(avals, comp, ~comp, grid.hx, grid.hy)
        if max_grad <= tg and max_a > ta:
            label = "perfect"
        elif max_a <= ta and osc > to:
            label = "insulating"
        elif max_a <= ta and osc <= to and quot > holder_threshold:
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
    tv = weighted_tv(u, a, sigma0)
    if umax <= umin or n_levels < 2:
        return {
            "tv": tv,
            "level_integral": 0.0,
            "rel_discrepancy": abs(tv) / max(abs(tv), 1e-300),
            "levels": [],
            "perimeters": [],
        }
    delta = (umax - umin) / (n_levels - 1)
    levels = [umin + j * delta for j in range(n_levels)]
    perims = []
    for lam in levels:
        curves = extract_level_set(u, lam)
        perims.append(weighted_perimeter(curves, a, sigma0))
    weights = np.full(n_levels, delta)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    integral = float(np.dot(weights, np.asarray(perims)))
    return {
        "tv": tv,
        "level_integral": integral,
        "rel_discrepancy": abs(tv - integral) / max(tv, 1e-300),
        "levels": levels,
        "perimeters": perims,
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
    grid = t.grid
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

    delta_grad = problem.delta_grad
    if delta_grad is None:
        # the fixed-point scheme cannot push a gradient much below its
        # final smoothing, so that is the natural degeneracy cutoff
        delta_grad = 3.0 * problem.eps_start() * problem.eps_ratio ** (problem.eps_stages - 1)
    c_rec, mask_z, rec_diag = recover_c(
        u_star, t.a, t.sigma0, delta_grad=delta_grad, delta_a=problem.delta_a
    )
    diagnostics["recovery"] = rec_diag
    # A gradient-masked cell has |grad u|_{sigma0} <= delta_grad, hence a
    # Euclidean gradient at most delta_grad/sqrt(m); align the label rule
    # with the mask so such components can qualify as 'perfect'.
    labels = classify_inclusions(
        u_star, t.a, mask_z, grid,
        tol_grad=rec_diag["delta_grad"] / np.sqrt(t.sigma0.m) * (1.0 + 1e-12),
        tol_a=rec_diag["delta_a"],
    )

    current = compute_current(u_star, c_rec, t.sigma0, dead=mask_z)
    diagnostics["duality_gap"] = duality_gap(u_star, t.f, current, t.a, t.sigma0)

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
