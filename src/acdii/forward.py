"""Anisotropic conductivity forward solves on uniform quadrilateral grids.

The weak form div(c sigma0 grad u) = 0 with Dirichlet data is assembled
with bilinear elements and per-cell constant coefficients, integrated by
2x2 Gauss quadrature (exact for these integrands).  Two inclusion types
are supported:

- insulating components: their cells are simply deleted from assembly,
  which is the natural homogeneous Neumann condition on the cavity wall;
- perfectly conducting components: all nodes of a component are tied to
  one unknown, so the potential is exactly constant there and the zero
  net-flux condition holds automatically in the reduced weak form.

The penalized approximation replaces a perfect component by the finite
coefficient sigma1 / k; its minimizers converge to the tied solution as
k -> 0, with energies increasing monotonically toward the limit energy
(each smaller k enlarges the quadratic form, and the tied solution is
feasible at every k).

The linear solver is Jacobi-preconditioned conjugate gradients with a
fixed summation order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage, sparse

from .fields import (
    _CROSS,
    Grid2D,
    ScalarField,
    TensorField2,
    cell_integral,
    gradient,
    nodes_of_cells,
)


class AssemblyError(ValueError):
    """Raised for invalid coefficients, inclusions, or constraint layouts."""


class ConvergenceError(RuntimeError):
    """Raised when CG fails to reach the requested tolerance."""

    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


# -- inclusion bookkeeping ---------------------------------------------------


def disk_cells(grid: Grid2D, center, radius) -> np.ndarray:
    """Cells whose center lies inside the disk."""
    cx, cy = grid.cell_centers()
    return (cx - center[0]) ** 2 + (cy - center[1]) ** 2 < radius**2


def rect_cells(grid: Grid2D, lo, hi) -> np.ndarray:
    """Cells whose center lies inside the axis-aligned box [lo, hi]."""
    cx, cy = grid.cell_centers()
    return (cx > lo[0]) & (cx < hi[0]) & (cy > lo[1]) & (cy < hi[1])


class InclusionSet:
    """Disjoint perfectly-conducting and insulating cell components.

    Each component must be a nonempty, 4-connected, hole-free set of
    cells whose closure (its corner nodes) stays away from the
    outer boundary and from every other component; the remaining cells
    must stay 4-connected.
    """

    def __init__(self, grid: Grid2D, perfect=(), insulating=()):
        self.grid = grid
        self.perfect = [np.asarray(m, dtype=bool).copy() for m in perfect]
        self.insulating = [np.asarray(m, dtype=bool).copy() for m in insulating]
        for arr in self.perfect + self.insulating:
            if arr.shape != grid.cell_shape:
                raise AssemblyError(
                    f"inclusion mask has shape {arr.shape}, expected {grid.cell_shape}"
                )
            arr.setflags(write=False)
        self._validate()

    def _validate(self):
        grid = self.grid
        boundary = np.zeros(grid.shape, dtype=bool)
        boundary.ravel()[grid.boundary_ids] = True
        comps = [("perfect", m) for m in self.perfect] + [
            ("insulating", m) for m in self.insulating
        ]
        node_sets = []
        for kind, m in comps:
            if not m.any():
                raise AssemblyError(f"empty {kind} component")
            _, ncomp = ndimage.label(m, structure=_CROSS)
            if ncomp != 1:
                raise AssemblyError(f"{kind} component is not 4-connected")
            _, nholes = ndimage.label(~m, structure=_CROSS)
            if nholes != 1:
                raise AssemblyError(f"{kind} component is not simply connected")
            nodes = nodes_of_cells(m)
            if (nodes & boundary).any():
                raise AssemblyError(f"{kind} component closure touches the outer boundary")
            node_sets.append(nodes)
        for i in range(len(node_sets)):
            for j in range(i + 1, len(node_sets)):
                if (node_sets[i] & node_sets[j]).any():
                    raise AssemblyError("inclusion closures overlap")
        rest = ~self.union_mask()
        if not rest.any():
            raise AssemblyError("inclusions cover the whole domain")
        _, ncomp = ndimage.label(rest, structure=_CROSS)
        if ncomp != 1:
            raise AssemblyError("inclusions disconnect the background cells")

    def perfect_mask(self) -> np.ndarray:
        out = np.zeros(self.grid.cell_shape, dtype=bool)
        for m in self.perfect:
            out |= m
        return out

    def insulating_mask(self) -> np.ndarray:
        out = np.zeros(self.grid.cell_shape, dtype=bool)
        for m in self.insulating:
            out |= m
        return out

    def union_mask(self) -> np.ndarray:
        return self.perfect_mask() | self.insulating_mask()

    def labels(self) -> np.ndarray:
        """Cell label plane: 0 background, 1..N perfect, 255+j insulating."""
        out = np.zeros(self.grid.cell_shape)
        for idx, m in enumerate(self.perfect):
            out[m] = idx + 1
        for idx, m in enumerate(self.insulating):
            out[m] = 255 + idx
        return out

    @classmethod
    def from_labels(cls, grid: Grid2D, labels) -> "InclusionSet":
        labels = np.asarray(labels)
        perfect = [labels == v for v in sorted(set(labels[(labels >= 1) & (labels < 255)]))]
        insulating = [labels == v for v in sorted(set(labels[labels >= 255]))]
        return cls(grid, perfect=perfect, insulating=insulating)


# -- element matrices --------------------------------------------------------

# corner order per cell: (j,i), (j,i+1), (j+1,i+1), (j+1,i)
_CX = np.array([-1.0, 1.0, 1.0, -1.0])
_CE = np.array([-1.0, -1.0, 1.0, 1.0])


def element_templates(hx: float, hy: float):
    """The 4x4 blocks Kxx, Kxy, Kyy with K = s11 Kxx + s12 Kxy + s22 Kyy.

    2x2 Gauss quadrature of grad(N_a) . S grad(N_b) over one hx-by-hy
    cell with constant S; exact since the integrand is biquadratic.
    """
    g = 1.0 / np.sqrt(3.0)
    pts = [(-g, -g), (g, -g), (g, g), (-g, g)]
    gx = np.empty((4, 4))
    gy = np.empty((4, 4))
    for k, (xi, eta) in enumerate(pts):
        gx[k] = 0.25 * _CX * (1.0 + _CE * eta) * (2.0 / hx)
        gy[k] = 0.25 * _CE * (1.0 + _CX * xi) * (2.0 / hy)
    scale = hx * hy / 4.0
    kxx = scale * (gx.T @ gx)
    kyy = scale * (gy.T @ gy)
    m = scale * (gx.T @ gy)
    kxy = m + m.T
    return kxx, kxy, kyy


# -- assembled reduced system -----------------------------------------------


class LinearSystem:
    """Reduced SPD system for one coefficient layout.

    Dirichlet nodes are eliminated by lifting, perfectly conducting
    components are aggregated to a single column each, and unknowns with
    no stiffness (nodes fully surrounded by deleted cells) are dropped
    and later filled by neighbor averaging.
    """

    def __init__(self, grid, a_full, restriction, node_dof, keep, matrix, contributing):
        self.grid = grid
        self.a_full = a_full
        self.restriction = restriction
        self.node_dof = node_dof
        self.keep = keep
        self.matrix = matrix
        self.contributing = contributing
        self.n_unknowns = matrix.shape[0]

    def rhs(self, boundary_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grid = self.grid
        lift = np.zeros(grid.n_nodes)
        lift[grid.boundary_ids] = boundary_values
        b = self.restriction.T @ (-(self.a_full @ lift))
        if self.keep is not None:
            b = b[self.keep]
        return b, lift


def assemble(c, sigma0: TensorField2, grid: Grid2D, inclusions=None, exclude_cells=None):
    """Assemble the stiffness system for coefficient c * sigma0.

    `c` is a cell scalar (ScalarField or array) and must be positive on
    every contributing cell; insulating and perfect inclusion cells and
    any `exclude_cells` are left out of the quadrature.
    """
    if isinstance(c, ScalarField):
        if c.location != "cell":
            raise AssemblyError("conductivity factor must be cell-located")
        c = c.values
    c = np.asarray(c, dtype=np.float64)
    if c.shape == ():
        c = np.full(grid.cell_shape, float(c))
    if c.shape != grid.cell_shape:
        raise AssemblyError(f"conductivity factor has shape {c.shape}, expected {grid.cell_shape}")
    if not sigma0.grid.same_layout(grid):
        raise AssemblyError("sigma0 grid does not match")

    contributing = np.ones(grid.cell_shape, dtype=bool)
    if inclusions is not None:
        contributing &= ~inclusions.union_mask()
    if exclude_cells is not None:
        contributing &= ~np.asarray(exclude_cells, dtype=bool)
    if not contributing.any():
        raise AssemblyError("no contributing cells")
    bad = contributing & ~(c > 0.0)
    if bad.any():
        raise AssemblyError(
            f"conductivity must be positive outside inclusions; {int(bad.sum())} violating cell(s)"
        )

    kxx, kxy, kyy = element_templates(grid.hx, grid.hy)
    jj, ii = np.nonzero(contributing)
    s11 = (c * sigma0.s11)[jj, ii]
    s12 = (c * sigma0.s12)[jj, ii]
    s22 = (c * sigma0.s22)[jj, ii]
    kcell = (
        s11[:, None, None] * kxx[None]
        + s12[:, None, None] * kxy[None]
        + s22[:, None, None] * kyy[None]
    )
    n0 = jj * grid.nx + ii
    nodes = np.stack([n0, n0 + 1, n0 + grid.nx + 1, n0 + grid.nx], axis=1)
    rows = np.repeat(nodes, 4, axis=1).ravel()
    cols = np.tile(nodes, (1, 4)).ravel()
    n = grid.n_nodes
    a_full = sparse.coo_matrix((kcell.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    # node -> reduced column map: -1 Dirichlet
    node_dof = np.zeros(n, dtype=np.int64)
    node_dof[grid.boundary_ids] = -1
    free = node_dof == 0

    tied = np.zeros(n, dtype=bool)
    groups = []
    if inclusions is not None:
        for m in inclusions.perfect:
            g_nodes = np.flatnonzero(nodes_of_cells(m).ravel())
            if np.intersect1d(g_nodes, grid.boundary_ids).size:
                raise AssemblyError("perfectly conducting component touches the outer boundary")
            groups.append(g_nodes)
            tied[g_nodes] = True

    ndof = 0
    dof = np.full(n, -9, dtype=np.int64)
    for g_nodes in groups:
        dof[g_nodes] = ndof
        ndof += 1
    singles = np.flatnonzero(free & ~tied)
    dof[singles] = ndof + np.arange(singles.size)
    ndof += singles.size
    node_dof[free] = dof[free]

    which = np.flatnonzero(free)
    restriction = sparse.coo_matrix(
        (np.ones(which.size), (which, node_dof[which])), shape=(n, ndof)
    ).tocsr()
    reduced = (restriction.T @ a_full @ restriction).tocsr()

    keep = None
    diag = reduced.diagonal()
    if np.any(diag <= 0.0):
        keep = np.flatnonzero(diag > 0.0)
        if keep.size == 0:
            raise AssemblyError("assembled system is empty")
        reduced = reduced[keep][:, keep].tocsr()

    return LinearSystem(grid, a_full, restriction, node_dof, keep, reduced, contributing)


# -- conjugate gradients -------------------------------------------------------


def _dot(a, b):
    # pairwise np.sum keeps a fixed summation order: bit-identical reruns
    return float(np.sum(a * b))


def _pcg(matrix, b, tol, max_iter, x0=None):
    diag = matrix.diagonal()
    x = np.zeros_like(b) if x0 is None else x0.astype(np.float64).copy()
    bnorm = np.sqrt(_dot(b, b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0, 0
    r = b - matrix @ x if x0 is not None else b.copy()
    z = r / diag
    p = z.copy()
    rz = _dot(r, z)
    res = np.sqrt(_dot(r, r)) / bnorm
    if res <= tol:
        return x, res, 0
    for it in range(1, max_iter + 1):
        ap = matrix @ p
        alpha = rz / _dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        res = np.sqrt(_dot(r, r)) / bnorm
        if res <= tol:
            return x, res, it
        z = r / diag
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(
        f"CG did not reach tol={tol} within {max_iter} iterations (residual {res:.3e})",
        residual=res,
        iterations=max_iter,
    )


def _boundary_values(grid: Grid2D, f) -> np.ndarray:
    if isinstance(f, ScalarField):
        f = f.values
    f = np.asarray(f, dtype=np.float64)
    if f.shape == grid.shape:
        vals = f.ravel()[grid.boundary_ids]
    elif f.shape == (grid.boundary_ids.size,):
        vals = f
    else:
        raise AssemblyError(
            f"Dirichlet data has shape {f.shape}; expected full node shape {grid.shape} "
            f"or one value per boundary node ({grid.boundary_ids.size},)"
        )
    if not np.isfinite(vals).all():
        raise AssemblyError("Dirichlet data must be finite on the boundary")
    return vals


def _shift_sum(values, valid):
    """Sum and count of finite 4-neighbors, for NaN fill."""
    s = np.zeros_like(values)
    cnt = np.zeros(values.shape)
    vv = np.where(valid, values, 0.0)
    s[1:, :] += vv[:-1, :]
    cnt[1:, :] += valid[:-1, :]
    s[:-1, :] += vv[1:, :]
    cnt[:-1, :] += valid[1:, :]
    s[:, 1:] += vv[:, :-1]
    cnt[:, 1:] += valid[:, :-1]
    s[:, :-1] += vv[:, 1:]
    cnt[:, :-1] += valid[:, 1:]
    return s, cnt


def _fill_isolated(grid: Grid2D, values: np.ndarray) -> np.ndarray:
    """Replace NaNs by iterated neighbor means (deterministic)."""
    out = values.copy()
    for _ in range(grid.nx + grid.ny):
        need = ~np.isfinite(out)
        if not need.any():
            return out
        have = np.isfinite(out)
        s, cnt = _shift_sum(out, have)
        ok = need & (cnt > 0)
        out[ok] = s[ok] / cnt[ok]
    raise AssemblyError("could not fill isolated nodes from neighbors")


def solve_dirichlet(system: LinearSystem, f, tol: float = 1e-10, max_iter=None, x0=None):
    """Solve the reduced system for Dirichlet data f.

    f supplies one value per boundary node (a full node field is also
    accepted; only its boundary entries are read).  Returns a node
    ScalarField carrying exactly f on boundary_ids; nodes cut off from
    all stiffness (interiors of insulating regions) get the deterministic
    neighbor-mean fill.
    """
    grid = system.grid
    vals = _boundary_values(grid, f)
    b, lift = system.rhs(vals)
    if max_iter is None:
        max_iter = max(10 * system.n_unknowns, 50)
    guess = None
    if x0 is not None:
        x0v = x0.values if isinstance(x0, ScalarField) else np.asarray(x0, dtype=np.float64)
        # a tied component starts from the mean of its nodes' guesses
        counts = system.restriction.T @ np.ones(grid.n_nodes)
        guess = (system.restriction.T @ x0v.ravel()) / counts
        if system.keep is not None:
            guess = guess[system.keep]
    x, _, _ = _pcg(system.matrix, b, tol, max_iter, x0=guess)

    xd = np.full(system.restriction.shape[1], np.nan)
    if system.keep is None:
        xd[:] = x
    else:
        xd[system.keep] = x
    u = lift
    freem = system.node_dof >= 0
    u[freem] = xd[system.node_dof[freem]]
    u2 = u.reshape(grid.shape)
    if not np.isfinite(u2).all():
        u2 = _fill_isolated(grid, u2)
    return ScalarField(grid, u2, location="node")


def solve_penalized(k: float, sigma1: TensorField2, sigma: TensorField2, f, grid: Grid2D,
                    inclusions: InclusionSet, tol: float = 1e-10, max_iter=None):
    """Penalized approximation: coefficient sigma1/k on perfect components.

    Insulating components stay deleted.  k in (0, 1]; k = 1 with
    sigma1 = sigma reproduces the plain solve.
    """
    if not (0.0 < k <= 1.0):
        raise AssemblyError(f"penalization parameter k must be in (0, 1], got {k}")
    perf = inclusions.perfect_mask()
    s11 = np.where(perf, sigma1.s11 / k, sigma.s11)
    s12 = np.where(perf, sigma1.s12 / k, sigma.s12)
    s22 = np.where(perf, sigma1.s22 / k, sigma.s22)
    composite = TensorField2(grid, s11, s12, s22)
    relaxed = InclusionSet(grid, perfect=(), insulating=inclusions.insulating)
    system = assemble(1.0, composite, grid, relaxed)
    return solve_dirichlet(system, f, tol=tol, max_iter=max_iter)


def solve_inclusion_limit(sigma: TensorField2, f, grid: Grid2D, inclusions: InclusionSet,
                          tol: float = 1e-10, max_iter=None):
    """Tied-unknown limit problem: exactly constant potential per perfect
    component, natural Neumann wall on insulating components."""
    system = assemble(1.0, sigma, grid, inclusions)
    return solve_dirichlet(system, f, tol=tol, max_iter=max_iter)


def energy(u: ScalarField, sigma: TensorField2, inclusions=None, k=None, sigma1=None) -> float:
    """Midpoint-quadrature Dirichlet energy.

    Without k: (1/2) integral of |grad u|^2_sigma over the cells outside
    all inclusions.  With k: adds (1/2k) integral of
    |grad u|^2_sigma1 over the perfect components (the penalized energy).
    """
    grid = u.grid
    gr = gradient(u)
    outside = None if inclusions is None else ~inclusions.union_mask()
    w1, w2 = sigma.apply(gr.v1, gr.v2)
    q = w1 * gr.v1 + w2 * gr.v2
    total = 0.5 * cell_integral(grid, q, outside)
    if k is not None:
        if inclusions is None or sigma1 is None:
            raise AssemblyError("penalized energy needs inclusions and sigma1")
        perf = inclusions.perfect_mask()
        p1, p2 = sigma1.apply(gr.v1, gr.v2)
        qp = p1 * gr.v1 + p2 * gr.v2
        total += 0.5 / k * cell_integral(grid, qp, perf)
    return total
