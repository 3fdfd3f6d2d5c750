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

Assembly has a fixed pattern.  A `Layout` (the grid, the contributing
cells and the perfect components) fixes the dof maps, the CSR pattern of
the reduced matrix and the multigrid prolongations once; each `assemble`
on it only refills values, by 9-point stencil arithmetic on the per-cell
tensor entries plus fixed index gathers.

Every reduced system is solved by conjugate gradients preconditioned with
a Galerkin V(1,1)-cycle: bilinear prolongation composed with the system's
own tying and dropping of unknowns, damped Jacobi smoothing weighted by
the Gershgorin bound of D^-1 A, and a dense Cholesky solve on the
coarsest level.  Its CG iteration count stays roughly flat under
refinement.  A refill may keep the coarse levels of an earlier system on
the same layout and rebuild only the fine level; CG still solves the new
matrix to its tolerance, only the preconditioner lags.  Every step has a
fixed operation order, so repeated runs are bit-identical.
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


# -- fixed-pattern assembly ----------------------------------------------------

# The ten distinct entries of the symmetric 4x4 cell matrix, as corner pairs.
_CORNER_PAIRS = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (3, 2), (0, 3), (1, 2), (0, 2), (1, 3))


def _node_couplings(grid: Grid2D, k) -> np.ndarray:
    """Node-graph values of the 9-point stencil from per-cell entries.

    `k` holds one (ny-1, nx-1) array per pair of `_CORNER_PAIRS`.  The
    result is one flat vector: every node's diagonal, then every node's
    coupling to its east, north, northeast and northwest neighbor, each
    block row-major (the order of `_coupling_ends`).
    """
    ny, nx = grid.shape
    k00, k11, k22, k33, k01, k32, k03, k12, k02, k13 = k
    center = np.zeros((ny, nx))
    center[:-1, :-1] += k00
    center[:-1, 1:] += k11
    center[1:, 1:] += k22
    center[1:, :-1] += k33
    east = np.zeros((ny, nx - 1))
    east[:-1] += k01
    east[1:] += k32
    north = np.zeros((ny - 1, nx))
    north[:, :-1] += k03
    north[:, 1:] += k12
    return np.concatenate([center.ravel(), east.ravel(), north.ravel(), k02.ravel(), k13.ravel()])


def _coupling_ends(grid: Grid2D):
    """The two end nodes of every entry of `_node_couplings`."""
    ids = np.arange(grid.n_nodes, dtype=np.int32).reshape(grid.shape)
    first = [ids, ids[:, :-1], ids[:-1, :], ids[:-1, :-1], ids[:-1, 1:]]
    second = [ids, ids[:, 1:], ids[1:, :], ids[1:, 1:], ids[1:, :-1]]
    return (np.concatenate([a.ravel() for a in first]),
            np.concatenate([a.ravel() for a in second]))


class _SummingPattern:
    """A fixed CSR pattern plus the gathers that fill it from stencil values.

    Entry i of the data is values[first[i]] plus the values[extra_src]
    whose extra_dst is i.  Terms are ordered by (entry, source), so the
    two mirror entries of a symmetric matrix add the same terms in the
    same order; only tied unknowns have extra terms.
    """

    def __init__(self, rows, cols, src, shape):
        order = np.lexsort((src, cols, rows))
        rows, cols, src = rows[order], cols[order], src[order]
        lead = np.ones(rows.size, dtype=bool)
        lead[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        self.first = src[lead].astype(np.intp)
        self.extra_dst = np.cumsum(lead)[~lead] - 1
        self.extra_src = src[~lead].astype(np.intp)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[lead], minlength=shape[0]))])
        # scipy's own index dtype, so refills construct without a copy
        template = sparse.csr_matrix((np.zeros(self.first.size), cols[lead], indptr), shape=shape)
        self.indices, self.indptr, self.shape = template.indices, template.indptr, shape

    def fill(self, values: np.ndarray):
        data = values[self.first]
        np.add.at(data, self.extra_dst, values[self.extra_src])
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


def _dof_matrix(node_dof, ndof):
    """Sparse (nodes x dofs) 0/1 matrix putting each dof's value on its nodes."""
    free = np.flatnonzero(node_dof >= 0)
    return sparse.csr_matrix(
        (np.ones(free.size), (free, node_dof[free])), shape=(node_dof.size, ndof)
    )


# -- multigrid transfers -------------------------------------------------------

# unknowns at or below which the V-cycle solves its level densely
_COARSEST = 64


def _coarse_index(n: int) -> np.ndarray:
    """Indices of the nodes one direction keeps: every second one plus the last.

    A direction of 3 or fewer nodes is not coarsened further.
    """
    if n <= 3:
        return np.arange(n)
    return np.unique(np.concatenate([np.arange(0, n, 2), [n - 1]]))


def _interpolation(n: int, kept: np.ndarray):
    """Linear interpolation (n x kept.size) from the nodes `kept` to all n nodes."""
    pos = np.arange(n)
    left = np.clip(np.searchsorted(kept, pos, side="right") - 1, 0, kept.size - 2)
    w = (pos - kept[left]) / (kept[left + 1] - kept[left])
    mat = sparse.csr_matrix(
        (np.concatenate([1.0 - w, w]), (np.tile(pos, 2), np.concatenate([left, left + 1]))),
        shape=(n, kept.size),
    )
    mat.eliminate_zeros()
    return mat


def _prolongations(shape, node_dof, ndof, keep):
    """Bilinear prolongations of the reduced unknowns, finest first.

    A coarse grid keeps every second node (plus the last) of the grid
    below it, and each coarse node inherits the unknown of the node it
    sits on, so a tied component stays tied on every level and Dirichlet
    nodes stay fixed at zero.  The prolongation interpolates bilinearly
    onto the nodes, averages over the nodes of each unknown and keeps the
    rows of the unknowns that level keeps; coarse unknowns whose column
    comes out zero (nothing below them has stiffness) are dropped.
    Returns a list of (P, P^T) pairs.
    """
    out = []
    while keep.size > _COARSEST:
        ny, nx = shape
        iy, ix = _coarse_index(ny), _coarse_index(nx)
        if iy.size == ny and ix.size == nx:
            break
        counts = np.bincount(node_dof[node_dof >= 0], minlength=ndof)
        average = sparse.diags(1.0 / counts[keep]) @ _dof_matrix(node_dof, ndof)[:, keep].T
        interp = sparse.kron(_interpolation(ny, iy), _interpolation(nx, ix), format="csr")
        below = node_dof[(iy[:, None] * nx + ix).ravel()]
        coarse_dof = np.full(below.size, -1, dtype=np.int64)
        free = below >= 0
        owners, coarse_dof[free] = np.unique(below[free], return_inverse=True)
        ndof = owners.size
        p = (average @ interp @ _dof_matrix(coarse_dof, ndof)).tocsc()
        keep = np.flatnonzero(np.diff(p.indptr) > 0)
        p = p[:, keep].tocsr()
        out.append((p, p.T.tocsr()))
        shape, node_dof = (iy.size, ix.size), coarse_dof
    return out


def _jacobi(a):
    """Damped Jacobi weights 4 / (3 g) / diag(a), g the Gershgorin bound of D^-1 a."""
    diag = a.diagonal()
    # every kept row holds its diagonal, so no row is empty
    bound = float(np.max(np.add.reduceat(np.abs(a.data), a.indptr[:-1]) / diag))
    return (4.0 / (3.0 * bound)) / diag


class Multigrid:
    """A reduced SPD matrix with its Galerkin V(1,1)-cycle preconditioner.

    `levels[0]` is the matrix and `matrix @ x` multiplies by it; each
    coarser level is P^T A P.  Smoothing is damped Jacobi with weight
    4 / (3 g), g the Gershgorin bound of D^-1 A on that level, so the
    smoother contracts in the energy norm and the symmetric cycle is an
    SPD preconditioner.  The coarsest level is solved by dense Cholesky.

    The hierarchy is every level >= 1 with its Jacobi weights and the
    coarsest factor.  It is built from `matrix`, or taken unchanged from
    `hierarchy`, an earlier `Multigrid` on the same prolongations (the
    same `Layout`).  Level 0 and its weights always come from `matrix`,
    so a reused hierarchy lags only the preconditioner: the cycle is still
    SPD, because the smoother contracts in the new energy norm and the
    coarse correction is an SPD cycle of its own.
    """

    def __init__(self, matrix, prolongations, hierarchy: Multigrid | None = None):
        if hierarchy is not None and hierarchy.prolongations is not prolongations:
            raise AssemblyError("multigrid hierarchy was built on another layout")
        self.levels = [matrix]
        self.prolongations = prolongations
        if hierarchy is not None and prolongations:
            self.levels += hierarchy.levels[1:]
            self.smoothers = [_jacobi(matrix)] + hierarchy.smoothers[1:]
            self.coarse_scale = hierarchy.coarse_scale
            self.coarse_inverse_factor = hierarchy.coarse_inverse_factor
            return
        for p, pt in prolongations:
            self.levels.append((pt @ (self.levels[-1] @ p)).tocsr())
        self.smoothers = [_jacobi(a) for a in self.levels[:-1]]
        # the coarsest solve applies 2^-e L^-T L^-1 with 2^-e A = L L^T: a
        # power-of-two scale is exact, so the cycle stays bit-for-bit
        # equivariant under doubling the coefficient
        dense = self.levels[-1].toarray()
        self.coarse_scale = np.ldexp(1.0, -int(np.frexp(dense.diagonal().max())[1]))
        try:
            factor = np.linalg.cholesky(self.coarse_scale * dense)
        except np.linalg.LinAlgError as exc:
            raise AssemblyError("coarsest multigrid operator is not positive definite") from exc
        self.coarse_inverse_factor = np.linalg.inv(factor)

    def __matmul__(self, x):
        return self.levels[0] @ x

    def vcycle(self, r: np.ndarray) -> np.ndarray:
        """One V(1,1)-cycle from a zero guess: the preconditioned residual."""
        residuals, smoothed = [r], []
        for a, jac, (_, pt) in zip(self.levels, self.smoothers, self.prolongations):
            x = jac * residuals[-1]
            smoothed.append(x)
            residuals.append(pt @ (residuals[-1] - a @ x))
        li = self.coarse_inverse_factor
        e = self.coarse_scale * (li.T @ (li @ residuals[-1]))
        for level in reversed(range(len(self.smoothers))):
            a, jac = self.levels[level], self.smoothers[level]
            x = smoothed[level] + self.prolongations[level][0] @ e
            e = x + jac * (residuals[level] - a @ x)
        return e


class Layout:
    """What a reduced system keeps across coefficient refills.

    A layout is fixed by the grid, the contributing cells and the
    perfectly conducting components.  Dirichlet nodes are eliminated by
    lifting, each perfect component is aggregated to one unknown, and
    unknowns with no stiffness (nodes fully surrounded by deleted cells)
    are dropped and later filled by neighbor averaging.  The layout holds
    those dof maps, the CSR patterns of the reduced matrix and of its
    coupling to the Dirichlet nodes with the index maps that fill them
    from 9-point stencil values, and the multigrid prolongations.
    """

    def __init__(self, grid: Grid2D, contributing: np.ndarray, perfect=()):
        n = grid.n_nodes
        self.grid = grid
        self.contributing = contributing
        self.perfect = list(perfect)

        # node -> reduced column map: -1 Dirichlet; tied components first
        node_dof = np.full(n, -1, dtype=np.int64)
        free = np.ones(n, dtype=bool)
        free[grid.boundary_ids] = False
        ndof = 0
        for m in self.perfect:
            g_nodes = np.flatnonzero(nodes_of_cells(m).ravel())
            if (~free[g_nodes]).any():
                raise AssemblyError("perfectly conducting component touches the outer boundary")
            node_dof[g_nodes] = ndof
            ndof += 1
        singles = np.flatnonzero(free & (node_dof < 0))
        node_dof[singles] = ndof + np.arange(singles.size)
        ndof += singles.size
        self.node_dof = node_dof
        self.restriction = _dof_matrix(node_dof, ndof)

        # an entry has a structural nonzero iff a contributing cell touches it
        live = _node_couplings(grid, [contributing.astype(np.float64)] * 10) > 0.0
        stiff = np.zeros(ndof, dtype=bool)
        stiff[node_dof[live[:n] & free]] = True
        self.keep = np.flatnonzero(stiff)
        if self.keep.size == 0:
            raise AssemblyError("assembled system is empty")
        self.n_unknowns = self.keep.size
        # the pattern is built in int32, which halves its transient memory
        kept = np.full(ndof, -1, dtype=np.int32)
        kept[self.keep] = np.arange(self.keep.size)
        node_kept = np.where(node_dof >= 0, kept[node_dof], -1).astype(np.int32)
        boundary = np.full(n, -1, dtype=np.int32)
        boundary[grid.boundary_ids] = np.arange(grid.boundary_ids.size)

        first, second = _coupling_ends(grid)
        e = np.flatnonzero(live).astype(np.int32)
        p, q = first[e], second[e]
        rp, rq = node_kept[p], node_kept[q]
        both = (rp >= 0) & (rq >= 0)
        mirror = both & (p != q)
        m = self.n_unknowns
        self.pattern = _SummingPattern(
            np.concatenate([rp[both], rq[mirror]]),
            np.concatenate([rq[both], rp[mirror]]),
            np.concatenate([e[both], e[mirror]]),
            (m, m),
        )
        to_q = (rp >= 0) & (boundary[q] >= 0)
        to_p = (rq >= 0) & (boundary[p] >= 0)
        self.coupling = _SummingPattern(
            np.concatenate([rp[to_q], rq[to_p]]),
            np.concatenate([boundary[q[to_q]], boundary[p[to_p]]]),
            np.concatenate([e[to_q], e[to_p]]),
            (m, grid.boundary_ids.size),
        )
        self.prolongations = _prolongations(grid.shape, node_dof, ndof, self.keep)

    def fits(self, grid: Grid2D, contributing: np.ndarray, perfect) -> bool:
        return (
            self.grid.same_layout(grid)
            and np.array_equal(self.contributing, contributing)
            and len(self.perfect) == len(perfect)
            and all(np.array_equal(a, b) for a, b in zip(self.perfect, perfect))
        )


class LinearSystem:
    """Reduced SPD system for one coefficient field on one `Layout`.

    `matrix` is a `Multigrid`: the reduced matrix with its V-cycle.
    `coupling` maps Dirichlet values to the right-hand side.  The latest
    `solve_dirichlet` on this system leaves its CG iteration count and
    relative residual in `cg_iterations` and `cg_residual`.
    """

    def __init__(self, layout: Layout, matrix: Multigrid, coupling):
        self.grid = layout.grid
        self.layout = layout
        self.matrix = matrix
        self.coupling = coupling
        self.n_unknowns = layout.n_unknowns
        self.cg_iterations = None
        self.cg_residual = None

    def rhs(self, boundary_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grid = self.grid
        lift = np.zeros(grid.n_nodes)
        lift[grid.boundary_ids] = boundary_values
        return -(self.coupling @ boundary_values), lift


def assemble(c, sigma0: TensorField2, grid: Grid2D, inclusions=None, exclude_cells=None,
             layout: Layout | None = None, hierarchy: Multigrid | None = None):
    """Assemble the stiffness system for coefficient c * sigma0.

    `c` is a cell scalar (ScalarField or array) and must be positive on
    every contributing cell; insulating and perfect inclusion cells and
    any `exclude_cells` are left out of the quadrature.  Passing the
    `layout` of an earlier system with the same grid, cells and
    inclusions skips rebuilding it: only the values are refilled.
    Passing that system's `matrix` as `hierarchy` also keeps its coarse
    multigrid levels, so only the fine level is rebuilt (see `Multigrid`);
    a hierarchy from another layout raises AssemblyError.
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
    perfect = inclusions.perfect if inclusions is not None else []
    if layout is None:
        layout = Layout(grid, contributing, perfect)
    elif not layout.fits(grid, contributing, perfect):
        raise AssemblyError("layout was built for another grid, cell set or inclusion set")

    kxx, kxy, kyy = element_templates(grid.hx, grid.hy)
    cm = np.where(contributing, c, 0.0)
    s11, s12, s22 = cm * sigma0.s11, cm * sigma0.s12, cm * sigma0.s22
    k = [s11 * kxx[a, b] + s12 * kxy[a, b] + s22 * kyy[a, b] for a, b in _CORNER_PAIRS]
    values = _node_couplings(grid, k)
    matrix = Multigrid(layout.pattern.fill(values), layout.prolongations, hierarchy)
    return LinearSystem(layout, matrix, layout.coupling.fill(values))


# -- conjugate gradients -------------------------------------------------------


def _dot(a, b):
    # pairwise np.sum keeps a fixed summation order: bit-identical reruns
    return float(np.sum(a * b))


def _pcg(matrix: Multigrid, b, tol, max_iter, x0=None):
    """CG on `matrix` preconditioned by its V-cycle.

    Stops when the relative residual |b - A x| / |b| meets tol and
    returns (x, relative residual, iterations).
    """
    x = np.zeros_like(b) if x0 is None else x0.astype(np.float64).copy()
    bnorm = np.sqrt(_dot(b, b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0, 0
    r = b - matrix @ x if x0 is not None else b.copy()
    res = np.sqrt(_dot(r, r)) / bnorm
    if res <= tol:
        return x, res, 0
    z = matrix.vcycle(r)
    p = z.copy()
    rz = _dot(r, z)
    for it in range(1, max_iter + 1):
        ap = matrix @ p
        alpha = rz / _dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        res = np.sqrt(_dot(r, r)) / bnorm
        if res <= tol:
            return x, res, it
        z = matrix.vcycle(r)
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
    layout = system.layout
    guess = None
    if x0 is not None:
        x0v = x0.values if isinstance(x0, ScalarField) else np.asarray(x0, dtype=np.float64)
        # a tied component starts from the mean of its nodes' guesses
        counts = layout.restriction.T @ np.ones(grid.n_nodes)
        guess = ((layout.restriction.T @ x0v.ravel()) / counts)[layout.keep]
    x, system.cg_residual, system.cg_iterations = _pcg(system.matrix, b, tol, max_iter, x0=guess)

    xd = np.full(layout.restriction.shape[1], np.nan)
    xd[layout.keep] = x
    u = lift
    freem = layout.node_dof >= 0
    u[freem] = xd[layout.node_dof[freem]]
    u2 = u.reshape(grid.shape)
    if not np.isfinite(u2).all():
        u2 = _fill_isolated(grid, u2)
    return ScalarField(grid, u2, location="node")


def solve_penalized(k: float, sigma1: TensorField2, sigma: TensorField2, f, grid: Grid2D,
                    inclusions: InclusionSet, tol: float = 1e-10):
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
    return solve_dirichlet(system, f, tol=tol)


def solve_inclusion_limit(sigma: TensorField2, f, grid: Grid2D, inclusions: InclusionSet,
                          tol: float = 1e-10):
    """Tied-unknown limit problem: exactly constant potential per perfect
    component, natural Neumann wall on insulating components."""
    system = assemble(1.0, sigma, grid, inclusions)
    return solve_dirichlet(system, f, tol=tol)


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
