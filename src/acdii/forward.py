"""Anisotropic conductivity forward solves on uniform quadrilateral grids.

The weak form div(c sigma0 grad u) = 0 with Dirichlet data is assembled
with bilinear elements and per-cell constant coefficients.  A cell's
element matrix is M_K^T M_K, M_K its three rows of `fields.cell_operator`
(the sigma0^(1/2)-weighted midpoint gradient and the hourglass row): the
2x2 Gauss quadrature of the element integrals, which is exact for them.
Two inclusion types are supported:

- insulating components: their cells are simply deleted from assembly,
  which is the natural homogeneous Neumann condition on the cavity wall;
- perfectly conducting components: all nodes of a component are tied to
  one unknown, so the potential is exactly constant there and the zero
  net-flux condition holds automatically in the reduced weak form.

Every conductivity is the factor c on sigma0, the known class.  The
penalized approximation gives a perfect component the factor 1 / k; its
minimizers converge to the tied solution as k -> 0, with energies
increasing monotonically toward the limit energy (each smaller k enlarges
the quadratic form, and the tied solution is feasible at every k).

Assembly has a fixed pattern.  A `Layout(sigma0, inclusions,
exclude_cells)` (the grid of sigma0, the contributing cells and the
perfect components) fixes once the dof maps, the CSR patterns of the
reduced matrix and of its Dirichlet coupling, the multigrid
prolongations, and the stiffness map: a sparse matrix from the cell
factor c to the stored values of both patterns.  Only c changes between
refills, so every `assemble(c, layout)` is one sparse product of the map
with c.  The map and both patterns come from one list of (entry, cell,
weight) terms, one per corner pair and orientation of every contributing
cell, ordered by one stable sort of the entry keys.  Each entry therefore
sums its terms in the order they were written, and an off-diagonal pair
writes its two mirror entries' terms side by side with one weight, so
mirror entries add the same terms in the same order and the matrix is
exactly symmetric.

Every reduced system is solved by conjugate gradients preconditioned with
a Galerkin V(1,1)-cycle: bilinear prolongation composed with the system's
own tying and dropping of unknowns, damped Jacobi smoothing weighted by
the Gershgorin bound of D^-1 A, and a dense Cholesky solve on the
coarsest level.  Its CG iteration count stays roughly flat under
refinement.  Every assembly builds its own hierarchy.  `cg_correction`
runs a fixed number of the same CG iterations, with no tolerance, as the
approximate inverse of a defect correction.  Every step has a fixed
operation order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .fields import (
    Grid2D,
    ScalarField,
    TensorField2,
    cell_operator,
    label_cells,
    nodes_of_cells,
    tv_density,
)


class AssemblyError(ValueError):
    """Raised for invalid coefficients, inclusions, or constraint layouts.

    `components`: the `InclusionSet` positions (perfect first, then
    insulating) a rule fails on; one for a rule on one component, the
    earlier and later owner of a shared closure node, none otherwise.
    """

    def __init__(self, message, components=()):
        super().__init__(message)
        self.components = tuple(components)


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


# the label plane numbers perfect components 1..254 and insulating ones from 255
_INSULATING_LABEL = 255


class InclusionSet:
    """Disjoint perfectly-conducting and insulating cell components.

    Each component must be a nonempty, 4-connected, hole-free set of
    cells whose closure (its corner nodes) stays away from the
    outer boundary and from every other component; the remaining cells
    must stay 4-connected.  At most 254 components may be perfect, the
    labels the plane of `labels` has for them.  A rule that fails raises
    AssemblyError naming its `components`.  The masks read the label
    plane, which the checks build once.
    """

    def __init__(self, grid: Grid2D, perfect=(), insulating=()):
        self.grid = grid
        self.perfect = [np.asarray(m, dtype=bool).copy() for m in perfect]
        self.insulating = [np.asarray(m, dtype=bool).copy() for m in insulating]
        for pos, arr in enumerate(self.perfect + self.insulating):
            if arr.shape != grid.cell_shape:
                raise AssemblyError(
                    f"inclusion mask has shape {arr.shape}, expected {grid.cell_shape}", (pos,)
                )
            arr.setflags(write=False)
        if len(self.perfect) >= _INSULATING_LABEL:
            raise AssemblyError(
                f"{len(self.perfect)} perfect components; the label plane holds at most "
                f"{_INSULATING_LABEL - 1}"
            )
        boundary = np.zeros(grid.shape, dtype=bool)
        boundary.ravel()[grid.boundary_ids] = True
        labels = np.zeros(grid.cell_shape)
        # the position of the component whose closure holds each node, -1 for none
        owner = np.full(grid.shape, -1)
        comps = [("perfect", m, 1 + j) for j, m in enumerate(self.perfect)]
        comps += [("insulating", m, _INSULATING_LABEL + j) for j, m in enumerate(self.insulating)]
        for pos, (kind, m, label) in enumerate(comps):
            nodes = nodes_of_cells(m)
            fault = ("is empty" if not m.any()
                     else "is not 4-connected" if label_cells(m)[1] != 1
                     else "is not simply connected" if label_cells(~m)[1] != 1
                     else "closure touches the outer boundary" if (nodes & boundary).any()
                     else None)
            if fault is not None:
                raise AssemblyError(f"{kind} component {fault}", (pos,))
            earlier = int(owner[nodes].max())
            if earlier >= 0:
                raise AssemblyError("inclusion closures share a node", (earlier, pos))
            owner[nodes] = pos
            labels[m] = label
        rest = labels == 0
        if not rest.any():
            raise AssemblyError("inclusions cover the whole domain")
        _, ncomp = label_cells(rest)
        if ncomp != 1:
            raise AssemblyError("inclusions disconnect the background cells")
        self._labels = labels

    def perfect_mask(self) -> np.ndarray:
        return (self._labels > 0) & (self._labels < _INSULATING_LABEL)

    def insulating_mask(self) -> np.ndarray:
        return self._labels >= _INSULATING_LABEL

    def union_mask(self) -> np.ndarray:
        return self._labels > 0

    def labels(self) -> np.ndarray:
        """A copy of the cell label plane: 0 background, 1..254 perfect, 255+j insulating."""
        return self._labels.copy()

    @classmethod
    def from_labels(cls, grid: Grid2D, labels) -> "InclusionSet":
        labels = np.asarray(labels)
        perfect = [labels == v
                   for v in sorted(set(labels[(labels >= 1) & (labels < _INSULATING_LABEL)]))]
        insulating = [labels == v for v in sorted(set(labels[labels >= _INSULATING_LABEL]))]
        return cls(grid, perfect=perfect, insulating=insulating)


# -- the stiffness map -----------------------------------------------------------

# (row, column) step of each corner's node from the cell's (j, i) node, in
# the sw, se, nw, ne order of a cell's nonzeros in `cell_operator`
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))
# The ten distinct entries of the symmetric 4x4 cell matrix, as corner pairs.
_CORNER_PAIRS = ((0, 0), (1, 1), (3, 3), (2, 2), (0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))


def _pattern(keys, n_rows, n_cols):
    """(indices, indptr) in int32 of the CSR pattern whose sorted keys are row * n_cols + col."""
    indptr = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols).astype(np.int32)
    return (keys % n_cols).astype(np.int32), indptr


def _stiffness(grid: Grid2D, sigma0: TensorField2, contributing, node_kept, boundary):
    """The CSR patterns of the reduced matrix and of its Dirichlet coupling,
    the positions of the matrix diagonal and the stiffness map.

    `node_kept` maps a node to its reduced unknown (-1 if it has none)
    and `boundary` to its Dirichlet index (-1 if it is not on the rim).
    Every contributing cell K writes one term (entry key, cell, weight)
    per corner pair (p, q) and orientation, weighted by its element
    stiffness sum_r M_rp M_rq, M the cell's three rows of `cell_operator`
    with weight |K|^(1/2).  With m unknowns and nb Dirichlet nodes the
    key of a matrix entry is row * m + column, that of a coupling entry
    m^2 + row * nb + Dirichlet index, and that of a term whose row node
    has no unknown -1.  An off-diagonal pair writes both orientations
    side by side with one weight.  One stable sort of the keys groups the
    terms by entry, in the order they were written, so mirror entries add
    the same terms in the same order.  Returns
    ((indices, indptr) of the matrix, (indices, indptr) of the coupling,
    the diagonal positions, the map).
    """
    m, nb = int(node_kept.max()) + 1, grid.boundary_ids.size
    cells = np.flatnonzero(contributing).astype(np.int32)
    base = cells + cells // np.int32(grid.nx - 1)  # node (j, i) of cell (j, i)
    corner = [base + np.int32(dy * grid.nx + dx) for dy, dx in _CORNERS]
    unknown = [node_kept[p].astype(np.int64) for p in corner]
    # the 3x4 block of M of every contributing cell, by corner, row and cell
    block = cell_operator(grid, sigma0, np.sqrt(grid.cell_area)).data.reshape(3, -1, 4)
    block = np.ascontiguousarray(block[:, cells].transpose(2, 0, 1))
    keys = np.empty(16 * cells.size, dtype=np.int64)
    terms = np.empty(keys.size, dtype=np.int32)
    weights = np.empty(keys.size)
    start = 0
    for a, b in _CORNER_PAIRS:
        ends = ((a, b),) if a == b else ((a, b), (b, a))
        stop = start + len(ends) * cells.size
        for k, (r, q) in enumerate(ends):
            row, col = unknown[r], unknown[q]
            key = np.where(col >= 0, row * m + col, m * m + row * nb + boundary[corner[q]])
            key[row < 0] = -1
            keys[start + k:stop:len(ends)] = key
        terms[start:stop] = np.repeat(cells, len(ends))
        p, q = block[a], block[b]
        weights[start:stop] = np.repeat(p[0] * q[0] + p[1] * q[1] + p[2] * q[2], len(ends))
        start = stop
    # freeing each array once used keeps the build's peak below twice what the layout keeps
    del unknown, corner, block, p, q
    order = np.argsort(keys, kind="stable")
    keys.sort()
    first = int(np.searchsorted(keys, 0))  # the dead terms sort first
    head = np.concatenate(([True], keys[first + 1:] != keys[first:-1]))
    entries = keys[first:][head]
    del keys
    indptr = np.empty(entries.size + 1, dtype=np.int32)
    indptr[:-1], indptr[-1] = np.flatnonzero(head), head.size
    nnz = int(np.searchsorted(entries, m * m))
    diagonal = np.searchsorted(entries[:nnz], np.arange(m) * (m + 1)).astype(np.int32)
    patterns = _pattern(entries[:nnz], m, m), _pattern(entries[nnz:] - m * m, m, nb)
    shape = (entries.size, contributing.size)
    del entries
    order = order[first:]
    data = weights[order]
    del weights
    stiffness = sparse.csr_matrix((data, terms[order], indptr), shape=shape)
    return patterns + (diagonal, stiffness)


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
    """Linear interpolation from the nodes `kept` to all n nodes.

    Returns (index, weight), both 2 x n: node i takes weight[k, i] of the
    kept node index[k, i] (a position in `kept`), k = 0, 1.
    """
    pos = np.arange(n)
    left = np.clip(np.searchsorted(kept, pos, side="right") - 1, 0, kept.size - 2)
    w = (pos - kept[left]) / (kept[left + 1] - kept[left])
    return np.stack([left, left + 1]), np.stack([1.0 - w, w])


def _prolongations(shape, node_dof, ndof, keep):
    """Bilinear prolongations of the reduced unknowns, finest first.

    A coarse grid keeps every second node (plus the last) of the grid
    below it, and each coarse node inherits the unknown of the node it
    sits on, so a tied component stays tied on every level and Dirichlet
    nodes stay fixed at zero.  The prolongation interpolates bilinearly
    onto the nodes, averages over the nodes of each unknown and keeps the
    rows of the unknowns that level keeps; coarse unknowns whose column
    comes out zero (nothing below them has stiffness) are dropped.

    Each level is index arithmetic on the 1-D weights: every fine node
    writes its four (row, column, wy wx) terms, the terms are sorted by
    entry, the terms of one entry (a tied unknown's nodes) are summed and
    scaled by 1 / (nodes of the row's unknown).  Returns a list of
    (P, P^T) pairs.
    """
    out = []
    while keep.size > _COARSEST:
        ny, nx = shape
        iy, ix = _coarse_index(ny), _coarse_index(nx)
        if iy.size == ny and ix.size == nx:
            break
        below = node_dof[(iy[:, None] * nx + ix).ravel()]
        coarse_dof = np.full(below.size, -1, dtype=np.int64)
        free = below >= 0
        owners, coarse_dof[free] = np.unique(below[free], return_inverse=True)
        ncoarse = owners.size

        # the (2, 2, ny, nx) terms: corner (k, l) of every fine node's
        # coarse cell, its coarse unknown and weight wy wx; a term counts
        # when the node's unknown is a kept row and the corner a free unknown
        row_of = np.full(ndof, -1, dtype=np.int64)
        row_of[keep] = np.arange(keep.size)
        node_row = np.where(node_dof >= 0, row_of[node_dof], -1).reshape(ny, nx)
        (jy, wy), (jx, wx) = _interpolation(ny, iy), _interpolation(nx, ix)
        cols = coarse_dof[jy[:, None, :, None] * ix.size + jx[None, :, None, :]]
        weights = wy[:, None, :, None] * wx[None, :, None, :]
        term = (node_row >= 0) & (cols >= 0) & (weights != 0.0)
        keys = (node_row * ncoarse + cols)[term]
        weights = weights[term]
        # one entry per distinct key, its terms summed in written order
        order = np.argsort(keys, kind="stable")
        keys, weights = keys[order], weights[order]
        first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        rows, cols = np.divmod(keys[first], ncoarse)
        counts = np.bincount(node_dof[node_dof >= 0], minlength=ndof)
        data = np.add.reduceat(weights, first) * (1.0 / counts[keep])[rows]

        used = np.zeros(ncoarse, dtype=bool)
        used[cols] = True
        column = np.cumsum(used, dtype=np.int32) - 1
        indptr = np.zeros(keep.size + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=keep.size), out=indptr[1:])
        keep = np.flatnonzero(used)
        p = sparse.csr_matrix((data, column[cols], indptr), shape=(indptr.size - 1, keep.size))
        out.append((p, p.T.tocsr()))
        shape, node_dof, ndof = (iy.size, ix.size), coarse_dof, ncoarse
    return out


def _jacobi(a, diag):
    """Damped Jacobi weights 4 / (3 g) / diag, g the Gershgorin bound of D^-1 a."""
    magnitudes = sparse.csr_matrix((np.abs(a.data), a.indices, a.indptr), shape=a.shape)
    bound = float(np.max((magnitudes @ np.ones(a.shape[1])) / diag))
    return (4.0 / (3.0 * bound)) / diag


class Multigrid:
    """A reduced SPD matrix with its Galerkin V(1,1)-cycle preconditioner.

    `levels[0]` is the matrix and `matrix @ x` multiplies by it; each
    coarser level is P^T A P.  Smoothing is damped Jacobi with weight
    4 / (3 g), g the Gershgorin bound of D^-1 A on that level, so the
    smoother contracts in the energy norm and the symmetric cycle is an
    SPD preconditioner.  The coarsest level is solved by dense Cholesky.

    `matrix` has the pattern of `layout` (see `Layout`), whose
    prolongations the cycle uses; its diagonal is read at the layout's
    fixed positions.
    """

    def __init__(self, matrix, layout: Layout):
        self.levels = [matrix]
        self.prolongations = layout.prolongations
        fine = matrix.data[layout.diagonal]
        for p, pt in self.prolongations:
            self.levels.append((pt @ (self.levels[-1] @ p)).tocsr())
        diagonals = [fine] + [a.diagonal() for a in self.levels[1:-1]]
        self.smoothers = [_jacobi(a, d) for a, d in zip(self.levels[:-1], diagonals)]
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
    """What a reduced system keeps across refills of the cell factor c.

    `Layout(sigma0, inclusions, exclude_cells)` is the one description of
    a problem's structure: the grid is sigma0's, and the contributing
    cells are all cells but the inclusions' and `exclude_cells`.
    Dirichlet nodes are eliminated by lifting, each perfect component is
    aggregated to one unknown, and unknowns with no stiffness (nodes fully
    surrounded by deleted cells) are dropped and later filled by neighbor
    averaging.  The layout holds those dof maps with the node count of
    each dof, the int32 CSR patterns of the reduced matrix (`indices`,
    `indptr`, with the positions of its diagonal in `diagonal`) and of its
    coupling to the Dirichlet nodes, and the multigrid prolongations.

    `stiffness` maps c to the values of both patterns: a CSR matrix with
    one row per stored entry (the matrix's, then the coupling's) and one
    column per cell, holding each contributing cell's element stiffness
    for sigma0 (sum_r M_rp M_rq over its `cell_operator` rows) for that
    entry's corner pairs.  Every assembly on the layout is the one product
    `stiffness @ c`.  Its rows are one term list sorted stably by entry
    (see `_stiffness`), so mirror entries add the same terms in the same
    order and the matrix is exactly symmetric.
    """

    def __init__(self, sigma0: TensorField2, inclusions: InclusionSet | None = None,
                 exclude_cells=None):
        self.grid = grid = sigma0.grid
        n = grid.n_nodes
        contributing = np.ones(grid.cell_shape, dtype=bool)
        if inclusions is not None:
            contributing &= ~inclusions.union_mask()
        if exclude_cells is not None:
            contributing &= ~np.asarray(exclude_cells, dtype=bool)
        if not contributing.any():
            raise AssemblyError("no contributing cells")
        self.contributing = contributing
        self.perfect = inclusions.perfect if inclusions is not None else []

        # node -> reduced column map: -1 Dirichlet; tied components first, whose
        # closures `InclusionSet` keeps off the rim
        node_dof = np.full(n, -1, dtype=np.int64)
        free = np.ones(n, dtype=bool)
        free[grid.boundary_ids] = False
        ndof = 0
        for m in self.perfect:
            node_dof[nodes_of_cells(m).ravel()] = ndof
            ndof += 1
        singles = np.flatnonzero(free & (node_dof < 0))
        node_dof[singles] = ndof + np.arange(singles.size)
        ndof += singles.size
        self.node_dof = node_dof
        self.free_nodes = np.flatnonzero(free)
        # nodes per dof: a tied component's warm start is the mean of its nodes
        self.tie_counts = np.bincount(node_dof[self.free_nodes], minlength=ndof)

        # an unknown has stiffness iff a contributing cell touches one of its nodes
        stiff = np.zeros(ndof, dtype=bool)
        stiff[node_dof[nodes_of_cells(contributing).ravel() & free]] = True
        self.keep = np.flatnonzero(stiff)
        if self.keep.size == 0:
            raise AssemblyError("assembled system is empty")
        self.n_unknowns = m = self.keep.size
        kept = np.full(ndof, -1, dtype=np.int32)
        kept[self.keep] = np.arange(m)
        self.node_kept = node_kept = np.where(node_dof >= 0, kept[node_dof], -1).astype(np.int32)
        boundary = np.full(n, -1, dtype=np.int32)
        boundary[grid.boundary_ids] = np.arange(grid.boundary_ids.size)

        matrix, coupling, self.diagonal, self.stiffness = _stiffness(
            grid, sigma0, contributing, node_kept, boundary)
        self.indices, self.indptr = matrix
        self.coupling_indices, self.coupling_indptr = coupling
        self.prolongations = _prolongations(grid.shape, node_dof, ndof, self.keep)


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


def assemble(c, layout: Layout, grid: Grid2D | None = None):
    """Fill `layout` with the coefficient c * sigma0: the one product of its
    stiffness map with c, and the V-cycle built on it (see `Multigrid`).

    `c` is a cell array or a number and must be positive on every
    contributing cell of the layout.  `assemble(c, sigma0, grid)`, the
    problem without inclusions, is the call form that
    `perfbench/test_perfbench.py` uses; `grid` is read only there.
    """
    if isinstance(layout, TensorField2):
        if not (isinstance(grid, Grid2D) and grid.same_layout(layout.grid)):
            raise AssemblyError("assemble(c, sigma0, grid) needs sigma0's grid")
        layout = Layout(layout)
    grid = layout.grid
    c = np.asarray(c, dtype=np.float64)
    if c.shape == ():
        c = np.full(grid.cell_shape, float(c))
    if c.shape != grid.cell_shape:
        raise AssemblyError(f"conductivity factor has shape {c.shape}, expected {grid.cell_shape}")
    bad = layout.contributing & ~(c > 0.0)
    if bad.any():
        raise AssemblyError(
            f"conductivity must be positive outside inclusions; {int(bad.sum())} violating cell(s)"
        )

    data = layout.stiffness @ c.ravel()
    m, nnz = layout.n_unknowns, layout.indices.size
    fine = sparse.csr_matrix((data[:nnz], layout.indices, layout.indptr), shape=(m, m))
    coupling = sparse.csr_matrix((data[nnz:], layout.coupling_indices, layout.coupling_indptr),
                                 shape=(m, grid.boundary_ids.size))
    return LinearSystem(layout, Multigrid(fine, layout), coupling)


# -- conjugate gradients -------------------------------------------------------

# the relative residual every solve meets unless it asks for another
CG_TOL = 1e-10


def _dot(a, b):
    # pairwise np.sum keeps a fixed summation order: bit-identical reruns
    return float(np.sum(a * b))


def _cg_steps(matrix: Multigrid, x, r):
    """CG iterations on `matrix` preconditioned by its V-cycle, from x with
    residual r = b - A x.

    A generator: each iteration, one V-cycle and one product with the
    matrix, updates x and r in place and yields.  It ends where p^T A p
    is 0, which leaves no step to take: the residual has underflowed.
    """
    rz = None
    while True:
        z = matrix.vcycle(r)
        rz_new = _dot(r, z)
        p = z if rz is None else z + (rz_new / rz) * p
        rz = rz_new
        ap = matrix @ p
        curvature = _dot(p, ap)
        if curvature == 0.0:
            return
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * ap
        yield


def _pcg(matrix: Multigrid, b, tol, max_iter, x0=None):
    """CG on `matrix` preconditioned by its V-cycle.

    Stops when the relative residual |b - A x| / |b| meets tol and
    returns (x, relative residual, iterations).  A right-hand side whose
    norm is not finite, or a residual that is not, raises ConvergenceError
    at once: no later step can make it finite again.  So does a
    breakdown of `_cg_steps` short of tol.
    """
    x = np.zeros_like(b) if x0 is None else x0.astype(np.float64).copy()
    bnorm = np.sqrt(_dot(b, b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0, 0
    if not np.isfinite(bnorm):
        raise ConvergenceError(f"CG right-hand side norm is not finite ({bnorm})", np.nan, 0)
    r = b - matrix @ x if x0 is not None else b.copy()
    res = np.sqrt(_dot(r, r)) / bnorm
    if res <= tol:
        return x, res, 0
    it = 0
    for it, _ in zip(range(1, max_iter + 1), _cg_steps(matrix, x, r)):
        res = np.sqrt(_dot(r, r)) / bnorm
        if res <= tol:
            return x, res, it
        if not np.isfinite(res):
            raise ConvergenceError(f"CG residual is not finite ({res}) at iteration {it}", res, it)
    if it < max_iter:
        raise ConvergenceError(f"CG broke down after {it} iterations (residual {res:.3e})", res, it)
    raise ConvergenceError(
        f"CG did not reach tol={tol} within {max_iter} iterations (residual {res:.3e})",
        residual=res,
        iterations=max_iter,
    )


def cg_correction(matrix: Multigrid, r, iterations: int):
    """x after `iterations` preconditioned CG iterations on A x = r from x = 0.

    No tolerance: a fixed number of V-cycles and products with the
    matrix, the approximate inverse of A that a defect correction
    applies.  A breakdown of `_cg_steps` returns the x reached before it.
    """
    x = np.zeros_like(r)
    for _ in zip(range(iterations), _cg_steps(matrix, x, r.copy())):
        pass
    return x


def _boundary_values(grid: Grid2D, f: ScalarField) -> np.ndarray:
    if not (isinstance(f, ScalarField) and f.location == "node" and f.grid.same_layout(grid)):
        raise AssemblyError("Dirichlet data must be a node ScalarField on the system's grid")
    return f.values.ravel()[grid.boundary_ids]


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


def solve_dirichlet(system: LinearSystem, f, tol: float = CG_TOL, max_iter=None, x0=None):
    """Solve the reduced system for Dirichlet data f.

    f is a node ScalarField on the system's grid; only its boundary
    values are read.  Returns a node ScalarField carrying exactly f on
    boundary_ids; nodes cut off from all stiffness (interiors of
    insulating regions) get the deterministic neighbor-mean fill.
    """
    grid = system.grid
    vals = _boundary_values(grid, f)
    b, lift = system.rhs(vals)
    if max_iter is None:
        max_iter = max(10 * system.n_unknowns, 50)
    layout = system.layout
    guess = None
    if x0 is not None:
        x0v = np.asarray(x0, dtype=np.float64)
        # a tied component starts from the mean of its nodes' guesses
        nodes = layout.free_nodes
        sums = np.bincount(layout.node_dof[nodes], weights=x0v.ravel()[nodes],
                           minlength=layout.tie_counts.size)
        guess = (sums / layout.tie_counts)[layout.keep]
    x, system.cg_residual, system.cg_iterations = _pcg(system.matrix, b, tol, max_iter, x0=guess)

    u = lift
    unknown = layout.node_kept[layout.free_nodes]
    # the nodes of a dropped dof have no stiffness and get the neighbor-mean fill
    u[layout.free_nodes] = np.where(unknown >= 0, x[unknown], np.nan)
    u = u.reshape(grid.shape)
    if layout.n_unknowns < layout.tie_counts.size:
        u = _fill_isolated(grid, u)
    return ScalarField(grid, u, location="node")


def solve_penalized(ks, c, sigma0: TensorField2, f, inclusions: InclusionSet,
                    tol: float = CG_TOL) -> list:
    """Penalized approximations, one potential per k of `ks`: the factor 1/k
    on the perfect components.

    The coefficient is where(perfect, 1/k, c) * sigma0 and insulating
    components stay deleted; every k is solved on one `Layout`.  Each k
    in (0, 1]; k = 1 with c = 1 reproduces the plain solve.
    """
    for k in ks:
        if not (0.0 < k <= 1.0):
            raise AssemblyError(f"penalization parameter k must be in (0, 1], got {k}")
    perfect = inclusions.perfect_mask()
    layout = Layout(sigma0, exclude_cells=inclusions.insulating_mask())
    return [solve_dirichlet(assemble(np.where(perfect, 1.0 / k, c), layout), f, tol=tol)
            for k in ks]


def solve_inclusion_limit(c, sigma0: TensorField2, f, inclusions: InclusionSet,
                          tol: float = CG_TOL):
    """Tied-unknown limit problem for c * sigma0: exactly constant potential
    per perfect component, natural Neumann wall on insulating components."""
    return solve_dirichlet(assemble(c, Layout(sigma0, inclusions)), f, tol=tol)


def energy(u: ScalarField, c, sigma0: TensorField2, inclusions=None, k=None) -> float:
    """FEM Dirichlet energy (1/2) u^T A u of c * sigma0, from rho = `tv_density`.

    |K| rho_K^2 is the cell's bilinear element energy u_K^T S_K u_K, so
    without k this is (1/2) sum of c |K| rho^2 over the cells outside all
    inclusions.  With k it adds (1/2k) sum of |K| rho^2 over the perfect
    components (the penalized energy, whose factor there is 1/k).
    """
    outside = True if inclusions is None else ~inclusions.union_mask()
    d2 = tv_density(u.values, sigma0) ** 2
    total = 0.5 * float(np.sum(c * d2, where=outside))
    if k is not None:
        if inclusions is None:
            raise AssemblyError("penalized energy needs inclusions")
        total += 0.5 / k * float(np.sum(d2, where=inclusions.perfect_mask()))
    return total * u.grid.cell_area
