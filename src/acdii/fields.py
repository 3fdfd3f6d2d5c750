"""Uniform node grids, staggered field containers, and 2x2 tensor algebra.

Layout convention: node (i, j) sits at (i*hx, j*hy) and arrays are stored
with shape (ny, nx), so values[j, i] is the node and the flattened
row-major id is j*nx + i.  Cells are the (ny-1, nx-1) squares spanned by
four adjacent nodes; vectors, tensors, and cell scalars are sampled at
cell centers.

The discrete gradient `grad` averages the two finite differences per
direction inside each cell, which is the bilinear-interpolant gradient at
the cell center and is exact for affine nodal data.  `grad_adjoint` is
its exact transpose, the negative node divergence, so the total-variation
quadrature and the adjoint used by the primal-dual scheme and the
audits are exact discrete duals:

    sum_cells (grad u . B) == sum_nodes u * grad_adjoint(B)

`cell_operator` assembles the same stencil, premultiplied by
sigma0^(1/2), as one sparse matrix M with a third row per cell for the
hourglass mode `grad` does not see: the twist
(u_sw - u_se - u_nw + u_ne) / (hx hy) weighted by
((s11 hy^2 + s22 hx^2) / 12)^(1/2) (`TensorField2.hourglass` is its
square).  M_K^T M_K is a cell's bilinear element stiffness, so M builds
the forward stiffness map and, masked to the cells where a does not
vanish, is the primal-dual's K.

The weighted-TV functional F[u] = integral of a |grad u|_{sigma0} lives
here too, beside the operator it is built on, in its discrete form

    F_h[u] = sum over cells K of a_K |K| rho_K,   rho_K = |M_K u|,

with M at weight 1: rho_K^2 is |grad u|^2_{sigma0} plus the hourglass
term, and |K| rho_K^2 = u_K^T S_K u_K is the cell's element energy, so
F_h is the FEM energy's own norm and the bilinear potential of c sigma0
is its exact minimizer for the data a = c rho_h.  Two functions of the
node values of u give it: `tv_density`, its one per-cell density rho_h,
and `weighted_tv`, its one sum.  The minimizers, the recovery and every
audit evaluate F_h through them, and the forward Dirichlet energy sums
c |K| rho_h^2.  Their gradients apply M^T without storing M, from the
cell differences that give rho_h: `tv_gradient`, the gradient of the
smoothed F_h, and `energy_gradient`, the stiffness product A(c) u over
all nodes, whose boundary rows are the Dirichlet reactions.

`label_cells` numbers the 4-connected components of a boolean cell
plane, which the inclusion checks and the inclusion classification
walk component by component.

All field values are float64 and frozen after construction.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


class GridError(ValueError):
    """Raised when a grid or field container violates its contract."""


def _as_float64(values, shape, what):
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise GridError(f"{what} has shape {arr.shape}, expected {shape}")
    return arr


class Grid2D:
    """Uniform rectangular grid of nx*ny nodes with spacing (hx, hy).

    Boundary nodes are the nodes on the rim of the rectangle; their sorted
    row-major ids are kept in `boundary_ids`.  Every other node is
    interior.
    """

    def __init__(self, nx: int, ny: int, hx: float, hy: float):
        nx, ny = int(nx), int(ny)
        if nx < 3 or ny < 3:
            raise GridError(f"grid needs at least 3 nodes per direction, got {nx}x{ny}")
        if not (hx > 0.0 and hy > 0.0):
            raise GridError(f"grid spacings must be positive, got hx={hx}, hy={hy}")
        self.nx = nx
        self.ny = ny
        self.hx = float(hx)
        self.hy = float(hy)
        interior = np.zeros((ny, nx), dtype=bool)
        interior[1:-1, 1:-1] = True
        self._interior = interior
        self._interior.setflags(write=False)
        self.boundary_ids = np.flatnonzero(~interior.ravel())
        self.boundary_ids.setflags(write=False)

    # -- shapes and coordinates -------------------------------------------

    @property
    def shape(self):
        return (self.ny, self.nx)

    @property
    def cell_shape(self):
        return (self.ny - 1, self.nx - 1)

    @property
    def n_nodes(self):
        return self.nx * self.ny

    @property
    def cell_area(self):
        return self.hx * self.hy

    def interior_mask(self):
        return self._interior

    def node_coords(self):
        x = np.arange(self.nx) * self.hx
        y = np.arange(self.ny) * self.hy
        return np.meshgrid(x, y)

    def cell_centers(self):
        x = (np.arange(self.nx - 1) + 0.5) * self.hx
        y = (np.arange(self.ny - 1) + 0.5) * self.hy
        return np.meshgrid(x, y)

    def same_layout(self, other) -> bool:
        return (
            self.nx == other.nx
            and self.ny == other.ny
            and self.hx == other.hx
            and self.hy == other.hy
        )


def _check_finite(values, what):
    bad = ~np.isfinite(values)
    if bad.any():
        j, i = np.argwhere(bad)[0]
        raise GridError(f"{what} has a non-finite value at index ({j}, {i})")


class ScalarField:
    """Float64 samples on grid nodes (location='node') or cells ('cell'); all finite."""

    def __init__(self, grid: Grid2D, values, location: str = "node"):
        if location not in ("node", "cell"):
            raise GridError(f"unknown scalar location {location!r}")
        shape = grid.shape if location == "node" else grid.cell_shape
        arr = _as_float64(values, shape, f"{location} scalar field")
        _check_finite(arr, f"{location} scalar field")
        self.grid = grid
        self.location = location
        self.values = arr.copy()
        self.values.setflags(write=False)


class VectorField2:
    """Cell-centered 2-vector field with components v1 (x) and v2 (y)."""

    def __init__(self, grid: Grid2D, v1, v2):
        shape = grid.cell_shape
        v1 = _as_float64(v1, shape, "vector component v1")
        v2 = _as_float64(v2, shape, "vector component v2")
        _check_finite(v1, "vector component v1")
        _check_finite(v2, "vector component v2")
        self.grid = grid
        self.v1 = v1.copy()
        self.v2 = v2.copy()
        self.v1.setflags(write=False)
        self.v2.setflags(write=False)


class TensorField2:
    """Cell-centered symmetric positive definite 2x2 tensor field.

    Entries (s11, s12, s22) must make every cell SPD.  The uniform
    ellipticity constants are recorded at construction: `m` and `M` are
    the extreme eigenvalues over all cells, so

        m^(1/2) |xi| <= |xi|_S <= M^(1/2) |xi|

    holds cellwise for |xi|_S = (S xi . xi)^(1/2), the norm of the
    gradient part of `tv_density`.  `hourglass` is the plane
    (s11 hy^2 + s22 hx^2) / 12, the squared weight of the hourglass row
    of `cell_operator` on the tensor's grid.
    """

    def __init__(self, grid: Grid2D, s11, s12, s22):
        shape = grid.cell_shape
        s11 = _as_float64(s11, shape, "tensor entry s11")
        s12 = _as_float64(s12, shape, "tensor entry s12")
        s22 = _as_float64(s22, shape, "tensor entry s22")
        for name, arr in (("s11", s11), ("s12", s12), ("s22", s22)):
            _check_finite(arr, f"tensor entry {name}")
        det = s11 * s22 - s12 * s12
        bad = (s11 <= 0.0) | (det <= 0.0)
        if bad.any():
            j, i = np.argwhere(bad)[0]
            raise GridError(f"tensor field is not SPD at cell ({j}, {i})")
        half_tr = 0.5 * (s11 + s22)
        rad = np.sqrt((0.5 * (s11 - s22)) ** 2 + s12 * s12)
        self.m = float(np.min(half_tr - rad))
        self.M = float(np.max(half_tr + rad))
        self.grid = grid
        self.s11 = s11.copy()
        self.s12 = s12.copy()
        self.s22 = s22.copy()
        # numpy scalars, as in `cell_operator`: a square beyond the floats is inf, not an error
        hx, hy = np.float64(grid.hx), np.float64(grid.hy)
        self.hourglass = (s11 * hy**2 + s22 * hx**2) / 12.0
        for arr in (self.s11, self.s12, self.s22, self.hourglass):
            arr.setflags(write=False)

    @classmethod
    def constant(cls, grid: Grid2D, s11: float, s12: float, s22: float):
        shape = grid.cell_shape
        return cls(
            grid,
            np.full(shape, float(s11)),
            np.full(shape, float(s12)),
            np.full(shape, float(s22)),
        )

    @property
    def entries(self):
        return self.s11, self.s12, self.s22

    def apply(self, x1, x2):
        return sym2_apply(self.s11, self.s12, self.s22, x1, x2)

    def inv_norm(self, x1, x2):
        i11, i12, i22 = sym2_inv(self.s11, self.s12, self.s22)
        return sym2_norm(i11, i12, i22, x1, x2)


# -- dense 2x2 symmetric algebra, vectorized over trailing grids ----------


def sym2_apply(s11, s12, s22, x1, x2):
    return s11 * x1 + s12 * x2, s12 * x1 + s22 * x2


def sym2_det(s11, s12, s22):
    return s11 * s22 - s12 * s12


def sym2_inv(s11, s12, s22):
    det = sym2_det(s11, s12, s22)
    return s22 / det, -s12 / det, s11 / det


def sym2_norm(s11, s12, s22, x1, x2):
    w1, w2 = sym2_apply(s11, s12, s22, x1, x2)
    q = w1 * x1 + w2 * x2
    return np.sqrt(np.maximum(q, 0.0))


def sym2_sqrt(s11, s12, s22):
    """Symmetric square root of an SPD 2x2: (S + sqrt(det) I) / sqrt(tr + 2 sqrt(det))."""
    s = np.sqrt(sym2_det(s11, s12, s22))
    t = np.sqrt(s11 + s22 + 2.0 * s)
    return (s11 + s) / t, s12 / t, (s22 + s) / t


# -- staggered calculus -----------------------------------------------------


def _cell_differences(grid: Grid2D, vals):
    """(v1, v2, twist) of a node array: `grad` and the hourglass amplitude.

    twist = (u_sw - u_se - u_nw + u_ne) / (hx hy) is the difference of
    the north and south edge differences that v1 averages, so the pair
    costs one corner difference more than the gradient alone.  All three
    are new arrays.
    """
    south = vals[:-1, 1:] - vals[:-1, :-1]
    north = vals[1:, 1:] - vals[1:, :-1]
    v1 = (south + north) / (2.0 * grid.hx)
    v2 = ((vals[1:, :-1] - vals[:-1, :-1]) + (vals[1:, 1:] - vals[:-1, 1:])) / (2.0 * grid.hy)
    north -= south
    north /= grid.hx * grid.hy
    return v1, v2, north


def grad(grid: Grid2D, vals):
    """Cell gradient arrays (v1, v2) of a node array.

    Per cell, each component is the average of the two one-sided
    differences in that direction divided by the spacing; this equals
    the gradient of the bilinear interpolant at the cell center and is
    exact for affine nodal data.
    """
    return _cell_differences(grid, vals)[:2]


def grad_adjoint(grid: Grid2D, w1, w2):
    """G^T w on nodes: sum_cells (grad u . w) == sum_nodes u * grad_adjoint(w)."""
    b1 = w1 / (2.0 * grid.hx)
    b2 = w2 / (2.0 * grid.hy)
    out = np.zeros(grid.shape)
    out[:-1, :-1] += -b1 - b2
    out[:-1, 1:] += b1 - b2
    out[1:, :-1] += -b1 + b2
    out[1:, 1:] += b1 + b2
    return out


def cell_operator(grid: Grid2D, sigma0: TensorField2, weight):
    """CSR matrix M of the bilinear cell: three rows per cell.

    Rows are the cells in row-major order three times: the two components
    of weight sigma0^(1/2) grad(u), then weight ((s11 hy^2 + s22 hx^2) /
    12)^(1/2) (u_sw - u_se - u_nw + u_ne) / (hx hy), the hourglass mode
    of the bilinear interpolant that `grad` does not see.  `weight` is a
    cell array or a number.  Columns are flattened node ids; each row
    holds the sw, se, nw, ne corners of its cell (4 nonzeros, int32
    indices).  With weight |K|^(1/2), a cell's M_K^T M_K is its element
    stiffness for sigma0, the 2x2 Gauss quadrature of grad(N_a) . sigma0
    grad(N_b), since the hourglass gradient is orthogonal to the constant
    one on the cell and the quadrature is exact for both.
    """
    ncells = (grid.ny - 1) * (grid.nx - 1)
    rows, cols = np.indices(grid.cell_shape, dtype=np.int32)
    sw = (rows * grid.nx + cols).ravel()
    corners = np.stack([sw, sw + 1, sw + grid.nx, sw + grid.nx + 1], axis=1)
    # numpy scalars: a square that overflows is inf, which CG reports, not an OverflowError
    hx, hy = np.float64(grid.hx), np.float64(grid.hy)
    d1 = np.array([-1.0, 1.0, -1.0, 1.0]) / (2.0 * hx)
    d2 = np.array([-1.0, -1.0, 1.0, 1.0]) / (2.0 * hy)
    twist = np.array([1.0, -1.0, -1.0, 1.0]) / (hx * hy)
    weight = np.broadcast_to(weight, grid.cell_shape)
    t11, t12, t22 = ((weight * r).reshape(-1, 1) for r in sym2_sqrt(*sigma0.entries))
    h = (weight * np.sqrt(sigma0.hourglass)).reshape(-1, 1)
    data = np.concatenate([t11 * d1 + t12 * d2, t12 * d1 + t22 * d2, h * twist]).ravel()
    indices = np.concatenate([corners, corners, corners]).ravel()
    indptr = np.arange(0, 12 * ncells + 1, 4, dtype=np.int32)
    return sparse.csr_matrix((data, indices, indptr), shape=(3 * ncells, grid.n_nodes))


# -- the weighted-TV functional ------------------------------------------------


def _density_terms(uvals, sigma0: TensorField2, eps):
    """(rho, w1, w2, twist): `tv_density` with sigma0 grad u and the twist it read."""
    g1, g2, twist = _cell_differences(sigma0.grid, uvals)
    w1, w2 = sigma0.apply(g1, g2)
    q = w1 * g1
    g2 *= w2
    q += g2
    np.maximum(q, 0.0, out=q)
    g1 = np.multiply(twist, twist, out=g1)
    g1 *= sigma0.hourglass
    q += g1
    if eps:
        q += eps * eps
    return np.sqrt(q, out=q), w1, w2, twist


def _rows_adjoint(sigma0: TensorField2, k, w1, w2, twist):
    """|K| M^T (k M u) on nodes from w = sigma0 grad u and the twist of u.

    The first two rows of M_K^T M_K give grad^T (sigma0 grad u), the
    hourglass row `sigma0.hourglass` times the twist's own transpose.
    Overwrites w1, w2 and twist.
    """
    grid = sigma0.grid
    k = k * grid.cell_area
    w1 *= k
    w1 /= 2.0 * grid.hx
    w2 *= k
    w2 /= 2.0 * grid.hy
    twist *= k
    twist *= sigma0.hourglass
    twist /= grid.hx * grid.hy
    total = w1 + w2
    w1 -= w2
    out = np.zeros(grid.shape)
    out[:-1, :-1] += twist - total
    out[:-1, 1:] += w1 - twist
    out[1:, :-1] -= w1 + twist
    out[1:, 1:] += total + twist
    return out


def tv_density(uvals, sigma0: TensorField2, eps: float = 0.0):
    """Per-cell (rho_K^2 + eps^2)^(1/2) of node values u, on sigma0's grid.

    rho_K = |M_K u| for M = `cell_operator` at weight 1: the squared
    sigma0-norm of `grad` plus `sigma0.hourglass` times the squared
    hourglass amplitude, so |K| rho_K^2 = u_K^T S_K u_K is the cell's
    bilinear element energy for sigma0.
    """
    return _density_terms(uvals, sigma0, eps)[0]


def tv_gradient(uvals, avals, sigma0: TensorField2, eps: float = 0.0):
    """(rho, g): rho = `tv_density(u, sigma0, eps)` and the node array
    g = |K| M^T ((a / rho) M u), the gradient of `weighted_tv(u, a, sigma0, eps)`.

    M = `cell_operator` at weight 1, applied without storing it: the
    cell differences that give rho give M u, and its transpose scatters
    them back to the corners.  g is the stiffness product A(a / rho) u of
    the factor a / rho on sigma0, over all nodes: the lagged-diffusivity
    identity.  A cell with rho = 0 (possible only at eps = 0) adds
    nothing.  `energy_gradient` is the same product for a given factor.
    """
    rho, w1, w2, twist = _density_terms(uvals, sigma0, eps)
    k = np.divide(avals, rho, out=np.zeros_like(rho), where=rho > 0.0)
    return rho, _rows_adjoint(sigma0, k, w1, w2, twist)


def energy_gradient(uvals, c, sigma0: TensorField2):
    """|K| M^T (c M u) on nodes, the stiffness product A(c) u over all nodes.

    It is the gradient of the Dirichlet energy (1/2) sum c |K| rho_h^2;
    its boundary rows are the Dirichlet reactions.  `c` is a cell array
    or a number.
    """
    _, w1, w2, twist = _density_terms(uvals, sigma0, 0.0)
    return _rows_adjoint(sigma0, np.broadcast_to(c, sigma0.grid.cell_shape), w1, w2, twist)


def weighted_tv(uvals, avals, sigma0: TensorField2, eps: float = 0.0) -> float:
    """F_h = sum over cells of a |K| (rho_K^2 + eps^2)^(1/2), rho_K = `tv_density`."""
    return float(np.sum(avals * tv_density(uvals, sigma0, eps))) * sigma0.grid.cell_area


def nodes_of_cells(cells) -> np.ndarray:
    """Boolean node mask of all corners of the selected (ny-1, nx-1) cells."""
    nodes = np.zeros((cells.shape[0] + 1, cells.shape[1] + 1), dtype=bool)
    nodes[:-1, :-1] |= cells
    nodes[:-1, 1:] |= cells
    nodes[1:, :-1] |= cells
    nodes[1:, 1:] |= cells
    return nodes


def label_cells(mask):
    """(labels, count) of the 4-connected components of a boolean cell plane.

    Array union-find in the hook-and-jump scheme of Shiloach & Vishkin
    (J. Algorithms 1982): every edge between two masked cells with
    different roots hooks the larger root to the smaller one, then the
    parent array pointer-jumps until each cell points at its root; this
    repeats until no edge joins two roots.  A root is the smallest
    row-major id of its component, so components are numbered 1..count
    in the raster order of their first cell.  Unmasked cells get 0.
    """
    mask = np.asarray(mask, dtype=bool)
    ids = np.arange(mask.size).reshape(mask.shape)
    across = mask[:, :-1] & mask[:, 1:]
    down = mask[:-1] & mask[1:]
    lo = np.concatenate([ids[:, :-1][across], ids[:-1][down]])
    hi = np.concatenate([ids[:, 1:][across], ids[1:][down]])
    parent = np.arange(mask.size)
    while True:
        r_lo, r_hi = parent[lo], parent[hi]
        join = r_lo != r_hi
        if not join.any():
            break
        # an edge whose ends share a root keeps sharing one, so it is dropped
        lo, hi, r_lo, r_hi = lo[join], hi[join], r_lo[join], r_hi[join]
        np.minimum.at(parent, np.maximum(r_lo, r_hi), np.minimum(r_lo, r_hi))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    flat = mask.ravel()
    roots = flat & (parent == ids.ravel())
    labels = np.where(flat, np.cumsum(roots)[parent], 0).reshape(mask.shape)
    return labels, int(np.count_nonzero(roots))


def rel_l2(x, ref) -> float:
    """Relative l2 distance |x - ref| / |ref| of two arrays."""
    d = (x - ref).ravel()
    r = np.ravel(ref)
    return float(np.sqrt(np.sum(d * d))) / max(float(np.sqrt(np.sum(r * r))), 1e-300)


def sample_cell_field(grid: Grid2D, cell_values, x, y):
    """Bilinear interpolation of cell-centered data at points (x, y).

    Cell centers form the interpolation lattice; query points are clamped
    to it, so the half-cell rim next to the boundary is held constant.
    `cell_values` may stack several cell planes on leading axes; they
    share one set of weights.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ncx, ncy = grid.nx - 1, grid.ny - 1
    fx = np.clip(x / grid.hx - 0.5, 0.0, ncx - 1.0)
    fy = np.clip(y / grid.hy - 0.5, 0.0, ncy - 1.0)
    # a grid has at least 2 cells per direction, so i0 + 1 and j0 + 1 stay inside
    i0 = np.minimum(fx.astype(np.int64), ncx - 2)
    j0 = np.minimum(fy.astype(np.int64), ncy - 2)
    tx = fx - i0
    ty = fy - j0
    i1 = i0 + 1
    j1 = j0 + 1
    v = np.asarray(cell_values, dtype=np.float64)
    return (
        v[..., j0, i0] * (1 - tx) * (1 - ty)
        + v[..., j0, i1] * tx * (1 - ty)
        + v[..., j1, i0] * (1 - tx) * ty
        + v[..., j1, i1] * tx * ty
    )
