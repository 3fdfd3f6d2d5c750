"""Uniform node grids, staggered field containers, and 2x2 tensor algebra.

Layout convention: node (i, j) sits at (i*hx, j*hy) and arrays are stored
with shape (ny, nx), so values[j, i] is the node and the flattened
row-major id is j*nx + i.  Cells are the (ny-1, nx-1) squares spanned by
four adjacent nodes; vectors, tensors, and cell scalars are sampled at
cell centers.

The discrete gradient averages the two finite differences per direction
inside each cell, which is the bilinear-interpolant gradient at the cell
center and is exact for affine nodal data.  `divergence` is its exact
negative transpose, so the total-variation quadrature and the divergence
used by the primal-dual scheme are exact discrete duals:

    sum_cells (grad u . B) == - sum_nodes u * divergence(B)

`grad_operator` assembles the same stencil, premultiplied by a cell
tensor, as one sparse matrix for loops that apply it many times.

The weighted-TV functional F[u] = integral of a |grad u|_{sigma0} lives
here too, beside the gradient it is built on: `tv_density` is its one
per-cell density, and the minimizers, the recovery and every audit
evaluate F through it.

All field values are float64 and frozen after construction.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


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

    holds cellwise for |xi|_S = (S xi . xi)^(1/2), the norm `tv_density`
    evaluates.
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
        for arr in (self.s11, self.s12, self.s22):
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

    def scaled(self, c):
        """The tensor field c * self for a cell scalar (or number) c."""
        return TensorField2(self.grid, c * self.s11, c * self.s12, c * self.s22)

    @property
    def entries(self):
        return self.s11, self.s12, self.s22

    def det(self):
        return sym2_det(self.s11, self.s12, self.s22)

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


def grad(grid: Grid2D, vals):
    """Cell gradient arrays (v1, v2) of a node array.

    Per cell, each component is the average of the two one-sided
    differences in that direction divided by the spacing; this equals
    the gradient of the bilinear interpolant at the cell center and is
    exact for affine nodal data.
    """
    v1 = ((vals[:-1, 1:] - vals[:-1, :-1]) + (vals[1:, 1:] - vals[1:, :-1])) / (2.0 * grid.hx)
    v2 = ((vals[1:, :-1] - vals[:-1, :-1]) + (vals[1:, 1:] - vals[:-1, 1:])) / (2.0 * grid.hy)
    return v1, v2


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


def grad_operator(grid: Grid2D, t11, t12, t22):
    """CSR matrix of u -> (t11 g1 + t12 g2, t12 g1 + t22 g2) with (g1, g2) = grad(u).

    The cell tensor entries are cell-shaped arrays or numbers.  Rows are
    the cells in row-major order for the first component, then again for
    the second; columns are flattened node ids.  Each row holds the
    sw, se, nw, ne corners of its cell (4 nonzeros, int32 indices), with
    the `grad` stencil folded into the tensor entries, so the matrix is
    assembled directly from per-cell coefficients.
    """
    ncells = (grid.ny - 1) * (grid.nx - 1)
    rows, cols = np.indices(grid.cell_shape, dtype=np.int32)
    sw = (rows * grid.nx + cols).ravel()
    corners = np.stack([sw, sw + 1, sw + grid.nx, sw + grid.nx + 1], axis=1)
    d1 = np.array([-1.0, 1.0, -1.0, 1.0]) / (2.0 * grid.hx)
    d2 = np.array([-1.0, -1.0, 1.0, 1.0]) / (2.0 * grid.hy)
    t11, t12, t22 = (np.broadcast_to(t, grid.cell_shape).reshape(-1, 1) for t in (t11, t12, t22))
    data = np.concatenate([t11 * d1 + t12 * d2, t12 * d1 + t22 * d2]).ravel()
    indices = np.concatenate([corners, corners]).ravel()
    indptr = np.arange(0, 8 * ncells + 1, 4, dtype=np.int32)
    return sparse.csr_matrix((data, indices, indptr), shape=(2 * ncells, grid.n_nodes))


# -- the weighted-TV functional ------------------------------------------------


def tv_density(g1, g2, sigma0: TensorField2, eps: float = 0.0):
    """Per-cell (|g|^2_{sigma0} + eps^2)^(1/2) of cell gradient arrays (g1, g2)."""
    w1, w2 = sigma0.apply(g1, g2)
    q = np.maximum(w1 * g1 + w2 * g2, 0.0)
    return np.sqrt(q + eps * eps) if eps else np.sqrt(q)


def smoothed_tv(grid: Grid2D, avals, sigma0: TensorField2, uvals, eps: float = 0.0) -> float:
    """Midpoint quadrature of integral a (|grad u|^2_{sigma0} + eps^2)^(1/2) on raw arrays."""
    density = tv_density(*grad(grid, uvals), sigma0, eps)
    return float(np.sum(avals * density)) * grid.cell_area


def weighted_tv(v: ScalarField, a: ScalarField, sigma0: TensorField2) -> float:
    """Midpoint quadrature of integral a |grad v|_{sigma0}: the functional F."""
    return smoothed_tv(v.grid, a.values, sigma0, v.values)


def gradient(u: ScalarField) -> VectorField2:
    """Cell-centered gradient of a node scalar (see `grad`)."""
    if u.location != "node":
        raise GridError("gradient expects a node-located scalar field")
    return VectorField2(u.grid, *grad(u.grid, u.values))


def divergence(w: VectorField2) -> ScalarField:
    """Node divergence defined as the exact negative transpose of `gradient`."""
    return ScalarField(w.grid, -grad_adjoint(w.grid, w.v1, w.v2), location="node")


def nodes_of_cells(cells) -> np.ndarray:
    """Boolean node mask of all corners of the selected (ny-1, nx-1) cells."""
    nodes = np.zeros((cells.shape[0] + 1, cells.shape[1] + 1), dtype=bool)
    nodes[:-1, :-1] |= cells
    nodes[:-1, 1:] |= cells
    nodes[1:, :-1] |= cells
    nodes[1:, 1:] |= cells
    return nodes


def cell_integral(grid: Grid2D, cell_values, cells=None) -> float:
    """Midpoint quadrature: sum of cell values times cell area over selected cells."""
    vals = cell_values if cells is None else np.where(cells, cell_values, 0.0)
    return float(np.sum(vals)) * grid.cell_area


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
