"""Riemannian data metric, level-set extraction, and weighted-area audits.

The interior magnitude a and the background tensor sigma0 define a
cellwise metric, in 2-D

    g = det(sigma0) a^2 sigma0^{-1} = a^2 adj(sigma0),

degenerate where a = 0.  Equipotential curves of the potential are
zero-mean-curvature curves of g, and their curvature operator

    div( sqrt(det g) g^{-1} grad u / ||g^{-1} grad u||_g )
        = div( a sigma0 grad u / |grad u|_{sigma0} ) = -div J

is the divergence of the recovered current J = -c sigma0 grad u with
c = a / |grad u|_{sigma0}: the Euler-Lagrange operator of
F[u] = integral of a |grad u|_{sigma0}.  `curvature_residual` evaluates
it with the exact adjoint divergence of the cell gradient, on the
physical two-row current of c = a / rho_h (`inverse.recover_c`), so for
matched data the residual shrinks under refinement while a mismatched
sigma0 leaves an O(1) signal.  (The three-row current of F_h, which the
duality audit reads, has a residual that vanishes at the minimizer to
solver precision, so it would measure the solver, not the geometry.)

Level sets are cut by marching squares with linear edge interpolation;
saddle cells are split by the cell-center mean, which makes the cut
deterministic.  One array pass builds the segments of many levels at
once, with {u > level} on the left of each segment.

The area element of g on a curve with unit normal nu is
sqrt(det g) |nu|_{g^{-1}} dS = a |nu|_{sigma0} dS, so
`weighted_perimeter(u, levels, a, sigma0)`, one area per level, is the
one curve measure: it is the g-area of a level set, the level integrand
of the coarea formula for F, and the limit of the truncation ladder.
It sums over segments and never chains them; `extract_level_set` chains
the segments of one level into curves, for the CSV export.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    GridError,
    ScalarField,
    TensorField2,
    VectorField2,
    grad_adjoint,
    nodes_of_cells,
    sample_cell_field,
    tv_density,
    weighted_tv,
)

# `sample_levels` drops candidates within _BAND_REL * range(u) of a value
# taken on a cell whose rho_h(u) (`tv_density`) is below _GRAD_FLOOR_REL
# of its maximum
_GRAD_FLOOR_REL = 1e-6
_BAND_REL = 1e-3
# truncation widths of `truncation_limit_audit`, in units of range(u)
_TRUNCATION_WIDTHS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


def build_metric(a: ScalarField, sigma0: TensorField2):
    """The planes (g11, g12, g22) of g = a^2 adj(sigma0) per cell."""
    if a.location != "cell":
        raise GridError("metric expects cell-located data a")
    a2 = a.values**2
    return a2 * sigma0.s22, -a2 * sigma0.s12, a2 * sigma0.s11


def _near_nodes(nodes, hx: float, hy: float, radius: float) -> np.ndarray:
    """Nodes at Euclidean distance <= radius from a node of the mask `nodes`.

    The dilation of the node mask by that disk, one row offset dy at a
    time: row j + dy widened by the disk's half-width at that offset.
    """
    ny, nx = nodes.shape
    # count[j, k]: masked nodes among the first k of row j
    count = np.zeros((ny, nx + 1), dtype=np.int32)
    np.cumsum(nodes, axis=1, out=count[:, 1:])
    cols = np.arange(nx)
    out = np.zeros((ny, nx), dtype=bool)
    reach = int(radius // hy)
    for dy in range(-reach, reach + 1):
        half = int(np.sqrt(max(radius**2 - (dy * hy) ** 2, 0.0)) // hx)
        lo, hi = np.maximum(cols - half, 0), np.minimum(cols + half + 1, nx)
        hit = count[:, hi] > count[:, lo]
        if dy >= 0:
            out[:ny - dy] |= hit[dy:]
        else:
            out[-dy:] |= hit[:ny + dy]
    return out


def curvature_residual(current: VectorField2, dead, collar: float | None = None):
    """Discrete mean-curvature residual -div J of the equipotentials in g.

    `current` is the recovered current, zero on the `dead` cells.
    Returns (node residual field, rms).

    The zero-curvature property is an interior statement, and the
    one-sided stencils of the discrete divergence are not consistent on
    the outermost node rings nor on the rings around the dead cells, so
    the rms summary runs over interior nodes with no dead incident cell
    that lie farther than `collar` from the boundary and from every dead
    cell (a fixed physical width, default one tenth of the smaller domain
    extent; when no node is that deep the collar is dropped).  On that
    fixed region the residual of matched data shrinks at second order
    under refinement.  The full residual field is returned unclipped.
    """
    grid = current.grid
    # -div is the adjoint of the cell gradient
    resid = ScalarField(grid, grad_adjoint(grid, current.v1, current.v2), location="node")
    dead_nodes = nodes_of_cells(dead)
    good = grid.interior_mask() & ~dead_nodes

    if collar is None:
        collar = 0.1 * min((grid.nx - 1) * grid.hx, (grid.ny - 1) * grid.hy)
    if collar > 0.0:
        # distance to the rectangle's rim: the nearest side, in closed form
        i = np.arange(grid.nx)
        j = np.arange(grid.ny)
        dist = np.minimum(np.minimum(i, grid.nx - 1 - i)[None, :] * grid.hx,
                          np.minimum(j, grid.ny - 1 - j)[:, None] * grid.hy)
        deep = good & (dist > collar)
        if dead_nodes.any():
            # a dead cell's nearest point to a node is one of its corners
            deep &= ~_near_nodes(dead_nodes, grid.hx, grid.hy, collar)
        if deep.any():
            good = deep
    vals = resid.values[good]
    rms = float(np.sqrt(np.mean(vals**2))) if vals.size else 0.0
    return resid, rms


# -- marching squares ---------------------------------------------------------


@dataclass
class LevelSetCurve:
    """Chained polyline of one level curve.

    vertices has shape (k+1, 2) for k segments (closed curves repeat the
    first vertex at the end) and lengths are per segment; travel keeps
    {u > level} on the left.
    """

    level: float
    vertices: np.ndarray
    lengths: np.ndarray
    closed: bool

    @property
    def length(self) -> float:
        return float(np.sum(self.lengths))


# case -> (entry edge, exit edge) per segment.  Edges are 0 bottom, 1 right,
# 2 top, 3 left; the case is the corner code bl + 2 br + 4 tr + 8 tl of
# {u > level}, plus 16 for a saddle (5, 10) whose center mean is not above
# the level.  Travel keeps {u > level} on the left.
_CASE_EDGES = {
    1: [(0, 3)], 2: [(1, 0)], 3: [(1, 3)], 4: [(2, 1)], 6: [(2, 0)], 7: [(2, 3)],
    8: [(3, 2)], 9: [(0, 2)], 11: [(1, 2)], 12: [(3, 1)], 13: [(0, 1)], 14: [(3, 0)],
    5: [(0, 1), (2, 3)], 10: [(3, 0), (1, 2)],
    5 + 16: [(0, 3), (2, 1)], 10 + 16: [(3, 2), (1, 0)],
}
# the table as an array [case, segment, entry/exit]; -1 marks no segment
_EDGES = np.full((32, 2, 2), -1, dtype=np.int64)
for _case, _pairs in _CASE_EDGES.items():
    _EDGES[_case, :len(_pairs)] = _pairs
# per edge: the (row, column) offsets of its two end nodes from the cell's
# lower-left node, whether it runs along x, and its offset across, in cells
_EDGE_FROM = np.array([(0, 0), (0, 1), (1, 0), (0, 0)])
_EDGE_TO = np.array([(0, 1), (1, 1), (1, 1), (1, 0)])
_ALONG_X = np.array([True, False, True, False])
_EDGE_SIDE = np.array([0.0, 1.0, 1.0, 0.0])


def _level_segments(u: ScalarField, levels):
    """Marching-squares segments of the level sets {u = level}, in blocks.

    Yields, per block of levels, the arrays (k, p, e_in, e_out, start,
    end) over the block's segments: k indexes `levels`, p is the flat
    index of the cell's lower-left node, e_in/e_out are the entry and
    exit edges, and start/end, of shape (2, m), the crossings found by
    linear interpolation along the edges.  A cell crosses a level when
    its corner minimum is at or below the level and its corner maximum
    above it, so one search over the sorted levels finds the crossed
    (cell, level) pairs.
    """
    if u.location != "node":
        raise GridError("level sets are extracted from node scalars")
    v = u.values
    levels = np.asarray(levels, dtype=np.float64).ravel()
    order = np.argsort(levels, kind="stable")
    sorted_levels = levels[order]
    # corner extremes: over each pair of rows, then each pair of columns
    lowest = np.minimum(v[:-1], v[1:])
    highest = np.maximum(v[:-1], v[1:])
    first = np.searchsorted(sorted_levels, np.minimum(lowest[:, :-1], lowest[:, 1:]).ravel())
    stop = np.searchsorted(sorted_levels, np.maximum(highest[:, :-1], highest[:, 1:]).ravel())
    # the cells crossed by some level; each crosses levels first..stop-1
    crossed = np.flatnonzero(stop > first)
    first, stop = first[crossed], stop[crossed]
    n_levels = levels.size
    # blocks of levels with at most a quarter cell plane of (cell, level)
    # pairs, so that the per-segment temporaries (up to two segments per
    # pair, two points per segment) stay within one cell plane; a level
    # with more pairs is a block of its own
    budget = (u.grid.nx - 1) * (u.grid.ny - 1) // 4
    bounds = [0, n_levels]
    if np.sum(stop - first) > budget:
        per_level = np.cumsum(np.bincount(first, minlength=n_levels + 1)
                              - np.bincount(stop, minlength=n_levels + 1))[:n_levels]
        ends = np.cumsum(per_level)
        bounds = [0]
        while bounds[-1] < n_levels:
            k0 = bounds[-1]
            fill = np.searchsorted(ends, ends[k0] - per_level[k0] + budget, side="right")
            bounds.append(max(k0 + 1, int(fill)))
    flat = v.ravel()
    for k0, k1 in zip(bounds[:-1], bounds[1:]):
        lo = np.clip(first, k0, k1)
        count = np.clip(stop, k0, k1) - lo
        # pairs run cell by cell, levels ascending within a cell
        cell = np.repeat(crossed, count)
        k = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(cell.size)
        p = cell + cell // (u.grid.nx - 1)
        yield _cell_segments(u.grid, flat, p, sorted_levels[k], order[k])


def _cell_segments(grid, flat, p, level, k):
    # the segments of the crossed (cell, level) pairs, p the cells'
    # lower-left nodes.  Each cell places its crossings from its own
    # corner, so two cells may put a shared crossing one rounding apart.
    nx = grid.nx
    bl, br, tl, tr = flat[p], flat[p + 1], flat[p + nx], flat[p + nx + 1]
    code = (bl > level).astype(np.int64) + 2 * (br > level) + 4 * (tr > level) + 8 * (tl > level)
    center = 0.25 * (bl + br + tl + tr)
    edges = _EDGES[code + 16 * (((code == 5) | (code == 10)) & ~(center > level))]
    # every pair has a first segment; a saddle adds a second
    second = np.flatnonzero(edges[:, 1, 0] >= 0)
    seg = np.concatenate([np.arange(p.size), second])
    e_in = np.concatenate([edges[:, 0, 0], edges[second, 1, 0]])
    e_out = np.concatenate([edges[:, 0, 1], edges[second, 1, 1]])
    p, level = p[seg], level[seg]
    x0 = (p % nx) * grid.hx
    y0 = (p // nx) * grid.hy

    def cross(e):
        ua = flat[p + _EDGE_FROM[e] @ (nx, 1)]
        ub = flat[p + _EDGE_TO[e] @ (nx, 1)]
        t = (level - ua) / (ub - ua)
        along = _ALONG_X[e]
        return np.stack([x0 + np.where(along, t, _EDGE_SIDE[e]) * grid.hx,
                         y0 + np.where(along, _EDGE_SIDE[e], t) * grid.hy])

    return k[seg], p, e_in, e_out, cross(e_in), cross(e_out)


def extract_level_set(u: ScalarField, level: float) -> list[LevelSetCurve]:
    """Marching-squares contour of {u = level} over the grid cells.

    Returns chained curves, each closed or terminating on the domain
    boundary, in a deterministic order: open curves by their first edge,
    then closed curves by their smallest edge, with horizontal edges
    before vertical ones and edges ordered by their lower-left node.
    """
    level = float(level)
    ((_, p, e_in, e_out, start, end),) = _level_segments(u, [level])
    n = u.grid.n_nodes
    # an edge's key is its lower-left node, plus n for a vertical edge
    key_of_edge = np.array([0, n + 1, u.grid.nx, n])
    key_in = p + key_of_edge[e_in]
    entry = {key: s for s, key in enumerate(key_in.tolist())}
    succ = [entry.get(key, -1) for key in (p + key_of_edge[e_out]).tolist()]
    has_pred = set(succ)
    by_key = np.argsort(key_in).tolist()
    done = [False] * len(succ)
    curves = []
    # open curves start where no segment leads in; the rest are loops
    for s0 in [s for s in by_key if s not in has_pred] + by_key:
        if done[s0]:
            continue
        chain = [s0]
        nxt = succ[s0]
        while nxt >= 0 and nxt != s0:
            chain.append(nxt)
            nxt = succ[nxt]
        for s in chain:
            done[s] = True
        verts = np.concatenate([start[:, chain[:1]], end[:, chain]], axis=1).T
        curve = _make_curve(level, verts, nxt == s0)
        if curve is not None:
            curves.append(curve)
    return curves


def _make_curve(level, verts, closed):
    d = np.diff(verts, axis=0)
    lengths = np.hypot(d[:, 0], d[:, 1])
    keepseg = lengths > 0.0
    if not keepseg.any():
        return None
    if not keepseg.all():
        verts = verts[np.concatenate([[True], keepseg])]
        d = np.diff(verts, axis=0)
        lengths = np.hypot(d[:, 0], d[:, 1])
    return LevelSetCurve(level, verts, lengths, bool(closed))


# -- the metric area --------------------------------------------------------------


def weighted_perimeter(u: ScalarField, levels, a: ScalarField, sigma0: TensorField2) -> np.ndarray:
    """Metric area, integral of a (sigma0 nu . nu)^(1/2) dS, of each level set of u.

    Returns one area per entry of `levels`.  The marching-squares segments
    of all levels are built at once (`_level_segments`) and never chained:
    an area is a plain sum over segments, so it is additive over disjoint
    curves and blind to how they chain.  A segment (dx, dy) contributes
    a (s11 dy^2 - 2 s12 dx dy + s22 dx^2)^(1/2), with a and sigma0
    sampled by bilinear interpolation of the cell-centered values at its
    midpoint; a zero-length segment contributes 0.
    """
    if a.location != "cell":
        raise GridError("weighted perimeter expects cell-located a")
    planes = np.stack([a.values, *sigma0.entries])
    areas = np.zeros(np.size(levels))
    for k, _, _, _, start, end in _level_segments(u, levels):
        av, s11, s12, s22 = sample_cell_field(a.grid, planes, *(0.5 * (start + end)))
        dx, dy = end - start
        w = np.sqrt(np.maximum(s11 * dy * dy - 2.0 * s12 * dx * dy + s22 * dx * dx, 0.0))
        areas += np.bincount(k, weights=av * w, minlength=areas.size)
    return areas


def sample_levels(u: ScalarField, sigma0: TensorField2, n_levels: int) -> np.ndarray:
    """Evenly spaced interior quantile levels, skipping critical bands.

    Candidate levels are the (i+1/2)/n quantiles of u over interior
    nodes; any candidate within _BAND_REL * range(u) of a value taken on
    a cell with rho_h(u) (`tv_density`) below _GRAD_FLOOR_REL
    times its maximum is dropped (those are the levels the theory
    excludes).
    """
    grid = u.grid
    inner = u.values[grid.interior_mask()]
    qs = (np.arange(n_levels) + 0.5) / n_levels
    candidates = np.quantile(inner, qs)
    mag = tv_density(u.values, sigma0)
    gmax = float(np.max(mag))
    crit_cells = mag <= _GRAD_FLOOR_REL * gmax
    if not crit_cells.any():
        return candidates
    umid = 0.25 * (
        u.values[:-1, :-1] + u.values[:-1, 1:] + u.values[1:, :-1] + u.values[1:, 1:]
    )
    crit_vals = np.unique(umid[crit_cells])
    band = _BAND_REL * (float(np.max(inner)) - float(np.min(inner)))
    keep = np.array(
        [np.min(np.abs(crit_vals - lv)) > band for lv in candidates], dtype=bool
    )
    return candidates[keep]


def area_minimality_audit(u: ScalarField, competitors, a: ScalarField, sigma0: TensorField2,
                          n_levels: int = 20, tol_rel: float = 0.01) -> dict:
    """Check that equipotentials of u carry no more metric area
    (`weighted_perimeter`) than the matching level sets of
    boundary-compatible competitors.

    Every competitor must share u's boundary trace.  A violation is a
    level where area(u) exceeds area(v) by more than tol_rel * area(u).
    """
    grid = u.grid
    rng_u = float(np.max(u.values)) - float(np.min(u.values))
    for idx, v in enumerate(competitors):
        diff = np.abs(v.values.ravel()[grid.boundary_ids] - u.values.ravel()[grid.boundary_ids])
        if float(np.max(diff)) > 1e-10 * max(rng_u, 1.0):
            raise GridError(f"competitor {idx} does not match the boundary trace")
    levels = sample_levels(u, sigma0, n_levels)
    # one row per level: the area of u, then that of each competitor
    areas = np.stack([weighted_perimeter(w, levels, a, sigma0) for w in [u, *competitors]],
                     axis=1).tolist()
    results = []
    violations = 0
    for lv, (area_u, *areas_v) in zip(levels, areas):
        row = {"level": float(lv), "area_u": area_u, "margins": []}
        for area_v in areas_v:
            margin = area_v - area_u
            row["margins"].append(margin)
            if margin < -tol_rel * max(area_u, 1e-300):
                violations += 1
        results.append(row)
    margins = [m for row in results for m in row["margins"]]
    return {
        "levels": [r["level"] for r in results],
        "rows": results,
        "min_margin": min(margins) if margins else 0.0,
        "violations": violations,
        "tol_rel": tol_rel,
    }


def truncation_limit_audit(u: ScalarField, a: ScalarField, sigma0: TensorField2,
                           level: float) -> dict:
    """Weighted TV of sharpening truncations against the metric area.

    w_eps = clamp((u - level)/eps, 0, 1) concentrates on the slab
    {level < u < level + eps}; along the ladder eps = _TRUNCATION_WIDTHS
    times range(u) its weighted TV should converge to the metric area
    (`weighted_perimeter`) of the level curve, and the relative
    discrepancy of the last rung is reported as `vs_anisotropic`.  A
    constant u (range 0) gets the finite record of a zero ladder: every
    eps, truncation TV, area and discrepancy is 0.
    """
    rng = float(np.max(u.values)) - float(np.min(u.values))
    eps_ladder = [rng * s for s in _TRUNCATION_WIDTHS]
    if rng <= 0.0:
        # a constant u has no level curve, and every truncation of it is constant
        values = [0.0] * len(eps_ladder)
    else:
        values = [weighted_tv(np.clip((u.values - level) / eps, 0.0, 1.0), a.values, sigma0)
                  for eps in eps_ladder]
    aniso = float(weighted_perimeter(u, [level], a, sigma0)[0])
    cauchy = abs(values[-1] - values[-2]) / max(abs(values[-1]), 1e-300)
    limit = values[-1]
    return {
        "level": float(level),
        "eps_ladder": [float(e) for e in eps_ladder],
        "tv_values": values,
        "cauchy": cauchy,
        "limit": limit,
        "anisotropic_perimeter": aniso,
        "vs_anisotropic": abs(limit - aniso) / max(abs(aniso), 1e-300),
    }


def curves_to_csv(curves) -> str:
    """CSV dump: level, curve index, vertex index, x, y."""
    lines = ["level,curve,vertex,x,y"]
    for ci, curve in enumerate(curves):
        for vi, (x, y) in enumerate(curve.vertices):
            lines.append(f"{curve.level!r},{ci},{vi},{float(x)!r},{float(y)!r}")
    return "\n".join(lines) + "\n"
