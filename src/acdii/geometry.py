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
it with the exact adjoint divergence of the cell gradient, so for
matched data the residual shrinks under refinement while a mismatched
sigma0 leaves an O(1) signal.

Level sets are extracted by marching squares with linear edge
interpolation; saddle cells are split by the cell-center mean, which
makes the extraction deterministic.  Segment normals point from the
super-level side {u > level} to the sub-level side.

The area element of g on a curve with unit normal nu is
sqrt(det g) |nu|_{g^{-1}} dS = a |nu|_{sigma0} dS, so
`weighted_perimeter` is the one curve measure: it is the g-area of a
level curve, the level integrand of the coarea formula for F, and the
limit of the truncation ladder.
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
    gradient,
    nodes_of_cells,
    sample_cell_field,
    weighted_tv,
)

# `sample_levels` drops candidates within _BAND_REL * range(u) of a value
# taken on a cell whose |grad u| is below _GRAD_FLOOR_REL of its maximum
_GRAD_FLOOR_REL = 1e-6
_BAND_REL = 1e-3
# truncation widths of `truncation_limit_audit`, in units of range(u)
_TRUNCATION_STEPS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


def build_metric(a: ScalarField, sigma0: TensorField2):
    """The planes (g11, g12, g22) of g = a^2 adj(sigma0) per cell."""
    if a.location != "cell":
        raise GridError("metric expects cell-located data a")
    a2 = a.values**2
    return a2 * sigma0.s22, -a2 * sigma0.s12, a2 * sigma0.s11


def curvature_residual(current: VectorField2, dead, collar: float | None = None):
    """Discrete mean-curvature residual -div J of the equipotentials in g.

    `current` is the recovered current, zero on the `dead` cells.
    Returns (node residual field, rms).

    The zero-curvature property is an interior statement, and the
    one-sided stencils of the discrete divergence are not consistent on
    the outermost node rings, so the rms summary runs over interior
    nodes with no dead incident cell that lie farther than `collar` from
    the boundary (a fixed physical width, default one tenth of the
    smaller domain extent; when no node is that deep the collar is
    dropped).  On that fixed region the residual of matched data shrinks
    at second order under refinement.  The full residual field is
    returned unclipped.
    """
    grid = current.grid
    # -div is the adjoint of the cell gradient
    resid = ScalarField(grid, grad_adjoint(grid, current.v1, current.v2), location="node")
    good = grid.interior_mask() & ~nodes_of_cells(dead)

    if collar is None:
        collar = 0.1 * min((grid.nx - 1) * grid.hx, (grid.ny - 1) * grid.hy)
    if collar > 0.0:
        # distance to the rectangle's rim: the nearest side, in closed form
        i = np.arange(grid.nx)
        j = np.arange(grid.ny)
        dist = np.minimum(np.minimum(i, grid.nx - 1 - i)[None, :] * grid.hx,
                          np.minimum(j, grid.ny - 1 - j)[:, None] * grid.hy)
        deep = good & (dist > collar)
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
    first vertex at the end); normals and lengths are per segment, with
    normals unit and pointing away from {u > level}.
    """

    level: float
    vertices: np.ndarray
    normals: np.ndarray
    lengths: np.ndarray
    closed: bool

    @property
    def length(self) -> float:
        return float(np.sum(self.lengths))


# case -> list of (entry edge, exit edge); edges are 0 bottom, 1 right,
# 2 top, 3 left; orientation keeps {u > level} on the left of travel
_CASES = {
    1: [(0, 3)],
    2: [(1, 0)],
    3: [(1, 3)],
    4: [(2, 1)],
    6: [(2, 0)],
    7: [(2, 3)],
    8: [(3, 2)],
    9: [(0, 2)],
    11: [(1, 2)],
    12: [(3, 1)],
    13: [(0, 1)],
    14: [(3, 0)],
}
_SADDLE_HI = {5: [(0, 1), (2, 3)], 10: [(3, 0), (1, 2)]}
_SADDLE_LO = {5: [(0, 3), (2, 1)], 10: [(3, 2), (1, 0)]}


def _edge_key(j, i, edge):
    # global identity of a cell edge: horizontal edges keyed ('h', j, i),
    # vertical edges ('v', j, i) by their lower-left node
    if edge == 0:
        return ("h", j, i)
    if edge == 2:
        return ("h", j + 1, i)
    if edge == 3:
        return ("v", j, i)
    return ("v", j, i + 1)


def extract_level_set(u: ScalarField, level: float) -> list[LevelSetCurve]:
    """Marching-squares contour of {u = level} over the grid cells.

    Returns chained curves, each closed or terminating on the domain
    boundary, in a deterministic order (sorted by first edge key).
    """
    if u.location != "node":
        raise GridError("level sets are extracted from node scalars")
    grid = u.grid
    vals = u.values
    level = float(level)

    above = vals > level
    a_bl = above[:-1, :-1]
    a_br = above[:-1, 1:]
    a_tr = above[1:, 1:]
    a_tl = above[1:, :-1]
    code = (
        a_bl.astype(np.int8)
        + 2 * a_br.astype(np.int8)
        + 4 * a_tr.astype(np.int8)
        + 8 * a_tl.astype(np.int8)
    )
    jj, ii = np.nonzero((code > 0) & (code < 15))

    def cross(j, i, edge):
        x0, y0 = i * grid.hx, j * grid.hy
        if edge == 0:
            ua, ub = vals[j, i], vals[j, i + 1]
            t = (level - ua) / (ub - ua)
            return (x0 + t * grid.hx, y0)
        if edge == 2:
            ua, ub = vals[j + 1, i], vals[j + 1, i + 1]
            t = (level - ua) / (ub - ua)
            return (x0 + t * grid.hx, y0 + grid.hy)
        if edge == 3:
            ua, ub = vals[j, i], vals[j + 1, i]
            t = (level - ua) / (ub - ua)
            return (x0, y0 + t * grid.hy)
        ua, ub = vals[j, i + 1], vals[j + 1, i + 1]
        t = (level - ua) / (ub - ua)
        return (x0 + grid.hx, y0 + t * grid.hy)

    segments = {}  # entry edge key -> (exit edge key, p_from, p_to)
    for j, i in zip(jj.tolist(), ii.tolist()):
        c = int(code[j, i])
        if c in (5, 10):
            center = 0.25 * (vals[j, i] + vals[j, i + 1] + vals[j + 1, i] + vals[j + 1, i + 1])
            pairs = _SADDLE_HI[c] if center > level else _SADDLE_LO[c]
        else:
            pairs = _CASES[c]
        for e_in, e_out in pairs:
            k_in = _edge_key(j, i, e_in)
            k_out = _edge_key(j, i, e_out)
            segments[k_in] = (k_out, cross(j, i, e_in), cross(j, i, e_out))

    has_pred = {v[0] for v in segments.values()}
    starts = sorted(k for k in segments if k not in has_pred)
    curves = []

    def walk(start):
        pts = []
        key = start
        first = True
        while key in segments:
            nxt, p_from, p_to = segments.pop(key)
            if first:
                pts.append(p_from)
                first = False
            pts.append(p_to)
            key = nxt
            if key == start:
                break
        return pts, key == start

    for start in starts:
        pts, closed = walk(start)
        curve = _make_curve(level, pts, closed)
        if curve is not None:
            curves.append(curve)
    while segments:
        start = sorted(segments)[0]
        pts, closed = walk(start)
        curve = _make_curve(level, pts, closed)
        if curve is not None:
            curves.append(curve)
    return curves


def _make_curve(level, pts, closed):
    verts = np.asarray(pts, dtype=np.float64)
    if verts.shape[0] < 2:
        return None
    d = np.diff(verts, axis=0)
    lengths = np.hypot(d[:, 0], d[:, 1])
    keepseg = lengths > 0.0
    if not keepseg.any():
        return None
    if not keepseg.all():
        keepv = np.concatenate([[True], keepseg])
        verts = verts[keepv]
        d = np.diff(verts, axis=0)
        lengths = np.hypot(d[:, 0], d[:, 1])
    # inside {u > level} is on the left of travel; rotating the direction
    # by -90 degrees points the normal to the sub-level side
    normals = np.stack([d[:, 1], -d[:, 0]], axis=1) / lengths[:, None]
    return LevelSetCurve(float(level), verts, normals, lengths, bool(closed))


# -- the metric area --------------------------------------------------------------


def weighted_perimeter(curve_sets, a: ScalarField, sigma0: TensorField2) -> list[float]:
    """Metric area, integral of a (sigma0 nu . nu)^(1/2), of each curve set.

    `curve_sets` is an iterable of curve lists (one per level set, say),
    read once, so a generator keeps one set in memory at a time; the
    result holds one area per set.  a and sigma0 are sampled per segment
    by bilinear interpolation of the cell-centered values at the segment
    midpoint, with one set of weights for all four planes, which are
    stacked once per call.  Each area is a plain sum over segments, so it
    is additive over disjoint curves and invariant under regrouping or
    splitting of polylines at vertices.
    """
    if a.location != "cell":
        raise GridError("weighted perimeter expects cell-located a")
    grid = a.grid
    planes = np.stack([a.values, *sigma0.entries])
    areas = []
    for curves in curve_sets:
        total = 0.0
        for curve in curves:
            mids = 0.5 * (curve.vertices[:-1] + curve.vertices[1:])
            av, s11, s12, s22 = sample_cell_field(grid, planes, mids[:, 0], mids[:, 1])
            n1, n2 = curve.normals[:, 0], curve.normals[:, 1]
            w = np.sqrt(np.maximum(s11 * n1 * n1 + 2.0 * s12 * n1 * n2 + s22 * n2 * n2, 0.0))
            total += float(np.sum(av * w * curve.lengths))
        areas.append(total)
    return areas


def sample_levels(u: ScalarField, n_levels: int) -> np.ndarray:
    """Evenly spaced interior quantile levels, skipping critical bands.

    Candidate levels are the (i+1/2)/n quantiles of u over interior
    nodes; any candidate within _BAND_REL * range(u) of a value taken on
    a cell with |grad u| below _GRAD_FLOOR_REL times its maximum is
    dropped (those are the levels the theory excludes).
    """
    grid = u.grid
    inner = u.values[grid.interior_mask()]
    qs = (np.arange(n_levels) + 0.5) / n_levels
    candidates = np.quantile(inner, qs)
    gr = gradient(u)
    mag = np.hypot(gr.v1, gr.v2)
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
    levels = sample_levels(u, n_levels)
    potentials = [u, *competitors]
    areas = weighted_perimeter(
        (extract_level_set(w, lv) for lv in levels for w in potentials), a, sigma0
    )
    results = []
    violations = 0
    for k, lv in enumerate(levels):
        area_u, *areas_v = areas[k * len(potentials):(k + 1) * len(potentials)]
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
    {level < u < level + eps}; along the ladder eps = _TRUNCATION_STEPS
    times range(u) its weighted TV should converge to the metric area
    (`weighted_perimeter`) of the level curve, and the relative
    discrepancy of the last rung is reported as `vs_anisotropic`.
    """
    grid = u.grid
    rng = float(np.max(u.values)) - float(np.min(u.values))
    eps_ladder = [rng * s for s in _TRUNCATION_STEPS]
    values = []
    for eps in eps_ladder:
        w = np.clip((u.values - level) / eps, 0.0, 1.0)
        values.append(weighted_tv(ScalarField(grid, w, location="node"), a, sigma0))
    (aniso,) = weighted_perimeter([extract_level_set(u, level)], a, sigma0)
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
            lines.append(f"{curve.level!r},{ci},{vi},{x!r},{y!r}")
    return "\n".join(lines) + "\n"
