"""Metric construction, curvature residual, level sets, and the audits."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import acdii
from acdii.data import compute_current, synthesize_triplet
from acdii.fields import (
    Grid2D,
    GridError,
    ScalarField,
    TensorField2,
    VectorField2,
    grad,
    grad_adjoint,
    nodes_of_cells,
    sample_cell_field,
    sym2_det,
    tv_density,
)
from acdii.geometry import (
    area_minimality_audit,
    build_metric,
    curvature_residual,
    curves_to_csv,
    extract_level_set,
    sample_levels,
    truncation_limit_audit,
    weighted_perimeter,
)
from acdii.forward import InclusionSet, disk_cells
from acdii.inverse import recover_c, sine_perturbations
from conftest import bump_problem, bump_triplet, make_grid, rotated_tensor


def _const_a(grid, value=3.0):
    return ScalarField(grid, np.full(grid.cell_shape, value), location="cell")


def _random_spd(grid, rng):
    angle = rng.uniform(0.0, np.pi, grid.cell_shape)
    d1 = rng.uniform(0.5, 3.0, grid.cell_shape)
    d2 = rng.uniform(0.5, 3.0, grid.cell_shape)
    ct, st = np.cos(angle), np.sin(angle)
    return TensorField2(grid, d1 * ct * ct + d2 * st * st, (d1 - d2) * st * ct,
                        d1 * st * st + d2 * ct * ct)


def _recovered_current(u, a, sigma0):
    # the current verify audits: J = -(a / |grad u|_{sigma0}) sigma0 grad u
    c, mask, _ = recover_c(u, a, sigma0)
    return compute_current(u, c, sigma0, dead=mask), mask


def test_metric_closed_form_two_dimensional():
    g = make_grid(5)
    sigma0 = TensorField2.constant(g, 2.0, 0.0, 1.0)
    g11, g12, g22 = build_metric(_const_a(g), sigma0)
    # a^2 adj(sigma0) = 9 diag(1, 2) = det(sigma0) a^2 sigma0^{-1}
    assert np.allclose(g11, 9.0, rtol=1e-12)
    assert np.allclose(g22, 18.0, rtol=1e-12)
    assert np.allclose(g12, 0.0, atol=1e-15)
    assert np.allclose(sym2_det(g11, g12, g22), 162.0, rtol=1e-12)


def test_metric_homogeneity_in_data():
    g = make_grid(5)
    sigma0 = rotated_tensor(g, 0.3, 2.0, 0.7)
    t = 2.5
    m1 = build_metric(_const_a(g, 1.2), sigma0)
    m2 = build_metric(_const_a(g, 1.2 * t), sigma0)
    for p1, p2 in zip(m1, m2):
        assert np.allclose(p2, t**2 * p1, rtol=1e-12)


def test_curvature_residual_is_the_mean_curvature_in_the_data_metric():
    # div(sqrt(det g) g^{-1} grad u / |g^{-1} grad u|_g) for g = build_metric(a, sigma0),
    # on per-cell random data, is -div J of the recovered current
    g = make_grid(33)
    rng = np.random.default_rng(8)
    x, y = g.node_coords()
    u = ScalarField(g, np.sin(2.0 * x + 0.5) * np.exp(y) + 0.3 * x * y)
    a = ScalarField(g, rng.uniform(0.5, 2.0, g.cell_shape), location="cell")
    sigma0 = _random_spd(g, rng)
    current, dead = _recovered_current(u, a, sigma0)
    assert not dead.any()
    resid, rms = curvature_residual(current, dead)

    g11, g12, g22 = build_metric(a, sigma0)
    det = sym2_det(g11, g12, g22)
    g1, g2 = grad(g, u.values)
    w1 = (g22 * g1 - g12 * g2) / det
    w2 = (-g12 * g1 + g11 * g2) / det
    # |g^{-1} grad u|_g = |grad u|_{sigma0} / (a det(sigma0)^(1/2)), with the
    # norm of grad u read as rho_h, the density of F_h that recover_c divides by
    norm = tv_density(u.values, sigma0) / (a.values * np.sqrt(sym2_det(*sigma0.entries)))
    # the divergence is minus the adjoint of the cell gradient
    ref = -grad_adjoint(g, np.sqrt(det) * w1 / norm, np.sqrt(det) * w2 / norm)
    scale = float(np.max(np.abs(ref)))
    assert scale > 1.0
    assert np.max(np.abs(resid.values - ref)) <= 1e-12 * scale
    inner = g.interior_mask()
    assert rms > 0.1 * float(np.sqrt(np.mean(ref[inner] ** 2)))


def test_curvature_residual_collar_is_the_euclidean_distance_to_the_rim():
    # hx != hy, so a distance that mixes the axes or their spacings moves
    # some node across one of the collars; no collar ties a node distance
    g = Grid2D(23, 15, 0.05, 0.03)
    rng = np.random.default_rng(12)
    current = VectorField2(g, rng.standard_normal(g.cell_shape), rng.standard_normal(g.cell_shape))
    dead = np.zeros(g.cell_shape, dtype=bool)
    dead[2:4, 2:5] = True
    seed = np.ones(g.shape)
    seed.ravel()[g.boundary_ids] = 0.0
    dist = ndimage.distance_transform_edt(seed, sampling=(g.hy, g.hx))
    # a dead cell's nearest point to a node is one of its corners
    dead_dist = ndimage.distance_transform_edt(~nodes_of_cells(dead), sampling=(g.hy, g.hx))
    good = g.interior_mask() & ~nodes_of_cells(dead)
    counts = set()
    for collar in (None, 0.031, 0.064, 0.093, 0.104, 0.122, 0.155, 0.185):
        resid, rms = curvature_residual(current, dead, collar=collar)
        width = 0.1 * min(22 * g.hx, 14 * g.hy) if collar is None else collar
        deep = good & (dist > width) & (dead_dist > width)
        assert deep.any() and (good & (dist > width) & ~deep).any()
        counts.add(int(deep.sum()))
        assert rms == float(np.sqrt(np.mean(resid.values[deep] ** 2)))
    assert len(counts) >= 6


def test_curvature_residual_exact_for_slab_flow():
    g = make_grid(17)
    x, _ = g.node_coords()
    current, dead = _recovered_current(ScalarField(g, x), _const_a(g, 2.0),
                                       TensorField2.constant(g, 1.0, 0.0, 1.0))
    resid, rms = curvature_residual(current, dead)
    assert rms <= 1e-13
    # the constant flux has zero divergence everywhere inside; only the
    # one-sided wall stencils (excluded from the rms) see the field end
    assert np.max(np.abs(resid.values[g.interior_mask()])) <= 1e-12


def test_curvature_residual_second_order_on_matched_data():
    def rms_at(n):
        grid, c, sigma0, f = bump_problem(n)
        trip = synthesize_triplet(c, sigma0, f, grid)
        u = ScalarField(grid, np.asarray(trip.provenance["u_true"]))
        return curvature_residual(*_recovered_current(u, trip.a, sigma0))[1]

    r17, r33 = rms_at(17), rms_at(33)
    assert r17 / r33 >= 2.0


def test_curvature_residual_tells_matched_from_mismatched_data_on_inclusions():
    # the inclusion truth of the inclusion workload at n = 65: with the
    # node rings next to the masked inclusion cells left out, the residual
    # is criterion 08's factor 5 below the axis-swapped control
    grid, c, sigma0, f = bump_problem(65)
    inclusions = InclusionSet(grid, perfect=[disk_cells(grid, (0.3, 0.7), 0.1)],
                              insulating=[disk_cells(grid, (0.7, 0.3), 0.08)])
    trip = synthesize_triplet(c, sigma0, f, grid, inclusions)
    u = ScalarField(grid, np.asarray(trip.provenance["u_true"]))
    current, dead = _recovered_current(u, trip.a, sigma0)
    assert dead.any()
    _, rms = curvature_residual(current, dead)
    swapped = TensorField2(grid, sigma0.s22, sigma0.s12, sigma0.s11)
    _, control = curvature_residual(*_recovered_current(u, trip.a, swapped))
    assert rms <= control / 5.0


def test_curvature_residual_collar_fallback():
    g = make_grid(9)
    x, _ = g.node_coords()
    current, dead = _recovered_current(ScalarField(g, x), _const_a(g, 1.0),
                                       TensorField2.constant(g, 1.0, 0.0, 1.0))
    # a collar wider than the domain keeps the summary nonempty via fallback
    _, rms = curvature_residual(current, dead, collar=10.0)
    assert np.isfinite(rms)


def test_level_set_circle_length():
    g = make_grid(129)
    x, y = g.node_coords()
    u = ScalarField(g, (x - 0.5) ** 2 + (y - 0.5) ** 2)
    r = 0.3
    curves = extract_level_set(u, r * r)
    assert len(curves) == 1
    assert curves[0].closed
    assert curves[0].length == pytest.approx(2.0 * np.pi * r, rel=1e-2)


def test_level_set_extraction_deterministic():
    g = make_grid(33)
    x, y = g.node_coords()
    u = ScalarField(g, np.sin(3 * x) * np.cos(2 * y) + 0.3 * x)
    a = extract_level_set(u, 0.2)
    b = extract_level_set(u, 0.2)
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.vertices, cb.vertices)


def test_saddle_level_splits_into_separate_branches():
    g = make_grid(33)
    x, y = g.node_coords()
    u = ScalarField(g, (x - 0.5) * (y - 0.5))
    curves = extract_level_set(u, 0.0)
    assert len(curves) >= 2
    again = extract_level_set(u, 0.0)
    assert [c.vertices.shape for c in curves] == [c.vertices.shape for c in again]


def test_saddle_cell_is_split_by_its_center_mean():
    # cell (0, 0) has corners 1, 0 (bottom) and 0, 1 (top), center mean 0.5.
    # At level 0.4 the center is above: the cut keeps the 1-corners joined
    # and cuts off the 0-corners; at 0.6 it cuts off the 1-corners.
    g = Grid2D(3, 3, 0.5, 0.25)
    u = ScalarField(g, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]))
    expected = {
        0.4: [[(0.3, 0.0), (0.5, 0.1), (1.0, 0.1)], [(0.2, 0.5), (0.2, 0.25), (0.0, 0.15)]],
        0.6: [[(0.2, 0.0), (0.0, 0.1)], [(0.3, 0.5), (0.3, 0.25), (0.5, 0.15), (1.0, 0.15)]],
    }
    for level, want in expected.items():
        curves = extract_level_set(u, level)
        assert len(curves) == len(want)
        for curve, verts in zip(curves, want):
            assert not curve.closed
            np.testing.assert_allclose(curve.vertices, verts, rtol=0.0, atol=1e-15)
    areas = weighted_perimeter(u, list(expected), _const_a(g, 1.0),
                               TensorField2.constant(g, 1.0, 0.0, 1.0))
    assert areas == pytest.approx(0.75 + 2.0 * np.hypot(0.2, 0.1), rel=1e-14)


def test_loops_come_in_the_order_of_their_lowest_row_crossing():
    # loops are chained after the open curves, each from its smallest edge:
    # horizontal edges first, by row and then column, so a loop starts at
    # its lowest crossing of a grid row and the starts ascend in (y, x)
    g = make_grid(33)
    x, y = g.node_coords()
    u = ScalarField(g, np.sin(3.0 * np.pi * x) * np.sin(3.0 * np.pi * y))
    curves = extract_level_set(u, 0.5)
    assert len(curves) == 5 and all(c.closed for c in curves)
    starts = []
    for c in curves:
        rows = c.vertices[c.vertices[:, 1] / g.hy == np.round(c.vertices[:, 1] / g.hy)]
        lowest = min(map(tuple, rows[:, ::-1]))
        assert tuple(c.vertices[0, ::-1]) == lowest
        starts.append(lowest)
    assert starts == sorted(starts)


def test_weighted_perimeter_reduces_to_area_when_isotropic():
    g = make_grid(65)
    x, y = g.node_coords()
    u = ScalarField(g, (x - 0.5) ** 2 + (y - 0.5) ** 2)
    rng = np.random.default_rng(1)
    a = ScalarField(g, rng.uniform(0.5, 1.5, g.cell_shape), location="cell")
    s = TensorField2.constant(g, 1.0, 0.0, 1.0)
    curves = extract_level_set(u, 0.09)
    # sigma0 = I: the metric area is the a-weighted Euclidean length
    length = 0.0
    for curve in curves:
        mids = 0.5 * (curve.vertices[:-1] + curve.vertices[1:])
        length += np.sum(sample_cell_field(g, a.values, mids[:, 0], mids[:, 1]) * curve.lengths)
    (area,) = weighted_perimeter(u, [0.09], a, s)
    assert area == pytest.approx(length, rel=1e-12)


def test_weighted_perimeter_sees_the_normal_direction():
    # vertical line in diag(4, 1): normal is x-hat, weight sqrt(4) = 2
    g = make_grid(17)
    x, _ = g.node_coords()
    u = ScalarField(g, x)
    a = _const_a(g, 1.0)
    s = TensorField2.constant(g, 4.0, 0.0, 1.0)
    level = 0.5 + 0.3 * g.hx
    (area,) = weighted_perimeter(u, [level], a, s)
    assert area == pytest.approx(2.0, rel=1e-12)
    assert sum(curve.length for curve in extract_level_set(u, level)) == pytest.approx(1.0, rel=1e-12)


def test_perimeter_linear_in_weight():
    g = make_grid(33)
    x, y = g.node_coords()
    u = ScalarField(g, (x - 0.5) ** 2 + (y - 0.5) ** 2)
    rng = np.random.default_rng(8)
    a1 = ScalarField(g, rng.uniform(0.1, 1.0, g.cell_shape), location="cell")
    a2 = ScalarField(g, rng.uniform(0.1, 1.0, g.cell_shape), location="cell")
    s = rotated_tensor(g, 0.5, 2.0, 1.0)
    both = ScalarField(g, a1.values + a2.values, location="cell")
    (p1,) = weighted_perimeter(u, [0.06], a1, s)
    (p2,) = weighted_perimeter(u, [0.06], a2, s)
    (p12,) = weighted_perimeter(u, [0.06], both, s)
    assert p12 == pytest.approx(p1 + p2, rel=1e-12)


def test_weighted_perimeter_is_the_length_in_the_data_metric():
    # in 2-D, sqrt(g(t, t)) = a |nu|_{sigma0} for g = a^2 adj(sigma0)
    # and nu the unit normal of the unit tangent t
    g = make_grid(33)
    rng = np.random.default_rng(4)
    x, y = g.node_coords()
    u = ScalarField(g, (x - 0.45) ** 2 + 2.0 * (y - 0.55) ** 2)
    a = ScalarField(g, rng.uniform(0.5, 2.0, g.cell_shape), location="cell")
    sigma0 = _random_spd(g, rng)
    curves = extract_level_set(u, 0.05)
    assert len(curves) == 1 and curves[0].closed
    curve = curves[0]
    mids = 0.5 * (curve.vertices[:-1] + curve.vertices[1:])
    # the metric of the data sampled at the segment midpoints, one cell
    # column per segment (a grid is at least two cells high, so twice)
    seg_grid = Grid2D(len(curve.lengths) + 1, 3, 1.0, 1.0)
    sampled = sample_cell_field(g, np.stack([a.values, *sigma0.entries]), mids[:, 0], mids[:, 1])
    rows = [np.stack([p, p]) for p in sampled]
    g11, g12, g22 = build_metric(ScalarField(seg_grid, rows[0], location="cell"),
                                 TensorField2(seg_grid, *rows[1:]))
    t = np.diff(curve.vertices, axis=0) / curve.lengths[:, None]
    gtt = g11[0] * t[:, 0] ** 2 + 2.0 * g12[0] * t[:, 0] * t[:, 1] + g22[0] * t[:, 1] ** 2
    length = float(np.sum(np.sqrt(gtt) * curve.lengths))
    (area,) = weighted_perimeter(u, [0.05], a, sigma0)
    assert area == pytest.approx(length, rel=1e-12)


def test_weighted_perimeter_gives_one_area_per_curve_set():
    g = make_grid(33)
    x, y = g.node_coords()
    u = ScalarField(g, (x - 0.5) ** 2 + (y - 0.5) ** 2)
    rng = np.random.default_rng(6)
    a = ScalarField(g, rng.uniform(0.5, 1.5, g.cell_shape), location="cell")
    s = rotated_tensor(g, 0.3, 2.0, 1.0)
    levels = [0.02, 0.08, 0.5]
    assert extract_level_set(u, levels[-1]) == []
    areas = weighted_perimeter(u, levels, a, s)
    # each level's sum runs over its own segments in the same order,
    # whichever levels share the call and in whatever order they come
    assert areas.tolist() == [weighted_perimeter(u, [lv], a, s)[0] for lv in levels]
    assert weighted_perimeter(u, levels[::-1], a, s).tolist() == areas.tolist()[::-1]
    assert areas[0] < areas[1] and areas[2] == 0.0
    assert weighted_perimeter(u, [], a, s).shape == (0,)


@settings(max_examples=150, deadline=None, database=None)
@given(
    nx=st.integers(3, 40),
    ny=st.integers(3, 40),
    mx=st.integers(1, 640),
    my=st.integers(1, 640),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_perimeter_sums_the_chained_curves(nx, ny, mx, my, seed):
    # the reference measures extract_level_set's chained curves vertex by
    # vertex.  Spacings are multiples of 1/64, so a node's coordinates are
    # exact whichever cell computes them and the chained vertices are the
    # segment ends bit for bit; what remains is rounding of the sums.
    if mx == my:
        my += 1
    g = Grid2D(nx, ny, mx / 64.0, my / 64.0)
    rng = np.random.default_rng(seed)
    # small integers make ties with node values, zero-length segments and saddles
    vals = rng.integers(-2, 3, g.shape) + (rng.uniform(size=g.shape) if seed % 2 else 0.0)
    j, i = rng.integers(0, ny - 1), rng.integers(0, nx - 1)
    vals[j:j + 2, i:i + 2] = [[1.0, -1.0], [-1.0, 1.0]]  # a saddle cell at levels in (-1, 1)
    u = ScalarField(g, vals)
    a = ScalarField(g, rng.uniform(0.0, 2.0, g.cell_shape) * (rng.uniform(size=g.cell_shape) < 0.8),
                    location="cell")
    sigma0 = _random_spd(g, rng)
    levels = np.concatenate([rng.choice(vals.ravel(), 4), rng.uniform(-1.0, 1.0, 4),
                             [vals.min() - 1.0, vals.max() + 0.5, vals.max(), 0.0]])
    levels = levels[: rng.integers(0, levels.size + 1)]  # sometimes no level at all
    ref = []
    for lv in levels:
        total = 0.0
        for curve in extract_level_set(u, lv):
            d = np.diff(curve.vertices, axis=0)
            mids = 0.5 * (curve.vertices[:-1] + curve.vertices[1:])
            av, s11, s12, s22 = sample_cell_field(g, np.stack([a.values, *sigma0.entries]),
                                                  mids[:, 0], mids[:, 1])
            n1, n2 = d[:, 1] / curve.lengths, -d[:, 0] / curve.lengths
            total += float(np.sum(av * np.sqrt(s11 * n1 * n1 + 2.0 * s12 * n1 * n2 + s22 * n2 * n2)
                                  * curve.lengths))
        ref.append(total)
    areas = weighted_perimeter(u, levels, a, sigma0)
    assert areas.shape == levels.shape
    assert np.all(np.abs(areas - ref) <= 1e-12 * np.abs(ref))
    outside = (levels < vals.min()) | (levels >= vals.max())
    assert np.all(areas[outside] == 0.0)


def test_sample_levels_interior_and_sorted():
    g = make_grid(17)
    x, _ = g.node_coords()
    u = ScalarField(g, x)
    levels = sample_levels(u, TensorField2.constant(g, 1.0, 0.0, 1.0), 11)
    assert len(levels) == 11
    assert all(0.0 < lv < 1.0 for lv in levels)
    assert sorted(levels) == list(levels)


def test_area_minimality_requires_matching_traces():
    g = make_grid(9)
    x, y = g.node_coords()
    u = ScalarField(g, x)
    bad = ScalarField(g, x + 0.1 * y)
    with pytest.raises(GridError):
        area_minimality_audit(u, [bad], _const_a(g, 1.0), TensorField2.constant(g, 1.0, 0.0, 1.0))


def test_area_minimality_accepts_self_competitor():
    g = make_grid(17)
    x, _ = g.node_coords()
    u = ScalarField(g, x)
    s = rotated_tensor(g, 0.4, 2.0, 1.0)
    res = area_minimality_audit(u, [u], _const_a(g, 1.0), s, n_levels=5)
    assert res["violations"] == 0
    assert res["min_margin"] == 0.0


def test_truth_equipotentials_carry_the_least_metric_area(bump33):
    # verify's default competitors: five sine perturbations, seed 1, amplitude 0.05
    grid = bump33.grid
    u = ScalarField(grid, np.asarray(bump33.provenance["u_true"]))
    competitors = [ScalarField(grid, u.values + w) for w in sine_perturbations(u, 5, 1, 0.05)]
    res = area_minimality_audit(u, competitors, bump33.a, bump33.sigma0)
    assert res["violations"] == 0
    assert res["min_margin"] >= 0.0


def test_truncation_ladder_exact_on_anisotropic_slab():
    g = make_grid(33)
    s = TensorField2.constant(g, 4.0, 0.0, 1.0)
    x, _ = g.node_coords()
    u = ScalarField(g, x)
    # matched data: a = |J|_{sigma0^{-1}} = |grad u|_{sigma0} = 2 for c = 1
    a = _const_a(g, 2.0)
    res = truncation_limit_audit(u, a, s, level=0.5)
    assert res["cauchy"] == 0.0
    assert res["vs_anisotropic"] == pytest.approx(0.0, abs=1e-12)
    assert res["limit"] == pytest.approx(res["anisotropic_perimeter"], rel=1e-12)


def test_truncation_ladder_of_a_constant_potential_is_finite_zeros(bump33):
    # range(u) = 0 leaves the truncation ladder with no width: the audit
    # records finite zeros and warns of nothing
    u = ScalarField(bump33.grid, np.full(bump33.grid.shape, 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trunc = truncation_limit_audit(u, bump33.a, bump33.sigma0, level=0.25)
    assert all(np.isfinite(v) for v in trunc.values() if isinstance(v, float))
    assert trunc["tv_values"] == [0.0] * len(trunc["eps_ladder"])
    assert trunc["vs_anisotropic"] == 0.0


def test_curves_to_csv_layout():
    g = make_grid(33)
    x, y = g.node_coords()
    u = ScalarField(g, (x - 0.5) ** 2 + (y - 0.5) ** 2)
    curves = extract_level_set(u, 0.04)
    text = curves_to_csv(curves)
    lines = text.strip().splitlines()
    assert lines[0] == "level,curve,vertex,x,y"
    assert len(lines) == 1 + sum(len(c.vertices) for c in curves)
    # every field of every row is a plain number
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        for text in fields:
            float(text)


def test_importing_geometry_loads_no_inverse():
    # the functional lives in fields, so geometry needs nothing from inverse
    code = "import sys, acdii.geometry; print('acdii.inverse' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(acdii.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
