"""Metric construction, curvature residual, level sets, and the audits."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import acdii
from acdii.data import synthesize_triplet
from acdii.fields import Grid2D, GridError, ScalarField, TensorField2, gradient, sample_cell_field
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
from acdii.inverse import sine_perturbations
from conftest import bump_problem, bump_triplet, make_grid, rotated_tensor


def _const_a(grid, value=3.0):
    return ScalarField(grid, np.full(grid.cell_shape, value), location="cell")


def test_metric_closed_form_two_dimensional():
    g = make_grid(5)
    sigma0 = TensorField2.constant(g, 2.0, 0.0, 1.0)
    met = build_metric(_const_a(g), sigma0, n=2)
    # weight (det sigma0 * a^2)^{1/(n-1)} = 18, times sigma0^{-1}
    assert np.allclose(met.g11, 9.0, rtol=1e-12)
    assert np.allclose(met.g22, 18.0, rtol=1e-12)
    assert np.allclose(met.g12, 0.0, atol=1e-15)
    assert np.allclose(met.det, 162.0, rtol=1e-12)
    assert not met.degenerate.any()


def test_metric_closed_form_three_dimensional():
    g = make_grid(5)
    sigma0 = TensorField2.constant(g, 2.0, 0.0, 1.0)
    met = build_metric(_const_a(g), sigma0, n=3)
    w = np.sqrt(18.0)
    assert np.allclose(met.g11, w / 2.0, rtol=1e-12)
    assert np.allclose(met.g22, w, rtol=1e-12)


def test_metric_homogeneity_in_data():
    g = make_grid(5)
    sigma0 = rotated_tensor(g, 0.3, 2.0, 0.7)
    t = 2.5
    for n, power in ((2, 2.0), (3, 1.0)):
        m1 = build_metric(_const_a(g, 1.2), sigma0, n=n)
        m2 = build_metric(_const_a(g, 1.2 * t), sigma0, n=n)
        assert np.allclose(m2.g11, t**power * m1.g11, rtol=1e-12)
        assert np.allclose(m2.g12, t**power * m1.g12, rtol=1e-12)


def test_metric_flags_degenerate_cells():
    g = make_grid(5)
    av = np.full(g.cell_shape, 2.0)
    av[1, 1] = 0.0
    met = build_metric(ScalarField(g, av, location="cell"),
                       TensorField2.constant(g, 1.0, 0.0, 1.0), n=2)
    assert met.degenerate[1, 1]
    assert met.degenerate.sum() == 1


def test_curvature_residual_exact_for_slab_flow():
    g = make_grid(17)
    x, _ = g.node_coords()
    met = build_metric(_const_a(g, 2.0), TensorField2.constant(g, 1.0, 0.0, 1.0))
    resid, rms = curvature_residual(ScalarField(g, x), met)
    assert rms <= 1e-13
    # the constant flux has zero divergence everywhere inside; only the
    # one-sided wall stencils (excluded from the rms) see the field end
    assert np.max(np.abs(resid.values[g.interior_mask()])) <= 1e-12


def test_curvature_residual_second_order_on_matched_data():
    def rms_at(n):
        grid, c, sigma0, f = bump_problem(n)
        trip = synthesize_triplet(c, sigma0, f, grid)
        u = ScalarField(grid, np.asarray(trip.provenance["u_true"]))
        met = build_metric(trip.a, sigma0)
        return curvature_residual(u, met)[1]

    r17, r33 = rms_at(17), rms_at(33)
    assert r17 / r33 >= 2.0


def test_curvature_residual_collar_fallback():
    g = make_grid(9)
    x, _ = g.node_coords()
    met = build_metric(_const_a(g, 1.0), TensorField2.constant(g, 1.0, 0.0, 1.0))
    # a collar wider than the domain keeps the summary nonempty via fallback
    _, rms = curvature_residual(ScalarField(g, x), met, collar=10.0)
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
    assert weighted_perimeter(curves, a, s) == pytest.approx(length, rel=1e-12)


def test_weighted_perimeter_sees_the_normal_direction():
    # vertical line in diag(4, 1): normal is x-hat, weight sqrt(4) = 2
    g = make_grid(17)
    x, _ = g.node_coords()
    u = ScalarField(g, x)
    a = _const_a(g, 1.0)
    s = TensorField2.constant(g, 4.0, 0.0, 1.0)
    level = 0.5 + 0.3 * g.hx
    curves = extract_level_set(u, level)
    assert weighted_perimeter(curves, a, s) == pytest.approx(2.0, rel=1e-12)
    assert sum(curve.length for curve in curves) == pytest.approx(1.0, rel=1e-12)


def test_perimeter_linear_in_weight():
    g = make_grid(33)
    x, y = g.node_coords()
    u = ScalarField(g, (x - 0.5) ** 2 + (y - 0.5) ** 2)
    curves = extract_level_set(u, 0.06)
    rng = np.random.default_rng(8)
    a1 = ScalarField(g, rng.uniform(0.1, 1.0, g.cell_shape), location="cell")
    a2 = ScalarField(g, rng.uniform(0.1, 1.0, g.cell_shape), location="cell")
    s = rotated_tensor(g, 0.5, 2.0, 1.0)
    both = ScalarField(g, a1.values + a2.values, location="cell")
    assert weighted_perimeter(curves, both, s) == pytest.approx(
        weighted_perimeter(curves, a1, s) + weighted_perimeter(curves, a2, s), rel=1e-12
    )


def test_weighted_perimeter_is_the_length_in_the_data_metric():
    # in 2-D, sqrt(g(t, t)) = a |nu|_{sigma0} for g = det(sigma0) a^2 sigma0^{-1}
    # and nu the unit normal of the unit tangent t
    g = make_grid(33)
    rng = np.random.default_rng(4)
    x, y = g.node_coords()
    u = ScalarField(g, (x - 0.45) ** 2 + 2.0 * (y - 0.55) ** 2)
    a = ScalarField(g, rng.uniform(0.5, 2.0, g.cell_shape), location="cell")
    angle = rng.uniform(0.0, np.pi, g.cell_shape)
    d1 = rng.uniform(0.5, 3.0, g.cell_shape)
    d2 = rng.uniform(0.5, 3.0, g.cell_shape)
    ct, st = np.cos(angle), np.sin(angle)
    sigma0 = TensorField2(g, d1 * ct * ct + d2 * st * st, (d1 - d2) * st * ct,
                          d1 * st * st + d2 * ct * ct)
    curves = extract_level_set(u, 0.05)
    assert len(curves) == 1 and curves[0].closed
    curve = curves[0]
    mids = 0.5 * (curve.vertices[:-1] + curve.vertices[1:])
    # the metric of the data sampled at the segment midpoints, one cell
    # column per segment (a grid is at least two cells high, so twice)
    seg_grid = Grid2D(len(curve.lengths) + 1, 3, 1.0, 1.0)
    sampled = sample_cell_field(g, np.stack([a.values, *sigma0.entries]), mids[:, 0], mids[:, 1])
    rows = [np.stack([p, p]) for p in sampled]
    metric = build_metric(ScalarField(seg_grid, rows[0], location="cell"),
                          TensorField2(seg_grid, *rows[1:]), n=2)
    t = np.diff(curve.vertices, axis=0) / curve.lengths[:, None]
    gtt = metric.g11[0] * t[:, 0] ** 2 + 2.0 * metric.g12[0] * t[:, 0] * t[:, 1] \
        + metric.g22[0] * t[:, 1] ** 2
    length = float(np.sum(np.sqrt(gtt) * curve.lengths))
    assert weighted_perimeter(curves, a, sigma0) == pytest.approx(length, rel=1e-12)


def test_sample_levels_interior_and_sorted():
    g = make_grid(17)
    x, _ = g.node_coords()
    u = ScalarField(g, x)
    levels = sample_levels(u, 11)
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


def test_curves_to_csv_layout():
    g = make_grid(33)
    x, y = g.node_coords()
    u = ScalarField(g, (x - 0.5) ** 2 + (y - 0.5) ** 2)
    curves = extract_level_set(u, 0.04)
    text = curves_to_csv(curves)
    lines = text.strip().splitlines()
    assert lines[0] == "level,curve,vertex,x,y"
    assert len(lines) == 1 + sum(len(c.vertices) for c in curves)


def test_importing_geometry_loads_no_inverse():
    # the functional lives in fields, so geometry needs nothing from inverse
    code = "import sys, acdii.geometry; print('acdii.inverse' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(acdii.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
