"""Grid, field containers, and the discrete calculus."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acdii.fields import (
    Grid2D,
    GridError,
    ScalarField,
    TensorField2,
    VectorField2,
    cell_integral,
    divergence,
    grad,
    grad_adjoint,
    grad_operator,
    gradient,
    sample_cell_field,
    sym2_apply,
    sym2_det,
    sym2_inv,
    sym2_sqrt,
    tv_density,
)
from conftest import make_grid, rotated_tensor


def test_grid_rejects_degenerate_sizes():
    with pytest.raises(GridError):
        Grid2D(1, 4, 0.1, 0.1)
    with pytest.raises(GridError):
        Grid2D(4, 4, 0.0, 0.1)


def test_boundary_ids_three_by_three():
    g = Grid2D(3, 3, 0.5, 0.5)
    assert sorted(g.boundary_ids.tolist()) == [0, 1, 2, 3, 5, 6, 7, 8]
    inter = g.interior_mask()
    assert inter.sum() == 1 and inter[1, 1]


def test_node_and_cell_coordinates():
    g = Grid2D(3, 3, 0.5, 1.0)
    x, y = g.node_coords()
    assert x[0, 2] == pytest.approx(1.0)
    assert y[1, 0] == pytest.approx(1.0)
    xc, yc = g.cell_centers()
    assert xc[0, 0] == pytest.approx(0.25)
    assert yc[0, 1] == pytest.approx(0.5)
    assert yc[1, 0] == pytest.approx(1.5)


def test_scalar_field_validates_shape_and_finiteness():
    g = make_grid(4)
    with pytest.raises(GridError):
        ScalarField(g, np.ones((3, 3)))
    bad = np.ones((4, 4))
    bad[2, 2] = np.nan
    with pytest.raises(GridError):
        ScalarField(g, bad)
    with pytest.raises(GridError):
        ScalarField(g, np.ones((4, 4)), location="cell")


def test_gradient_exact_on_affine():
    g = Grid2D(9, 7, 0.125, 1.0 / 6.0)
    x, y = g.node_coords()
    u = ScalarField(g, 2.0 * x - 3.0 * y + 1.0)
    gr = gradient(u)
    assert np.max(np.abs(gr.v1 - 2.0)) == 0.0
    assert np.max(np.abs(gr.v2 + 3.0)) == 0.0


def test_divergence_is_exact_negative_adjoint_of_gradient():
    rng = np.random.default_rng(42)
    g = Grid2D(9, 7, 0.125, 1.0 / 6.0)
    for _ in range(5):
        u = ScalarField(g, rng.standard_normal((7, 9)))
        B = VectorField2(g, rng.standard_normal((6, 8)), rng.standard_normal((6, 8)))
        gr = gradient(u)
        lhs = float(np.sum(gr.v1 * B.v1 + gr.v2 * B.v2))
        rhs = -float(np.sum(u.values * divergence(B).values))
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


@settings(max_examples=200, deadline=None, database=None)
@given(
    nx=st.integers(3, 40),
    ny=st.integers(3, 40),
    hx=st.floats(1e-3, 10.0),
    hy=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_grad_adjoint_is_transpose_of_grad(nx, ny, hx, hy, seed):
    # <grad u, B> over cells equals <u, grad_adjoint B> over nodes for
    # every zero-trace u; the primal-dual loop relies on it
    assume(hx != hy)
    grid = Grid2D(nx, ny, hx, hy)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(grid.shape)
    u.ravel()[grid.boundary_ids] = 0.0
    b1 = rng.standard_normal(grid.cell_shape)
    b2 = rng.standard_normal(grid.cell_shape)
    g1, g2 = grad(grid, u)
    lhs = float(np.sum(g1 * b1 + g2 * b2))
    rhs = float(np.sum(u * grad_adjoint(grid, b1, b2)))
    scale = float(np.sqrt(np.sum(g1 * g1 + g2 * g2) * np.sum(b1 * b1 + b2 * b2)))
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=200, deadline=None, database=None)
@given(
    nx=st.integers(3, 40),
    ny=st.integers(3, 40),
    hx=st.floats(1e-3, 10.0),
    hy=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_grad_operator_is_tensor_times_grad(nx, ny, hx, hy, seed):
    # K u = T grad u and K^T w = grad_adjoint(T w) for random SPD cell tensors T
    assume(hx != hy)
    grid = Grid2D(nx, ny, hx, hy)
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, np.pi, grid.cell_shape)
    d1, d2 = rng.uniform(0.1, 10.0, (2,) + grid.cell_shape)
    ct, sn = np.cos(angle), np.sin(angle)
    t = (d1 * ct * ct + d2 * sn * sn, (d1 - d2) * sn * ct, d1 * sn * sn + d2 * ct * ct)
    k = grad_operator(grid, *t)
    assert k.shape == (2 * (nx - 1) * (ny - 1), nx * ny)
    assert k.indices.dtype == np.int32 and np.all(np.diff(k.indptr) == 4)
    u = rng.standard_normal(grid.shape)
    ref = np.concatenate([p.ravel() for p in sym2_apply(*t, *grad(grid, u))])
    assert np.max(np.abs(k @ u.ravel() - ref)) <= 1e-13 * np.max(np.abs(ref))
    w1, w2 = rng.standard_normal((2,) + grid.cell_shape)
    ref = grad_adjoint(grid, *sym2_apply(*t, w1, w2)).ravel()
    out = k.T @ np.concatenate([w1.ravel(), w2.ravel()])
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_sym2_algebra_roundtrips():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((2, 2))
        spd = m @ m.T + 0.5 * np.eye(2)
        s11, s12, s22 = spd[0, 0], spd[0, 1], spd[1, 1]
        i11, i12, i22 = sym2_inv(s11, s12, s22)
        x, y = rng.standard_normal(2)
        ax, ay = sym2_apply(s11, s12, s22, x, y)
        bx, by = sym2_apply(i11, i12, i22, ax, ay)
        assert bx == pytest.approx(x, abs=1e-12)
        assert by == pytest.approx(y, abs=1e-12)
        assert sym2_det(s11, s12, s22) == pytest.approx(np.linalg.det(spd), rel=1e-12)
        r11, r12, r22 = sym2_sqrt(s11, s12, s22)
        root = np.array([[r11, r12], [r12, r22]])
        assert np.allclose(root @ root, spd, atol=1e-12)


def test_tensor_field_requires_spd():
    g = make_grid(4)
    with pytest.raises(GridError):
        TensorField2.constant(g, 1.0, 2.0, 1.0)  # det < 0
    with pytest.raises(GridError):
        TensorField2.constant(g, -1.0, 0.0, 1.0)


def test_tensor_field_eigen_bounds_bracket_spectrum():
    g = make_grid(4)
    t = rotated_tensor(g, 0.7, 3.0, 0.5)
    assert t.m == pytest.approx(0.5, rel=1e-12)
    assert t.M == pytest.approx(3.0, rel=1e-12)
    # norms against explicit eigen-decomposition
    v = np.array([1.0, 2.0])
    mat = np.array([[t.s11[0, 0], t.s12[0, 0]], [t.s12[0, 0], t.s22[0, 0]]])
    assert tv_density(v[0], v[1], t)[0, 0] == pytest.approx(np.sqrt(v @ mat @ v), rel=1e-12)
    assert t.inv_norm(v[0], v[1])[0, 0] == pytest.approx(
        np.sqrt(v @ np.linalg.inv(mat) @ v), rel=1e-12
    )


def test_cell_integral_constant_is_area():
    g = Grid2D(9, 7, 0.125, 1.0 / 6.0)
    assert cell_integral(g, np.ones((6, 8))) == pytest.approx(1.0, rel=1e-12)


def test_sample_cell_field_reproduces_linear_data():
    g = Grid2D(9, 7, 0.125, 1.0 / 6.0)
    cv = np.fromfunction(lambda j, i: (i + 0.5) * 0.125 + 2.0 * (j + 0.5) / 6.0, (6, 8))
    out = sample_cell_field(g, cv, np.array([0.3, 0.55]), np.array([0.4, 0.5]))
    assert out == pytest.approx([0.3 + 0.8, 0.55 + 1.0], rel=1e-12)


def test_sample_cell_field_clamps_at_rim():
    g = make_grid(5)
    cv = np.arange(16, dtype=float).reshape(4, 4)
    inside = sample_cell_field(g, cv, np.array([0.0]), np.array([0.0]))
    assert inside[0] == pytest.approx(cv[0, 0])
