"""Grid, field containers, and the discrete calculus."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from acdii.fields import (
    Grid2D,
    GridError,
    ScalarField,
    TensorField2,
    grad,
    cell_operator,
    energy_gradient,
    grad_adjoint,
    label_cells,
    sample_cell_field,
    sym2_apply,
    sym2_det,
    sym2_inv,
    sym2_sqrt,
    tv_density,
    tv_gradient,
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
    g1, g2 = grad(g, 2.0 * x - 3.0 * y + 1.0)
    assert np.max(np.abs(g1 - 2.0)) == 0.0
    assert np.max(np.abs(g2 + 3.0)) == 0.0


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
def test_cell_operator_gradient_rows_are_tensor_times_grad(nx, ny, hx, hy, seed):
    # M's first two row blocks are T grad u, and their transpose grad_adjoint(T w),
    # with T = weight sigma0^(1/2) for random SPD cell tensors sigma0 and weights
    assume(hx != hy)
    grid = Grid2D(nx, ny, hx, hy)
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, np.pi, grid.cell_shape)
    d1, d2 = rng.uniform(0.1, 10.0, (2,) + grid.cell_shape)
    ct, sn = np.cos(angle), np.sin(angle)
    sigma0 = TensorField2(grid, d1 * ct * ct + d2 * sn * sn, (d1 - d2) * sn * ct,
                          d1 * sn * sn + d2 * ct * ct)
    weight = rng.uniform(0.1, 10.0, grid.cell_shape)
    t = tuple(weight * r for r in sym2_sqrt(*sigma0.entries))
    m = cell_operator(grid, sigma0, weight)
    ncells = (nx - 1) * (ny - 1)
    assert m.shape == (3 * ncells, nx * ny)
    assert m.indices.dtype == np.int32 and np.all(np.diff(m.indptr) == 4)
    k = m[:2 * ncells]
    u = rng.standard_normal(grid.shape)
    ref = np.concatenate([p.ravel() for p in sym2_apply(*t, *grad(grid, u))])
    assert np.max(np.abs(k @ u.ravel() - ref)) <= 1e-13 * np.max(np.abs(ref))
    w1, w2 = rng.standard_normal((2,) + grid.cell_shape)
    ref = grad_adjoint(grid, *sym2_apply(*t, w1, w2)).ravel()
    out = k.T @ np.concatenate([w1.ravel(), w2.ravel()])
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@settings(max_examples=100, deadline=None, database=None)
@given(
    nx=st.integers(3, 30),
    ny=st.integers(3, 30),
    hx=st.floats(1e-3, 10.0),
    hy=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_matrix_free_gradients_are_the_stored_operator_products(nx, ny, hx, hy, seed):
    # energy_gradient is |K| M^T (c M u) with the stored M at weight 1 on
    # every node, the boundary rows too, for a factor c that vanishes on
    # some cells; tv_gradient is the same product at c = a / rho_eps
    grid = Grid2D(nx, ny, hx, hy)
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, np.pi, grid.cell_shape)
    d1, d2 = rng.uniform(0.1, 10.0, (2,) + grid.cell_shape)
    ct, sn = np.cos(angle), np.sin(angle)
    sigma0 = TensorField2(grid, d1 * ct * ct + d2 * sn * sn, (d1 - d2) * sn * ct,
                          d1 * sn * sn + d2 * ct * ct)
    u = rng.standard_normal(grid.shape)
    c = np.where(rng.uniform(size=grid.cell_shape) < 0.2, 0.0,
                 rng.uniform(0.1, 10.0, grid.cell_shape))
    m = cell_operator(grid, sigma0, 1.0)
    ref = m.T @ (np.tile(c.ravel(), 3) * (m @ u.ravel())) * grid.cell_area
    got = energy_gradient(u, c, sigma0).ravel()
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1e-300)
    eps = rng.uniform(0.01, 1.0)
    rho, gradient = tv_gradient(u, c, sigma0, eps)
    assert np.array_equal(rho, tv_density(u, sigma0, eps))
    ref = energy_gradient(u, c / rho, sigma0)
    assert np.max(np.abs(gradient - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1e-300)


def test_cell_operator_hourglass_row_sees_what_grad_does_not():
    # the third row vanishes on affine u and not on the checkerboard
    # (-1)^(i+j), the hourglass mode on which grad is zero
    grid = Grid2D(6, 5, 0.3, 0.7)
    sigma0 = rotated_tensor(grid, 0.4, 3.0, 1.0)
    m = cell_operator(grid, sigma0, 2.0)
    third = m[2 * (5 * 4):]
    x, y = grid.node_coords()
    affine = 1.5 + 2.0 * x - 3.0 * y
    scale = np.max(np.abs(third.data)) * np.max(np.abs(affine))
    assert np.max(np.abs(third @ affine.ravel())) <= 1e-14 * scale
    j, i = np.indices(grid.shape)
    checker = (-1.0) ** (i + j)
    assert all(np.all(g == 0.0) for g in grad(grid, checker))
    s11, s22 = sigma0.s11.ravel(), sigma0.s22.ravel()
    expect = 4.0 * 2.0 * np.sqrt((s11 * 0.7**2 + s22 * 0.3**2) / 12.0) / (0.3 * 0.7)
    assert np.allclose(np.abs(third @ checker.ravel()), expect, rtol=1e-14, atol=0.0)


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
    # norms against explicit eigen-decomposition; the density of the
    # affine u = v . (x, y) is |v|_t on every cell
    v = np.array([1.0, 2.0])
    mat = np.array([[t.s11[0, 0], t.s12[0, 0]], [t.s12[0, 0], t.s22[0, 0]]])
    x, y = g.node_coords()
    density = tv_density(v[0] * x + v[1] * y, t)
    assert density == pytest.approx(np.full(g.cell_shape, np.sqrt(v @ mat @ v)), rel=1e-12)
    assert t.inv_norm(v[0], v[1])[0, 0] == pytest.approx(
        np.sqrt(v @ np.linalg.inv(mat) @ v), rel=1e-12
    )


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


def _serpentine(ny, nx):
    """One boustrophedon path: full even rows joined at alternating ends."""
    m = np.zeros((ny, nx), dtype=bool)
    m[::2] = True
    m[1::4, -1] = True
    m[3::4, 0] = True
    return m


def _spiral(ny, nx):
    """One square spiral of width 1 and gap 1, wound inward from the rim."""
    m = np.zeros((ny, nx), dtype=bool)
    if ny > 0 and nx > 0:
        m[[0, -1], :] = True
        m[:, [0, -1]] = True
        if ny > 2:
            m[1, 0] = False
        if ny > 4 and nx > 4:
            m[2, 1] = True
            m[2:-2, 2:-2] = _spiral(ny - 4, nx - 4)
    return m


@st.composite
def _cell_masks(draw):
    ny, nx = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "serpentine", "spiral"]))
    if kind == "random":
        density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.random((ny, nx)) < density
    m = (_serpentine if kind == "serpentine" else _spiral)(ny, nx)
    return ~m if draw(st.booleans()) else m


@settings(max_examples=300, deadline=None, database=None)
@given(mask=_cell_masks())
def test_label_cells_matches_the_cross_structured_image_labeler(mask):
    cross = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    labels, count = label_cells(mask)
    ref, ref_count = ndimage.label(mask, structure=cross)
    assert count == ref_count
    np.testing.assert_array_equal(labels, ref)
