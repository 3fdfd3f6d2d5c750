"""Forward solver against an independent dense assembly oracle.

The oracle below re-derives the stiffness matrix with plain Python loops
and 2x2 Gauss quadrature of bilinear basis gradients, applies Dirichlet
elimination by hand, and solves densely.  It shares no code with the
package's assembly path, so agreement to 1e-10 pins both sides.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from acdii.fields import (
    Grid2D,
    GridError,
    ScalarField,
    TensorField2,
    cell_operator,
    element_stiffness,
    grad,
    nodes_of_cells,
    tv_density,
    tv_gradient,
    tv_hessian,
)
from acdii.forward import (
    AssemblyError,
    ConvergenceError,
    InclusionSet,
    Layout,
    _COARSEST,
    _coarse_index,
    _pcg,
    assemble,
    cg_correction,
    disk_cells,
    energy,
    solve_dirichlet,
    solve_inclusion_limit,
    solve_penalized,
)
from conftest import bump_problem, make_grid, rotated_tensor


def rect_cells(grid: Grid2D, lo, hi) -> np.ndarray:
    """Cells whose center lies inside the open box (lo, hi)."""
    cx, cy = grid.cell_centers()
    return (cx > lo[0]) & (cx < hi[0]) & (cy > lo[1]) & (cy < hi[1])


_GAUSS = ((3.0 - np.sqrt(3.0)) / 6.0, (3.0 + np.sqrt(3.0)) / 6.0)


def _shape_grads(xi, eta, hx, hy):
    # local order (i,j), (i+1,j), (i,j+1), (i+1,j+1)
    return [
        (-(1.0 - eta) / hx, -(1.0 - xi) / hy),
        ((1.0 - eta) / hx, -xi / hy),
        (-eta / hx, (1.0 - xi) / hy),
        (eta / hx, xi / hy),
    ]


def dense_stiffness(grid, c_cells, s11, s12, s22):
    """Loop-assembled global stiffness matrix for sigma = c * sigma0."""
    n = grid.nx * grid.ny
    K = np.zeros((n, n))
    for j in range(grid.ny - 1):
        for i in range(grid.nx - 1):
            ids = [
                j * grid.nx + i,
                j * grid.nx + i + 1,
                (j + 1) * grid.nx + i,
                (j + 1) * grid.nx + i + 1,
            ]
            m = c_cells[j, i] * np.array(
                [[s11[j, i], s12[j, i]], [s12[j, i], s22[j, i]]]
            )
            for xi in _GAUSS:
                for eta in _GAUSS:
                    grads = _shape_grads(xi, eta, grid.hx, grid.hy)
                    w = 0.25 * grid.hx * grid.hy
                    for a in range(4):
                        ga = np.array(grads[a])
                        for b in range(4):
                            K[ids[a], ids[b]] += w * (m @ ga) @ np.array(grads[b])
    return K


def dense_solve(grid, c_cells, sigma0, f_nodes):
    K = dense_stiffness(grid, c_cells, sigma0.s11, sigma0.s12, sigma0.s22)
    nb = grid.boundary_ids
    inter = np.setdiff1d(np.arange(grid.nx * grid.ny), nb)
    fb = f_nodes.ravel()[nb]
    rhs = -K[np.ix_(inter, nb)] @ fb
    ui = np.linalg.solve(K[np.ix_(inter, inter)], rhs)
    out = np.empty(grid.nx * grid.ny)
    out[nb] = fb
    out[inter] = ui
    return out.reshape(grid.ny, grid.nx)


def test_oracle_single_cell_matches_analytic_matrix():
    # isotropic unit square element: diag 2/3, edge-adjacent -1/6, diagonal -1/3
    g = Grid2D(3, 3, 0.5, 0.5)
    K = dense_stiffness(g, np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2)), np.ones((2, 2)))
    ids = [0, 1, 3, 4]
    expect = (1.0 / 6.0) * np.array(
        [[4, -1, -1, -2], [-1, 4, -2, -1], [-1, -2, 4, -1], [-2, -1, -1, 4]]
    )
    sub = K[np.ix_(ids, ids)]
    # the shared cells add contributions; isolate cell (0,0) on a fresh grid
    g1 = Grid2D(3, 3, 1.0, 1.0)
    c = np.zeros((2, 2))
    c[0, 0] = 1.0
    K1 = dense_stiffness(g1, c, np.ones((2, 2)), np.zeros((2, 2)), np.ones((2, 2)))
    sub1 = K1[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])]
    assert np.allclose(sub1, expect, atol=1e-14)
    assert np.allclose(sub, sub.T, atol=1e-14)


# corner order per cell: (j,i), (j,i+1), (j+1,i+1), (j+1,i)
_CX = np.array([-1.0, 1.0, 1.0, -1.0])
_CE = np.array([-1.0, -1.0, 1.0, 1.0])


def element_templates(hx: float, hy: float):
    """The 4x4 blocks Kxx, Kxy, Kyy with K = s11 Kxx + s12 Kxy + s22 Kyy.

    2x2 Gauss quadrature of grad(N_a) . S grad(N_b) over one hx-by-hy
    cell with constant S; exact since the integrand is biquadratic.  The
    reference element for `fields.cell_operator` and `coo_reduced_system`.
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


def test_element_templates_match_oracle_cellwise():
    hx, hy = 0.3, 0.7
    g = Grid2D(3, 3, hx, hy)
    c = np.zeros((2, 2))
    c[0, 0] = 1.0
    for s11, s12, s22 in [(1.0, 0.0, 1.0), (2.0, 0.6, 1.5)]:
        K = dense_stiffness(
            g, c, np.full((2, 2), s11), np.full((2, 2), s12), np.full((2, 2), s22)
        )
        kxx, kxy, kyy = element_templates(hx, hy)
        local = s11 * np.asarray(kxx) + s12 * np.asarray(kxy) + s22 * np.asarray(kyy)
        # counterclockwise local order: (i,j), (i+1,j), (i+1,j+1), (i,j+1)
        ids = [0, 1, 4, 3]
        ref = K[np.ix_(ids, ids)]
        assert np.allclose(local, ref, atol=1e-13)


def test_cell_operator_gives_the_gauss_element_of_every_cell():
    # M_K^T M_K with weight |K|^(1/2) is the Gauss element of sigma0 on cell K,
    # for anisotropic sigma0 (s12 != 0) that differs in every cell and hx != hy
    grid = Grid2D(7, 5, 0.3, 0.7)
    rng = np.random.default_rng(5)
    angle = rng.uniform(0.0, np.pi, grid.cell_shape)
    d1, d2 = rng.uniform(0.1, 10.0, (2,) + grid.cell_shape)
    ct, sn = np.cos(angle), np.sin(angle)
    sigma0 = TensorField2(grid, d1 * ct * ct + d2 * sn * sn, (d1 - d2) * sn * ct,
                          d1 * sn * sn + d2 * ct * ct)
    assert np.min(np.abs(sigma0.s12)) > 0.0
    m = cell_operator(grid, sigma0, np.sqrt(grid.cell_area))
    assert m.shape == (3 * 24, grid.n_nodes)
    assert m.indices.dtype == np.int32 and np.all(np.diff(m.indptr) == 4)
    # M's columns run sw, se, nw, ne; the templates' corners counterclockwise
    blocks = m.data.reshape(3, -1, 4)[:, :, [0, 1, 3, 2]]
    kxx, kxy, kyy = element_templates(grid.hx, grid.hy)
    for k, (s11, s12, s22) in enumerate(zip(*(s.ravel() for s in sigma0.entries))):
        ref = s11 * kxx + s12 * kxy + s22 * kyy
        got = blocks[:, k].T @ blocks[:, k]
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_cg_matches_dense_direct_on_8x8():
    grid = Grid2D(8, 8, 1.0 / 7.0, 1.0 / 7.0)
    xc, yc = grid.cell_centers()
    c_cells = 1.0 + 0.5 * np.exp(-((xc - 0.5) ** 2 + (yc - 0.5) ** 2) / (2 * 0.15**2))
    sigma0 = rotated_tensor(grid, np.pi / 6.0, 2.0, 1.0)
    x, y = grid.node_coords()
    f = np.sin(np.pi * (x + 0.5 * y)) + 0.3 * x
    u_dense = dense_solve(grid, c_cells, sigma0, f)
    system = assemble(c_cells, Layout(sigma0))
    u = solve_dirichlet(system, ScalarField(grid, f), tol=1e-13)
    rel = np.linalg.norm(u.values - u_dense) / np.linalg.norm(u_dense)
    assert rel <= 1e-10


def test_affine_solution_reproduced():
    grid = make_grid(9)
    sigma0 = rotated_tensor(grid, 0.4, 3.0, 1.0)
    x, y = grid.node_coords()
    f = 2.0 * x + 3.0 * y - 1.0
    system = assemble(1.7, Layout(sigma0))
    u = solve_dirichlet(system, ScalarField(grid, f), tol=1e-12)
    assert np.max(np.abs(u.values - f)) <= 1e-9


def test_maximum_principle():
    grid, c, sigma0, f = bump_problem(17)
    system = assemble(c.values, Layout(sigma0))
    u = solve_dirichlet(system, f)
    fb = f.values.ravel()[grid.boundary_ids]
    assert u.values.min() >= fb.min() - 1e-9
    assert u.values.max() <= fb.max() + 1e-9


def test_boundary_values_exact():
    grid, c, sigma0, f = bump_problem(9)
    u = solve_dirichlet(assemble(c.values, Layout(sigma0)), f)
    assert np.array_equal(
        u.values.ravel()[grid.boundary_ids], f.values.ravel()[grid.boundary_ids]
    )


def test_tied_component_is_exactly_constant():
    grid = make_grid(25)
    disk = disk_cells(grid, (0.5, 0.5), 0.2)
    incl = InclusionSet(grid, perfect=[disk])
    sigma0 = rotated_tensor(grid, 0.2, 2.0, 1.0)
    x, _ = grid.node_coords()
    u = solve_inclusion_limit(1.0, sigma0, ScalarField(grid, x), incl)
    nodes = np.zeros((grid.ny, grid.nx), dtype=bool)
    jj, ii = np.nonzero(disk)
    for dj in (0, 1):
        for di in (0, 1):
            nodes[jj + dj, ii + di] = True
    vals = u.values[nodes]
    assert np.max(vals) - np.min(vals) == 0.0


def test_tied_warm_start_is_the_mean_of_the_component_guess():
    # the layout counts each dof's nodes once; a tied component's warm
    # start is then the mean of its nodes' guesses
    grid = make_grid(25)
    disk = disk_cells(grid, (0.5, 0.5), 0.2)
    incl = InclusionSet(grid, perfect=[disk])
    sigma0 = rotated_tensor(grid, 0.2, 2.0, 1.0)
    system = assemble(1.0, Layout(sigma0, incl))
    layout = system.layout
    assert layout.tie_counts[0] == nodes_of_cells(disk).sum()
    assert np.all(layout.tie_counts[1:] == 1.0)
    x, _ = grid.node_coords()
    f = ScalarField(grid, x)
    cold = solve_dirichlet(system, f, tol=1e-12)
    rng = np.random.default_rng(3)
    warm = solve_dirichlet(system, f, tol=1e-12, x0=cold.values + 1e-3 * rng.standard_normal(grid.shape))
    assert np.max(np.abs(cold.values - warm.values)) <= 1e-9


def test_gradient_vanishes_on_tied_cells():
    grid = make_grid(25)
    disk = disk_cells(grid, (0.5, 0.5), 0.2)
    incl = InclusionSet(grid, perfect=[disk])
    x, _ = grid.node_coords()
    u = solve_inclusion_limit(1.0, TensorField2.constant(grid, 1.0, 0.0, 1.0),
                              ScalarField(grid, x), incl)
    g1, g2 = grad(grid, u.values)
    assert np.max(np.abs(g1[disk])) == 0.0
    assert np.max(np.abs(g2[disk])) == 0.0


def test_insulating_interior_fill_is_finite():
    grid = make_grid(33)
    disk = disk_cells(grid, (0.5, 0.5), 0.22)
    incl = InclusionSet(grid, insulating=[disk])
    x, _ = grid.node_coords()
    u = solve_inclusion_limit(1.0, TensorField2.constant(grid, 1.0, 0.0, 1.0),
                              ScalarField(grid, x), incl)
    assert np.all(np.isfinite(u.values))


def test_penalized_with_k_one_reproduces_plain_solve():
    grid = make_grid(17)
    disk = disk_cells(grid, (0.5, 0.5), 0.2)
    incl = InclusionSet(grid, perfect=[disk])
    sigma0 = rotated_tensor(grid, 0.1, 2.0, 1.0)
    x, _ = grid.node_coords()
    f = ScalarField(grid, x)
    [up] = solve_penalized((1.0,), 1.0, sigma0, f, incl)
    u0 = solve_dirichlet(assemble(1.0, Layout(sigma0)), f)
    assert np.array_equal(up.values, u0.values)


def test_penalized_approaches_tied_limit():
    grid = make_grid(17)
    disk = disk_cells(grid, (0.5, 0.5), 0.2)
    incl = InclusionSet(grid, perfect=[disk])
    sigma0 = TensorField2.constant(grid, 1.0, 0.0, 1.0)
    x, _ = grid.node_coords()
    f = ScalarField(grid, x)
    u0 = solve_inclusion_limit(1.0, sigma0, f, incl)
    dists = []
    for uk in solve_penalized((1e-1, 1e-2, 1e-3), 1.0, sigma0, f, incl):
        dists.append(np.linalg.norm(uk.values - u0.values) / np.linalg.norm(u0.values))
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 1e-3


def test_penalization_parameter_validated():
    grid = make_grid(9)
    incl = InclusionSet(grid, perfect=[rect_cells(grid, (0.3, 0.3), (0.6, 0.6))])
    sigma0 = TensorField2.constant(grid, 1.0, 0.0, 1.0)
    x, _ = grid.node_coords()
    with pytest.raises(AssemblyError):
        solve_penalized((0.0,), 1.0, sigma0, ScalarField(grid, x), incl)
    with pytest.raises(AssemblyError):
        solve_penalized((0.5, 2.0), 1.0, sigma0, ScalarField(grid, x), incl)


def test_assemble_rejects_nonpositive_c_on_contributing_cells():
    grid = make_grid(9)
    sigma0 = TensorField2.constant(grid, 1.0, 0.0, 1.0)
    c = np.ones(grid.cell_shape)
    c[3, 3] = 0.0
    with pytest.raises(AssemblyError):
        assemble(c, Layout(sigma0))
    # but zero c on an excluded cell is fine
    excl = np.zeros(grid.cell_shape, dtype=bool)
    excl[3, 3] = True
    assemble(c, Layout(sigma0, exclude_cells=excl))


def test_inclusion_set_validation():
    # `components` holds set positions, the perfect components first
    grid = make_grid(17)
    with pytest.raises(AssemblyError) as exc:
        InclusionSet(grid, perfect=[np.zeros(grid.cell_shape, dtype=bool)])
    assert exc.value.components == (0,)
    touching = rect_cells(grid, (0.0, 0.3), (0.4, 0.6))
    with pytest.raises(AssemblyError) as exc:
        InclusionSet(grid, perfect=[touching])
    assert exc.value.components == (0,)
    d1 = disk_cells(grid, (0.4, 0.4), 0.15)
    d2 = disk_cells(grid, (0.5, 0.5), 0.15)
    with pytest.raises(AssemblyError) as exc:
        InclusionSet(grid, perfect=[d1], insulating=[d2])  # closures intersect
    assert exc.value.components == (0, 1)
    ring = disk_cells(grid, (0.5, 0.5), 0.3) & ~disk_cells(grid, (0.5, 0.5), 0.15)
    with pytest.raises(AssemblyError) as exc:
        InclusionSet(grid, perfect=[ring])  # not simply connected
    assert exc.value.components == (0,)
    # an insulating component given first still comes after every perfect one
    far = disk_cells(grid, (0.8, 0.2), 0.08)
    with pytest.raises(AssemblyError) as exc:
        InclusionSet(grid, insulating=[far, touching], perfect=[d1])
    assert exc.value.components == (2,)
    with pytest.raises(AssemblyError) as exc:
        InclusionSet(grid, insulating=[d2], perfect=[far, d1])
    assert exc.value.components == (1, 2)


def test_inclusion_labels_roundtrip():
    grid = make_grid(25)
    incl = InclusionSet(
        grid,
        perfect=[disk_cells(grid, (0.3, 0.3), 0.1)],
        insulating=[disk_cells(grid, (0.7, 0.7), 0.1)],
    )
    back = InclusionSet.from_labels(grid, incl.labels())
    assert np.array_equal(back.perfect_mask(), incl.perfect_mask())
    assert np.array_equal(back.insulating_mask(), incl.insulating_mask())


def test_inclusion_labels_hold_at_most_254_perfect_components():
    # 255 single cells two cells apart on the 34 x 34 cells of n = 35, so
    # no two closures share a node
    grid = make_grid(35)
    masks = []
    for j, i in [(j, i) for j in range(1, 32, 2) for i in range(1, 32, 2)][:255]:
        masks.append(np.zeros(grid.cell_shape, dtype=bool))
        masks[-1][j, i] = True
    incl = InclusionSet(grid, perfect=masks[:254])
    back = InclusionSet.from_labels(grid, incl.labels())
    assert len(back.perfect) == 254 and not back.insulating
    assert np.array_equal(back.perfect_mask(), incl.perfect_mask())
    with pytest.raises(AssemblyError, match="at most 254") as exc:
        InclusionSet(grid, perfect=masks)
    assert exc.value.components == ()


def test_writing_into_labels_or_masks_changes_no_mask():
    grid = make_grid(25)
    incl = InclusionSet(grid, perfect=[disk_cells(grid, (0.3, 0.3), 0.1)],
                        insulating=[disk_cells(grid, (0.7, 0.7), 0.1)])
    masks = [incl.perfect_mask(), incl.insulating_mask(), incl.union_mask()]
    assert masks[0].any() and masks[1].any()
    incl.labels()[:] = 0
    incl.perfect_mask()[:] = False
    incl.union_mask()[:] = True
    for before, after in zip(masks, [incl.perfect_mask(), incl.insulating_mask(),
                                     incl.union_mask()]):
        assert np.array_equal(before, after)
    assert sorted(np.unique(incl.labels())) == [0, 1, 255]


def test_convergence_error_carries_diagnostics():
    grid, c, sigma0, f = bump_problem(17)
    system = assemble(c.values, Layout(sigma0))
    with pytest.raises(ConvergenceError) as exc:
        solve_dirichlet(system, f, tol=1e-15, max_iter=2)
    assert exc.value.iterations == 2
    assert exc.value.residual > 0.0


def test_cg_stops_at_a_non_finite_right_hand_side_or_residual():
    grid, c, sigma0, f = bump_problem(9)
    system = assemble(c.values, Layout(sigma0))
    b, _ = system.rhs(f.values.ravel()[grid.boundary_ids])
    for bad in (np.nan, np.inf):
        rhs = b.copy()
        rhs[3] = bad
        with pytest.raises(ConvergenceError, match="right-hand side") as exc:
            _pcg(system.matrix, rhs, 1e-10, 1000)
        assert exc.value.iterations == 0
    # a NaN in the matrix: the residual is NaN after the first step
    system.matrix.levels[0].data[0] = np.nan
    with pytest.raises(ConvergenceError, match="residual is not finite") as exc:
        _pcg(system.matrix, b, 1e-10, 1000)
    assert exc.value.iterations <= 1


def test_warm_start_agrees_with_cold_start():
    grid, c, sigma0, f = bump_problem(17)
    system = assemble(c.values, Layout(sigma0))
    cold = solve_dirichlet(system, f, tol=1e-12)
    rough = ScalarField(grid, f.values * 0.9 + 0.05)
    warm = solve_dirichlet(system, f, tol=1e-12, x0=rough.values)
    assert np.max(np.abs(cold.values - warm.values)) <= 1e-9


def test_energy_and_h1_seminorm_known_values():
    grid = make_grid(9)
    x, _ = grid.node_coords()
    u = ScalarField(grid, x)
    sigma0 = TensorField2.constant(grid, 1.0, 0.0, 1.0)
    assert energy(u, 1.0, sigma0) == pytest.approx(0.5, rel=1e-12)


def _fem_energy(grid, u, cells, sigma0):
    """(1/2) u^T K u of the loop-assembled Gauss stiffness for the cell factors `cells`."""
    K = dense_stiffness(grid, cells, sigma0.s11, sigma0.s12, sigma0.s22)
    return 0.5 * float(u.ravel() @ K @ u.ravel())


def test_energy_matches_loop_oracle_with_penalized_disk():
    # the energy is the FEM energy (1/2) u^T A u: c outside all inclusions,
    # plus 1/k on the perfect components for the penalized one
    grid = Grid2D(15, 11, 0.07, 0.09)
    rng = np.random.default_rng(21)
    xc, yc = grid.cell_centers()
    c = 1.0 + 0.5 * np.sin(5.0 * xc) * yc
    sigma0 = rotated_tensor(grid, 0.4, 2.0, 0.7)
    incl = InclusionSet(grid, perfect=[disk_cells(grid, (0.35, 0.45), 0.2)],
                        insulating=[disk_cells(grid, (0.8, 0.3), 0.12)])
    u = ScalarField(grid, rng.standard_normal(grid.shape))
    outside = ~incl.union_mask()
    perf = incl.perfect_mask()
    assert perf.any() and incl.insulating_mask().any()
    assert energy(u, c, sigma0) == pytest.approx(
        _fem_energy(grid, u.values, c, sigma0), rel=1e-12)
    assert energy(u, c, sigma0, incl) == pytest.approx(
        _fem_energy(grid, u.values, np.where(outside, c, 0.0), sigma0), rel=1e-12)
    penalized = np.where(outside, c, np.where(perf, 1e3, 0.0))
    assert energy(u, c, sigma0, incl, k=1e-3) == pytest.approx(
        _fem_energy(grid, u.values, penalized, sigma0), rel=1e-12)


def test_dirichlet_data_must_be_a_node_field_on_the_grid():
    grid, c, sigma0, f = bump_problem(9)
    system = assemble(c.values, Layout(sigma0))
    for bad in (
        f.values,
        ScalarField(grid, np.ones(grid.cell_shape), location="cell"),
        ScalarField(make_grid(11), np.zeros((11, 11))),
    ):
        with pytest.raises(AssemblyError, match="node ScalarField"):
            solve_dirichlet(system, bad)


def test_disk_cell_selector():
    grid = make_grid(33)
    d = disk_cells(grid, (0.5, 0.5), 0.25)
    xc, yc = grid.cell_centers()
    inside = (xc - 0.5) ** 2 + (yc - 0.5) ** 2 < 0.25**2
    assert np.array_equal(d, inside)


# -- fixed-pattern assembly and the multigrid solve ------------------------------


def coo_reduced_system(c, sigma0, grid, inclusions=None, exclude_cells=None):
    """Reference reduced matrix and Dirichlet map by COO assembly and R^T A R.

    Assembles every contributing cell's 4x4 matrix into the full node
    matrix, ties each perfect component to one column, eliminates the
    boundary and drops unknowns with a zero diagonal.  Returns the
    reduced matrix and the matrix taking boundary values to the
    right-hand side.
    """
    contributing = np.ones(grid.cell_shape, dtype=bool)
    if inclusions is not None:
        contributing &= ~inclusions.union_mask()
    if exclude_cells is not None:
        contributing &= ~exclude_cells
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), grid.cell_shape)
    kxx, kxy, kyy = element_templates(grid.hx, grid.hy)
    jj, ii = np.nonzero(contributing)
    s11, s12, s22 = ((c * s)[jj, ii] for s in (sigma0.s11, sigma0.s12, sigma0.s22))
    kcell = s11[:, None, None] * kxx + s12[:, None, None] * kxy + s22[:, None, None] * kyy
    n0 = jj * grid.nx + ii
    nodes = np.stack([n0, n0 + 1, n0 + grid.nx + 1, n0 + grid.nx], axis=1)
    n = grid.n_nodes
    a_full = sparse.coo_matrix(
        (kcell.ravel(), (np.repeat(nodes, 4, axis=1).ravel(), np.tile(nodes, (1, 4)).ravel())),
        shape=(n, n),
    ).tocsr()
    free = np.ones(n, dtype=bool)
    free[grid.boundary_ids] = False
    dof = np.full(n, -1)
    ndof = 0
    for m in (inclusions.perfect if inclusions is not None else []):
        dof[nodes_of_cells(m).ravel()] = ndof
        ndof += 1
    singles = np.flatnonzero(free & (dof < 0))
    dof[singles] = ndof + np.arange(singles.size)
    ndof += singles.size
    which = np.flatnonzero(free)
    r = sparse.coo_matrix((np.ones(which.size), (which, dof[which])), shape=(n, ndof)).tocsr()
    reduced = (r.T @ a_full @ r).tocsr()
    keep = np.flatnonzero(reduced.diagonal() > 0.0)
    to_rhs = -(r.T @ a_full[:, grid.boundary_ids]).tocsr()[keep]
    return reduced[keep][:, keep], to_rhs


_LAYOUTS = ("plain", "excluded", "tied+insulating", "penalized", "varying", "rim")
# odd and even node counts, each with hx != hy
_SIZES = ((17, 13), (18, 14), (33, 27))


def _layout_case(kind, nx, ny, k=1e-6):
    """(c, sigma0, grid, inclusions, exclude_cells, f) for one layout kind."""
    grid = Grid2D(nx, ny, 1.0 / (nx - 1), 0.8 / (ny - 1))
    xc, yc = grid.cell_centers()
    c = 1.0 + 0.5 * np.exp(-((xc - 0.5) ** 2 + (yc - 0.4) ** 2) / (2 * 0.15**2))
    sigma0 = rotated_tensor(grid, np.pi / 6.0, 2.0, 1.0)
    x, y = grid.node_coords()
    f = np.sin(np.pi * (x + 0.5 * y)) + 0.3 * x
    inclusions = exclude = None
    if kind in ("excluded", "rim"):
        exclude = rect_cells(grid, (0.55, 0.2), (0.8, 0.45))
    if kind == "rim":
        # deleted cells on the rim: Dirichlet nodes lose some or all of their couplings
        exclude |= rect_cells(grid, (-1, -1), (0.3, 0.12)) | rect_cells(grid, (0.9, 0.5), (2, 0.7))
    if kind in ("varying", "rim"):
        # the fiber sigma0 R(theta) diag(d1, 1) R(theta)^T, different in every cell
        theta = np.pi / 6.0 + 0.9 * np.sin(np.pi * xc) * np.sin(np.pi * yc) + 0.6 * xc * yc
        d1 = 3.0 + np.cos(2.0 * np.pi * xc)
        ct, st = np.cos(theta), np.sin(theta)
        sigma0 = TensorField2(grid, d1 * ct * ct + st * st, (d1 - 1.0) * st * ct,
                              d1 * st * st + ct * ct)
    elif kind in ("tied+insulating", "penalized"):
        inclusions = InclusionSet(
            grid,
            perfect=[disk_cells(grid, (0.3, 0.5), 0.14)],
            insulating=[disk_cells(grid, (0.7, 0.3), 0.12)],
        )
    if kind == "penalized":
        # the perfect disk untied, with the factor 1/k on sigma0
        c = np.where(inclusions.perfect_mask(), 1.0 / k, c)
        inclusions = InclusionSet(grid, insulating=inclusions.insulating)
    return c, sigma0, grid, inclusions, exclude, f


def _perturbed_case(kind, nx, ny):
    """(layout, sigma0, a, u, nodes): a perturbed potential on one layout
    kind, a vanishing off the layout's cells; nodes[i] is the node of
    reduced unknown i."""
    c, sigma0, grid, incl, excl, f = _layout_case(kind, nx, ny)
    layout = Layout(sigma0, incl, excl)
    a = np.where(layout.contributing, c, 0.0)
    u = f + 0.1 * np.random.default_rng(3).standard_normal(grid.shape)
    u.ravel()[grid.boundary_ids] = f.ravel()[grid.boundary_ids]
    unknown = layout.node_kept[layout.free_nodes]
    nodes = layout.free_nodes[unknown >= 0][np.argsort(unknown[unknown >= 0])]
    return layout, sigma0, a, u, nodes


@pytest.mark.parametrize("nx, ny", _SIZES)
@pytest.mark.parametrize("kind", ["plain", "excluded", "varying", "rim"])
def test_matrix_free_tv_gradient_is_the_assembled_lagged_operator(kind, nx, ny):
    # on the free nodes the gradient of F_eps is A(a / rho_eps) u plus the
    # coupling applied to f, the residual of the lagged system at u; a
    # vanishes on the deleted cells, which the gradient therefore skips
    layout, sigma0, a, u, nodes = _perturbed_case(kind, nx, ny)
    rho, gradient = tv_gradient(u, a, sigma0, 0.05)
    system = assemble(np.where(layout.contributing, a / rho, 1.0), layout)
    boundary = u.ravel()[layout.grid.boundary_ids]
    ref = system.matrix @ u.ravel()[nodes] + system.coupling @ boundary
    assert np.abs(gradient.ravel()[nodes] - ref).max() <= 1e-13 * np.abs(ref).max()
    # free nodes with no unknown touch no contributing cell
    unknown = layout.node_kept[layout.free_nodes]
    assert not gradient.ravel()[layout.free_nodes[unknown < 0]].any()


@pytest.mark.parametrize("nx, ny", _SIZES)
@pytest.mark.parametrize("kind", ["plain", "excluded", "varying", "rim"])
def test_assembled_tv_hessian_is_the_derivative_of_the_gradient(kind, nx, ny):
    # H v against the central difference of the matrix-free gradient along
    # a random v on the free nodes: the difference's h^2 term is about
    # 4e-9 of |H v| at this h, the lagged operator alone misses by O(1)
    layout, sigma0, a, u, nodes = _perturbed_case(kind, nx, ny)
    eps = 0.05
    hessian = assemble(tv_hessian(u, a, sigma0, eps), layout).matrix
    v = np.random.default_rng(8).standard_normal(nodes.size)
    h = 1e-6
    shifted = []
    for sign in (1.0, -1.0):
        w = u.copy()
        w.ravel()[nodes] += sign * h * v
        shifted.append(tv_gradient(w, a, sigma0, eps)[1].ravel()[nodes])
    hv = hessian @ v
    err = np.abs(hv - (shifted[0] - shifted[1]) / (2.0 * h)).max() / np.abs(hv).max()
    assert err <= 1e-7


@pytest.mark.parametrize("kind", ["plain", "excluded", "varying", "rim"])
def test_assembled_tv_hessian_is_symmetric_positive_definite(kind):
    # exactly symmetric, as every map fill is, and positive definite on the
    # free nodes although each element loses a rank-one term of its lagged
    # element; at a small eps the rank-one term is nearly the whole element
    layout, sigma0, a, u, _ = _perturbed_case(kind, 17, 13)
    for eps in (0.05, 1e-4):
        hessian = assemble(tv_hessian(u, a, sigma0, eps), layout).matrix.levels[0]
        assert (hessian != hessian.T).nnz == 0
        assert np.linalg.eigvalsh(hessian.toarray()).min() > 0.0
        lagged = assemble(np.where(layout.contributing, a / tv_density(u, sigma0, eps), 1.0),
                          layout).matrix.levels[0]
        # the lagged operator less a positive semidefinite sum of rank-one terms
        assert np.linalg.eigvalsh((lagged - hessian).toarray()).min() >= -1e-12 * abs(lagged).max()


@pytest.mark.parametrize("n", [65, 129])
def test_map_fill_is_the_weighted_term_sum_bit_for_bit(n):
    # the 0/1 map times the elements c S_K sums, entry by entry, the same
    # products c S_K in the same order as a map whose terms carry S_K and
    # multiply c: the matrices are the same bytes
    grid, c, sigma0, _ = bump_problem(n)
    layout = Layout(sigma0)
    stiffness = layout.stiffness
    assert np.all(stiffness.data == 1.0)
    weighted = sparse.csr_matrix((element_stiffness(sigma0).ravel()[stiffness.indices],
                                  stiffness.indices % c.values.size, stiffness.indptr))
    data = weighted @ c.values.ravel()
    system = assemble(c.values, layout)
    nnz = layout.indices.size
    assert np.array_equal(system.matrix.levels[0].data, data[:nnz])
    assert np.array_equal(system.coupling.data, data[nnz:])


@pytest.mark.parametrize("nx, ny", _SIZES)
@pytest.mark.parametrize("kind", _LAYOUTS)
def test_refilled_matrix_matches_coo_assembly(kind, nx, ny):
    c, sigma0, grid, incl, excl, f = _layout_case(kind, nx, ny)
    first = assemble(c, Layout(sigma0, incl, excl))
    # a second coefficient on the same layout: only the values are refilled
    c2 = c * (1.5 + np.cos(3.0 * grid.cell_centers()[0]))
    system = assemble(c2, first.layout)
    ref, to_rhs = coo_reduced_system(c2, sigma0, grid, incl, excl)
    got = system.matrix.levels[0]
    assert got.shape == ref.shape
    assert abs(got - ref).max() <= 1e-14 * abs(ref).max()
    # mirror entries add the same terms in the same order
    assert (got != got.T).nnz == 0
    fb = f.ravel()[grid.boundary_ids]
    b_ref = to_rhs @ fb
    assert np.max(np.abs(system.rhs(fb)[0] - b_ref)) <= 1e-14 * np.max(np.abs(b_ref))


@pytest.mark.parametrize("nx, ny", _SIZES)
@pytest.mark.parametrize("kind", _LAYOUTS)
def test_multigrid_cg_matches_sparse_direct_solve(kind, nx, ny):
    c, sigma0, grid, incl, excl, f = _layout_case(kind, nx, ny)
    system = assemble(c, Layout(sigma0, incl, excl))
    b, _ = system.rhs(f.ravel()[grid.boundary_ids])
    x, res, its = _pcg(system.matrix, b, 1e-12, 1000)
    ref, to_rhs = coo_reduced_system(c, sigma0, grid, incl, excl)
    direct = spsolve(ref.tocsc(), to_rhs @ f.ravel()[grid.boundary_ids])
    assert res <= 1e-12 and its > 0
    assert np.max(np.abs(x - direct)) <= 1e-8 * np.max(np.abs(direct))


@pytest.mark.parametrize("kind", ["penalized", "tied+insulating"])
def test_penalized_factor_matches_the_composite_tensor(kind):
    # the reference: one tensor, sigma0 / k on the perfect disk and c sigma0
    # elsewhere, assembled with the factor 1
    k = 1e-6
    c, sigma0, grid, incl, _, f = _layout_case("tied+insulating", 33, 27, k)
    f = ScalarField(grid, f)
    composite = TensorField2(grid, *(np.where(incl.perfect_mask(), s / k, c * s)
                                     for s in sigma0.entries))
    reference = assemble(1.0, Layout(composite, exclude_cells=incl.insulating_mask()))
    if kind == "penalized":
        factor, _, _, insulating, _, _ = _layout_case(kind, 33, 27, k)
        system = assemble(factor, Layout(sigma0, insulating))
        got, ref = system.matrix.levels[0], reference.matrix.levels[0]
        assert abs(got - ref).max() <= 1e-14 * abs(ref).max()
        u = solve_dirichlet(system, f, tol=1e-12)
    else:
        [u] = solve_penalized((k,), c, sigma0, f, incl, tol=1e-12)
    u_ref = solve_dirichlet(reference, f, tol=1e-12)
    # the entries differ by round-off, on a system of contrast 1/k: the
    # bound the sparse direct comparisons above use
    assert np.max(np.abs(u.values - u_ref.values)) <= 1e-8 * np.max(np.abs(u_ref.values))


@pytest.mark.parametrize("kind", _LAYOUTS)
def test_vcycle_is_symmetric(kind):
    c, sigma0, grid, incl, excl, _ = _layout_case(kind, 33, 27)
    mg = assemble(c, Layout(sigma0, incl, excl)).matrix
    assert len(mg.levels) >= 3
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal((2, mg.levels[0].shape[0]))
    bu, bv = mg.vcycle(u), mg.vcycle(v)
    assert abs(u @ bv - v @ bu) <= 1e-13 * np.linalg.norm(u) * np.linalg.norm(bv)
    assert u @ bu > 0.0 and v @ bv > 0.0


def _reference_vcycle(mg, r):
    """The V(1,1)-cycle written with plain products, one new array each."""
    residuals, smoothed = [r], []
    for a, jac, (_, pt) in zip(mg.levels, mg.smoothers, mg.prolongations):
        x = jac * residuals[-1]
        smoothed.append(x)
        residuals.append(pt @ (residuals[-1] - a @ x))
    li = mg.coarse_inverse_factor
    e = mg.coarse_scale * (li.T @ (li @ residuals[-1]))
    for level in reversed(range(len(mg.smoothers))):
        a, jac = mg.levels[level], mg.smoothers[level]
        x = smoothed[level] + mg.prolongations[level][0] @ e
        e = x + jac * (residuals[level] - a @ x)
    return e


@pytest.mark.parametrize("kind", _LAYOUTS)
def test_vcycle_in_work_vectors_is_the_plain_cycle_bit_for_bit(kind):
    # the same operations in the same order, so the same bytes, call after
    # call through the same work vectors; a one-level system too
    c, sigma0, grid, incl, excl, _ = _layout_case(kind, 33, 27)
    small = bump_problem(9)
    rng = np.random.default_rng(9)
    for mg in (assemble(c, Layout(sigma0, incl, excl)).matrix,
               assemble(small[1].values, Layout(small[2])).matrix):
        out = np.empty(mg.levels[0].shape[0])
        for _ in range(3):
            r = rng.standard_normal(out.size)
            want = _reference_vcycle(mg, r)
            assert np.array_equal(mg.vcycle(r), want)
            assert mg.vcycle(r, out=out) is out and np.array_equal(out, want)


def _refilled_case(kind, nx, ny):
    """A second coefficient assembled on a reused layout, and its case."""
    c, sigma0, grid, incl, excl, f = _layout_case(kind, nx, ny)
    first = assemble(c, Layout(sigma0, incl, excl))
    c2 = c * (1.5 + np.cos(3.0 * grid.cell_centers()[0]))
    system = assemble(c2, first.layout)
    mg = system.matrix
    # the layout's prolongation hierarchy is shared; every level is rebuilt
    assert mg.prolongations is first.matrix.prolongations
    assert all(a is not b for a, b in zip(mg.levels, first.matrix.levels))
    assert abs(mg.levels[0] - first.matrix.levels[0]).max() > 0.1 * abs(mg.levels[0]).max()
    return system, (c2, sigma0, grid, incl, excl, f)


@pytest.mark.parametrize("kind", _LAYOUTS)
def test_vcycle_on_a_reused_hierarchy_is_symmetric_and_positive(kind):
    # the whole operator, densely: a smoother or coarse level left from the
    # first coefficient passes random-vector checks but makes the cycle indefinite
    mg = _refilled_case(kind, 33, 27)[0].matrix
    cycle = np.column_stack([mg.vcycle(e) for e in np.eye(mg.levels[0].shape[0])])
    assert np.abs(cycle - cycle.T).max() <= 1e-13 * np.abs(cycle).max()
    assert np.linalg.eigvalsh(cycle).min() > 0.0


@pytest.mark.parametrize("nx, ny", _SIZES)
@pytest.mark.parametrize("kind", _LAYOUTS)
def test_cg_on_a_reused_hierarchy_matches_sparse_direct_solve(kind, nx, ny):
    system, (c2, sigma0, grid, incl, excl, f) = _refilled_case(kind, nx, ny)
    b, _ = system.rhs(f.ravel()[grid.boundary_ids])
    x, res, _ = _pcg(system.matrix, b, 1e-12, 1000)
    ref, to_rhs = coo_reduced_system(c2, sigma0, grid, incl, excl)
    direct = spsolve(ref.tocsc(), to_rhs @ f.ravel()[grid.boundary_ids])
    assert res <= 1e-12
    assert np.max(np.abs(x - direct)) <= 1e-8 * np.max(np.abs(direct))


@pytest.mark.parametrize("kind", _LAYOUTS)
def test_cg_correction_is_a_fixed_number_of_pcg_iterations(kind):
    # the correction stops at the first iteration whose residual meets the
    # forcing, or at the cap
    c, sigma0, grid, incl, excl, f = _layout_case(kind, 33, 27)
    system = assemble(c, Layout(sigma0, incl, excl))
    mg = system.matrix
    b, _ = system.rhs(f.ravel()[grid.boundary_ids])
    # textbook PCG from zero with the V-cycle as preconditioner; its dot
    # products sum in another order, which the penalized layout's contrast
    # 1e6 amplifies, so the bound is 1e-10
    x, r = np.zeros_like(b), b.copy()
    z = mg.vcycle(r)
    p, rz = z.copy(), r @ z
    iterates = []
    for _ in range(12):
        ap = mg @ p
        alpha = rz / (p @ ap)
        x, r = x + alpha * p, r - alpha * ap
        iterates.append((x, np.linalg.norm(r)))
        z = mg.vcycle(r)
        p, rz = z + (r @ z) / rz * p, r @ z
    for forcing in (0.5, 1e-2, 1e-4):
        k = next(k for k, (_, res) in enumerate(iterates, 1) if res <= forcing * np.linalg.norm(b))
        got, its, met = cg_correction(mg, b, forcing, 100)
        assert its == k and met
        assert np.abs(got - iterates[k - 1][0]).max() <= 1e-10 * np.abs(got).max()
        # one iteration short of it, the cap ends the correction unmet
        got, its, met = cg_correction(mg, b, forcing, k - 1)
        assert its == k - 1 and not met
        if k > 1:
            assert np.abs(got - iterates[k - 2][0]).max() <= 1e-10 * np.abs(got).max()
    # a zero right-hand side meets any forcing at once
    assert cg_correction(mg, 0.0 * b, 0.5, 10)[1:] == (0, True)
    # a residual whose curvature p^T A p underflows to 0 takes no step;
    # a solve to a tolerance reports the breakdown
    stiff = assemble(1e12 * c, Layout(sigma0, incl, excl)).matrix
    tiny = np.full_like(b, 1e-159)
    got, its, met = cg_correction(stiff, tiny, 0.5, 2)
    assert not got.any() and its == 0 and not met
    with pytest.raises(ConvergenceError, match="broke down") as exc:
        _pcg(stiff, tiny, 1e-10, 100)
    assert exc.value.iterations == 0


def test_sigma0_and_grid_call_form_fills_the_plain_layout():
    grid, c, sigma0, _ = bump_problem(9)
    plain = assemble(c.values, Layout(sigma0)).matrix.levels[0]
    short = assemble(c.values, sigma0, grid).matrix.levels[0]
    assert np.array_equal(plain.data, short.data)
    assert np.array_equal(plain.indices, short.indices)
    for other in (None, Grid2D(9, 9, 0.5, 0.5)):
        with pytest.raises(AssemblyError, match="sigma0's grid"):
            assemble(c.values, sigma0, other)


def test_single_level_system_rebuilds_its_coarse_solve():
    # at or below _COARSEST unknowns level 0 is the coarsest level, so
    # every assembly factors it and the cycle solves the matrix exactly
    grid, c, sigma0, f = bump_problem(9)
    layout = Layout(sigma0)
    assemble(c.values, layout)
    system = assemble(2.0 * c.values, layout)
    assert len(system.matrix.levels) == 1
    b, _ = system.rhs(f.values.ravel()[grid.boundary_ids])
    _, res, its = _pcg(system.matrix, b, 1e-12, 10)
    assert its == 1 and res <= 1e-12


@pytest.mark.parametrize("n", [65, 129])
def test_cold_cg_iterations_stay_flat_on_the_bump(n):
    grid, c, sigma0, f = bump_problem(n)
    system = assemble(c.values, Layout(sigma0))
    b, _ = system.rhs(f.values.ravel()[grid.boundary_ids])
    _, _, its = _pcg(system.matrix, b, 1e-10, 10_000)
    assert its <= 15
    u = solve_dirichlet(system, f)
    assert system.cg_iterations == its and system.cg_residual <= 1e-10
    assert np.isfinite(u.values).all()


def test_notched_tied_component_matrix_is_exactly_symmetric():
    # a U-shaped perfect component: node (5, 6) in its notch couples to the
    # component eastward through one cell and westward through the next, so
    # both orientations of one corner pair reach the same entry
    c, sigma0, grid, _, _, _ = _layout_case("varying", 17, 13)
    u_shape = np.zeros(grid.cell_shape, dtype=bool)
    u_shape[2, 4:8] = u_shape[3:9, 4] = u_shape[3:9, 7] = True
    incl = InclusionSet(grid, perfect=[u_shape])
    assert not nodes_of_cells(u_shape)[5, 6] and nodes_of_cells(u_shape)[5, [5, 7]].all()
    got = assemble(c, Layout(sigma0, incl)).matrix.levels[0]
    ref, _ = coo_reduced_system(c, sigma0, grid, incl)
    assert abs(got - ref).max() <= 1e-14 * abs(ref).max()
    assert (got != got.T).nnz == 0


def _sparse_interpolation(n, kept):
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


def _dof_matrix(node_dof, ndof):
    """Sparse (nodes x dofs) 0/1 matrix putting each dof's value on its nodes."""
    free = np.flatnonzero(node_dof >= 0)
    return sparse.csr_matrix(
        (np.ones(free.size), (free, node_dof[free])), shape=(node_dof.size, ndof)
    )


def _reference_prolongations(shape, node_dof, ndof, keep):
    """The prolongations as sparse products: average @ kron(interp) @ dof matrix.

    Columns that come out empty are sliced away in CSC; returns the (P, P^T)
    pairs, finest first, as `forward._prolongations` does.
    """
    out = []
    while keep.size > _COARSEST:
        ny, nx = shape
        iy, ix = _coarse_index(ny), _coarse_index(nx)
        if iy.size == ny and ix.size == nx:
            break
        counts = np.bincount(node_dof[node_dof >= 0], minlength=ndof)
        average = sparse.diags(1.0 / counts[keep]) @ _dof_matrix(node_dof, ndof)[:, keep].T
        interp = sparse.kron(_sparse_interpolation(ny, iy), _sparse_interpolation(nx, ix),
                             format="csr")
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


def _assert_prolongations_match_reference(layout, exact):
    ndof = layout.tie_counts.size
    ref = _reference_prolongations(layout.grid.shape, layout.node_dof, ndof, layout.keep)
    assert len(layout.prolongations) == len(ref) >= 1
    for got_pair, ref_pair in zip(layout.prolongations, ref):
        for got, want in zip(got_pair, ref_pair):
            assert got.shape == want.shape and got.has_sorted_indices
            assert got.indices.dtype == want.indices.dtype
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.indptr, want.indptr)
            if exact:
                assert np.array_equal(got.data, want.data)
            else:
                assert np.max(np.abs(got.data - want.data)) <= 1e-14


@pytest.mark.parametrize("nx, ny", _SIZES)
@pytest.mark.parametrize("kind", _LAYOUTS)
def test_prolongations_match_the_sparse_product_construction(kind, nx, ny):
    # bit for bit where every unknown has one node; tied unknowns sum
    # their nodes' weights in another order
    c, sigma0, grid, incl, excl, _ = _layout_case(kind, nx, ny)
    layout = assemble(c, Layout(sigma0, incl, excl)).layout
    _assert_prolongations_match_reference(layout, exact=not layout.perfect)


@pytest.mark.parametrize("deleted", [False, True])
def test_prolongations_of_the_bump_match_the_sparse_product_construction(deleted):
    # a deleted block drops the unknowns inside it and, on coarser levels,
    # the coarse columns nothing below has stiffness for
    grid, _, sigma0, _ = bump_problem(65)
    contributing = np.ones(grid.cell_shape, dtype=bool)
    if deleted:
        contributing[20:36, 12:30] = False
    layout = Layout(sigma0, exclude_cells=~contributing)
    assert layout.n_unknowns < 63 * 63 if deleted else layout.n_unknowns == 63 * 63
    _assert_prolongations_match_reference(layout, exact=True)


def test_layout_build_peak_stays_within_twice_what_the_layout_keeps():
    # the term list and its sort order are the build's largest temporaries;
    # a build that holds more of them at once than the layout keeps sets
    # the memory peak of every inversion that builds a layout
    for n in (9, 129):  # the small build first, so lazy imports are not traced
        _, _, sigma0, _ = bump_problem(n)
        tracemalloc.start()
        try:
            layout = Layout(sigma0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert layout.n_unknowns == 127 * 127
    assert peak <= 2.0 * kept
