"""Measurement synthesis, noise, and triplet persistence."""

import json

import numpy as np
import pytest

from acdii.data import (
    AdmissibleTriplet,
    DataError,
    add_noise,
    compute_a,
    compute_current,
    load_triplet,
    read_matching,
    save_triplet,
    synthesize_triplet,
)
from acdii.fields import ScalarField, TensorField2, gradient, tv_density
from acdii.forward import InclusionSet, disk_cells
from acdii.io import FieldFormatError, write_field_file
from conftest import bump_problem, bump_triplet, make_grid, rotated_tensor


def test_data_matches_weighted_gradient_identity(bump33):
    # a = |J|_{sigma0^{-1}} and a = c |grad u|_{sigma0} are the same number
    grid = bump33.grid
    u = ScalarField(grid, np.asarray(bump33.provenance["u_true"]))
    c = np.asarray(bump33.provenance["c_true"])
    gr = gradient(u)
    direct = c * tv_density(gr.v1, gr.v2, bump33.sigma0)
    assert np.allclose(direct, bump33.a.values, rtol=1e-12, atol=1e-14)


def test_doubling_c_doubles_a():
    grid, c, sigma0, f = bump_problem(17)
    t1 = synthesize_triplet(c, sigma0, f, grid)
    c2 = ScalarField(grid, 2.0 * c.values, location="cell")
    t2 = synthesize_triplet(c2, sigma0, f, grid)
    # the potential is invariant under global scaling of the conductivity
    assert np.allclose(
        np.asarray(t2.provenance["u_true"]), np.asarray(t1.provenance["u_true"]), atol=1e-9
    )
    assert np.allclose(t2.a.values, 2.0 * t1.a.values, rtol=1e-8)


def test_current_is_divergence_free_in_weak_sense():
    # The midpoint pairing of J with the gradient of a zero-trace test
    # function is pure quadrature error and must decay at second order.
    def worst_rel(n):
        grid, c, sigma0, f = bump_problem(n)
        t = synthesize_triplet(c, sigma0, f, grid)
        u = ScalarField(grid, np.asarray(t.provenance["u_true"]))
        J = compute_current(u, np.asarray(t.provenance["c_true"]), sigma0)
        rng = np.random.default_rng(9)
        x, y = grid.node_coords()
        worst = 0.0
        for _ in range(3):
            w = rng.standard_normal() * np.sin(np.pi * x) * np.sin(2 * np.pi * y)
            gw = gradient(ScalarField(grid, w))
            pairing = float(np.sum(J.v1 * gw.v1 + J.v2 * gw.v2)) * grid.cell_area
            scale = (
                np.sqrt(np.sum(J.v1**2 + J.v2**2) * np.sum(gw.v1**2 + gw.v2**2))
                * grid.cell_area
            )
            worst = max(worst, abs(pairing) / scale)
        return worst

    r17, r33, r65 = worst_rel(17), worst_rel(33), worst_rel(65)
    assert r17 <= 1e-4
    assert r17 / r33 >= 3.0
    assert r33 / r65 >= 3.0


def test_compute_a_consistent_with_current(bump33):
    grid = bump33.grid
    u = ScalarField(grid, np.asarray(bump33.provenance["u_true"]))
    c = np.asarray(bump33.provenance["c_true"])
    J = compute_current(u, c, bump33.sigma0)
    a2 = compute_a(J, bump33.sigma0)
    assert np.allclose(a2.values, bump33.a.values, rtol=1e-12)


def test_triplet_validation():
    grid, c, sigma0, f = bump_problem(9)
    t = synthesize_triplet(c, sigma0, f, grid)
    bad = t.a.values.copy()
    bad[2, 2] = -0.1
    with pytest.raises(DataError):
        AdmissibleTriplet(f, sigma0, ScalarField(grid, bad, location="cell"), grid)


def test_insulating_cells_must_carry_zero_data():
    grid = make_grid(17)
    disk = disk_cells(grid, (0.5, 0.5), 0.2)
    incl = InclusionSet(grid, insulating=[disk])
    sigma0 = TensorField2.constant(grid, 1.0, 0.0, 1.0)
    x, _ = grid.node_coords()
    f = ScalarField(grid, x)
    t = synthesize_triplet(ScalarField(grid, np.ones(grid.cell_shape), location="cell"),
                           sigma0, f, grid, inclusions=incl)
    assert np.all(t.a.values[disk] == 0.0)
    ones = np.ones(grid.cell_shape)
    with pytest.raises(DataError):
        AdmissibleTriplet(f, sigma0, ScalarField(grid, ones, location="cell"),
                          grid, inclusions=incl)


def test_perfect_component_data_filled_positive():
    grid = make_grid(33)
    disk = disk_cells(grid, (0.5, 0.5), 0.18)
    incl = InclusionSet(grid, perfect=[disk])
    sigma0 = rotated_tensor(grid, 0.3, 2.0, 1.0)
    x, _ = grid.node_coords()
    f = ScalarField(grid, x)
    c = ScalarField(grid, np.ones(grid.cell_shape), location="cell")
    t = synthesize_triplet(c, sigma0, f, grid, inclusions=incl)
    assert float(np.min(t.a.values[disk])) > 0.5
    # potential is exactly constant there, so the through-current had to
    # come from the penalized companion solve
    u = ScalarField(grid, np.asarray(t.provenance["u_true"]))
    gr = gradient(u)
    assert np.max(np.abs(gr.v1[disk])) == 0.0


def test_add_noise_statistics_and_determinism():
    grid, c, sigma0, f = bump_problem(33)
    t = synthesize_triplet(c, sigma0, f, grid)
    level = 0.05
    noisy = add_noise(t.a, level, seed=123)
    again = add_noise(t.a, level, seed=123)
    other = add_noise(t.a, level, seed=124)
    assert np.array_equal(noisy.values, again.values)
    assert not np.array_equal(noisy.values, other.values)
    rel = noisy.values / t.a.values - 1.0
    assert 0.8 * level < np.std(rel) < 1.2 * level
    assert np.min(noisy.values) >= 0.0
    with pytest.raises(DataError):
        add_noise(t.a, -0.1, seed=0)


def test_zero_noise_is_identity():
    grid, c, sigma0, f = bump_problem(9)
    t = synthesize_triplet(c, sigma0, f, grid)
    assert add_noise(t.a, 0.0, seed=5) is t.a


def test_synthesize_with_noise_records_seed():
    grid, c, sigma0, f = bump_problem(9)
    t = synthesize_triplet(c, sigma0, f, grid, noise_level=0.02, seed=7)
    assert t.provenance["noise_level"] == 0.02
    assert t.provenance["seed"] == 7


def test_save_load_roundtrip(tmp_path, bump33):
    d = tmp_path / "trip"
    manifest = save_triplet(bump33, d)
    assert manifest == d / "triplet.json"
    back = load_triplet(d)
    assert np.array_equal(back.a.values, bump33.a.values)
    assert np.array_equal(back.f.values, bump33.f.values)
    assert np.array_equal(back.sigma0.s12, bump33.sigma0.s12)
    assert np.array_equal(
        np.asarray(back.provenance["u_true"]), np.asarray(bump33.provenance["u_true"])
    )
    assert back.grid.nx == bump33.grid.nx
    assert back.grid.hx == bump33.grid.hx


def test_save_load_roundtrip_with_inclusions(tmp_path):
    grid = make_grid(17)
    disk = disk_cells(grid, (0.5, 0.5), 0.2)
    incl = InclusionSet(grid, perfect=[disk])
    sigma0 = TensorField2.constant(grid, 1.0, 0.0, 1.0)
    x, _ = grid.node_coords()
    c = ScalarField(grid, np.ones(grid.cell_shape), location="cell")
    t = synthesize_triplet(c, sigma0, ScalarField(grid, x), grid, inclusions=incl)
    save_triplet(t, tmp_path / "trip")
    back = load_triplet(tmp_path / "trip")
    assert back.inclusions is not None
    assert np.array_equal(back.inclusions.perfect_mask(), disk)


def test_save_load_roundtrip_on_the_smallest_grid(tmp_path):
    # a 3x3 grid stores 2x2 cell planes, smaller than any node plane
    grid, c, sigma0, f = bump_problem(3)
    t = synthesize_triplet(c, sigma0, f, grid)
    save_triplet(t, tmp_path / "trip")
    back = load_triplet(tmp_path / "trip")
    assert back.grid.same_layout(grid)
    assert back.a.location == "cell" and np.array_equal(back.a.values, t.a.values)
    assert np.array_equal(back.provenance["c_true"], t.provenance["c_true"])
    assert np.array_equal(back.f.values, t.f.values)


def test_load_missing_field_reports_name(tmp_path, bump33):
    d = tmp_path / "trip"
    save_triplet(bump33, d)
    (d / "a.field").unlink()
    with pytest.raises(DataError) as exc:
        load_triplet(d)
    assert "a" in str(exc.value)


def test_saved_bytes_are_deterministic(tmp_path, bump33):
    d1, d2 = tmp_path / "t1", tmp_path / "t2"
    save_triplet(bump33, d1)
    save_triplet(bump33, d2)
    for name in ("a.field", "f.field", "sigma0.field", "triplet.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_read_matching_names_the_broken_file(tmp_path, bump33):
    path = tmp_path / "a.field"
    write_field_file(bump33.a, path)
    blob = path.read_bytes()
    nl = blob.index(b"\n")
    header = json.loads(blob[:nl])
    header["kind"] = []
    path.write_bytes(json.dumps(header).encode() + blob[nl:])
    with pytest.raises(FieldFormatError) as info:
        read_matching(path, bump33.grid)
    assert info.value.field == "kind"
    assert str(path) in str(info.value)
