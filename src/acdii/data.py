"""Interior data synthesis: currents, their weighted magnitude, noise,
and directory round-trips for admissible (f, sigma0, a) triplets.

The measured scalar is a = |J|_{sigma0^{-1}} with J = -c sigma0 grad u,
so on cells where Ohm's law holds a = c |grad u|_{sigma0}.  Inside a
perfectly conducting component the potential gradient vanishes while the
physical current does not; the synthesizer recovers that interior
current from the penalized problem, J = -(1/k) sigma1 grad u_k with a
small k, so the triplet carries positive data over such components.
On insulating components a is zero exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fields import Grid2D, ScalarField, TensorField2, VectorField2, gradient
from .forward import (
    InclusionSet,
    assemble,
    solve_dirichlet,
    solve_inclusion_limit,
    solve_penalized,
)
from .io import FieldFormatError, read_field_file, write_field_file
from .schema import Key, read_json, validate


class DataError(ValueError):
    pass


@dataclass
class AdmissibleTriplet:
    """Boundary data f, background tensor sigma0, interior magnitude a.

    a is cell-located and nonnegative; it vanishes exactly on insulating
    cells.  `provenance` records how the triplet was made (true factor,
    true potential, noise, seed) when it came from synthesis.
    """

    f: ScalarField
    sigma0: TensorField2
    a: ScalarField
    grid: Grid2D
    inclusions: InclusionSet | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.a.location != "cell":
            raise DataError("a must be cell-located")
        avals = self.a.values
        if (avals < 0.0).any():
            raise DataError("a must be nonnegative")
        if self.inclusions is not None:
            ins = self.inclusions.insulating_mask()
            if (ins & (avals != 0.0)).any():
                raise DataError("a must vanish exactly on insulating cells")

    def zero_cells(self) -> np.ndarray:
        """Cells where the measured magnitude is zero."""
        return self.a.values <= 0.0


def compute_current(u: ScalarField, c, sigma0: TensorField2, dead=None) -> VectorField2:
    """Ohm's law J = -c sigma0 grad u per cell, zeroed on the `dead` cells."""
    if isinstance(c, ScalarField):
        c = c.values
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), u.grid.cell_shape)
    gr = gradient(u)
    w1, w2 = sigma0.apply(gr.v1, gr.v2)
    j1 = -c * w1
    j2 = -c * w2
    if dead is not None:
        j1 = np.where(dead, 0.0, j1)
        j2 = np.where(dead, 0.0, j2)
    return VectorField2(u.grid, j1, j2)


def compute_a(current: VectorField2, sigma0: TensorField2) -> ScalarField:
    """a = (sigma0^{-1} J . J)^{1/2} per cell."""
    vals = sigma0.inv_norm(current.v1, current.v2)
    return ScalarField(current.grid, vals, location="cell")


def add_noise(a: ScalarField, level: float, seed: int) -> ScalarField:
    """Multiplicative noise a * (1 + level * zeta), clamped at zero.

    Exploratory instrumentation only: no claim in the analysis covers
    noisy data, so noise never changes any audit's pass criteria.
    """
    if level < 0.0:
        raise DataError(f"noise level must be nonnegative, got {level}")
    if level == 0.0:
        return a
    rng = np.random.default_rng(seed)
    zeta = rng.standard_normal(a.values.shape)
    vals = np.maximum(a.values * (1.0 + level * zeta), 0.0)
    return ScalarField(a.grid, vals, location=a.location)


# the penalization k of the current over perfect components, and the CG
# tolerance of every truth solve
PENALIZED_K = 1e-6
_TRUTH_TOL = 1e-10


def _truth_inputs(c_true, f, grid: Grid2D):
    """(cell array of c_true, node field of f) from fields, arrays or numbers."""
    if isinstance(c_true, ScalarField):
        c_arr = c_true.values
    else:
        c_arr = np.broadcast_to(np.asarray(c_true, dtype=np.float64), grid.cell_shape)
    f_field = f if isinstance(f, ScalarField) else ScalarField(grid, f, location="node")
    return c_arr, f_field


def solve_truth(c_true, sigma0: TensorField2, f, grid: Grid2D, inclusions=None):
    """Truth potential and current for the factor c_true.

    With inclusions present the tied/deleted limit problem provides the
    potential, so the gradient is exactly zero on perfect components; the
    current over them comes from a penalized solve at `PENALIZED_K`,
    which is what the limiting current actually is there.  Returns
    (u, current) with the current zeroed on insulating cells, so a
    computed from it is exactly zero there.
    """
    c_arr, f_field = _truth_inputs(c_true, f, grid)
    has_inclusions = inclusions is not None and (inclusions.perfect or inclusions.insulating)
    if has_inclusions:
        sigma = sigma0.scaled(c_arr)
        u = solve_inclusion_limit(sigma, f_field, grid, inclusions, tol=_TRUTH_TOL)
    else:
        system = assemble(c_arr, sigma0, grid)
        u = solve_dirichlet(system, f_field, tol=_TRUTH_TOL)

    dead = inclusions.insulating_mask() if inclusions is not None else None
    current = compute_current(u, c_arr, sigma0, dead)
    if has_inclusions and inclusions.perfect:
        u_k = solve_penalized(PENALIZED_K, sigma0, sigma, f_field, grid, inclusions, tol=_TRUTH_TOL)
        gr_k = gradient(u_k)
        w1, w2 = sigma0.apply(gr_k.v1, gr_k.v2)
        perf = inclusions.perfect_mask()
        j1 = np.where(perf, -w1 / PENALIZED_K, current.v1)
        j2 = np.where(perf, -w2 / PENALIZED_K, current.v2)
        current = VectorField2(grid, j1, j2)
    return u, current


def synthesize_triplet(c_true, sigma0: TensorField2, f, grid: Grid2D, inclusions=None,
                       noise_level: float = 0.0, seed: int = 0) -> AdmissibleTriplet:
    """Forward-solve and package an admissible triplet.

    The truth current (penalized fill over perfect components included)
    defines a; multiplicative noise (if any) is applied to a last.
    """
    c_arr, f_field = _truth_inputs(c_true, f, grid)
    u, current = solve_truth(c_arr, sigma0, f_field, grid, inclusions)
    a = compute_a(current, sigma0)
    if noise_level > 0.0:
        a = add_noise(a, noise_level, seed)

    provenance = {
        "inverse_crime": True,
        "c_true": np.asarray(c_arr, dtype=np.float64).copy(),
        "u_true": u.values.copy(),
        "noise_level": float(noise_level),
        "seed": int(seed),
        "penalized_k": PENALIZED_K if (inclusions is not None and inclusions.perfect) else None,
    }
    return AdmissibleTriplet(
        f=f_field, sigma0=sigma0, a=a, grid=grid, inclusions=inclusions, provenance=provenance
    )


# -- directory round trip ------------------------------------------------------

TRIPLET_SCHEMA = "acdii-triplet/1"

GRID_SIZE = Key("int", required=True, range="[3, inf)")  # Grid2D's lower bound
_SPACING = Key("num", required=True, range="(0, inf)")
_REQUIRED_FILE = Key("str", required=True)
MANIFEST = {
    "schema": Key("str", required=True, choices=(TRIPLET_SCHEMA,)),
    "grid": Key("obj", required=True, spec={
        "nx": GRID_SIZE, "ny": GRID_SIZE, "hx": _SPACING, "hy": _SPACING,
    }),
    "files": Key("obj", required=True, spec={
        "sigma0": _REQUIRED_FILE, "a": _REQUIRED_FILE, "f": _REQUIRED_FILE,
        "inclusions": Key("str"), "c_true": Key("str"), "u_true": Key("str"),
    }),
    "noise": Key("obj", {}, spec={
        "level": Key("num", 0.0, "[0, inf)"), "seed": Key("int", 0),
    }),
    "provenance": Key("obj", {}, spec={
        "inverse_crime": Key("bool", False), "penalized_k": Key("num", None, "(0, 1]"),
    }),
}


def save_triplet(triplet: AdmissibleTriplet, directory) -> Path:
    """Write triplet.json plus one field file per payload; returns manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    grid = triplet.grid
    files = {"sigma0": "sigma0.field", "a": "a.field", "f": "f.field"}
    write_field_file(triplet.sigma0, directory / files["sigma0"])
    write_field_file(triplet.a, directory / files["a"])
    write_field_file(triplet.f, directory / files["f"])
    if triplet.inclusions is not None:
        files["inclusions"] = "inclusions.field"
        labels = ScalarField(grid, triplet.inclusions.labels(), location="cell")
        write_field_file(labels, directory / files["inclusions"])
    prov = triplet.provenance
    if "c_true" in prov:
        files["c_true"] = "c_true.field"
        write_field_file(
            ScalarField(grid, prov["c_true"], location="cell"), directory / files["c_true"]
        )
    if "u_true" in prov:
        files["u_true"] = "u_true.field"
        write_field_file(
            ScalarField(grid, prov["u_true"], location="node"), directory / files["u_true"]
        )
    manifest = {
        "schema": TRIPLET_SCHEMA,
        "grid": {"nx": grid.nx, "ny": grid.ny, "hx": grid.hx, "hy": grid.hy},
        "files": files,
        "noise": {
            "level": float(prov.get("noise_level", 0.0)),
            "seed": int(prov.get("seed", 0)),
        },
        "provenance": {
            "inverse_crime": bool(prov.get("inverse_crime", False)),
            "penalized_k": prov.get("penalized_k"),
        },
    }
    path = directory / "triplet.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def read_matching(path, grid: Grid2D, kind=ScalarField, location: str = "cell"):
    """Read a scalar or tensor field file laid out on `grid`; DataError names the file.

    A scalar file stores only its plane size, not where the values sit,
    so its plane is checked against the node or cell shape of `grid`
    that `location` asks for.
    """
    try:
        raw = read_field_file(path)
    except FieldFormatError as exc:
        raise FieldFormatError(f"{path}: {exc}", field=exc.field) from exc
    if not isinstance(raw, kind):
        raise DataError(f"{path} holds a {type(raw).__name__}, expected a {kind.__name__}")
    plane = raw.values if kind is ScalarField else raw.s11
    want = grid.shape if kind is ScalarField and location == "node" else grid.cell_shape
    if (plane.shape, raw.grid.hx, raw.grid.hy) != (want, grid.hx, grid.hy):
        raise DataError(
            f"{path} does not match the grid of {grid.nx}x{grid.ny} nodes "
            f"at hx={grid.hx!r}, hy={grid.hy!r}"
        )
    if kind is TensorField2:
        return TensorField2(grid, raw.s11, raw.s12, raw.s22)
    return ScalarField(grid, raw.values, location=location)


def load_triplet(directory) -> AdmissibleTriplet:
    directory = Path(directory)
    mpath = directory / "triplet.json"
    manifest = validate(MANIFEST, read_json(mpath, DataError), DataError, where=str(mpath))
    g = manifest["grid"]
    grid = Grid2D(g["nx"], g["ny"], g["hx"], g["hy"])
    files = manifest["files"]

    def load(name, kind=ScalarField, location="cell"):
        if files[name] is None:
            return None
        path = directory / files[name]
        if not path.exists():
            raise DataError(f"missing field {name}: {path}")
        return read_matching(path, grid, kind, location)

    sigma0 = load("sigma0", TensorField2)
    a = load("a")
    f = load("f", location="node")
    labels = load("inclusions")
    inclusions = None if labels is None else InclusionSet.from_labels(grid, labels.values)
    provenance = {
        "inverse_crime": manifest["provenance"]["inverse_crime"],
        "penalized_k": manifest["provenance"]["penalized_k"],
        "noise_level": manifest["noise"]["level"],
        "seed": manifest["noise"]["seed"],
    }
    for name, location in (("c_true", "cell"), ("u_true", "node")):
        stored = load(name, location=location)
        if stored is not None:
            provenance[name] = stored.values.copy()
    return AdmissibleTriplet(
        f=f, sigma0=sigma0, a=a, grid=grid, inclusions=inclusions, provenance=provenance
    )
