"""Interior data synthesis: currents, their weighted magnitude, noise,
and directory round-trips for admissible (f, sigma0, a) triplets.

The measured scalar is a = |J|_{sigma0^{-1}} with J = -c sigma0 grad u,
so on cells where Ohm's law holds a = c |grad u|_{sigma0}.  Its discrete
form there is a = c rho_h(u), with rho_h the density of the discrete
functional F_h (`fields.tv_density`): the sigma0-norm of the cell
gradient plus the hourglass term of the bilinear cell, so the FEM
potential is the exact minimizer of F_h for the synthesized data.
Inside a perfectly conducting component the potential gradient vanishes
while the physical current does not; the synthesizer recovers that
interior current from the penalized problem, J = -(1/k) sigma0 grad u_k
with a small k (the factor 1/k on sigma0 there), and takes a there as
the sigma0^{-1}-norm of that current (`compute_a`), so the triplet
carries positive data over such components.
On insulating components a is zero exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fields import Grid2D, ScalarField, TensorField2, VectorField2, grad, tv_density
from .forward import AssemblyError, InclusionSet, solve_inclusion_limit, solve_penalized
from .io import FieldFormatError, read_field_file, write_field_file
from .schema import InputError, Key, read_json, validate


class DataError(InputError):
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
    w1, w2 = sigma0.apply(*grad(u.grid, u.values))
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


# the penalization k of the current over perfect components
PENALIZED_K = 1e-6


def _cell_array(c_true, grid: Grid2D):
    """Cell array of c_true from a field, an array or a number."""
    if isinstance(c_true, ScalarField):
        return c_true.values
    return np.broadcast_to(np.asarray(c_true, dtype=np.float64), grid.cell_shape)


def solve_truth(c_true, sigma0: TensorField2, f, grid: Grid2D, inclusions=None):
    """Truth potential, current and data a for the factor c_true.

    The tied/deleted limit problem provides the potential, so the gradient
    is exactly zero on perfect components; the current over them comes
    from a penalized solve at `PENALIZED_K`, which is what the limiting
    current actually is there.  The current is zeroed on insulating cells.

    Off the inclusions a = c rho_h(u), rho_h = `tv_density`: the data of
    which the FEM potential is the exact minimizer of F_h.  On them a is
    `compute_a` of the current, so it is exactly zero on insulating cells
    and the penalized fill over perfect ones.  Returns (u, current, a).
    """
    c_arr = _cell_array(c_true, grid)
    u = solve_inclusion_limit(c_arr, sigma0, f, inclusions)

    dead = inclusions.insulating_mask() if inclusions is not None else None
    current = compute_current(u, c_arr, sigma0, dead)
    a = c_arr * tv_density(u.values, sigma0)
    if inclusions is not None:
        if inclusions.perfect:
            [u_k] = solve_penalized((PENALIZED_K,), c_arr, sigma0, f, inclusions)
            j_k = compute_current(u_k, 1.0 / PENALIZED_K, sigma0)
            perf = inclusions.perfect_mask()
            current = VectorField2(grid, np.where(perf, j_k.v1, current.v1),
                                   np.where(perf, j_k.v2, current.v2))
        a = np.where(inclusions.union_mask(), compute_a(current, sigma0).values, a)
    return u, current, ScalarField(grid, a, location="cell")


def synthesize_triplet(c_true, sigma0: TensorField2, f, grid: Grid2D, inclusions=None,
                       noise_level: float = 0.0, seed: int = 0) -> AdmissibleTriplet:
    """Forward-solve and package an admissible triplet.

    The data a are `solve_truth`'s; multiplicative noise (if any) is
    applied to a last.
    """
    c_arr = _cell_array(c_true, grid)
    u, _, a = solve_truth(c_arr, sigma0, f, grid, inclusions)
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
        f=f, sigma0=sigma0, a=a, grid=grid, inclusions=inclusions, provenance=provenance
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
        raise FieldFormatError(f"{path}: {exc}", key=exc.key) from exc
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
            raise DataError(f"missing field {name}: {path}", key=f"files.{name}")
        return read_matching(path, grid, kind, location)

    sigma0 = load("sigma0", TensorField2)
    a = load("a")
    f = load("f", location="node")
    labels = load("inclusions")
    inclusions = None
    if labels is not None:
        # the contract of `InclusionSet.labels`: 0 background, 1..N perfect, 255+j insulating
        path, values = directory / files["inclusions"], labels.values
        if not (np.isfinite(values) & (values >= 0) & (values == np.floor(values))).all():
            raise DataError(f"{path}: inclusion labels must be nonnegative integers")
        try:
            inclusions = InclusionSet.from_labels(grid, values)
        except AssemblyError as exc:
            raise DataError(f"{path} is no valid inclusion set: {exc}") from exc
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
