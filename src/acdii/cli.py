"""Command-line driver: forward solves, data synthesis, recovery, audits.

Subcommands:

- forward: solve the truth conductivity problem and write the potential,
  current, and interior data fields plus a forward.json report;
- synth: synthesize an admissible triplet directory (optionally noisy);
- invert: run the TV recovery on a triplet directory and write the
  recovered potential, factor, conductivity, degenerate-set mask, and a
  recon.json report;
- verify: run the structural audits (minimality margins, duality
  identity, coarea reconstruction, level-set area minimality, truncation
  limits, the penalization ladder when the truth is available, and the
  mean curvature of the equipotentials in the metric g = a^2 adj(sigma0),
  which is -div J of the recovered current J, against the current
  recovered under the axis-swapped sigma0 as a control) and write
  audits.json plus the level curves as CSV;
- report: aggregate the JSON reports found in a results directory.

All outputs are deterministic: reports are sorted-key JSON with no
timestamps, field files are raw float64, and reruns of the same config
are byte-identical.  Every setting comes from the config file (the
only flags are --config and --quiet), so the config hash in every report
covers them all.  Exit codes: 0 success, 1 a computation (a solve that
does not converge, or an overflow, division by zero or NaN) or audit gate
failed, 2 bad configuration, data or arguments.  Errors print one JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    GRID_SIZE,
    DataError,
    AdmissibleTriplet,
    compute_current,
    load_triplet,
    read_matching,
    save_triplet,
    solve_truth,
    synthesize_triplet,
)
from .fields import Grid2D, GridError, ScalarField, TensorField2, rel_l2
from .forward import (
    AssemblyError,
    ConvergenceError,
    InclusionSet,
    disk_cells,
    energy,
    solve_inclusion_limit,
    solve_penalized,
)
from .geometry import (
    area_minimality_audit,
    curvature_residual,
    curves_to_csv,
    extract_level_set,
    truncation_limit_audit,
)
from .inverse import (
    ALGORITHMS,
    TV_SCHEMA,
    TVProblem,
    coarea_audit,
    duality_gap,
    minimality_audit,
    reconstruct,
    recover_c,
    sine_perturbations,
)
from .io import write_field_file
from .schema import InputError, Key, read_json, validate


class ConfigError(InputError):
    """Raised for malformed, unknown, or missing configuration entries or arguments."""


# -- the config schema -----------------------------------------------------------

_POSITIVE = "(0, inf)"
_NONNEGATIVE = "[0, inf)"


def _num(default, interval=None):
    return Key("num", default, interval)


def _int(default, interval=None):
    return Key("int", default, interval)


def _pair(default):
    return Key("list", list(default), "[2, 2]", spec=Key("num", required=True))


_INCLUSION_TYPE = Key("str", required=True, choices=("perfect", "insulating"))
GATES = ("minimality", "duality", "coarea", "area_minimality")
# the number of perturbed potentials the area-minimality audit compares u with
_COMPETITORS = 5

# An entry without a default stays None when absent; `_NEEDS` lists the
# ones each command needs.
CONFIG = {
    "grid": Key("obj", spec={
        "nx": GRID_SIZE, "ny": GRID_SIZE, "lx": _num(1.0, _POSITIVE), "ly": _num(1.0, _POSITIVE),
    }),
    "truth": Key("obj", spec={
        "c": Key("obj", required=True, tag="kind", spec={
            "gaussian_bump": {
                "base": _num(1.0, _POSITIVE),
                "amplitude": _num(0.5),
                "center": _pair((0.5, 0.5)),
                "width": _num(0.15, _POSITIVE),
            },
        }),
        "sigma0": Key("obj", required=True, tag="kind", spec={
            "rotated_diag": {"angle": _num(0.0), "d1": _num(2.0, _POSITIVE), "d2": _num(1.0, _POSITIVE)},
        }),
        "f": Key("obj", required=True, tag="kind", spec={
            "linear": {"gx": _num(1.0), "gy": _num(0.0)},
        }),
    }),
    "inclusions": Key("list", [], spec=Key("obj", required=True, tag="shape", spec={
        "disk": {"type": _INCLUSION_TYPE, "center": _pair((0.5, 0.5)), "radius": _num(0.2, _POSITIVE)},
    })),
    "noise": Key("obj", {}, spec={"level": _num(0.0, _NONNEGATIVE), "seed": _int(0, _NONNEGATIVE)}),
    "inverse": Key("obj", {}, spec={
        "algorithm": Key("str", "fixedpoint", choices=ALGORITHMS),
        **TV_SCHEMA,
    }),
    "verify": Key("obj", {}, spec={
        "seed": _int(0, _NONNEGATIVE),
        "k_ladder": Key("list", None, "[1, inf)", spec=Key("num", required=True, range="(0, 1]")),
        "gates": Key("list", ["minimality", "area_minimality"],
                     spec=Key("str", required=True, choices=GATES)),
    }),
    "output": Key("obj", {}, spec={"directory": Key("str")}),
    "input": Key("obj", {}, spec={"triplet": Key("str"), "recon": Key("str"), "results": Key("str")}),
}


_NEEDS = {
    "forward": ("grid", "truth", "output.directory"),
    "synth": ("grid", "truth", "output.directory"),
    "invert": ("input.triplet", "output.directory"),
    "verify": ("input.triplet", "output.directory"),
    "report": ("input.results", "output.directory"),
}


def parse_config(raw: dict) -> dict:
    """The checked config, defaults filled; ConfigError names the first bad key."""
    return validate(CONFIG, raw, ConfigError)


def config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# -- builders -------------------------------------------------------------------


def build_grid(cfg) -> Grid2D:
    """The grid on [0, lx] x [0, ly].  `build_c` squares coordinate differences
    across it and `fields.cell_operator` squares and multiplies its spacings;
    lx^2 + ly^2 bounds them all, so it must be a finite float."""
    g = cfg["grid"]
    lx, ly = g["lx"], g["ly"]
    if lx * lx + ly * ly == float("inf"):
        key = "grid.lx" if lx >= ly else "grid.ly"
        raise ConfigError(f"config entry '{key}' makes the squared extent lx^2 + ly^2 of the "
                          f"domain overflow (lx={lx!r}, ly={ly!r})", key=key)
    return Grid2D(g["nx"], g["ny"], lx / (g["nx"] - 1), ly / (g["ny"] - 1))


def build_c(cfg, grid: Grid2D) -> ScalarField:
    """The gaussian bump; amplitude 0 gives a constant factor."""
    c = cfg["truth"]["c"]
    cx, cy = grid.cell_centers()
    r2 = (cx - c["center"][0]) ** 2 + (cy - c["center"][1]) ** 2
    vals = c["base"] + c["amplitude"] * np.exp(-r2 / (2.0 * c["width"] ** 2))
    # a cross-key rule the per-key schema cannot state
    if not (vals > 0.0).all():
        raise ConfigError(
            f"config entry 'truth.c' must be positive on every cell; the gaussian_bump "
            f"reaches {float(vals.min()):.6g} (base + amplitude must stay above 0)", key="truth.c"
        )
    return ScalarField(grid, vals, location="cell")


def build_sigma0(cfg, grid: Grid2D) -> TensorField2:
    """diag(d1, d2) rotated by angle, SPD since d1, d2 > 0; d1 = d2 = 1 is the identity."""
    s = cfg["truth"]["sigma0"]
    ct, st = np.cos(s["angle"]), np.sin(s["angle"])
    d1, d2 = s["d1"], s["d2"]
    return TensorField2.constant(
        grid,
        d1 * ct * ct + d2 * st * st,
        (d1 - d2) * st * ct,
        d1 * st * st + d2 * ct * ct,
    )


def build_f(cfg, grid: Grid2D) -> ScalarField:
    f = cfg["truth"]["f"]
    x, y = grid.node_coords()
    return ScalarField(grid, f["gx"] * x + f["gy"] * y, location="node")


def build_inclusions(cfg, grid: Grid2D):
    """The disks as one `InclusionSet`; a rule it fails names the entries at fault."""
    entries = cfg["inclusions"]
    if not entries:
        return None
    masks = {"perfect": [], "insulating": []}
    for e in entries:
        masks[e["type"]].append(disk_cells(grid, e["center"], e["radius"]))
    # the set's positions, perfect components first, as config indices
    order = [i for kind in masks for i, e in enumerate(entries) if e["type"] == kind]
    try:
        return InclusionSet(grid, **masks)
    except AssemblyError as exc:
        named = sorted(order[p] for p in exc.components)
        quoted = " and ".join(f"'inclusions[{i}]'" for i in named)
        if len(named) == 1:
            what = f"config entry {quoted} is no valid {entries[named[0]]['type']} inclusion"
        elif named:
            what = f"config entries {quoted} overlap"
        else:
            what = "config entry 'inclusions' is no valid inclusion set"
        key = f"inclusions[{named[-1]}]" if named else "inclusions"
        raise ConfigError(f"{what} on this grid: {exc}", key=key) from exc


def build_truth(cfg):
    """The truth problem of `forward` and `synth`: (grid, c, sigma0, f, inclusions)."""
    grid = build_grid(cfg)
    return (grid, build_c(cfg, grid), build_sigma0(cfg, grid), build_f(cfg, grid),
            build_inclusions(cfg, grid))


# -- serialization helpers -------------------------------------------------------


def _write_json(path: Path, obj) -> None:
    # numpy integers, booleans and arrays become their Python values
    # (numpy floats already are floats)
    text = json.dumps(obj, sort_keys=True, indent=2, default=lambda o: o.tolist())
    path.write_text(text + "\n")


def _out_dir(cfg) -> Path:
    out = Path(cfg["output"]["directory"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _say(args, line: str) -> None:
    if not args.quiet:
        print(line)


def _pd_status(info: dict) -> str:
    """The stopping outcome of a primal-dual `recon.json` block, in words."""
    if info["converged"]:
        return (
            f"primal-dual converged after {info['iterations']} of "
            f"{info['max_iterations']} iterations"
        )
    return (
        f"primal-dual stopped unconverged at {info['iterations']} iterations "
        f"(gap {info['pd_gap']:.3e}, div B rms {info['dual_divergence_rms']:.3e})"
    )


# -- commands ---------------------------------------------------------------------


def cmd_forward(cfg, args, chash) -> int:
    grid, c, sigma0, f, inclusions = build_truth(cfg)
    u, current, a = solve_truth(c, sigma0, f, grid, inclusions)

    out = _out_dir(cfg)
    # magnitude.field, not a.field: synth owns a.field as triplet payload,
    # and a forward run into the same directory must not rewrite a triplet
    write_field_file(u, out / "potential.field")
    write_field_file(current, out / "current.field")
    write_field_file(a, out / "magnitude.field")
    # the dual verify reads: the three-row current of c_rec = a / rho_h
    c_rec, _, _ = recover_c(u, a, sigma0)
    gap = duality_gap(u, f, c_rec, a, sigma0)
    report = {
        "command": "forward",
        "version": __version__,
        "config_hash": chash,
        "grid": {"nx": grid.nx, "ny": grid.ny, "hx": grid.hx, "hy": grid.hy},
        "energy": energy(u, c.values, sigma0, inclusions),
        "duality_gap": gap,
        "files": {
            "potential": "potential.field",
            "current": "current.field",
            "magnitude": "magnitude.field",
        },
    }
    _write_json(out / "forward.json", report)
    _say(args, f"forward: energy {report['energy']:.6e}, duality gap {gap:.3e} -> {out}")
    return 0


def cmd_synth(cfg, args, chash) -> int:
    grid, c, sigma0, f, inclusions = build_truth(cfg)
    noise = cfg["noise"]
    triplet = synthesize_triplet(
        c,
        sigma0,
        f,
        grid,
        inclusions=inclusions,
        noise_level=noise["level"],
        seed=noise["seed"],
    )
    out = _out_dir(cfg)
    save_triplet(triplet, out)
    amax = float(np.max(triplet.a.values))
    report = {
        "command": "synth",
        "version": __version__,
        "config_hash": chash,
        "grid": {"nx": grid.nx, "ny": grid.ny, "hx": grid.hx, "hy": grid.hy},
        "a_max": amax,
        "zero_data_cells": int(triplet.zero_cells().sum()),
        "noise": noise,
    }
    _write_json(out / "synth.json", report)
    _say(args, f"synth: a_max {amax:.6e}, zero cells {report['zero_data_cells']} -> {out}")
    return 0


def cmd_invert(cfg, args, chash) -> int:
    triplet = load_triplet(cfg["input"]["triplet"])
    settings = dict(cfg["inverse"])
    algorithm = settings.pop("algorithm")
    report = reconstruct(TVProblem(triplet=triplet, **settings), algorithm=algorithm)
    grid = triplet.grid
    out = _out_dir(cfg)
    write_field_file(report.u_star, out / "u_star.field")
    write_field_file(report.c_rec, out / "c_rec.field")
    write_field_file(
        ScalarField(grid, report.mask_z.astype(np.float64), location="cell"),
        out / "mask_z.field",
    )
    doc = {
        "command": "invert",
        "version": __version__,
        "config_hash": chash,
        "algorithm": algorithm,
        "grid": {"nx": grid.nx, "ny": grid.ny, "hx": grid.hx, "hy": grid.hy},
        "labels": report.labels,
        "diagnostics": report.diagnostics,
        # the recovered conductivity is c_rec * sigma0 cellwise (zero on the
        # masked cells), so only the scalar factor and its mask are written
        "files": {
            "u_star": "u_star.field",
            "c_rec": "c_rec.field",
            "mask_z": "mask_z.field",
        },
    }
    _write_json(out / "recon.json", doc)
    gap = report.diagnostics.get("duality_gap", float("nan"))
    summary = f"invert: duality gap {gap:.3e}, masked cells {int(report.mask_z.sum())}"
    if "primaldual" in report.diagnostics:
        summary += ", " + _pd_status(report.diagnostics["primaldual"])
    _say(args, f"{summary} -> {out}")
    return 0


def cmd_verify(cfg, args, chash) -> int:
    triplet_dir = cfg["input"]["triplet"]
    triplet = load_triplet(triplet_dir)
    grid = triplet.grid
    vcfg = cfg["verify"]
    seed = vcfg["seed"]

    recon_dir = cfg["input"]["recon"]
    if recon_dir is not None:
        u_path = Path(recon_dir) / "u_star.field"
        u = read_matching(u_path, grid, location="node")
        u_source = "recon"
    elif triplet.provenance.get("u_true") is not None:
        u_path = Path(triplet_dir) / "u_true"
        u = ScalarField(grid, triplet.provenance["u_true"], location="node")
        u_source = "provenance"
    else:
        raise ConfigError("verify needs input.recon or a triplet with a stored potential",
                          key="input.recon")
    # every audit reads u as a potential of the triplet's problem, so it
    # must carry the Dirichlet data f to round-off
    fb = triplet.f.values.ravel()[grid.boundary_ids]
    gap = float(np.max(np.abs(u.values.ravel()[grid.boundary_ids] - fb)))
    if gap > 1e-12 * max(1.0, float(np.max(np.abs(fb)))):
        raise DataError(f"{u_path}: boundary values differ from the triplet's f by {gap:.3e}")

    c_rec, mask_z, _ = recover_c(u, triplet.a, triplet.sigma0)
    current = compute_current(u, c_rec, triplet.sigma0, dead=mask_z)

    audits = {}
    audits["minimality"] = minimality_audit(u, triplet.a, triplet.sigma0, seed=seed)
    audits["minimality"]["duality_gap"] = duality_gap(u, triplet.f, c_rec, triplet.a,
                                                      triplet.sigma0)
    audits["coarea"] = coarea_audit(u, triplet.a, triplet.sigma0)

    # the curvature residual is -div J; the control recovers the current
    # under the axis-swapped sigma0
    _, rms = curvature_residual(current, mask_z)
    swapped = TensorField2(grid, triplet.sigma0.s22, triplet.sigma0.s12, triplet.sigma0.s11)
    c_sw, mask_sw, _ = recover_c(u, triplet.a, swapped)
    _, control_rms = curvature_residual(compute_current(u, c_sw, swapped, dead=mask_sw), mask_sw)
    audits["curvature"] = {
        "rms": rms,
        "control_rms": control_rms,
        "control": "axis-swapped sigma0",
    }

    competitors = [
        ScalarField(grid, u.values + w, location="node")
        for w in sine_perturbations(u, _COMPETITORS, seed + 1)
    ]
    audits["area_minimality"] = area_minimality_audit(u, competitors, triplet.a, triplet.sigma0)
    audits["truncation"] = truncation_limit_audit(u, triplet.a, triplet.sigma0,
                                                  float(np.median(u.values)))

    if vcfg["k_ladder"] is not None:
        audits["penalization_ladder"] = _penalization_ladder(triplet, vcfg["k_ladder"])

    rows = _gate_rows(audits)
    gates = {name: bool(ok) for name, (ok, _) in rows.items()}
    enabled = vcfg["gates"]
    passed = all(gates[g] for g in enabled)
    doc = {
        "command": "verify",
        "version": __version__,
        "config_hash": chash,
        "u_source": u_source,
        "audits": audits,
        "gates": gates,
        "enabled_gates": enabled,
        "passed": passed,
    }
    out = _out_dir(cfg)
    _write_json(out / "audits.json", doc)

    # the level curves of u at its nine deciles
    qs = np.quantile(u.values, [j / 10 for j in range(1, 10)])
    curves = []
    for lam in qs:
        curves.extend(extract_level_set(u, float(lam)))
    (out / "curves.csv").write_text(curves_to_csv(curves))

    for name, (ok, detail) in rows.items():
        gate_note = "" if name in enabled else " (not gated)"
        _say(args, f"{name}: {'PASS' if ok else 'FAIL'} ({detail}){gate_note}")
    _say(args, f"curvature: rms {rms:.3e} (control {control_rms:.3e})")
    t = audits["truncation"]
    _say(args, f"truncation: limit {t['limit']:.6e} vs anisotropic {t['anisotropic_perimeter']:.6e}")
    return 0 if passed else 1


def _gate_rows(audits: dict) -> dict:
    """One row per gate, in GATES order: (passed, detail text).

    The minimality margins may fall below 0 by 1e-8 F[u] (quadrature
    round-off), the duality gap may reach 1e-3 and the coarea discrepancy
    0.02; area minimality allows no violation, which the audit counts at
    its own 1% tolerance.
    """
    m = audits["minimality"]
    coarea = audits["coarea"]["rel_discrepancy"]
    violations = audits["area_minimality"]["violations"]
    return {
        "minimality": (m["min_margin"] >= -1e-8 * max(m["tv_value"], 1e-300),
                       f"min margin {m['min_margin']:.3e}"),
        "duality": (m["duality_gap"] <= 1e-3, f"gap {m['duality_gap']:.3e}"),
        "coarea": (coarea <= 0.02, f"discrepancy {coarea:.3e}"),
        "area_minimality": (violations == 0, f"{violations} violations"),
    }


def _penalization_ladder(triplet: AdmissibleTriplet, ks) -> dict:
    prov = triplet.provenance
    if (
        triplet.inclusions is None
        or not triplet.inclusions.perfect
        or prov.get("c_true") is None
    ):
        return {"skipped": True, "reason": "needs perfect inclusions and the stored truth"}
    c_arr = np.asarray(prov["c_true"], dtype=np.float64)
    sigma0, f, inclusions = triplet.sigma0, triplet.f, triplet.inclusions
    u0 = solve_inclusion_limit(c_arr, sigma0, f, inclusions)
    i0 = energy(u0, c_arr, sigma0, inclusions)
    rows = []
    ks = sorted(ks, reverse=True)
    for k, uk in zip(ks, solve_penalized(ks, c_arr, sigma0, f, inclusions)):
        dist = rel_l2(uk.values, u0.values)
        ik = energy(uk, c_arr, sigma0, inclusions, k=k)
        rows.append({"k": k, "distance_rel": dist, "energy": ik})
    dists = [r["distance_rel"] for r in rows]
    energies = [r["energy"] for r in rows]
    return {
        "skipped": False,
        "limit_energy": i0,
        "rows": rows,
        "distance_monotone": bool(all(b <= a * (1.0 + 1e-12) for a, b in zip(dists, dists[1:]))),
        "energy_monotone": bool(
            all(b >= a - 1e-12 * (1.0 + abs(a)) for a, b in zip(energies, energies[1:]))
        ),
        "final_distance_rel": dists[-1] if dists else None,
    }


def cmd_report(cfg, args, chash) -> int:
    rdir = Path(cfg["input"]["results"])
    if not rdir.is_dir():
        raise ConfigError(f"results directory not found: {rdir}", key="input.results")
    sections = {}
    for name in ("forward", "synth", "recon", "audits"):
        path = rdir / f"{name}.json"
        if path.exists():
            sections[name] = read_json(path, DataError)
    if not sections:
        raise ConfigError(f"no result JSON files found in {rdir}", key="input.results")
    doc = {
        "command": "report",
        "version": __version__,
        "config_hash": chash,
        "sections": sections,
    }
    out = _out_dir(cfg)
    _write_json(out / "report.json", doc)
    _say(args, f"report: aggregated {sorted(sections)} -> {out / 'report.json'}")
    if "audits" in sections:
        _say(args, f"verify passed: {sections['audits'].get('passed')}")
    if "recon" in sections:
        diag = sections["recon"].get("diagnostics", {})
        try:
            if "duality_gap" in diag:
                _say(args, f"recovery duality gap: {diag['duality_gap']:.3e}")
            if "primaldual" in diag:
                _say(args, _pd_status(diag["primaldual"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{rdir / 'recon.json'}: malformed diagnostics ({exc!r})") from exc
    return 0


_COMMANDS = {
    "forward": cmd_forward,
    "synth": cmd_synth,
    "invert": cmd_invert,
    "verify": cmd_verify,
    "report": cmd_report,
}

_USAGE_ERRORS = (InputError, GridError, AssemblyError, OSError)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they print as one JSON line and exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="acdii",
        description="Anisotropic current-density impedance imaging laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("forward", "solve the truth problem and write its fields"),
        ("synth", "synthesize an admissible data triplet"),
        ("invert", "run the weighted-TV recovery on a triplet"),
        ("verify", "run the structural audits on a triplet"),
        ("report", "aggregate result JSON files"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    try:
        args = parser.parse_args(argv)
        raw = read_json(args.config, ConfigError)
        cfg = parse_config(raw)
        for entry in _NEEDS[args.command]:
            section, _, name = entry.partition(".")
            if (cfg[section][name] if name else cfg[section]) is None:
                raise ConfigError(f"{args.command} needs the config entry '{entry}'", key=entry)
        # an overflow, a division by zero or a NaN fails the command, as a
        # computation that does not converge does
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[args.command](cfg, args, config_hash(raw))
    except _USAGE_ERRORS + (ConvergenceError, FloatingPointError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n"
        )
        return 2 if isinstance(exc, _USAGE_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
