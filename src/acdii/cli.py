"""Command-line driver: forward solves, data synthesis, recovery, audits.

Subcommands:

- forward: solve the truth conductivity problem and write the potential,
  current, and interior data fields plus a forward.json report;
- synth: synthesize an admissible triplet directory (optionally noisy);
- invert: run the TV recovery on a triplet directory and write the
  recovered potential, factor, conductivity, degenerate-set mask, and a
  recon.json report;
- verify: run the structural audits (minimality margins, duality
  identity, coarea reconstruction, level-set area minimality, metric
  curvature residual with a deliberately mismatched control, truncation
  limits, and the penalization ladder when the truth is available) and
  write audits.json plus the level curves as CSV;
- report: aggregate the JSON reports found in a results directory.

All outputs are deterministic: reports are sorted-key JSON with no
timestamps, field files are raw float64, and reruns of the same config
are byte-identical.  Exit codes: 0 success, 1 a computation or audit
gate failed, 2 bad configuration or data.  Errors print one JSON object
on stderr.
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
    compute_a,
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
    rect_cells,
    solve_inclusion_limit,
    solve_penalized,
)
from .geometry import (
    area_minimality_audit,
    build_metric,
    curvature_residual,
    curves_to_csv,
    extract_level_set,
    truncation_limit_audit,
)
from .inverse import (
    ALGORITHMS,
    TV_SCHEMA,
    TVConfigError,
    TVProblem,
    coarea_audit,
    duality_gap,
    minimality_audit,
    reconstruct,
    recover_c,
    sine_perturbations,
)
from .io import FieldFormatError, write_field_file
from .schema import Key, read_json, validate


class ConfigError(ValueError):
    """Raised for malformed, unknown, or missing configuration entries."""


# -- the config schema -----------------------------------------------------------

_POSITIVE = "(0, inf)"
_NONNEGATIVE = "[0, inf)"
_AT_LEAST_ONE = "[1, inf)"


def _num(default, interval=None):
    return Key("num", default, interval)


def _int(default, interval=None):
    return Key("int", default, interval)


def _pair(default):
    return Key("list", list(default), "[2, 2]", spec=Key("num", required=True))


_INCLUSION_TYPE = Key("str", required=True, choices=("perfect", "insulating"))
GATES = ("minimality", "duality", "coarea", "area_minimality")

# A section without a default (grid, truth) stays None when absent; the
# commands that need it say so.
CONFIG = {
    "grid": Key("obj", spec={
        "nx": GRID_SIZE, "ny": GRID_SIZE, "lx": _num(1.0, _POSITIVE), "ly": _num(1.0, _POSITIVE),
    }),
    "truth": Key("obj", spec={
        "c": Key("obj", required=True, tag="kind", spec={
            "constant": {"value": _num(1.0, _POSITIVE)},
            "gaussian_bump": {
                "base": _num(1.0, _POSITIVE),
                "amplitude": _num(0.5),
                "center": _pair((0.5, 0.5)),
                "width": _num(0.15, _POSITIVE),
            },
        }),
        "sigma0": Key("obj", required=True, tag="kind", spec={
            "identity": {},
            "constant": {"s11": _num(1.0, _POSITIVE), "s12": _num(0.0), "s22": _num(1.0, _POSITIVE)},
            "rotated_diag": {"angle": _num(0.0), "d1": _num(2.0, _POSITIVE), "d2": _num(1.0, _POSITIVE)},
        }),
        "f": Key("obj", required=True, tag="kind", spec={
            "linear": {"gx": _num(1.0), "gy": _num(0.0), "offset": _num(0.0)},
            "sinusoid": {"amplitude": _num(1.0), "kx": _int(1), "ky": _int(0), "offset": _num(0.0)},
        }),
    }),
    "inclusions": Key("list", [], spec=Key("obj", required=True, tag="shape", spec={
        "disk": {"type": _INCLUSION_TYPE, "center": _pair((0.5, 0.5)), "radius": _num(0.2, _POSITIVE)},
        "rect": {"type": _INCLUSION_TYPE, "lo": _pair((0.3, 0.3)), "hi": _pair((0.7, 0.7))},
    })),
    "noise": Key("obj", {}, spec={"level": _num(0.0, _NONNEGATIVE), "seed": _int(0, _NONNEGATIVE)}),
    "inverse": Key("obj", {}, spec={
        "algorithm": Key("str", "fixedpoint", choices=ALGORITHMS),
        **TV_SCHEMA,
    }),
    "verify": Key("obj", {}, spec={
        "trials": _int(20, _AT_LEAST_ONE),
        "seed": _int(0, _NONNEGATIVE),
        "amplitude": _num(0.05, _POSITIVE),
        "coarea_levels": _int(200, _AT_LEAST_ONE),
        "area_levels": _int(20, _AT_LEAST_ONE),
        "competitors": _int(5, _AT_LEAST_ONE),
        "curve_levels": _int(9, _AT_LEAST_ONE),
        "truncation_level": _num(None),
        "k_ladder": Key("list", None, _AT_LEAST_ONE, spec=Key("num", required=True, range="(0, 1]")),
        "margin_rel_tol": _num(1e-8, _NONNEGATIVE),
        "duality_tol": _num(1e-3, _POSITIVE),
        "coarea_tol": _num(0.02, _POSITIVE),
        "area_tol_rel": _num(0.01, _POSITIVE),
        "gates": Key("list", ["minimality", "area_minimality"],
                     spec=Key("str", required=True, choices=GATES)),
    }),
    "output": Key("obj", {}, spec={"directory": Key("str")}),
    "input": Key("obj", {}, spec={"triplet": Key("str"), "recon": Key("str"), "results": Key("str")}),
}


def parse_config(raw: dict) -> dict:
    """The checked config, defaults filled; ConfigError names the first bad key."""
    return validate(CONFIG, raw, ConfigError)


def config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# -- builders -------------------------------------------------------------------


def _section(cfg, name):
    if cfg[name] is None:
        raise ConfigError(f"this command needs the config section '{name}'")
    return cfg[name]


def build_grid(cfg) -> Grid2D:
    g = _section(cfg, "grid")
    return Grid2D(g["nx"], g["ny"], g["lx"] / (g["nx"] - 1), g["ly"] / (g["ny"] - 1))


def build_c(cfg, grid: Grid2D) -> ScalarField:
    c = cfg["truth"]["c"]
    if c["kind"] == "constant":
        vals = np.full(grid.cell_shape, c["value"])
    else:
        cx, cy = grid.cell_centers()
        r2 = (cx - c["center"][0]) ** 2 + (cy - c["center"][1]) ** 2
        vals = c["base"] + c["amplitude"] * np.exp(-r2 / (2.0 * c["width"] ** 2))
        # a cross-key rule the per-key schema cannot state
        if not (vals > 0.0).all():
            raise ConfigError(
                f"config entry 'truth.c' must be positive on every cell; the gaussian_bump "
                f"reaches {float(vals.min()):.6g} (base + amplitude must stay above 0)"
            )
    return ScalarField(grid, vals, location="cell")


def build_sigma0(cfg, grid: Grid2D) -> TensorField2:
    s = cfg["truth"]["sigma0"]
    if s["kind"] == "identity":
        return TensorField2.constant(grid, 1.0, 0.0, 1.0)
    if s["kind"] == "constant":
        return TensorField2.constant(grid, s["s11"], s["s12"], s["s22"])
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
    lx = (grid.nx - 1) * grid.hx
    ly = (grid.ny - 1) * grid.hy
    if f["kind"] == "linear":
        vals = f["gx"] * x + f["gy"] * y + f["offset"]
    else:
        vals = f["offset"] + f["amplitude"] * np.sin(
            np.pi * (f["kx"] * x / lx + f["ky"] * y / ly)
        )
    return ScalarField(grid, vals, location="node")


def build_inclusions(cfg, grid: Grid2D):
    entries = cfg["inclusions"]
    if not entries:
        return None
    perfect, insulating = [], []
    for e in entries:
        if e["shape"] == "disk":
            m = disk_cells(grid, e["center"], e["radius"])
        else:
            m = rect_cells(grid, e["lo"], e["hi"])
        (perfect if e["type"] == "perfect" else insulating).append(m)
    return InclusionSet(grid, perfect=perfect, insulating=insulating)


# -- serialization helpers -------------------------------------------------------


def _write_json(path: Path, obj) -> None:
    # numpy integers, booleans and arrays become their Python values
    # (numpy floats already are floats)
    text = json.dumps(obj, sort_keys=True, indent=2, default=lambda o: o.tolist())
    path.write_text(text + "\n")


def _out_dir(cfg, args) -> Path:
    directory = args.out if args.out is not None else cfg["output"]["directory"]
    if directory is None:
        raise ConfigError("no output directory given (set output.directory or pass --out)")
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _say(args, line: str) -> None:
    if not args.quiet:
        print(line)


def _require_triplet(cfg) -> str:
    path = cfg["input"]["triplet"]
    if path is None:
        raise ConfigError("this command needs input.triplet in the config")
    return path


# -- commands ---------------------------------------------------------------------


def cmd_forward(cfg, args, chash) -> int:
    grid = build_grid(cfg)
    c = build_c(cfg, grid)
    sigma0 = build_sigma0(cfg, grid)
    f = build_f(cfg, grid)
    inclusions = build_inclusions(cfg, grid)
    sigma = sigma0.scaled(c.values)
    u, current = solve_truth(c, sigma0, f, grid, inclusions)
    a = compute_a(current, sigma0)

    out = _out_dir(cfg, args)
    # magnitude.field, not a.field: synth owns a.field as triplet payload,
    # and a forward run into the same directory must not rewrite a triplet
    write_field_file(u, out / "potential.field")
    write_field_file(current, out / "current.field")
    write_field_file(a, out / "magnitude.field")
    gap = duality_gap(u, f, current, a, sigma0)
    report = {
        "command": "forward",
        "version": __version__,
        "config_hash": chash,
        "grid": {"nx": grid.nx, "ny": grid.ny, "hx": grid.hx, "hy": grid.hy},
        "energy": energy(u, sigma, inclusions),
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
    grid = build_grid(cfg)
    c = build_c(cfg, grid)
    sigma0 = build_sigma0(cfg, grid)
    f = build_f(cfg, grid)
    inclusions = build_inclusions(cfg, grid)
    seed = args.seed if args.seed is not None else cfg["noise"]["seed"]
    triplet = synthesize_triplet(
        c,
        sigma0,
        f,
        grid,
        inclusions=inclusions,
        noise_level=cfg["noise"]["level"],
        seed=seed,
    )
    out = _out_dir(cfg, args)
    save_triplet(triplet, out)
    amax = float(np.max(triplet.a.values))
    report = {
        "command": "synth",
        "version": __version__,
        "config_hash": chash,
        "grid": {"nx": grid.nx, "ny": grid.ny, "hx": grid.hx, "hy": grid.hy},
        "a_max": amax,
        "zero_data_cells": int(triplet.zero_cells().sum()),
        "noise": {"level": cfg["noise"]["level"], "seed": seed},
    }
    _write_json(out / "synth.json", report)
    _say(args, f"synth: a_max {amax:.6e}, zero cells {report['zero_data_cells']} -> {out}")
    return 0


def cmd_invert(cfg, args, chash) -> int:
    triplet = load_triplet(_require_triplet(cfg))
    settings = dict(cfg["inverse"])
    algorithm = settings.pop("algorithm")
    report = reconstruct(TVProblem(triplet=triplet, **settings), algorithm=algorithm)
    grid = triplet.grid
    out = _out_dir(cfg, args)
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
    _say(args, f"invert: duality gap {gap:.3e}, masked cells {int(report.mask_z.sum())} -> {out}")
    return 0


def cmd_verify(cfg, args, chash) -> int:
    triplet = load_triplet(_require_triplet(cfg))
    grid = triplet.grid
    vcfg = cfg["verify"]
    seed = args.seed if args.seed is not None else vcfg["seed"]

    recon_dir = cfg["input"]["recon"]
    if recon_dir is not None:
        u = read_matching(Path(recon_dir) / "u_star.field", grid, location="node")
        u_source = "recon"
    elif triplet.provenance.get("u_true") is not None:
        u = ScalarField(grid, triplet.provenance["u_true"], location="node")
        u_source = "provenance"
    else:
        raise ConfigError("verify needs input.recon or a triplet with a stored potential")

    c_rec, mask_z, _ = recover_c(u, triplet.a, triplet.sigma0)
    current = compute_current(u, c_rec, triplet.sigma0, dead=mask_z)

    audits = {}
    audits["minimality"] = minimality_audit(
        u,
        triplet.a,
        triplet.sigma0,
        trials=vcfg["trials"],
        seed=seed,
        amplitude=vcfg["amplitude"],
        f=triplet.f,
        current=current,
    )
    audits["coarea"] = coarea_audit(u, triplet.a, triplet.sigma0, n_levels=vcfg["coarea_levels"])
    # keep the report compact; the full per-level table stays computable on demand
    audits["coarea"] = {
        k: v for k, v in audits["coarea"].items() if k not in ("levels", "perimeters")
    }

    metric = build_metric(triplet.a, triplet.sigma0)
    _, rms = curvature_residual(u, metric)
    swapped = TensorField2(grid, triplet.sigma0.s22, triplet.sigma0.s12, triplet.sigma0.s11)
    control_rms = rms
    if not np.array_equal(triplet.sigma0.s11, triplet.sigma0.s22):
        metric_sw = build_metric(triplet.a, swapped)
        _, control_rms = curvature_residual(u, metric_sw)
    audits["curvature"] = {
        "rms": rms,
        "control_rms": control_rms,
        "control": "axis-swapped sigma0",
    }

    competitors = [
        ScalarField(grid, u.values + w, location="node")
        for w in sine_perturbations(u, vcfg["competitors"], seed + 1, vcfg["amplitude"])
    ]
    audits["area_minimality"] = area_minimality_audit(
        u,
        competitors,
        triplet.a,
        triplet.sigma0,
        n_levels=vcfg["area_levels"],
        tol_rel=vcfg["area_tol_rel"],
    )

    level = (
        vcfg["truncation_level"]
        if vcfg["truncation_level"] is not None
        else float(np.median(u.values))
    )
    audits["truncation"] = truncation_limit_audit(u, triplet.a, triplet.sigma0, level)

    if vcfg["k_ladder"] is not None:
        audits["penalization_ladder"] = _penalization_ladder(triplet, vcfg["k_ladder"])

    rows = _gate_rows(audits, vcfg)
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
    out = _out_dir(cfg, args)
    _write_json(out / "audits.json", doc)

    qs = np.quantile(u.values, [(j + 1) / (vcfg["curve_levels"] + 1) for j in range(vcfg["curve_levels"])])
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


def _gate_rows(audits: dict, vcfg: dict) -> dict:
    """One row per gate, in GATES order: (passed, detail text)."""
    m = audits["minimality"]
    coarea = audits["coarea"]["rel_discrepancy"]
    violations = audits["area_minimality"]["violations"]
    return {
        "minimality": (m["min_margin"] >= -vcfg["margin_rel_tol"] * max(m["tv_value"], 1e-300),
                       f"min margin {m['min_margin']:.3e}"),
        "duality": (m["duality_gap"] <= vcfg["duality_tol"], f"gap {m['duality_gap']:.3e}"),
        "coarea": (coarea <= vcfg["coarea_tol"], f"discrepancy {coarea:.3e}"),
        "area_minimality": (violations == 0, f"{violations} violations"),
    }


def _penalization_ladder(triplet: AdmissibleTriplet, ks) -> dict:
    grid = triplet.grid
    prov = triplet.provenance
    if (
        triplet.inclusions is None
        or not triplet.inclusions.perfect
        or prov.get("c_true") is None
    ):
        return {"skipped": True, "reason": "needs perfect inclusions and the stored truth"}
    c_arr = np.asarray(prov["c_true"], dtype=np.float64)
    sigma0 = triplet.sigma0
    sigma = sigma0.scaled(c_arr)
    u0 = solve_inclusion_limit(sigma, triplet.f, grid, triplet.inclusions)
    i0 = energy(u0, sigma, triplet.inclusions)
    rows = []
    for k in sorted(ks, reverse=True):
        uk = solve_penalized(k, sigma0, sigma, triplet.f, grid, triplet.inclusions)
        dist = rel_l2(uk.values, u0.values)
        ik = energy(uk, sigma, triplet.inclusions, k=k, sigma1=sigma0)
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
    results = cfg["input"]["results"]
    if results is None:
        raise ConfigError("report needs input.results in the config")
    rdir = Path(results)
    if not rdir.is_dir():
        raise ConfigError(f"results directory not found: {rdir}")
    sections = {}
    for name in ("forward", "synth", "recon", "audits"):
        path = rdir / f"{name}.json"
        if path.exists():
            sections[name] = read_json(path, DataError)
    if not sections:
        raise ConfigError(f"no result JSON files found in {rdir}")
    doc = {
        "command": "report",
        "version": __version__,
        "config_hash": chash,
        "sections": sections,
    }
    out = _out_dir(cfg, args)
    _write_json(out / "report.json", doc)
    _say(args, f"report: aggregated {sorted(sections)} -> {out / 'report.json'}")
    if "audits" in sections:
        _say(args, f"verify passed: {sections['audits'].get('passed')}")
    if "recon" in sections:
        diag = sections["recon"].get("diagnostics", {})
        if "duality_gap" in diag:
            _say(args, f"recovery duality gap: {diag['duality_gap']:.3e}")
    return 0


_COMMANDS = {
    "forward": cmd_forward,
    "synth": cmd_synth,
    "invert": cmd_invert,
    "verify": cmd_verify,
    "report": cmd_report,
}

_USAGE_ERRORS = (
    ConfigError,
    DataError,
    FieldFormatError,
    GridError,
    AssemblyError,
    TVConfigError,
    OSError,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    args = parser.parse_args(argv)

    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        raw = read_json(args.config, ConfigError)
        cfg = parse_config(raw)
        chash = config_hash(raw)
        return _COMMANDS[args.command](cfg, args, chash)
    except _USAGE_ERRORS as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n"
        )
        return 2
    except ConvergenceError as exc:
        sys.stderr.write(
            json.dumps({"error": "ConvergenceError", "message": str(exc)}, sort_keys=True) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
