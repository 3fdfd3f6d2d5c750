"""Command-line driver: config validation, pipeline, determinism, exit codes."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import acdii
from acdii.cli import _NEEDS, CONFIG, ConfigError, config_hash, main, parse_config
from acdii.fields import Grid2D, ScalarField
from acdii.forward import disk_cells
from acdii.io import read_field_file, write_field_file
from acdii.schema import Key


def _base_config(out_dir, n=17, noise=0.0):
    return {
        "grid": {"nx": n, "ny": n, "lx": 1.0, "ly": 1.0},
        "truth": {
            "c": {
                "kind": "gaussian_bump",
                "base": 1.0,
                "amplitude": 0.5,
                "center": [0.5, 0.5],
                "width": 0.15,
            },
            "sigma0": {"kind": "rotated_diag", "angle": 0.5236, "d1": 2.0, "d2": 1.0},
            "f": {"kind": "linear", "gx": 1.0, "gy": 0.0},
        },
        "noise": {"level": noise, "seed": 11},
        "inverse": {"algorithm": "fixedpoint"},
        "verify": {"seed": 3},
        "output": {"directory": str(out_dir)},
    }


def _write(tmp_path, cfg, name="job.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg, indent=2))
    return str(p)


def test_parse_rejects_unknown_keys(tmp_path):
    cfg = _base_config(tmp_path / "out")
    cfg["grid"]["nz"] = 4
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg)
    assert "grid.nz" in str(exc.value) and exc.value.key == "grid.nz"
    cfg = _base_config(tmp_path / "out")
    cfg["mystery"] = {}
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg)
    assert "mystery" in str(exc.value)


def test_parse_rejects_wrong_types(tmp_path):
    cfg = _base_config(tmp_path / "out")
    cfg["grid"]["nx"] = "seventeen"
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg)
    assert exc.value.key == "grid.nx"
    cfg = _base_config(tmp_path / "out")
    cfg["noise"]["level"] = True
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_config_hash_order_independent(tmp_path):
    cfg = _base_config(tmp_path / "out")
    h1 = config_hash(parse_config(cfg))
    reordered = json.loads(json.dumps(cfg))
    reordered["truth"] = dict(reversed(list(reordered["truth"].items())))
    h2 = config_hash(parse_config(reordered))
    assert h1 == h2
    cfg["noise"]["seed"] = 12
    assert config_hash(parse_config(cfg)) != h1


def test_full_pipeline_exit_codes(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base_config(out)
    path = _write(tmp_path, cfg)
    assert main(["synth", "--config", path]) == 0
    assert (out / "triplet.json").exists()

    cfg["input"] = {"triplet": str(out)}
    path = _write(tmp_path, cfg)
    assert main(["forward", "--config", path]) == 0
    assert main(["invert", "--config", path]) == 0
    assert (out / "u_star.field").exists()
    assert (out / "c_rec.field").exists()
    assert (out / "recon.json").exists()

    cfg["input"]["recon"] = str(out)
    path = _write(tmp_path, cfg)
    assert main(["verify", "--config", path]) == 0
    lines = capsys.readouterr().out
    assert "minimality: PASS" in lines
    assert (out / "curves.csv").exists()
    # the current recovered under the axis-swapped sigma0 stands clear of
    # the matched one (criterion 08's ratio)
    curvature = json.loads((out / "audits.json").read_text())["audits"]["curvature"]
    assert curvature["control_rms"] >= 5.0 * curvature["rms"]

    cfg["input"]["results"] = str(out)
    path = _write(tmp_path, cfg)
    assert main(["report", "--config", path]) == 0
    rep = json.loads((out / "report.json").read_text())
    # the recorded hash identifies the raw config document
    assert rep["config_hash"] == config_hash(json.loads((tmp_path / "job.json").read_text()))


def test_invert_reruns_byte_identical(tmp_path):
    out = tmp_path / "out"
    cfg = _base_config(out)
    path = _write(tmp_path, cfg)
    assert main(["synth", "--config", path]) == 0
    cfg["input"] = {"triplet": str(out)}
    path = _write(tmp_path, cfg)
    assert main(["invert", "--config", path]) == 0
    first = {
        name: (out / name).read_bytes()
        for name in ("u_star.field", "c_rec.field", "mask_z.field", "recon.json")
    }
    assert main(["invert", "--config", path]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_invert_and_report_flag_unconverged_primal_dual(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base_config(out)
    cfg["inverse"] = {"algorithm": "primaldual", "pd_iterations": 100}
    path = _write(tmp_path, cfg)
    assert main(["synth", "--config", path, "--quiet"]) == 0
    cfg["input"] = {"triplet": str(out), "results": str(out)}
    path = _write(tmp_path, cfg)
    capsys.readouterr()
    assert main(["invert", "--config", path]) == 0
    info = json.loads((out / "recon.json").read_text())["diagnostics"]["primaldual"]
    assert (info["iterations"], info["max_iterations"], info["converged"]) == (100, 100, False)
    flag = (
        f"primal-dual stopped unconverged at 100 iterations "
        f"(gap {info['pd_gap']:.3e}, div B rms {info['dual_divergence_rms']:.3e})"
    )
    assert flag in capsys.readouterr().out
    assert main(["report", "--config", path]) == 0
    assert flag in capsys.readouterr().out.splitlines()
    assert main(["invert", "--config", path, "--quiet"]) == 0
    assert main(["report", "--config", path, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "diagnostics",
    ['{"primaldual": {"iterations": 5}}', '{"duality_gap": "small"}'],
    ids=["primaldual-without-converged", "text-gap"],
)
def test_report_on_malformed_diagnostics_exits_2_naming_file(tmp_path, capsys, diagnostics):
    results = tmp_path / "results"
    results.mkdir()
    (results / "recon.json").write_text(f'{{"diagnostics": {diagnostics}}}')
    cfg = _base_config(tmp_path / "out")
    cfg["input"] = {"results": str(results)}
    assert main(["report", "--config", _write(tmp_path, cfg), "--quiet"]) == 2
    assert "recon.json" in _single_error(capsys)


def test_forward_into_synth_dir_keeps_triplet_intact(tmp_path):
    # forward and synth may share a directory: the truth-solve artifacts
    # must not rewrite the triplet payload (a.field in particular)
    out = tmp_path / "out"
    cfg = _base_config(out)
    cfg["inclusions"] = [
        {"type": "perfect", "shape": "disk", "center": [0.3, 0.7], "radius": 0.12}
    ]
    path = _write(tmp_path, cfg)
    assert main(["synth", "--config", path]) == 0
    a_saved = (out / "a.field").read_bytes()

    cfg["input"] = {"triplet": str(out)}
    path = _write(tmp_path, cfg)
    assert main(["forward", "--config", path]) == 0
    assert (out / "magnitude.field").exists()
    assert (out / "a.field").read_bytes() == a_saved

    from acdii.data import load_triplet

    t = load_triplet(str(out))
    disk = t.inclusions.perfect_mask()
    assert disk.any()
    # the fill from the penalized current survives: positive data over
    # the perfectly conducting component, and forward agrees with synth
    assert float(t.a.values[disk].min()) > 0.0
    mag = read_field_file(out / "magnitude.field")
    assert np.allclose(mag.values, t.a.values, rtol=0.0, atol=1e-12)


def test_seed_flag_changes_noise_draw(tmp_path):
    # noise.seed sets the draw, and the config hash records it
    out = tmp_path / "out"
    runs = []
    for seed in (11, 11, 99):
        cfg = _base_config(out, noise=0.05)
        cfg["noise"]["seed"] = seed
        assert main(["synth", "--config", _write(tmp_path, cfg), "--quiet"]) == 0
        runs.append(((out / "a.field").read_bytes(),
                     json.loads((out / "synth.json").read_text())["config_hash"]))
    assert runs[0] == runs[1]
    assert runs[0][0] != runs[2][0] and runs[0][1] != runs[2][1]


def test_verify_fails_on_corrupted_potential(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base_config(out)
    path = _write(tmp_path, cfg)
    assert main(["synth", "--config", path]) == 0
    cfg["input"] = {"triplet": str(out)}
    path = _write(tmp_path, cfg)
    assert main(["invert", "--config", path]) == 0

    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    u = read_field_file(out / "u_star.field")
    x, y = u.grid.node_coords()
    from acdii.fields import ScalarField

    wrecked = ScalarField(
        u.grid, u.values + 0.4 * np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    write_field_file(wrecked, bad_dir / "u_star.field")
    cfg["input"]["recon"] = str(bad_dir)
    path = _write(tmp_path, cfg)
    assert main(["verify", "--config", path]) == 1
    assert "minimality: FAIL" in capsys.readouterr().out


def test_verify_rejects_a_potential_without_the_boundary_data(tmp_path, capsys):
    # a constant u_star does not carry f = x on the rim, so no audit of it
    # describes the triplet's problem: exit 2 naming the file
    out = tmp_path / "out"
    cfg = _base_config(out)
    path = _write(tmp_path, cfg)
    assert main(["synth", "--config", path]) == 0
    flat_dir = tmp_path / "flat"
    flat_dir.mkdir()
    grid = read_field_file(out / "f.field").grid
    from acdii.fields import ScalarField

    write_field_file(ScalarField(grid, np.full(grid.shape, 0.25)), flat_dir / "u_star.field")
    cfg["input"] = {"triplet": str(out), "recon": str(flat_dir)}
    path = _write(tmp_path, cfg)
    capsys.readouterr()
    assert main(["verify", "--config", path, "--quiet"]) == 2
    assert str(flat_dir / "u_star.field") in _single_error(capsys)
    assert not (out / "audits.json").exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["synth", "--config", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]


def test_invert_without_triplet_exits_2(tmp_path):
    cfg = _base_config(tmp_path / "out")
    path = _write(tmp_path, cfg)
    assert main(["invert", "--config", path]) == 2


def test_degenerate_grid_exits_2(tmp_path):
    cfg = _base_config(tmp_path / "out")
    cfg["grid"]["nx"] = 1
    path = _write(tmp_path, cfg)
    assert main(["synth", "--config", path]) == 2


def _shell(tmp_path, command, cfg):
    """Run one command from a shell, where numpy's warnings are not errors."""
    env = dict(os.environ, PYTHONPATH=str(Path(acdii.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "acdii.cli", command, "--config",
                           _write(tmp_path, cfg)], env=env, capture_output=True, text=True,
                          timeout=120)


def test_synth_on_an_overflowing_spacing_exits_2_naming_grid_lx(tmp_path):
    # at lx = 1e300 the squared extent of the domain overflows, so the
    # config is refused before any array is built, with one JSON line and
    # no warning
    cfg = _base_config(tmp_path / "out", n=33)
    cfg["grid"]["lx"] = 1e300
    out = _shell(tmp_path, "synth", cfg)
    assert out.returncode == 2
    lines = out.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError" and "grid.lx" in err["message"]
    assert not (tmp_path / "out").exists()
    # at lx = 1e100 the extent is finite but the solve overflows: the
    # computation fails (exit 1) with one JSON line, before any file is written
    cfg["grid"]["lx"] = 1e100
    out = _shell(tmp_path, "synth", cfg)
    assert out.returncode == 1
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "FloatingPointError"
    assert not (tmp_path / "out").exists()


def test_verify_on_a_tiny_spacing_exits_1_writing_no_audits(tmp_path):
    # at lx = 1e-300 synth and the fixed point run, but the audits' squared
    # gradients overflow: verify fails with one JSON line and no audits.json,
    # where it would write Infinity and NaN
    cfg = _base_config(tmp_path / "out")
    cfg["grid"]["lx"] = 1e-300
    cfg["input"] = {"triplet": str(tmp_path / "out"), "recon": str(tmp_path / "out")}
    for command in ("synth", "invert"):
        assert main([command, "--config", _write(tmp_path, cfg), "--quiet"]) == 0
    out = _shell(tmp_path, "verify", cfg)
    assert out.returncode == 1
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "FloatingPointError"
    assert not (tmp_path / "out" / "audits.json").exists()


def test_synth_on_a_tiny_spacing_matches_a_moderate_one(tmp_path):
    # the factored element stays finite where Gauss blocks of order 1 / hx^2
    # overflow, and f = x scales with lx, so the data a do not depend on lx
    fields = []
    for lx in (1e-100, 1e-300):
        cfg = _base_config(tmp_path / str(lx))
        cfg["grid"]["lx"] = lx
        assert main(["synth", "--config", _write(tmp_path, cfg), "--quiet"]) == 0
        fields.append(read_field_file(tmp_path / str(lx) / "a.field").values)
    assert np.allclose(fields[0], fields[1], rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("command, entry",
                         [(command, entry) for command, entries in _NEEDS.items()
                          for entry in entries])
def test_command_without_a_needed_entry_exits_2_naming_it(tmp_path, capsys, command, entry):
    cfg = _base_config(tmp_path / "out", n=9)
    cfg["input"] = {"triplet": str(tmp_path / "trip"), "results": str(tmp_path / "results")}
    section, _, name = entry.partition(".")
    if name:
        del cfg[section][name]
    else:
        del cfg[section]
    assert main([command, "--config", _write(tmp_path, cfg)]) == 2
    assert _single_error(capsys) == f"{command} needs the config entry '{entry}'"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]


def test_unknown_key_exits_2_with_named_key(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out")
    cfg["inverse"]["momentum"] = 0.9
    path = _write(tmp_path, cfg)
    assert main(["synth", "--config", path]) == 2
    assert "inverse.momentum" in capsys.readouterr().err


def test_quiet_suppresses_stdout(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base_config(out)
    path = _write(tmp_path, cfg)
    assert main(["synth", "--config", path, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


# -- the input contract: every malformed input exits 2 with one JSON error ------


def _single_error(capsys) -> str:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["message"]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth") / "out"
    cfg = _base_config(out, n=9)
    path = tmp_path_factory.mktemp("cfg") / "job.json"
    path.write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(path), "--quiet"]) == 0
    return out


@pytest.mark.parametrize(
    "edit, named",
    [
        # the field files were written at hx = 1/8, the manifest claims 0.5
        ({"grid": {"hx": 0.5}}, "sigma0.field"),
        ({"grid": {"nx": "9"}}, "grid.nx"),
        # a node plane where the cell data a belongs
        ({"files": {"a": "f.field"}}, "f.field"),
        ({"grid": None}, "grid"),
        ({"files": None}, "files"),
        ("{not json", "triplet.json"),
    ],
    ids=["hx-mismatch", "string-nx", "node-plane-as-cells", "missing-grid",
         "missing-files", "invalid-json"],
)
def test_malformed_manifest_exits_2_naming_it(tmp_path, capsys, synth_dir, edit, named):
    """`edit` is the manifest text, or per section an update (None drops the section)."""
    trip = tmp_path / "trip"
    shutil.copytree(synth_dir, trip)
    if isinstance(edit, str):
        text = edit
    else:
        manifest = json.loads((trip / "triplet.json").read_text())
        for section, change in edit.items():
            if change is None:
                del manifest[section]
            else:
                manifest[section].update(change)
        text = json.dumps(manifest)
    (trip / "triplet.json").write_text(text)
    cfg = _base_config(tmp_path / "out", n=9)
    cfg["input"] = {"triplet": str(trip)}
    path = _write(tmp_path, cfg)
    capsys.readouterr()
    assert main(["invert", "--config", path]) == 2
    assert named in _single_error(capsys)
    assert not (tmp_path / "out" / "recon.json").exists()


@pytest.mark.parametrize(
    "first, second",
    [(0.5, 0.0), (-3.0, 0.0), (1.5, 0.0), (1.0, 1.0)],
    ids=["half", "negative", "one-and-a-half", "shared-perfect-label"],
)
def test_inclusion_labels_off_the_contract_exit_2_naming_the_file(tmp_path, capsys, synth_dir,
                                                                   first, second):
    """Two disjoint disks labelled `first` and `second`: labels are 0, 1..N or 255+j."""
    trip = tmp_path / "trip"
    shutil.copytree(synth_dir, trip)
    grid = Grid2D(9, 9, 0.125, 0.125)
    plane = (first * disk_cells(grid, (0.3, 0.5), 0.15)
             + second * disk_cells(grid, (0.7, 0.5), 0.15))
    write_field_file(ScalarField(grid, plane, location="cell"), trip / "inclusions.field")
    manifest = json.loads((trip / "triplet.json").read_text())
    manifest["files"]["inclusions"] = "inclusions.field"
    (trip / "triplet.json").write_text(json.dumps(manifest))
    cfg = _base_config(tmp_path / "out", n=9)
    cfg["input"] = {"triplet": str(trip)}
    path = _write(tmp_path, cfg)
    capsys.readouterr()
    assert main(["invert", "--config", path]) == 2
    assert "inclusions.field" in _single_error(capsys)
    assert not (tmp_path / "out" / "recon.json").exists()


def test_unhashable_field_kind_exits_2_naming_kind(tmp_path, capsys, synth_dir):
    trip = tmp_path / "trip"
    shutil.copytree(synth_dir, trip)
    blob = (trip / "a.field").read_bytes()
    nl = blob.index(b"\n")
    header = json.loads(blob[:nl])
    header["kind"] = []
    (trip / "a.field").write_bytes(json.dumps(header).encode() + blob[nl:])
    cfg = _base_config(tmp_path / "out", n=9)
    cfg["input"] = {"triplet": str(trip)}
    path = _write(tmp_path, cfg)
    capsys.readouterr()
    assert main(["invert", "--config", path]) == 2
    message = _single_error(capsys)
    assert "kind" in message
    assert "a.field" in message


def test_invalid_result_json_exits_2_naming_file(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    (results / "recon.json").write_text('{"diagnostics": ')
    cfg = _base_config(tmp_path / "out")
    cfg["input"] = {"results": str(results)}
    assert main(["report", "--config", _write(tmp_path, cfg)]) == 2
    assert "recon.json" in _single_error(capsys)


@pytest.mark.parametrize(
    "section, key, value, named",
    [
        ("grid", "nx", 2, "grid.nx"),
        ("verify", "k_ladder", [2.0], "verify.k_ladder[0]"),
        ("noise", "seed", -1, "noise.seed"),
        ("grid", "ly", 1e300, "grid.ly"),
    ],
)
def test_out_of_range_value_exits_2_naming_key(tmp_path, capsys, section, key, value, named):
    cfg = _base_config(tmp_path / "out")
    cfg[section][key] = value
    assert main(["synth", "--config", _write(tmp_path, cfg)]) == 2
    assert named in _single_error(capsys)
    assert not (tmp_path / "out").exists()


def test_nonpositive_bump_exits_2_naming_truth_c(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out")
    cfg["truth"]["c"]["amplitude"] = -2.0
    assert main(["synth", "--config", _write(tmp_path, cfg)]) == 2
    assert "'truth.c'" in _single_error(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda c: c.update(inclusions=[
            {"shape": "disk", "type": "insulating", "center": [0.3, 0.3], "radius": 0.1},
            {"shape": "disk", "type": "perfect", "center": [0.5, 0.5], "radius": 0.001}]),
         "'inclusions[1]'"),
        (lambda c: c.update(inclusions=[
            {"shape": "disk", "type": "perfect", "center": [0.05, 0.5], "radius": 0.2}]),
         "'inclusions[0]'"),
        (lambda c: c.update(inclusions=[
            {"shape": "disk", "type": "insulating", "center": [0.6, 0.6], "radius": 0.001}]),
         "'inclusions[0]'"),
        (lambda c: c.update(inclusions=[
            {"shape": "disk", "type": "perfect", "center": [0.3, 0.5], "radius": 0.15},
            {"shape": "disk", "type": "insulating", "center": [0.75, 0.5], "radius": 0.1},
            {"shape": "disk", "type": "insulating", "center": [0.45, 0.5], "radius": 0.1}]),
         "'inclusions[0]' and 'inclusions[2]'"),
        # the set holds perfect components first, so these configs list
        # them in another order than the set does
        (lambda c: c.update(inclusions=[
            {"shape": "disk", "type": "insulating", "center": [0.3, 0.3], "radius": 0.1},
            {"shape": "disk", "type": "perfect", "center": [0.7, 0.3], "radius": 0.001},
            {"shape": "disk", "type": "perfect", "center": [0.5, 0.7], "radius": 0.1}]),
         "'inclusions[1]'"),
        (lambda c: c.update(inclusions=[
            {"shape": "disk", "type": "insulating", "center": [0.4, 0.5], "radius": 0.12},
            {"shape": "disk", "type": "perfect", "center": [0.6, 0.5], "radius": 0.1}]),
         "'inclusions[0]' and 'inclusions[1]'"),
    ],
    ids=["empty-perfect", "touches-boundary", "empty-insulating", "overlap",
         "empty-perfect-listed-after-insulating", "overlap-insulating-listed-first"],
)
def test_malformed_truth_entry_exits_2_naming_it(tmp_path, capsys, edit, named):
    cfg = _base_config(tmp_path / "out")
    edit(cfg)
    for command in ("synth", "forward"):
        assert main([command, "--config", _write(tmp_path, cfg)]) == 2
        assert named in _single_error(capsys)
        assert not (tmp_path / "out").exists()


def test_255_perfect_inclusions_exit_2_naming_inclusions(tmp_path, capsys):
    # single cells two cells apart on the 34 x 34 cells of n = 35; the
    # label plane has room for 254 perfect components
    cfg = _base_config(tmp_path / "out", n=35)
    h = 1.0 / 34
    cells = [(i, j) for j in range(1, 32, 2) for i in range(1, 32, 2)][:255]
    cfg["inclusions"] = [
        {"shape": "disk", "type": "perfect", "center": [(i + 0.5) * h, (j + 0.5) * h],
         "radius": 0.25 * h}
        for i, j in cells
    ]
    assert main(["synth", "--config", _write(tmp_path, cfg)]) == 2
    assert "'inclusions'" in _single_error(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["synth", "--bogus", "1", "--config", "{path}"], "--bogus"),
        # the config file is the only way in: noise.seed, verify.seed and
        # output.directory replace the former flags
        (["synth", "--config", "{path}", "--seed", "1"], "--seed"),
        (["synth", "--config", "{path}", "--out", "{out}"], "--out"),
        (["synth"], "--config"),
        ([], "command"),
    ],
    ids=["unknown-flag", "removed-seed", "removed-out", "missing-config", "missing-command"],
)
def test_usage_error_exits_2_with_one_json_line(tmp_path, capsys, argv, named):
    path = _write(tmp_path, _base_config(tmp_path / "out"))
    argv = [a.format(path=path, out=tmp_path / "other") for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and captured.out == ""
    error = json.loads(lines[0])
    assert error["error"] == "ConfigError" and named in error["message"]
    assert not (tmp_path / "out").exists() and not (tmp_path / "other").exists()


def test_primal_dual_steps_beyond_the_floats_exit_2(tmp_path, capsys):
    # at lx = 1e-300 hx^2 underflows to 0, so tau and sigma are no
    # positive normal floats; synth and the fixed point still run
    cfg = _base_config(tmp_path / "out")
    cfg["grid"]["lx"] = 1e-300
    cfg["input"] = {"triplet": str(tmp_path / "out")}
    cfg["inverse"] = {"algorithm": "primaldual"}
    path = _write(tmp_path, cfg)
    assert main(["synth", "--config", path, "--quiet"]) == 0
    capsys.readouterr()
    assert main(["invert", "--config", path]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "TVConfigError"
    assert "hx" in error["message"] and "oscillation of f" in error["message"]
    assert not (tmp_path / "out" / "recon.json").exists()


def _number_slots(key, path="", steps=()):
    """(key path as errors name it, steps to reach it) for every number the schema takes."""
    if key.type == "num":
        yield path, steps
    elif key.type == "list":
        count = int(key.range[1]) if key.range else 1  # "[2, 2]" for pairs
        yield from _number_slots(key.spec, f"{path}[0]", steps + (("list", count),))
    elif key.type == "obj":
        variants = key.spec.items() if key.tag else [(None, key.spec)]
        for variant, table in variants:
            fixed = {key.tag: variant} if key.tag else {}
            fixed.update({n: k.choices[0] for n, k in table.items() if k.required and k.choices})
            for name, sub in table.items():
                sub_path = f"{path}.{name}" if path else name
                yield from _number_slots(sub, sub_path, steps + (("obj", fixed, name),))


def _put(current, steps, value):
    """`current` with `value` placed where steps lead; variants start from their tag."""
    if not steps:
        return value
    step, rest = steps[0], steps[1:]
    if step[0] == "list":
        return [_put(None, rest, value) for _ in range(step[1])]
    _, fixed, name = step
    obj = dict(fixed) if fixed else dict(current or {})
    obj[name] = _put(obj.get(name), rest, value)
    return obj


_SLOTS = list(_number_slots(Key("obj", spec=CONFIG)))


@pytest.mark.parametrize("named, steps", _SLOTS, ids=[p for p, _ in _SLOTS])
@settings(max_examples=10, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_number_exits_2_naming_key(tmp_path, capsys, named, steps, bad):
    cfg = _put(_base_config(tmp_path / "out"), steps, bad)
    capsys.readouterr()
    assert main(["synth", "--config", _write(tmp_path, cfg)]) == 2
    assert f"'{named}'" in _single_error(capsys)


_REMOVED = [
    # the primal-dual steps follow from f and the grid
    ("inverse.pd_tau", 0.01), ("inverse.pd_sigma", 0.01),
    # the eps schedule, the CG tolerance and the recovery cutoffs are fixed
    ("inverse.eps0", 0.01), ("inverse.eps_ratio", 0.01), ("inverse.eps_stages", 4),
    ("inverse.cg_tol", 0.01), ("inverse.delta_grad", 0.01), ("inverse.delta_a", 0.01),
    # so are the curve levels, the truncation level and the gate tolerances
    ("verify.curve_levels", 4), ("verify.truncation_level", 0.5),
    ("verify.margin_rel_tol", 0.01), ("verify.duality_tol", 0.01),
    ("verify.coarea_tol", 0.01), ("verify.area_tol_rel", 0.01),
    # a constant c is the bump with amplitude 0; the identity and any
    # constant SPD sigma0 are rotated_diag cases
    ("truth.c.kind", "constant"), ("truth.sigma0.kind", "identity"),
    ("truth.sigma0.kind", "constant"), ("truth.f.kind", "sinusoid"),
    # f = gx x + gy y, inclusions are disks, the solves drop only the
    # cells where a vanishes, and the audits run at their own sizes
    ("truth.f.offset", 0.5), ("inclusions[0].shape", "rect"), ("inverse.void_floor", 0.5),
    ("verify.trials", 6), ("verify.amplitude", 0.1), ("verify.coarea_levels", 40),
    ("verify.area_levels", 6), ("verify.competitors", 3),
]


@pytest.mark.parametrize(
    "key, value", _REMOVED,
    ids=[f"{k}-{v}" if isinstance(v, str) else k for k, v in _REMOVED],
)
def test_removed_key_exits_2_naming_it(tmp_path, capsys, key, value):
    cfg = _base_config(tmp_path / "out")
    cfg["inclusions"] = [{"shape": "disk", "type": "perfect", "center": [0.5, 0.5], "radius": 0.2}]
    *path, name = key.replace("[0]", ".0").split(".")
    entry = cfg
    for part in path:
        entry = entry[int(part)] if part.isdigit() else entry[part]
    entry[name] = value
    capsys.readouterr()
    assert main(["invert", "--config", _write(tmp_path, cfg)]) == 2
    message = _single_error(capsys)
    assert f"'{key}'" in message
    if isinstance(value, str):  # a removed kind: the error names it too
        assert f"'{value}'" in message
    assert not (tmp_path / "out").exists()


def test_importing_the_cli_loads_no_scipy_beyond_sparse():
    # scipy.linalg alone adds about 80 ms to every command's start-up, and
    # scipy.ndimage with the scipy.special it pulls in about 7 MB of memory
    unwanted = ("scipy.linalg", "scipy.sparse.linalg", "scipy.ndimage", "scipy.special")
    code = f"import sys, acdii.cli; print(sorted(m for m in {unwanted!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(Path(acdii.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
