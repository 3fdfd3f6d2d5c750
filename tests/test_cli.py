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
from acdii.cli import CONFIG, ConfigError, config_hash, main, parse_config
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
        "verify": {"trials": 6, "seed": 3, "coarea_levels": 40, "area_levels": 6,
                   "competitors": 3},
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
    assert "grid.nz" in str(exc.value)
    cfg = _base_config(tmp_path / "out")
    cfg["mystery"] = {}
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg)
    assert "mystery" in str(exc.value)


def test_parse_rejects_wrong_types(tmp_path):
    cfg = _base_config(tmp_path / "out")
    cfg["grid"]["nx"] = "seventeen"
    with pytest.raises(ConfigError):
        parse_config(cfg)
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
    assert (out / "audits.json").exists()
    assert (out / "curves.csv").exists()

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
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    for out, seed in ((out1, None), (out2, "11"), (out3, "99")):
        cfg = _base_config(out, noise=0.05)
        path = _write(tmp_path, cfg, name=f"{out.name}.json")
        argv = ["synth", "--config", path] + (["--seed", seed] if seed else [])
        assert main(argv) == 0
    same = (out1 / "a.field").read_bytes() == (out2 / "a.field").read_bytes()
    diff = (out1 / "a.field").read_bytes() == (out3 / "a.field").read_bytes()
    assert same and not diff


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
        ("inverse", "eps_ratio", 1.5, "inverse.eps_ratio"),
        ("verify", "k_ladder", [2.0], "verify.k_ladder[0]"),
        ("grid", "nx", 2, "grid.nx"),
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


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out", noise=0.05)
    assert main(["synth", "--config", _write(tmp_path, cfg), "--seed", "-1"]) == 2
    assert "--seed" in _single_error(capsys)


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


def test_importing_the_cli_loads_no_scipy_linear_algebra():
    # scipy.linalg alone adds about 80 ms to every command's start-up
    code = (
        "import sys, acdii.cli; "
        "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(acdii.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
