"""Binary field files: canonical bytes, round trips, strict validation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdii.fields import Grid2D, ScalarField, TensorField2, VectorField2
from acdii.io import FieldFormatError, read_field, read_field_file, write_field, write_field_file
from conftest import make_grid, rotated_tensor


def _scalar(n=3):
    g = make_grid(n)
    vals = np.arange(n * n, dtype=float).reshape(n, n)
    return ScalarField(g, vals)


def test_scalar_bytes_layout():
    blob = write_field(_scalar(3))
    nl = blob.index(b"\n")
    header = json.loads(blob[:nl])
    assert header["schema"] == "acdii-field/1"
    assert header["kind"] == "scalar"
    assert header["nx"] == 3 and header["ny"] == 3
    assert header["order"] == "row-major" and header["payload"] == "f64le"
    payload = blob[nl + 1 :]
    assert len(payload) == 9 * 8
    assert np.frombuffer(payload, dtype="<f8").tolist() == list(range(9))


def test_scalar_roundtrip_bit_exact():
    f = _scalar(5)
    blob = write_field(f)
    back = read_field(blob)
    assert isinstance(back, ScalarField)
    assert back.grid.nx == 5 and back.grid.hx == pytest.approx(0.25)
    assert np.array_equal(back.values, f.values)
    assert write_field(back) == blob


def test_vector_and_tensor_roundtrip():
    g = make_grid(4)
    rng = np.random.default_rng(1)
    v = VectorField2(g, rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
    t = rotated_tensor(g, 0.4, 2.0, 0.5)
    for f in (v, t):
        back = read_field(write_field(f))
        assert type(back) is type(f)
    bv = read_field(write_field(v))
    assert np.array_equal(bv.v1, v.v1) and np.array_equal(bv.v2, v.v2)
    # cell-plane files rebuild the node grid one larger in each direction
    assert bv.grid.nx == 4 and bv.grid.ny == 4
    bt = read_field(write_field(t))
    assert np.array_equal(bt.s12, t.s12)


def test_plane_too_small_for_nodes_reads_back_as_cells():
    cells = ScalarField(Grid2D(3, 4, 0.5, 0.25), np.arange(6.0).reshape(3, 2), "cell")
    blob = write_field(cells)
    back = read_field(blob)
    assert back.location == "cell"
    assert (back.grid.nx, back.grid.ny, back.grid.hx, back.grid.hy) == (3, 4, 0.5, 0.25)
    assert np.array_equal(back.values, cells.values)
    assert write_field(back) == blob


def test_file_roundtrip(tmp_path):
    f = _scalar(4)
    p = tmp_path / "u.field"
    write_field_file(f, p)
    back = read_field_file(p)
    assert np.array_equal(back.values, f.values)


def _mangle(header_patch=None, payload=None):
    blob = write_field(_scalar(3))
    nl = blob.index(b"\n")
    header = json.loads(blob[:nl])
    if header_patch:
        header.update(header_patch)
        header = {k: v for k, v in header.items() if v is not None}
    body = blob[nl + 1 :] if payload is None else payload
    return json.dumps(header).encode() + b"\n" + body


@pytest.mark.parametrize(
    "patch,field",
    [
        ({"schema": "acdii-field/2"}, "schema"),
        ({"kind": "matrix"}, "kind"),
        ({"order": "col-major"}, "order"),
        ({"payload": "f32le"}, "payload"),
        ({"nx": 0}, "nx"),
        ({"nx": 2.5}, "nx"),
        ({"hy": -1.0}, "hy"),
        ({"hx": None}, "hx"),
        ({"extra": 1}, "extra"),
        ({"kind": []}, "kind"),
        ({"kind": {"scalar": 1}}, "kind"),
        ({"hx": math.inf}, "hx"),
        ({"hy": math.nan}, "hy"),
        ({"hx": 1}, "hx"),
        ({"ny": 1}, "ny"),
    ],
)
def test_malformed_headers_name_the_field(patch, field):
    with pytest.raises(FieldFormatError) as exc:
        read_field(_mangle(header_patch=patch))
    assert exc.value.key == field


def test_truncated_payload_rejected():
    with pytest.raises(FieldFormatError):
        read_field(_mangle(payload=b"\x00" * 71))


def test_oversized_payload_rejected():
    with pytest.raises(FieldFormatError):
        read_field(_mangle(payload=b"\x00" * 80))


def test_missing_newline_rejected():
    with pytest.raises(FieldFormatError) as exc:
        read_field(b'{"schema":"acdii-field/1"}')
    assert exc.value.key == "header"


def test_header_not_json_rejected():
    with pytest.raises(FieldFormatError):
        read_field(b"not json\n" + b"\x00" * 72)


def test_nonfinite_payload_rejected():
    bad = np.full(9, np.nan).tobytes()
    with pytest.raises(FieldFormatError):
        read_field(_mangle(payload=bad))


def test_tensor_payload_must_be_spd():
    g = make_grid(3)
    t = rotated_tensor(g, 0.0, 2.0, 1.0)
    blob = write_field(t)
    nl = blob.index(b"\n")
    planes = np.frombuffer(blob[nl + 1 :], dtype="<f8").copy().reshape(3, 2, 2)
    planes[1, 0, 0] = 5.0  # s12 > sqrt(s11 s22): not positive definite
    with pytest.raises(FieldFormatError) as exc:
        read_field(blob[: nl + 1] + planes.tobytes())
    assert exc.value.key == "payload"


def _fields():
    """One file of every shape the reader returns: node, cell, vector and tensor planes."""
    g = Grid2D(4, 3, 0.125, 0.3)
    rng = np.random.default_rng(2)
    return [
        ScalarField(g, rng.standard_normal(g.shape)),
        ScalarField(g, rng.standard_normal(g.cell_shape), "cell"),
        VectorField2(g, *rng.standard_normal((2,) + g.cell_shape)),
        rotated_tensor(g, 0.4, 2.0, 0.5),
    ]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                              max_size=3),
    max_leaves=6,
)
_KEYS = ("schema", "kind", "nx", "ny", "hx", "hy", "order", "payload")
_EDITS = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(_KEYS), _JSON),
    st.tuples(st.just("drop"), st.sampled_from(_KEYS), st.none()),
    st.tuples(st.just("add"), st.text(max_size=8).filter(lambda k: k not in _KEYS), _JSON),
    st.tuples(st.just("payload"), st.integers(-200, -1), st.none()),
    st.tuples(st.just("payload"), st.binary(min_size=1, max_size=64), st.none()),
)


@settings(max_examples=300, deadline=None, database=None)
@given(base=st.sampled_from(range(4)), edit=_EDITS)
def test_edited_file_reads_back_exactly_or_names_its_field(base, edit):
    blob = write_field(_fields()[base])
    nl = blob.index(b"\n")
    header, body = json.loads(blob[:nl]), blob[nl + 1 :]
    op, key, value = edit
    if op in ("replace", "add"):
        header[key] = value
    elif op == "drop":
        del header[key]
    else:
        body = body[:key] if isinstance(key, int) else body + key
    edited = json.dumps(header, separators=(",", ":")).encode() + b"\n" + body
    try:
        field = read_field(edited)
    except FieldFormatError as exc:
        assert exc.key is not None
    else:
        assert write_field(field) == edited
