"""Bit-exact binary serialization for scalar, vector, and tensor fields.

A field file is one UTF-8 JSON header line followed by raw little-endian
float64 planes in row-major order:

    {"schema":"acdii-field/1","kind":"scalar","nx":3,"ny":3,
     "hx":0.5,"hy":0.5,"order":"row-major","payload":"f64le"}\n<payload>

`nx` and `ny` are the per-plane array dimensions: node counts for scalar
files, cell counts for vector (2 planes) and tensor (3 planes) files,
each at least 2; `hx` and `hy` are finite positive floats ("float" leaves
of `HEADER`, so an integer spacing, which would not write back to the
same bytes, is refused).  `schema.validate` checks the header line
against `HEADER`.  The payload must hold exactly planes*nx*ny float64
values.  Reading a file and writing it back reproduces the canonical
bytes exactly; any other input raises `FieldFormatError`, whose `key`
names the header field, or the part of the file, at fault.
"""

from __future__ import annotations

import json

import numpy as np

from .fields import Grid2D, GridError, ScalarField, TensorField2, VectorField2
from .schema import InputError, Key, validate

SCHEMA = "acdii-field/1"

_PLANES = {"scalar": 1, "vector": 2, "tensor": 3}
# a plane narrower than 2 fits neither a node grid nor a cell grid
_PLANE_SIZE = Key("int", required=True, range="[2, inf)")
# a float, as write_field writes it, so that the header reads back unchanged
_SPACING = Key("float", required=True, range="(0, inf)")
HEADER = {
    "schema": Key("str", required=True, choices=(SCHEMA,)),
    "kind": Key("str", required=True, choices=tuple(_PLANES)),
    "nx": _PLANE_SIZE, "ny": _PLANE_SIZE, "hx": _SPACING, "hy": _SPACING,
    "order": Key("str", required=True, choices=("row-major",)),
    "payload": Key("str", required=True, choices=("f64le",)),
}


class FieldFormatError(InputError):
    """A malformed field file; `key` names the offending header field."""


def _planes_of(field):
    if isinstance(field, ScalarField):
        return "scalar", [field.values]
    if isinstance(field, VectorField2):
        return "vector", [field.v1, field.v2]
    if isinstance(field, TensorField2):
        return "tensor", [field.s11, field.s12, field.s22]
    raise TypeError(f"cannot serialize object of type {type(field).__name__}")


def write_field(field) -> bytes:
    """Serialize a field to canonical bytes."""
    kind, planes = _planes_of(field)
    ny, nx = planes[0].shape
    header = {
        "schema": SCHEMA,
        "kind": kind,
        "nx": int(nx),
        "ny": int(ny),
        "hx": field.grid.hx,
        "hy": field.grid.hy,
        "order": "row-major",
        "payload": "f64le",
    }
    head = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
    body = b"".join(np.ascontiguousarray(p, dtype="<f8").tobytes() for p in planes)
    return head + body


def read_field(data: bytes):
    """Parse field bytes into a ScalarField, VectorField2, or TensorField2.

    Scalar files come back node-located on an (nx, ny)-node grid, except
    a plane with fewer than 3 entries in a direction, which is too small
    for a node plane and so comes back as the cell plane of the grid with
    one node more per direction.  Vector and tensor planes are cell data,
    so their grid has one extra node per direction.  The mask information
    is not part of the format and the reconstructed grid covers the full
    rectangle.
    """
    nl = data.find(b"\n")
    if nl < 0:
        raise FieldFormatError("missing header newline", key="header")
    try:
        header = json.loads(data[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FieldFormatError(f"header is not valid JSON: {exc}", key="header") from exc
    header = validate(HEADER, header, FieldFormatError, where="header")
    kind, nx, ny, hx, hy = (header[k] for k in ("kind", "nx", "ny", "hx", "hy"))

    planes = _PLANES[kind]
    body = data[nl + 1 :]
    expected = planes * nx * ny * 8
    if len(body) != expected:
        raise FieldFormatError(
            f"payload length {len(body)} does not match expected {expected} bytes "
            f"({planes} plane(s) of {nx}x{ny} float64 for kind '{kind}')",
            key="payload length",
        )
    raw = np.frombuffer(body, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(raw)):
        bad = int(np.flatnonzero(~np.isfinite(raw))[0])
        raise FieldFormatError(
            f"payload has a non-finite value at flat index {bad}", key="payload"
        )
    arrays = [raw[p * nx * ny : (p + 1) * nx * ny].reshape(ny, nx) for p in range(planes)]

    if kind == "scalar":
        if nx >= 3 and ny >= 3:
            return ScalarField(Grid2D(nx, ny, hx, hy), arrays[0], location="node")
        return ScalarField(Grid2D(nx + 1, ny + 1, hx, hy), arrays[0], location="cell")
    grid = Grid2D(nx + 1, ny + 1, hx, hy)
    if kind == "vector":
        return VectorField2(grid, arrays[0], arrays[1])
    try:
        return TensorField2(grid, arrays[0], arrays[1], arrays[2])
    except GridError as exc:
        raise FieldFormatError(f"payload is not a tensor field: {exc}", key="payload") from exc


def write_field_file(field, path) -> None:
    with open(path, "wb") as fh:
        fh.write(write_field(field))


def read_field_file(path):
    with open(path, "rb") as fh:
        return read_field(fh.read())
