"""Desk-scale laboratory for conductivity reconstruction from one interior
current-density magnitude, on uniform 2-D grids.

Scalars live on grid nodes (or cell centers), vectors and symmetric
positive tensors on cells.  The package is organized as

- fields:   grids, field containers, tensor algebra, the cell gradient and
            its adjoint, the weighted-TV functional and its density
- io:       bit-exact binary field serialization
- forward:  anisotropic bilinear-quad assembly and multigrid-preconditioned CG,
            perfectly conducting and insulating inclusions
- data:     interior data synthesis (current, magnitude, noise, triplets)
- inverse:  weighted total-variation minimization and its audits
- geometry: data metric g = a^2 adj(sigma0), the curvature audit -div J of
            the recovered current, level sets, metric areas, truncation limits
- cli:      JSON-config command line driver
"""

__version__ = "0.1.0"

from .fields import (
    Grid2D,
    GridError,
    ScalarField,
    VectorField2,
    TensorField2,
    grad,
    grad_adjoint,
)
from .io import FieldFormatError, read_field, write_field

__all__ = [
    "Grid2D",
    "GridError",
    "ScalarField",
    "VectorField2",
    "TensorField2",
    "grad",
    "grad_adjoint",
    "FieldFormatError",
    "read_field",
    "write_field",
    "__version__",
]
