"""Half-plane Green's function by the method of images.

The half-plane is fixed by convention as x2 < 0 with traction-free boundary
x2 = 0. For a source xi strictly inside, the image source sits at
xi~ = (xi1, -xi2) and

    g*(x, xi, omega) = v*(x, xi, omega) + v*(x, xi~, omega)

satisfies the equations of motion in the half-plane (the image point lies
outside, so its kernel is regular there) and has exactly zero phonon and
phason traction on x2 = 0: the normal derivative of the image term is the
negative of that of the direct term on the boundary. Evaluating the
displacement on the boundary itself is allowed; only a source on the
boundary is rejected, because source and image would coincide.
"""

from __future__ import annotations

import numpy as np

from . import kernels  # checks and _symmetric via the module: a tracer counts evaluations only
from .errors import PointOutsideHalfPlane, SourceOnBoundary, SourceOutsideHalfPlane
from .kernels import _displacement_entries, _traction_entries
from .material import QcMaterial

__all__ = ["image_point", "check_field_point", "green_displacement", "green_traction"]


def image_point(xi) -> tuple[float, float]:
    """Mirror a source at xi (xi2 < 0) across the boundary: (xi1, -xi2)."""
    xi1, xi2 = float(xi[0]), float(xi[1])
    if xi2 == 0.0:
        raise SourceOnBoundary("source on x2 = 0: image construction degenerates")
    if xi2 > 0.0:
        raise SourceOutsideHalfPlane(f"source must have xi2 < 0; got xi2 = {xi2}")
    return (xi1, -xi2)


def check_field_point(x) -> None:
    """Raise PointOutsideHalfPlane naming the first point of x ((2,) or (N, 2)) with x2 > 0."""
    if len(x) == 2 and isinstance(x[0], (float, int)) and not float(x[1]) > 0.0:
        return  # one point inside: no numpy round trip
    pts = np.asarray(x, dtype=float).reshape(-1, 2)
    outside = pts[:, 1] > 0.0
    first = outside.argmax()  # the first True, or 0 when none is
    if outside[first]:
        x1, x2 = pts[first].tolist()
        raise PointOutsideHalfPlane(f"field point ({x1}, {x2}) must have x2 <= 0")


def green_displacement(m: QcMaterial, x, xi, omega: float) -> np.ndarray:
    """Half-plane Green's displacement g* = v*(r) + v*(r~), shape (2, 2)."""
    check_field_point(x)
    xi_im = image_point(xi)
    direct = _displacement_entries(m, x, xi, omega)
    image = _displacement_entries(m, x, xi_im, omega)
    return kernels._symmetric(direct[0] + image[0], direct[1] + image[1], direct[2] + image[2])


def green_traction(m: QcMaterial, x, xi, omega: float, n) -> np.ndarray:
    """Half-plane Green's traction for unit normal n, shape (2, 2).

    Sum of the fundamental tractions of the real and image sources; on
    x2 = 0 with n = (0, 1) the two contributions cancel exactly.
    """
    check_field_point(x)
    xi_im = image_point(xi)
    n1, n2 = kernels.check_normal(n)
    direct = _traction_entries(m, x, xi, omega, n1, n2)
    image = _traction_entries(m, x, xi_im, omega, n1, n2)
    return kernels._symmetric(direct[0] + image[0], direct[1] + image[1], direct[2] + image[2])
