"""Coordinate conversions between the paper's steered-spherical grid and Cartesian space.

The paper parameterises focal points by azimuth ``theta``, elevation ``phi``
and radial distance ``r`` from the sound origin, with (Eq. 5):

    S = (r cos(phi) sin(theta),  r sin(phi),  r cos(phi) cos(theta))

``theta`` steers in the XZ plane and ``phi`` tilts towards the Y axis; the
unsteered line of sight (``theta = phi = 0``) is the positive Z axis.
"""

from __future__ import annotations

import numpy as np


def spherical_to_cartesian(theta: np.ndarray | float,
                           phi: np.ndarray | float,
                           r: np.ndarray | float) -> np.ndarray:
    """Convert steered-spherical coordinates to Cartesian points.

    Parameters broadcast against each other; the result has shape
    ``broadcast_shape + (3,)``.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    x = r * np.cos(phi) * np.sin(theta)
    y = r * np.sin(phi)
    z = r * np.cos(phi) * np.cos(theta)
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def cartesian_to_spherical(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert Cartesian points (``(..., 3)``) back to ``(theta, phi, r)``.

    Inverse of :func:`spherical_to_cartesian` for points with ``r > 0`` and
    ``|phi| < pi/2``.
    """
    points = np.asarray(points, dtype=np.float64)
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    r = np.sqrt(x * x + y * y + z * z)
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.arcsin(np.clip(np.divide(y, r, out=np.zeros_like(y),
                                          where=r > 0), -1.0, 1.0))
        theta = np.arctan2(x, z)
    return theta, phi, r


def distances(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Euclidean distances between ``points`` (``(..., 3)``) and a single ``reference``."""
    points = np.asarray(points, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    return np.linalg.norm(points - reference, axis=-1)


def pairwise_distances(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Distance matrix between two point sets.

    Parameters
    ----------
    points_a:
        Array of shape ``(na, 3)``.
    points_b:
        Array of shape ``(nb, 3)``.

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(na, nb)`` with Euclidean distances.
    """
    total = squared_distances(points_a, points_b)
    return np.sqrt(total, out=total)


def squared_distances(points_a: np.ndarray, points_b: np.ndarray,
                      scale: float = 1.0) -> np.ndarray:
    """Squared distances ``(na, nb)`` between two point sets, each
    coordinate difference first multiplied by ``scale`` (a unit change).

    Computed per coordinate: the three squares are summed in the order
    ``np.linalg.norm`` and ``np.sum`` use over a 3-wide axis, so the result
    is bit-identical to them, without the ``(na, nb, 3)`` difference
    temporary.  Points with fewer columns give the partial sum of their
    coordinates' squares, in the same order.
    """
    a = np.asarray(points_a, dtype=np.float64)
    b = np.asarray(points_b, dtype=np.float64)
    total = None
    for k in range(a.shape[1]):
        # A contiguous copy of the inner column: the subtraction's inner
        # loop then reads unit-stride memory (same values, same bits).
        delta = a[:, None, k] - np.ascontiguousarray(b[:, k])[None, :]
        if scale != 1.0:
            delta *= scale
        delta *= delta
        total = delta if total is None else np.add(total, delta, out=total)
    return total


def off_axis_angle(points: np.ndarray, origins: np.ndarray) -> np.ndarray:
    """Angle between the z axis and the vector from each origin to each point.

    Used by the directivity model: an element cannot receive energy from
    directions that are too far off its normal (the z axis for a planar
    probe).

    Parameters
    ----------
    points:
        Array of shape ``(np_, 3)``.
    origins:
        Array of shape ``(no, 3)`` (typically element positions).

    Returns
    -------
    numpy.ndarray
        Angles in radians, shape ``(np_, no)``.
    """
    p = np.asarray(points, dtype=np.float64)
    o = np.asarray(origins, dtype=np.float64)
    dz = p[:, None, 2] - o[None, :, 2]
    # pairwise_distances with the z difference reused: the same squares
    # summed in the same order, so the same bits.
    norm = squared_distances(p[:, :2], o[:, :2])
    norm += np.square(dz)
    return axial_angle(dz, norm)


def axial_angle(dz: np.ndarray, squared_norm: np.ndarray) -> np.ndarray:
    """Angle between the z axis and vectors of z component ``dz`` and
    squared length ``squared_norm`` (same shape; both are overwritten).

    The tail of :func:`off_axis_angle`: square root, divide, clip and
    arccos, elementwise, so any subset of its entries gives the same bits.
    """
    norm = np.sqrt(squared_norm, out=squared_norm)
    # Divided in place.  A point on an element (or a NaN distance) has no
    # direction: its cosine is 1, angle 0.
    seen = norm > 0
    cos_angle = np.divide(dz, norm, out=dz, where=seen)
    cos_angle[~seen] = 1.0
    np.clip(cos_angle, -1.0, 1.0, out=cos_angle)
    return np.arccos(cos_angle, out=cos_angle)
