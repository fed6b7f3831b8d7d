"""Apodization windows for receive beamforming.

Apodization weights the contribution of each receive element to suppress
side lobes.  In the paper it also plays an accuracy role: the worst-case
errors of the TABLESTEER far-field approximation occur at extreme steering
angles, beyond the elements' directivity, where the apodization weight is
(near) zero — so in practice they do not degrade the image (Section VI-A).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .transducer import MatrixTransducer


class WindowType(str, Enum):
    """Supported apodization window shapes."""

    RECTANGULAR = "rectangular"
    HANN = "hann"
    HAMMING = "hamming"
    BLACKMAN = "blackman"
    TUKEY = "tukey"


def window_1d(n: int, kind: WindowType = WindowType.HANN,
              tukey_alpha: float = 0.5) -> np.ndarray:
    """Return a length-``n`` apodization window of the requested kind."""
    if n < 1:
        raise ValueError("window length must be at least 1")
    if n == 1:
        return np.ones(1)
    if kind is WindowType.RECTANGULAR:
        window = np.ones(n)
    elif kind is WindowType.HANN:
        window = np.hanning(n)
    elif kind is WindowType.HAMMING:
        window = np.hamming(n)
    elif kind is WindowType.BLACKMAN:
        window = np.blackman(n)
    elif kind is WindowType.TUKEY:
        window = _tukey(n, tukey_alpha)
    else:
        raise ValueError(f"unknown window type: {kind!r}")
    # Some NumPy window implementations produce tiny negative endpoint values
    # (e.g. Blackman, -1e-17); apodization weights must never be negative.
    return np.clip(window, 0.0, None)


def _tukey(n: int, alpha: float) -> np.ndarray:
    """Tukey (tapered cosine) window, computed with NumPy alone."""
    if alpha <= 0:
        return np.ones(n)
    if alpha >= 1:
        return np.hanning(n)
    x = np.linspace(0, 1, n)
    window = np.ones(n)
    taper = alpha / 2.0
    rising = x < taper
    falling = x >= 1 - taper
    window[rising] = 0.5 * (1 + np.cos(np.pi * (2 * x[rising] / alpha - 1)))
    window[falling] = 0.5 * (1 + np.cos(np.pi * (2 * x[falling] / alpha - 2 / alpha + 1)))
    return window


def aperture_apodization(transducer: MatrixTransducer,
                         kind: WindowType = WindowType.HANN) -> np.ndarray:
    """Separable 2-D apodization over the full aperture.

    Returns weights of shape ``(ex, ey)`` formed as the outer product of two
    1-D windows, normalised so the maximum weight is 1.
    """
    wx = window_1d(transducer.config.elements_x, kind)
    wy = window_1d(transducer.config.elements_y, kind)
    weights = np.outer(wx, wy)
    peak = weights.max()
    if peak > 0:
        weights = weights / peak
    return weights


def directivity_weights(angles: np.ndarray, max_angle: float,
                        rolloff: float = 0.1) -> np.ndarray:
    """Directivity-based weights as a function of off-axis angle.

    Elements have limited directivity: they cannot receive energy from points
    too far off their normal axis.  The weight is 1 inside
    ``max_angle * (1 - rolloff)``, 0 beyond ``max_angle`` and falls off with a
    raised cosine in between — a smooth stand-in for the element's physical
    angular response.

    Parameters
    ----------
    angles:
        Off-axis angles [rad] (any shape).
    max_angle:
        Angle beyond which the element contributes nothing [rad].
    rolloff:
        Fraction of ``max_angle`` over which the response tapers from 1 to 0.
    """
    if max_angle <= 0:
        raise ValueError("max_angle must be positive")
    if not 0 <= rolloff <= 1:
        raise ValueError("rolloff must be in [0, 1]")
    angles = np.abs(np.asarray(angles, dtype=np.float64))
    knee = max_angle * (1.0 - rolloff)
    weights = np.ones_like(angles)
    weights[angles >= max_angle] = 0.0
    in_taper = (angles > knee) & (angles < max_angle)
    if np.any(in_taper):
        span = max_angle - knee
        if span > 0:
            phase = (angles[in_taper] - knee) / span
            weights[in_taper] = 0.5 * (1 + np.cos(np.pi * phase))
        else:
            weights[in_taper] = 0.0
    return weights


def combined_receive_weights(transducer: MatrixTransducer,
                             off_axis_angles: np.ndarray,
                             kind: WindowType = WindowType.HANN,
                             rolloff: float = 0.1) -> np.ndarray:
    """Combine aperture apodization with per-point directivity weighting.

    Parameters
    ----------
    transducer:
        The receiving matrix transducer.
    off_axis_angles:
        Off-axis angles from each element to the focal point, shape
        ``(..., element_count)`` [rad].
    kind:
        Aperture window shape.
    rolloff:
        Directivity taper fraction.

    Returns
    -------
    numpy.ndarray
        Weights with the same shape as ``off_axis_angles``.
    """
    aperture = aperture_apodization(transducer, kind).ravel()
    directivity = directivity_weights(
        off_axis_angles, transducer.config.directivity_max_angle, rolloff)
    return aperture * directivity
