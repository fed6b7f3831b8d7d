"""Image formation and quality metrics.

Beamformed RF values become displayable images after envelope detection and
logarithmic compression.  This module also provides the quality metrics the
imaging experiments report: point-spread-function width, peak position error
and cyst contrast — the quantities through which delay-generation error
ultimately shows up as image degradation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def envelope(rf: np.ndarray, axis: int = -1) -> np.ndarray:
    """Envelope detection via the analytic signal along ``axis``.

    The analytic signal is the Hilbert transform's: a ``scipy.fft`` FFT
    along ``axis``, the positive-frequency bins doubled and the negative
    ones zeroed, then the inverse FFT; the envelope is its magnitude.
    For very short traces (fewer than 8 samples) the magnitude is used
    directly, since the Hilbert transform is meaningless there.
    """
    rf = np.asarray(rf, dtype=np.float64)
    n = rf.shape[axis]
    if n < 8:
        return np.abs(rf)
    # Imported here: only scoring, the examples and the experiments detect
    # envelopes, so a process that only beamforms never loads scipy.fft.
    from scipy import fft

    spectrum = np.moveaxis(fft.fft(rf, axis=axis), axis, -1)
    spectrum[..., 1:(n + 1) // 2] *= 2.0
    spectrum[..., n // 2 + 1:] = 0.0
    return np.abs(fft.ifft(np.moveaxis(spectrum, -1, axis), axis=axis))


def log_compress(env: np.ndarray, dynamic_range_db: float = 60.0) -> np.ndarray:
    """Log-compress an envelope image to ``[-dynamic_range_db, 0]`` dB."""
    env = np.asarray(env, dtype=np.float64)
    peak = np.max(np.abs(env))
    if peak <= 0:
        return np.full_like(env, -dynamic_range_db)
    db = 20.0 * np.log10(np.maximum(np.abs(env) / peak, 1e-12))
    return np.clip(db, -dynamic_range_db, 0.0)


@dataclass(frozen=True)
class PointSpreadMetrics:
    """Metrics of a point-target response along one axis."""

    peak_index: int
    peak_value: float
    fwhm_samples: float
    peak_to_sidelobe_db: float


def point_spread_metrics(profile: np.ndarray) -> PointSpreadMetrics:
    """Analyse a 1-D profile through a point-target image.

    Returns the peak location, the full width at half maximum (in samples,
    linearly interpolated) and the ratio of the main lobe to the highest
    value outside the main lobe.
    """
    profile = np.abs(np.asarray(profile, dtype=np.float64))
    if profile.size == 0:
        raise ValueError("profile must not be empty")
    peak_index = int(np.argmax(profile))
    peak_value = float(profile[peak_index])
    if peak_value <= 0:
        return PointSpreadMetrics(peak_index=peak_index, peak_value=0.0,
                                  fwhm_samples=float(profile.size),
                                  peak_to_sidelobe_db=0.0)
    half = peak_value / 2.0

    # Walk outward from the peak to the half-maximum crossings.
    left = peak_index
    while left > 0 and profile[left] > half:
        left -= 1
    right = peak_index
    while right < profile.size - 1 and profile[right] > half:
        right += 1
    left_cross = _interpolate_crossing(profile, left, left + 1, half) \
        if profile[left] <= half else float(left)
    right_cross = _interpolate_crossing(profile, right - 1, right, half) \
        if profile[right] <= half else float(right)
    fwhm = max(right_cross - left_cross, 0.0)

    # Sidelobe level: highest value outside the main lobe.  The main lobe
    # extends past the half-maximum crossings down to the first local minimum
    # on each side, so the skirt of the main lobe is not mistaken for a
    # sidelobe.
    lobe_left = left
    while lobe_left > 0 and profile[lobe_left - 1] <= profile[lobe_left]:
        lobe_left -= 1
    lobe_right = right
    while lobe_right < profile.size - 1 and profile[lobe_right + 1] <= profile[lobe_right]:
        lobe_right += 1
    main_lobe = np.zeros(profile.size, dtype=bool)
    main_lobe[max(0, lobe_left):min(profile.size, lobe_right + 1)] = True
    outside = profile[~main_lobe]
    if outside.size == 0 or np.max(outside) <= 0:
        psl_db = 120.0
    else:
        psl_db = 20.0 * np.log10(peak_value / np.max(outside))
    return PointSpreadMetrics(peak_index=peak_index, peak_value=peak_value,
                              fwhm_samples=float(fwhm),
                              peak_to_sidelobe_db=float(psl_db))


def _interpolate_crossing(profile: np.ndarray, i_low: int, i_high: int,
                          level: float) -> float:
    """Linear interpolation of the index where ``profile`` crosses ``level``."""
    lo, hi = profile[i_low], profile[i_high]
    if hi == lo:
        return float(i_low)
    frac = (level - lo) / (hi - lo)
    return float(i_low + np.clip(frac, 0.0, 1.0))


def contrast_ratio_db(image: np.ndarray, inside_mask: np.ndarray,
                      outside_mask: np.ndarray) -> float:
    """Contrast between two regions of an envelope image, in dB.

    Defined as ``20 log10(mean(outside) / mean(inside))``: for an anechoic
    cyst the contrast is positive and larger is better.
    """
    image = np.abs(np.asarray(image, dtype=np.float64))
    inside = image[inside_mask]
    outside = image[outside_mask]
    if inside.size == 0 or outside.size == 0:
        raise ValueError("both masks must select at least one pixel")
    mean_in = float(np.mean(inside))
    mean_out = float(np.mean(outside))
    if mean_in <= 0:
        mean_in = 1e-12
    if mean_out <= 0:
        mean_out = 1e-12
    return 20.0 * np.log10(mean_out / mean_in)


def contrast_to_noise_ratio(inside: np.ndarray,
                            outside: np.ndarray) -> float:
    """CNR between two sample populations of an envelope image.

    ``|mean(outside) - mean(inside)| / sqrt(var(inside) + var(outside))`` —
    the classic cyst figure of merit.  Invariant under a common positive
    amplitude scaling of both populations.
    """
    inside = np.asarray(inside, dtype=np.float64).ravel()
    outside = np.asarray(outside, dtype=np.float64).ravel()
    if inside.size == 0 or outside.size == 0:
        raise ValueError("both regions must contain at least one sample")
    denominator = float(np.sqrt(np.var(inside) + np.var(outside)))
    if denominator == 0.0:
        return float("inf") if np.mean(inside) != np.mean(outside) else 0.0
    return float(abs(np.mean(outside) - np.mean(inside)) / denominator)


def generalized_cnr(inside: np.ndarray, outside: np.ndarray,
                    bins: int = 64) -> float:
    """gCNR between two sample populations: ``1 - OVL`` of their histograms.

    The generalized contrast-to-noise ratio (Rodriguez-Molares et al.) is
    one minus the overlap of the two amplitude distributions, estimated on
    a shared ``bins``-bin histogram spanning both populations.  Bounded in
    ``[0, 1]``; invariant under any common positive amplitude scaling and
    under permutation of the samples, which makes it immune to the
    dynamic-range manipulation that inflates plain CNR.
    """
    inside = np.asarray(inside, dtype=np.float64).ravel()
    outside = np.asarray(outside, dtype=np.float64).ravel()
    if inside.size == 0 or outside.size == 0:
        raise ValueError("both regions must contain at least one sample")
    lo = float(min(inside.min(), outside.min()))
    hi = float(max(inside.max(), outside.max()))
    if lo == hi:
        return 0.0
    edges = np.linspace(lo, hi, bins + 1)
    p_inside, _ = np.histogram(inside, bins=edges)
    p_outside, _ = np.histogram(outside, bins=edges)
    overlap = np.sum(np.minimum(p_inside / inside.size,
                                p_outside / outside.size))
    return float(1.0 - overlap)


def normalized_rms_difference(reference: np.ndarray, test: np.ndarray) -> float:
    """RMS difference between two images, normalised by the reference RMS.

    Used to quantify how much an approximate delay generator changes the
    reconstructed image relative to the exact-delay reference.
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError("images must have the same shape")
    ref_rms = float(np.sqrt(np.mean(reference ** 2)))
    if ref_rms == 0:
        return 0.0 if np.allclose(test, 0) else np.inf
    return float(np.sqrt(np.mean((reference - test) ** 2)) / ref_rms)
