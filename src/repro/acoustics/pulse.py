"""Transmit pulse models.

The echo synthesiser needs a band-limited excitation waveform.  A
Gaussian-modulated sinusoid at the transducer centre frequency with a
fractional bandwidth matching Table I (4 MHz centre, 4 MHz bandwidth, i.e.
100 % fractional bandwidth) is the standard choice and is what we use to
generate channel data for the imaging experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import AcousticConfig


@dataclass(frozen=True)
class GaussianPulse:
    """A Gaussian-modulated sinusoidal pulse.

    Attributes
    ----------
    center_frequency:
        Carrier frequency [Hz].
    fractional_bandwidth:
        -6 dB two-sided bandwidth divided by the centre frequency.
    sampling_frequency:
        Sampling rate used by :meth:`waveform` [Hz].
    """

    center_frequency: float
    fractional_bandwidth: float
    sampling_frequency: float

    @classmethod
    def from_config(cls, acoustic: AcousticConfig) -> "GaussianPulse":
        """Build the pulse implied by an acoustic configuration."""
        return cls(center_frequency=acoustic.center_frequency,
                   fractional_bandwidth=acoustic.bandwidth / acoustic.center_frequency,
                   sampling_frequency=acoustic.sampling_frequency)

    @property
    def sigma_t(self) -> float:
        """Standard deviation of the Gaussian envelope in time [s].

        Derived from the -6 dB bandwidth of the Gaussian spectrum:
        ``B_-6dB = 2 * sqrt(2 ln 2) * sigma_f`` with ``sigma_t = 1 / (2 pi sigma_f)``.
        """
        bandwidth_hz = self.fractional_bandwidth * self.center_frequency
        sigma_f = bandwidth_hz / (2.0 * np.sqrt(2.0 * np.log(2.0)))
        return 1.0 / (2.0 * np.pi * sigma_f)

    @property
    def duration(self) -> float:
        """Effective pulse duration (+/- 4 sigma) [s]."""
        return 8.0 * self.sigma_t

    def envelope(self, t: np.ndarray) -> np.ndarray:
        """Gaussian envelope centred at ``t = 0``."""
        t = np.asarray(t, dtype=np.float64)
        return np.exp(-0.5 * (t / self.sigma_t) ** 2)

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """Pulse amplitude at arbitrary times ``t`` [s] (centred at 0)."""
        t = np.asarray(t, dtype=np.float64)
        return self.envelope(t) * np.cos(2.0 * np.pi * self.center_frequency * t)

    def waveform(self) -> tuple[np.ndarray, np.ndarray]:
        """Sampled pulse: ``(times, amplitudes)`` spanning +/- 4 sigma."""
        half = self.duration / 2.0
        n = max(2, int(np.ceil(self.duration * self.sampling_frequency)) + 1)
        t = np.linspace(-half, half, n)
        return t, self.evaluate(t)

    def sample_support(self) -> int:
        """Number of echo samples the pulse spans at the sampling frequency."""
        return int(np.ceil(self.duration * self.sampling_frequency))
