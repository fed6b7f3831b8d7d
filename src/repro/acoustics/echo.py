"""Synthetic echo (channel-data) generation.

Given a phantom, a transducer and a transmit event, this module produces the
per-element RF echo traces the receive beamformer consumes: for every
scatterer the two-way propagation delay to each element is computed with the
*exact* delay law (Eq. 2) and a copy of the transmit pulse, scaled by the
scatterer amplitude and a 1/r spreading term, is accumulated into the
element's trace at that delay.

This linear single-scattering model is the standard synthetic-aperture
simulation approach (it is what Field II does, minus the element impulse
responses) and is sufficient to exercise the full beamforming code path and
to visualise how delay-generation errors affect image quality.

**Chunked, order-preserving scatter-add.**  Scatterers are processed in
chunks.  Per chunk the receive distances, two-way delays, centre samples
and spreading are ``(chunk, n_elements)`` arrays, and the pulse copies
become ``(chunk, n_elements, n_pulse)`` flat trace indices and values,
applied with one :func:`numpy.add.at` into the flattened trace buffer.
Entries falling outside the echo buffer are dropped, as a hardware buffer
drops writes past its end.

**Bit identity.**  Each trace sample is a floating-point sum, so its bits
depend on the order of its terms.  ``np.add.at`` is unbuffered and applies
its entries in index order, which here is scatterer → element → pulse
sample, and chunks run in scatterer order — the order of a plain loop over
scatterers and elements, term for term.  The per-entry arithmetic is the
same elementwise expression, and ``transmit.transmit_distance`` is still
called once per scatterer, so the output does not depend on the chunk
size.  A pulse whose samples round to a repeated offset keeps only the
last sample of each repeat, matching a buffered ``trace[idx] += v``
(where the last write wins).  ``tests/test_acoustics_echo.py`` pins the
simulator ``np.array_equal`` to a per-scatterer, per-element reference
loop.

**Memory bound.**  A chunk holds at most :data:`SCATTER_BLOCK_ENTRIES`
(scatterer, element, pulse sample) entries, or one scatterer's entries
when a single scatterer exceeds the budget.  Its temporaries (indices,
validity mask, values and their compacted copies) take about 34 bytes
per entry, so a ``small`` firing needs its trace buffer plus ~2 MB, and
the ``paper`` preset's 10 000 elements get one-scatterer chunks (~8 MB of
temporaries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..geometry.transducer import MatrixTransducer
from .phantom import Phantom
from .pulse import GaussianPulse

SCATTER_BLOCK_ENTRIES = 1 << 16
"""Target (scatterer, element, pulse sample) entries per scatter-add chunk
(512 KB per float64 temporary).  Keeps the chunk's temporaries inside the
CPU caches: on ``small`` larger chunks ran slower, not faster.  See the
module docstring for the memory bound."""


def _last_of_each_offset(offsets: np.ndarray, amplitudes: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Drop every pulse sample whose offset repeats later in the pulse.

    A buffered ``trace[idx] += v`` with a repeated index lands only the
    last value; ``np.add.at`` would add them all.  Keeping the last sample
    of each offset (in pulse order) makes the two agree.
    """
    last = offsets.size - 1 - np.unique(offsets[::-1], return_index=True)[1]
    keep = np.sort(last)
    return offsets[keep], amplitudes[keep]


@dataclass(frozen=True)
class ChannelData:
    """Received echo traces for one transmit event.

    Attributes
    ----------
    samples:
        RF traces, shape ``(n_elements, n_samples)``; element order matches
        ``MatrixTransducer.positions``.
    sampling_frequency:
        Sampling rate of the traces [Hz].
    """

    samples: np.ndarray
    sampling_frequency: float

    @property
    def element_count(self) -> int:
        """Number of receive channels."""
        return self.samples.shape[0]

    @property
    def sample_count(self) -> int:
        """Number of time samples per channel."""
        return self.samples.shape[1]

    def sample_at(self, element_indices: np.ndarray,
                  delay_indices: np.ndarray) -> np.ndarray:
        """Fetch samples (nearest-neighbour) for given element/delay index pairs.

        Out-of-range delay indices return 0, mirroring a hardware echo buffer
        that simply produces no contribution when addressed past its end.
        """
        delay_indices = np.asarray(delay_indices, dtype=np.int64)
        element_indices = np.asarray(element_indices, dtype=np.int64)
        valid = (delay_indices >= 0) & (delay_indices < self.sample_count)
        clipped = np.clip(delay_indices, 0, self.sample_count - 1)
        values = self.samples[element_indices, clipped]
        return np.where(valid, values, 0.0)


@dataclass(frozen=True)
class _SphericalTransmit:
    """Spherical transmit wavefront from a fixed origin.

    The minimal in-package implementation of the transmit protocol used by
    :meth:`EchoSimulator.simulate_event` (richer events live in
    :mod:`repro.scenarios.transmit`, which this module must not import).
    The arithmetic matches the historical ``simulate()`` expression exactly.
    """

    origin: np.ndarray

    def transmit_distance(self, point: np.ndarray) -> float:
        return float(np.linalg.norm(point - self.origin))


@dataclass(frozen=True)
class EchoSimulator:
    """Linear single-scattering echo synthesiser."""

    system: SystemConfig
    transducer: MatrixTransducer
    pulse: GaussianPulse
    origin: np.ndarray

    @classmethod
    def from_config(cls, system: SystemConfig,
                    origin: np.ndarray | None = None) -> "EchoSimulator":
        """Build a simulator for a system configuration (origin at the centre)."""
        transducer = MatrixTransducer.from_config(system)
        pulse = GaussianPulse.from_config(system.acoustic)
        if origin is None:
            origin = np.zeros(3)
        return cls(system=system, transducer=transducer, pulse=pulse,
                   origin=np.asarray(origin, dtype=np.float64))

    def simulate(self, phantom: Phantom,
                 noise_std: float = 0.0,
                 seed: int = 0) -> ChannelData:
        """Generate channel data for one insonification of ``phantom``.

        The transmit wavefront is spherical from the simulator's own
        ``origin`` — the paper's focused baseline.  Other transmit schemes
        (plane waves, per-element synthetic-aperture firings) go through
        :meth:`simulate_event`.

        Parameters
        ----------
        phantom:
            The scatterer collection to insonify.
        noise_std:
            Standard deviation of additive white Gaussian noise relative to a
            unit-amplitude scatterer at unit spreading (0 disables noise).
        seed:
            RNG seed for the noise.
        """
        return self.simulate_event(phantom, _SphericalTransmit(self.origin),
                                   noise_std=noise_std, seed=seed)

    def simulate_event(self, phantom: Phantom, transmit: object,
                       noise_std: float = 0.0,
                       seed: "int | tuple[int, ...]" = 0) -> ChannelData:
        """Generate channel data for one transmit event of ``phantom``.

        ``transmit`` is any object exposing
        ``transmit_distance(point) -> float`` metres (e.g. a
        :class:`repro.scenarios.TransmitEvent`); it replaces the transmit
        leg of the two-way propagation while the receive legs stay the
        element geometry.  A spherical transmit at the simulator's origin
        reproduces :meth:`simulate` bit for bit.  ``seed`` may be an int
        or an entropy tuple (anything ``numpy.random.default_rng``
        accepts); multi-firing schemes use ``(seed, firing_index)`` pairs
        to decorrelate per-firing noise from per-frame seeds.
        """
        acoustic = self.system.acoustic
        fs = acoustic.sampling_frequency
        c = acoustic.speed_of_sound
        n_samples = self.system.echo_buffer_samples
        n_elements = self.transducer.element_count
        traces = np.zeros((n_elements, n_samples))

        pulse_times, pulse_amps = self.pulse.waveform()
        pulse_offsets, pulse_amps = _last_of_each_offset(
            np.round(pulse_times * fs).astype(np.int64), pulse_amps)

        positions = self.transducer.positions
        flat_traces = traces.reshape(-1)
        row_starts = np.arange(n_elements, dtype=np.int64)[:, None] * n_samples
        chunk = max(1, SCATTER_BLOCK_ENTRIES
                    // (n_elements * pulse_offsets.size))
        for start in range(0, phantom.scatterer_count, chunk):
            scatterers = phantom.positions[start:start + chunk]
            amplitudes = phantom.amplitudes[start:start + chunk]
            tx_distances = np.array([transmit.transmit_distance(scatterer)
                                     for scatterer in scatterers])
            rx_distances = np.linalg.norm(
                positions[None, :, :] - scatterers[:, None, :], axis=2)
            delays = (tx_distances[:, None] + rx_distances) / c
            center_samples = np.round(delays * fs).astype(np.int64)
            # 1/r spreading on the receive path; avoid blowing up at r ~ 0.
            spreading = 1.0 / np.maximum(rx_distances, 1e-4)
            spreading = spreading / np.max(spreading, axis=1, keepdims=True)
            indices = center_samples[:, :, None] + pulse_offsets
            valid = (indices >= 0) & (indices < n_samples)
            indices += row_starts
            values = (amplitudes[:, None] * spreading)[:, :, None] * pulse_amps
            # Most chunks lie wholly inside the buffer: skip the compaction.
            if not valid.all():
                indices, values = indices[valid], values[valid]
            # A 1-D index keeps np.add.at on its fast path (~5x a 3-D one).
            np.add.at(flat_traces, indices.reshape(-1), values.reshape(-1))
        if noise_std > 0:
            rng = np.random.default_rng(seed)
            traces += rng.normal(0.0, noise_std, traces.shape)
        return ChannelData(samples=traces, sampling_frequency=fs)
