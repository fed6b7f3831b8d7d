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

**One element-major pass for every firing.**
:meth:`EchoSimulator.simulate_events` acquires all the firings of a
transmit scheme in one pass; :meth:`EchoSimulator.simulate_event` and
:meth:`EchoSimulator.simulate` are its one-firing case.  The pass loops
over blocks of elements outside and chunks of scatterers inside, in
phantom order.  Per (block, chunk) the receive distances, the spreading
and the pulse values are ``(chunk, block)`` and ``(chunk, block,
n_pulse)`` arrays built once for all firings.  Each firing then adds its
own transmit leg (``transmit.transmit_distance`` is called once per
scatterer and firing), rounds its centre samples, tests each
(scatterer, element) pair against the buffer and applies one
:func:`numpy.add.at` of flat trace indices and values.  That scatter
writes only the block's trace rows, which stay in the CPU caches, instead
of striding across the whole trace buffer.  Entries falling outside their
trace row are dropped, as a hardware buffer drops writes past its end:
they go to a sink sample stored behind the traces.  Only the few pairs
not wholly inside the buffer are patched, so the entries need no
compaction.  Once the acquisition is done the sink is zeroed, so each
trace is a C-contiguous ``(n_elements, n_samples)`` view at the start of
a buffer one sample longer whose last sample is 0: the zero-padded echo
buffer a float nearest plan reads, in place
(:func:`repro.kernels.ops.frame_vector`).

**Bit identity.**  Each trace sample is a floating-point sum, so its bits
depend on the order of its terms.  ``np.add.at`` is unbuffered and applies
its entries in index order, which within a (block, chunk) is scatterer →
element → pulse sample; chunks run in scatterer order.  Blocks write
disjoint trace rows, so running them one after another reorders no sum:
every trace sample still adds its terms in scatterer order, the order of
a plain loop over scatterers and elements, term for term.  Sharing across
firings is exact too: the shared arrays are the same elementwise
expressions on the same inputs the firing would compute alone, and each
firing's delays, rounding and scatter are its own.  The spreading is
normalised by each scatterer's peak over *all* elements, which a block
does not see; :meth:`EchoSimulator._peak_spreading` gets it as
``1 / max(min_e r, 1e-4)``, equal bit for bit to ``np.max`` of the
spreading row because ``1 / max(r, 1e-4)`` falls monotonically in ``r``.
The output therefore does not depend on the block or chunk size.  A
pulse whose samples round to a repeated offset keeps only the last
sample of each repeat, matching a buffered ``trace[idx] += v`` (where the
last write wins).  ``tests/test_acoustics_echo.py`` pins every firing of
the simulator ``np.array_equal`` to a per-scatterer, per-element
reference loop.

**Memory bound.**  A block holds at most :data:`SCATTER_BLOCK_ENTRIES`
trace samples per firing (at least one element row), and a chunk at most
:data:`SCATTER_BLOCK_ENTRIES` (scatterer, element, pulse sample) entries,
or one scatterer's entries when a single scatterer exceeds the budget.
The firings scatter one after another, so the temporaries (the shared
values and one firing's indices, ~10 bytes each per entry with NumPy's
broadcasting buffers) peak at about 29 bytes per entry whatever the
firing count.  Beyond the ``F`` trace buffers, an acquisition keeps
``8·F`` bytes per scatterer of transmit legs: a 3-firing ``small``
acquisition needs its trace buffers plus ~1.8 MB.  The ``paper`` preset's 8001-sample traces give 8-element
blocks, so its chunks (327 scatterers) stay inside the budget too, where
a chunk spanning all 10 000 elements held one scatterer and ~8 MB.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..geometry.coordinates import squared_distances
from ..geometry.transducer import MatrixTransducer
from .phantom import Phantom
from .pulse import GaussianPulse

SCATTER_BLOCK_ENTRIES = 1 << 16
"""Target (scatterer, element, pulse sample) entries per scatter-add chunk,
trace samples per firing in an element block, and noise samples per draw
(512 KB per float64 array).  Keeps the chunk's temporaries and the block's
trace rows inside the CPU caches: on ``small`` larger chunks ran slower,
not faster, and a 3-angle plane-wave cyst acquisition over whole-probe
blocks took ~1.3x as long.  See the module docstring for the memory
bound."""


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
        :meth:`simulate_events`, one call per scheme.

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
        to decorrelate per-firing noise from per-frame seeds.  This is the
        one-firing case of :meth:`simulate_events`.
        """
        return self.simulate_events(phantom, (transmit,), noise_std=noise_std,
                                    seeds=(seed,))[0]

    def simulate_events(self, phantom: Phantom, transmits: Sequence[object],
                        noise_std: float = 0.0,
                        seeds: "Sequence[int | tuple[int, ...]] | None" = None
                        ) -> list[ChannelData]:
        """Generate channel data for several transmit events of ``phantom``.

        One pass over the phantom serves every event: the receive legs,
        spreading and pulse values are shared, and each event adds only
        its transmit leg (see the module docstring).  Firing ``f`` is
        bit-identical to ``simulate_event(phantom, transmits[f],
        noise_std, seeds[f])``.  ``seeds`` holds one noise seed per event
        (``None``: seed 0 for every event).
        """
        transmits = tuple(transmits)
        seeds = (0,) * len(transmits) if seeds is None else tuple(seeds)
        if len(seeds) != len(transmits):
            raise ValueError(f"{len(seeds)} seeds for {len(transmits)} "
                             f"transmit events; pass one seed per event")
        acoustic = self.system.acoustic
        fs = acoustic.sampling_frequency
        c = acoustic.speed_of_sound
        n_samples = self.system.echo_buffer_samples
        n_elements = self.transducer.element_count
        # One flat buffer per firing: the traces, then a sink sample that
        # takes every write falling outside its row, zeroed once the
        # acquisition is done.
        sink = n_elements * n_samples
        buffers = [np.zeros(sink + 1) for _ in transmits]

        pulse_times, pulse_amps = self.pulse.waveform()
        pulse_offsets, pulse_amps = _last_of_each_offset(
            np.round(pulse_times * fs).astype(np.int64), pulse_amps)
        # A pair whose centre sample lies in [first, stop) lands its whole
        # pulse inside the buffer.
        first = -int(pulse_offsets.min())
        stop = n_samples - int(pulse_offsets.max())

        scatterers = phantom.positions
        amplitudes = phantom.amplitudes
        tx_distances = [np.array([transmit.transmit_distance(scatterer)
                                  for scatterer in scatterers])
                        for transmit in transmits]
        peaks = self._peak_spreading(scatterers)

        rows = max(1, SCATTER_BLOCK_ENTRIES // n_samples)
        for row in range(0, n_elements, rows):
            elements = self.transducer.positions[row:row + rows]
            row_starts = np.arange(len(elements), dtype=np.int64) * n_samples
            # The block's rows and everything after them, sink included.
            blocks = [buffer[row * n_samples:] for buffer in buffers]
            block_sink = sink - row * n_samples
            chunk = max(1, SCATTER_BLOCK_ENTRIES
                        // (len(elements) * pulse_offsets.size))
            for start in range(0, phantom.scatterer_count, chunk):
                end = start + chunk
                rx_distances = np.sqrt(
                    squared_distances(scatterers[start:end], elements))
                # 1/r spreading on the receive path; avoid blowing up at
                # r ~ 0.
                spreading = 1.0 / np.maximum(rx_distances, 1e-4)
                spreading /= peaks[start:end, None]
                values = ((amplitudes[start:end, None] * spreading)[:, :, None]
                          * pulse_amps)
                for block, tx in zip(blocks, tx_distances):
                    delays = (tx[start:end, None] + rx_distances) / c
                    centers = np.round(delays * fs).astype(np.int64)
                    indices = ((centers + row_starts)[:, :, None]
                               + pulse_offsets)
                    # The few pairs not wholly inside the buffer send
                    # their lost samples to the sink, so the entries need
                    # no compaction and keep their order.
                    partial = (centers < first) | (centers >= stop)
                    if partial.any():
                        samples = centers[partial][:, None] + pulse_offsets
                        patched = indices[partial]
                        patched[(samples < 0) | (samples >= n_samples)] = \
                            block_sink
                        indices[partial] = patched
                    # A 1-D index keeps np.add.at on its fast path (~5x a
                    # 3-D one).
                    np.add.at(block, indices.reshape(-1), values.reshape(-1))
        for buffer in buffers:
            buffer[sink] = 0
        traces = [buffer[:sink].reshape(n_elements, n_samples)
                  for buffer in buffers]
        if noise_std > 0:
            # The normal draws of ``rng.normal(0, noise_std, shape)`` in the
            # same order, a block at a time: no trace-sized temporary.
            scratch = np.empty(min(SCATTER_BLOCK_ENTRIES, sink))
            for trace, seed in zip(traces, seeds):
                rng = np.random.default_rng(seed)
                flat = trace.reshape(-1)
                for lo in range(0, flat.size, scratch.size):
                    noise = scratch[:flat.size - lo]
                    rng.standard_normal(out=noise)
                    noise *= noise_std
                    flat[lo:lo + noise.size] += noise
        return [ChannelData(samples=trace, sampling_frequency=fs)
                for trace in traces]

    def _peak_spreading(self, scatterers: np.ndarray) -> np.ndarray:
        """Each scatterer's largest receive spreading over all elements.

        ``sqrt`` and ``1 / max(r, 1e-4)`` are correctly rounded, so they
        stay monotonic in floating point: the spreading's maximum over the
        elements is ``1 / max(sqrt(min_e r²), 1e-4)``, the bits of
        ``np.max`` over the whole spreading row, from one minimum per
        scatterer.  Runs in chunks of at most
        :data:`SCATTER_BLOCK_ENTRIES` (scatterer, element) pairs.
        """
        positions = self.transducer.positions
        chunk = max(1, SCATTER_BLOCK_ENTRIES // positions.shape[0])
        nearest = np.empty(scatterers.shape[0])
        for start in range(0, scatterers.shape[0], chunk):
            np.min(squared_distances(scatterers[start:start + chunk],
                                     positions),
                   axis=1, out=nearest[start:start + chunk])
        return 1.0 / np.maximum(np.sqrt(nearest), 1e-4)
