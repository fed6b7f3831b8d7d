"""System specification for the 3D ultrasound beamformer.

This module captures Table I of the paper ("System Specifications") as a set
of immutable dataclasses.  Every other subsystem (geometry, delay generation,
hardware modelling, experiments) derives its parameters from a
:class:`SystemConfig` instance so the whole library can be re-targeted to a
different probe or imaging volume by changing a single object.

Three presets are provided:

``paper_system()``
    The exact configuration evaluated in the paper: a 100x100 element matrix
    transducer at 4 MHz, lambda/2 pitch, a 73 deg x 73 deg x 500 lambda imaging
    volume sampled on a 128 x 128 x 1000 focal-point grid, 32 MHz echo
    sampling and a 15 volumes/s target rate.

``small_system()``
    A scaled-down configuration (16x16 elements, 16x16x64 focal points) used
    by unit tests and quick examples; all the algorithms are identical, only
    the grid sizes shrink.

``tiny_system()``
    An even smaller configuration for property-based tests where many
    configurations are evaluated per test run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable


@dataclass(frozen=True)
class AcousticConfig:
    """Physical and transducer-front-end acoustic parameters."""

    speed_of_sound: float = 1540.0
    """Speed of sound in tissue ``c`` [m/s]."""

    center_frequency: float = 4.0e6
    """Transducer centre frequency ``fc`` [Hz]."""

    bandwidth: float = 4.0e6
    """Transducer (two-sided) bandwidth ``B`` [Hz]."""

    sampling_frequency: float = 32.0e6
    """Echo sampling frequency ``fs`` [Hz]."""

    @property
    def wavelength(self) -> float:
        """Acoustic wavelength ``lambda = c / fc`` [m]."""
        return self.speed_of_sound / self.center_frequency

    @property
    def sampling_period(self) -> float:
        """Time between consecutive echo samples [s]."""
        return 1.0 / self.sampling_frequency

    @property
    def samples_per_wavelength(self) -> float:
        """Number of echo samples per acoustic wavelength."""
        return self.sampling_frequency / self.center_frequency

    def seconds_to_samples(self, seconds: float) -> float:
        """Convert a time in seconds into (fractional) sample units."""
        return seconds * self.sampling_frequency

    def samples_to_seconds(self, samples: float) -> float:
        """Convert a (fractional) sample count into seconds."""
        return samples / self.sampling_frequency


@dataclass(frozen=True)
class TransducerConfig:
    """Matrix transducer geometry.

    The transducer lies in the ``z = 0`` plane, centred on the origin, with
    elements laid out on a regular grid with the given pitch.
    """

    elements_x: int = 100
    """Number of elements along x (``ex``)."""

    elements_y: int = 100
    """Number of elements along y (``ey``)."""

    pitch: float = 0.385e-3 / 2.0
    """Element pitch [m]; the paper uses lambda/2 = 0.1925 mm."""

    directivity_max_angle: float = math.radians(45.0)
    """Maximum off-axis angle [rad] an element can insonify / receive from.

    Used for directivity pruning of delay tables (Section V-A / Fig. 3a).
    """

    @property
    def element_count(self) -> int:
        """Total number of elements ``N = ex * ey``."""
        return self.elements_x * self.elements_y

    @property
    def aperture_x(self) -> float:
        """Physical aperture size along x [m]."""
        return (self.elements_x - 1) * self.pitch

    @property
    def aperture_y(self) -> float:
        """Physical aperture size along y [m]."""
        return (self.elements_y - 1) * self.pitch


@dataclass(frozen=True)
class VolumeConfig:
    """Imaging volume and focal-point grid.

    Focal points are indexed by ``(i_theta, i_phi, i_depth)``; the azimuth
    angle ``theta`` spans ``[-theta_max, +theta_max]``, the elevation angle
    ``phi`` spans ``[-phi_max, +phi_max]`` and the depth spans
    ``[depth_min, depth_max]``.  The paper's volume is 73 deg x 73 deg x
    500 lambda reconstructed on a 128 x 128 x 1000 grid.
    """

    n_theta: int = 128
    """Number of steered lines of sight along azimuth."""

    n_phi: int = 128
    """Number of steered lines of sight along elevation."""

    n_depth: int = 1000
    """Number of focal points along each line of sight (depth samples)."""

    theta_max: float = math.radians(73.0) / 2.0
    """Half-opening angle in azimuth [rad]; total field of view is 73 deg."""

    phi_max: float = math.radians(73.0) / 2.0
    """Half-opening angle in elevation [rad]."""

    depth_min: float = 0.385e-3
    """Shallowest reconstructed depth [m] (one wavelength by default)."""

    depth_max: float = 500 * 0.385e-3
    """Deepest reconstructed depth [m]; the paper images 500 lambda."""

    @property
    def focal_point_count(self) -> int:
        """Total number of focal points in the volume."""
        return self.n_theta * self.n_phi * self.n_depth

    @property
    def scanline_count(self) -> int:
        """Number of steered lines of sight (scanlines)."""
        return self.n_theta * self.n_phi

    @property
    def depth_span(self) -> float:
        """Imaged depth range [m]."""
        return self.depth_max - self.depth_min


@dataclass(frozen=True)
class BeamformerConfig:
    """Target performance figures for the receive beamformer."""

    frame_rate: float = 15.0
    """Target volume (frame) rate [volumes/s]."""

    insonifications_per_volume: int = 64
    """Number of transmit events used to reconstruct one volume."""

    scanlines_per_insonification: int = 256
    """Number of receive lines beamformed in parallel per insonification."""

    clock_frequency: float = 200.0e6
    """Nominal FPGA clock frequency [Hz] used by throughput estimates."""


@dataclass(frozen=True)
class SystemConfig:
    """Complete system specification (Table I of the paper)."""

    acoustic: AcousticConfig = field(default_factory=AcousticConfig)
    transducer: TransducerConfig = field(default_factory=TransducerConfig)
    volume: VolumeConfig = field(default_factory=VolumeConfig)
    beamformer: BeamformerConfig = field(default_factory=BeamformerConfig)

    name: str = "paper"
    """Human readable preset name."""

    @property
    def max_round_trip_time(self) -> float:
        """Two-way propagation time to the deepest focal point [s]."""
        return 2.0 * self.volume.depth_max / self.acoustic.speed_of_sound

    @property
    def echo_buffer_samples(self) -> int:
        """Number of echo samples stored per element per insonification.

        The paper quotes "slightly more than 8000 samples" for a 32 MHz
        sampling of the two-way propagation over 2 x 500 lambda.
        """
        return int(math.ceil(self.max_round_trip_time
                             * self.acoustic.sampling_frequency)) + 1

    @property
    def delay_index_bits(self) -> int:
        """Bits needed to index the echo buffer (13 for the paper system)."""
        return max(1, int(math.ceil(math.log2(self.echo_buffer_samples))))

    @property
    def theoretical_delay_count(self) -> int:
        """Total number of delay coefficients without any optimisation.

        One coefficient per (focal point, receive element) pair; about
        164e9 for the paper system (Section II-B).
        """
        return self.volume.focal_point_count * self.transducer.element_count

    @property
    def delay_throughput_required(self) -> float:
        """Delay coefficients needed per second for realtime imaging [1/s].

        About 2.5e12 delay values/s at 15 volumes/s (Section II-C).
        """
        return self.theoretical_delay_count * self.beamformer.frame_rate

    def to_dict(self) -> dict:
        """Plain-dict (JSON-safe) form of the full configuration.

        Inverse of :meth:`from_dict`; used by ``repro.api.EngineSpec`` to
        embed non-preset systems inline in portable spec documents.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """Rebuild (and validate) a configuration from :meth:`to_dict` output.

        Missing sections fall back to their defaults; unknown sections raise
        :class:`ValueError` so typos in spec files surface instead of being
        silently dropped.
        """
        if not isinstance(data, dict):
            raise ValueError(f"system config must be a mapping, "
                             f"got {type(data).__name__}")
        sections = {"acoustic": AcousticConfig, "transducer": TransducerConfig,
                    "volume": VolumeConfig, "beamformer": BeamformerConfig}
        unknown = set(data) - set(sections) - {"name"}
        if unknown:
            raise ValueError(f"unknown system config section(s): "
                             f"{', '.join(sorted(unknown))}")
        kwargs = {}
        for key, section_cls in sections.items():
            value = data.get(key, {})
            try:
                kwargs[key] = value if isinstance(value, section_cls) \
                    else section_cls(**value)
            except TypeError as exc:
                raise ValueError(f"bad {key!r} section: {exc}") from None
        config = cls(name=data.get("name", "custom"), **kwargs)
        config.validate()
        return config

    def cache_key(self) -> str:
        """Stable digest of every physical parameter of the system.

        Two configurations with identical acoustic, transducer, volume and
        beamformer parameters produce the same key even if their ``name``
        differs, so compiled plans cached under the key (see
        :class:`repro.runtime.cache.PlanCache`) are shared between
        presets that describe the same probe and grid.  The key is a hex
        string, safe to embed in file names or composite dictionary keys.
        Digested once per (frozen) instance: every compiled plan and weight
        memo asks for it, one per firing of every tile.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            payload = asdict(self)
            payload.pop("name", None)
            canonical = json.dumps(payload, sort_keys=True, default=repr)
            key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "_cache_key", key)
        return key

    def with_volume(self, **kwargs) -> "SystemConfig":
        """Return a copy with selected :class:`VolumeConfig` fields replaced."""
        return replace(self, volume=replace(self.volume, **kwargs))

    def with_transducer(self, **kwargs) -> "SystemConfig":
        """Return a copy with selected :class:`TransducerConfig` fields replaced."""
        return replace(self, transducer=replace(self.transducer, **kwargs))

    def with_acoustic(self, **kwargs) -> "SystemConfig":
        """Return a copy with selected :class:`AcousticConfig` fields replaced."""
        return replace(self, acoustic=replace(self.acoustic, **kwargs))

    def with_beamformer(self, **kwargs) -> "SystemConfig":
        """Return a copy with selected :class:`BeamformerConfig` fields replaced."""
        return replace(self, beamformer=replace(self.beamformer, **kwargs))

    def validate(self) -> None:
        """Raise :class:`ValueError` if the configuration is inconsistent."""
        if self.acoustic.speed_of_sound <= 0:
            raise ValueError("speed of sound must be positive")
        if self.acoustic.sampling_frequency <= 0:
            raise ValueError("sampling frequency must be positive")
        if self.acoustic.center_frequency <= 0:
            raise ValueError("center frequency must be positive")
        if self.transducer.elements_x < 1 or self.transducer.elements_y < 1:
            raise ValueError("transducer must have at least one element per axis")
        if self.transducer.pitch <= 0:
            raise ValueError("transducer pitch must be positive")
        if self.volume.n_theta < 1 or self.volume.n_phi < 1 or self.volume.n_depth < 1:
            raise ValueError("volume grid dimensions must be at least 1")
        if not 0 < self.volume.theta_max < math.pi / 2:
            raise ValueError("theta_max must be in (0, pi/2)")
        if not 0 < self.volume.phi_max < math.pi / 2:
            raise ValueError("phi_max must be in (0, pi/2)")
        if self.volume.depth_min <= 0:
            raise ValueError("depth_min must be positive")
        if self.volume.depth_max <= self.volume.depth_min:
            raise ValueError("depth_max must exceed depth_min")
        if self.beamformer.frame_rate <= 0:
            raise ValueError("frame rate must be positive")
        if self.beamformer.insonifications_per_volume < 1:
            raise ValueError("insonifications_per_volume must be at least 1")


def _wavelength(speed_of_sound: float = 1540.0,
                center_frequency: float = 4.0e6) -> float:
    return speed_of_sound / center_frequency


def paper_system() -> SystemConfig:
    """The exact system of Table I (100x100 elements, 128x128x1000 points)."""
    lam = _wavelength()
    acoustic = AcousticConfig()
    transducer = TransducerConfig(
        elements_x=100,
        elements_y=100,
        pitch=lam / 2.0,
    )
    volume = VolumeConfig(
        n_theta=128,
        n_phi=128,
        n_depth=1000,
        theta_max=math.radians(73.0) / 2.0,
        phi_max=math.radians(73.0) / 2.0,
        depth_min=lam,
        depth_max=500 * lam,
    )
    beamformer = BeamformerConfig()
    config = SystemConfig(acoustic=acoustic, transducer=transducer,
                          volume=volume, beamformer=beamformer, name="paper")
    config.validate()
    return config


def small_system() -> SystemConfig:
    """A scaled-down system for tests and fast examples (16x16 elements)."""
    lam = _wavelength()
    acoustic = AcousticConfig()
    transducer = TransducerConfig(
        elements_x=16,
        elements_y=16,
        pitch=lam / 2.0,
    )
    volume = VolumeConfig(
        n_theta=16,
        n_phi=16,
        n_depth=64,
        theta_max=math.radians(60.0) / 2.0,
        phi_max=math.radians(60.0) / 2.0,
        depth_min=lam,
        depth_max=100 * lam,
    )
    beamformer = BeamformerConfig(insonifications_per_volume=4,
                                  scanlines_per_insonification=64)
    config = SystemConfig(acoustic=acoustic, transducer=transducer,
                          volume=volume, beamformer=beamformer, name="small")
    config.validate()
    return config


def tiny_system() -> SystemConfig:
    """A very small system used by property-based tests (8x8 elements)."""
    lam = _wavelength()
    acoustic = AcousticConfig()
    transducer = TransducerConfig(
        elements_x=8,
        elements_y=8,
        pitch=lam / 2.0,
    )
    volume = VolumeConfig(
        n_theta=8,
        n_phi=8,
        n_depth=16,
        theta_max=math.radians(40.0) / 2.0,
        phi_max=math.radians(40.0) / 2.0,
        depth_min=2 * lam,
        depth_max=40 * lam,
    )
    beamformer = BeamformerConfig(insonifications_per_volume=2,
                                  scanlines_per_insonification=32)
    config = SystemConfig(acoustic=acoustic, transducer=transducer,
                          volume=volume, beamformer=beamformer, name="tiny")
    config.validate()
    return config


PRESETS: dict[str, Callable[[], SystemConfig]] = {
    "paper": paper_system,
    "small": small_system,
    "tiny": tiny_system,
}
"""Named system presets — the single source the CLI and spec layer draw from."""


def get_preset(name: str) -> SystemConfig:
    """Build the preset called ``name``; unknown names list the presets."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown system preset {name!r}; "
                         f"available: {', '.join(sorted(PRESETS))}") from None
    return factory()
