"""Transmit schemes: how an acquisition insonifies the imaging volume.

The paper evaluates its delay architectures on the classic focused
acquisition — one spherical wavefront per volume, emitted from the
transducer centre — but Section V explicitly discusses schemes that move
the sound origin between insonifications (synthetic aperture) and the
beamforming literature leans heavily on plane-wave compounding.  Both
stress exactly the datapath the paper optimises: the *transmit* leg of the
two-way delay changes per firing while the receive leg stays fixed.

This module models that axis as first-class objects:

* :class:`TransmitEvent` — one firing: a spherical wavefront from an
  origin (focused / synthetic-aperture / diverging-wave firings) or a
  plane wavefront with a steering direction.  The event knows its
  transmit distance to any field point, which is all the echo simulator
  and the delay layer need.
* :class:`TransmitScheme` — a named, ordered set of events making up one
  volume acquisition (the unit the compounding layer sums over).
* :data:`SCHEMES` — the open registry of scheme factories
  (``focused`` / ``planewave`` / ``synthetic_aperture`` / ``diverging``),
  the acquisition counterpart of
  :data:`repro.architectures.ARCHITECTURES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..config import SystemConfig
from ..geometry.coordinates import spherical_to_cartesian
from ..registry import Registry


class Wavefront(str, Enum):
    """Geometric model of one transmitted wavefront."""

    SPHERICAL = "spherical"
    """Point source at ``origin``: transmit distance is ``|S - origin|``
    (focused, synthetic-aperture and diverging-wave firings)."""

    PLANE = "plane"
    """Plane wave through ``origin`` with unit ``direction``: transmit
    distance is the signed projection ``(S - origin) . direction``."""


@dataclass(frozen=True, eq=False)
class TransmitEvent:
    """One firing of a transmit scheme.

    Equality and hashing go through :meth:`token` (wavefront + origin +
    direction; the cosmetic ``label`` is excluded) — the dataclass
    defaults would raise on the ndarray fields.

    Attributes
    ----------
    wavefront:
        Geometric wavefront model (spherical or plane).
    origin:
        Wavefront origin, shape ``(3,)`` [m] — the point source for
        spherical events, the zero-delay reference point for plane waves.
    direction:
        Unit propagation direction, shape ``(3,)`` (plane waves only;
        spherical events keep the default broadside ``+z``).
    label:
        Human-readable tag used in reports and cache keys.
    """

    wavefront: Wavefront = Wavefront.SPHERICAL
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    direction: np.ndarray = field(
        default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "wavefront", Wavefront(self.wavefront))
        origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        direction = np.asarray(self.direction, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(origin)):
            raise ValueError("transmit origin must be finite")
        norm = float(np.linalg.norm(direction))
        if not np.isfinite(norm) or norm <= 0:
            raise ValueError("transmit direction must be a finite nonzero "
                             "vector")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "direction", direction / norm)

    # ----------------------------------------------------------- factories
    @classmethod
    def focused(cls, origin: np.ndarray | None = None,
                label: str = "focused") -> "TransmitEvent":
        """A spherical firing from ``origin`` (the probe centre by default)."""
        return cls(wavefront=Wavefront.SPHERICAL,
                   origin=np.zeros(3) if origin is None else origin,
                   label=label)

    @classmethod
    def plane_wave(cls, theta: float, phi: float = 0.0,
                   label: str = "") -> "TransmitEvent":
        """A plane wave steered to ``(theta, phi)`` through the probe centre."""
        direction = spherical_to_cartesian(theta, phi, 1.0).reshape(3)
        return cls(wavefront=Wavefront.PLANE, direction=direction,
                   label=label or f"pw({theta:+.3f},{phi:+.3f})")

    # ----------------------------------------------------------- geometry
    def transmit_distance(self, point: np.ndarray) -> float:
        """Transmit path length to one field point [m].

        For spherical events this is arithmetic-identical to the legacy
        per-scatterer expression in :meth:`repro.acoustics.EchoSimulator
        .simulate`, so a focused event reproduces the historical channel
        data bit for bit.
        """
        point = np.asarray(point, dtype=np.float64).reshape(3)
        if self.wavefront is Wavefront.SPHERICAL:
            return float(np.linalg.norm(point - self.origin))
        return float(np.dot(point - self.origin, self.direction))

    def transmit_distances(self, points: np.ndarray) -> np.ndarray:
        """Transmit path lengths for many field points, shape ``(n,)`` [m]."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if self.wavefront is Wavefront.SPHERICAL:
            return np.linalg.norm(points - self.origin[None, :], axis=-1)
        return (points - self.origin[None, :]) @ self.direction

    def transmit_delays_seconds(self, points: np.ndarray,
                                speed_of_sound: float) -> np.ndarray:
        """Transmit delays for many field points, shape ``(n,)`` [s]."""
        return self.transmit_distances(points) / speed_of_sound

    def token(self) -> tuple:
        """Hashable identity used in plan cache keys."""
        return (self.wavefront.value, tuple(self.origin),
                tuple(self.direction))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransmitEvent):
            return NotImplemented
        return self.token() == other.token()

    def __hash__(self) -> int:
        return hash(self.token())

    def is_centred_focused(self) -> bool:
        """True for the paper's baseline firing (spherical at the centre)."""
        return (self.wavefront is Wavefront.SPHERICAL
                and bool(np.all(self.origin == 0.0)))


@dataclass(frozen=True, eq=False)
class TransmitScheme:
    """A named, ordered set of transmit events forming one acquisition.

    The scheme is the unit the compounding layer iterates over: one
    :class:`repro.acoustics.ChannelData` is acquired per event, each firing
    is beamformed with its own transmit-adjusted delays, and the
    per-firing volumes are summed coherently.  Equality and hashing go
    through :meth:`token`.
    """

    name: str
    events: tuple[TransmitEvent, ...]

    def __post_init__(self) -> None:
        events = tuple(self.events)
        if not events:
            raise ValueError("a transmit scheme needs at least one event")
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def firing_count(self) -> int:
        """Number of transmit events (insonifications) per volume."""
        return len(self.events)

    def is_trivial(self) -> bool:
        """True for the single centred focused firing.

        A :class:`repro.scenarios.SchemeEngine` runs a trivial scheme on
        the base beamformer without a transmit wrap; everything else goes
        through per-event compounding.
        """
        return len(self.events) == 1 and self.events[0].is_centred_focused()

    def token(self) -> tuple:
        """Hashable identity of the whole scheme."""
        return (self.name, tuple(event.token() for event in self.events))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransmitScheme):
            return NotImplemented
        return self.token() == other.token()

    def __hash__(self) -> int:
        return hash(self.token())

    def describe(self) -> str:
        """One-line human-readable summary."""
        return f"{self.name} ({self.firing_count} firing" \
               f"{'s' if self.firing_count != 1 else ''})"


# ------------------------------------------------------------------ registry
SCHEMES = Registry("scheme")
"""Registry of transmit schemes (factory: ``(system, options)``)."""


@dataclass(frozen=True)
class FocusedOptions:
    """Options for the ``focused`` scheme."""

    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    """Transmit origin [m]; the default is the paper's probe centre."""


@dataclass(frozen=True)
class PlaneWaveOptions:
    """Options for the ``planewave`` scheme."""

    n_angles: int = 5
    """Number of steered plane waves compounded per volume."""

    max_angle_fraction: float = 0.5
    """Steering span as a fraction of the volume's ``theta_max``."""

    elevation_fraction: float = 0.0
    """Fixed elevation steering as a fraction of ``phi_max``."""


@dataclass(frozen=True)
class SyntheticApertureOptions:
    """Options for the ``synthetic_aperture`` scheme."""

    every: int = 4
    """Element stride: one spherical firing per ``every``-th element."""


@dataclass(frozen=True)
class DivergingOptions:
    """Options for the ``diverging`` scheme."""

    count: int = 4
    """Number of virtual sources spread across the aperture."""

    standoff_wavelengths: float = 16.0
    """Stand-off of the virtual sources behind the probe [wavelengths]."""


@SCHEMES.register(
    "focused", options=FocusedOptions,
    description="single spherical transmit (the paper's baseline)")
def _build_focused(system: SystemConfig,
                   options: FocusedOptions) -> TransmitScheme:
    event = TransmitEvent.focused(origin=np.asarray(options.origin,
                                                    dtype=np.float64))
    return TransmitScheme(name="focused", events=(event,))


@SCHEMES.register(
    "planewave", options=PlaneWaveOptions,
    description="steered plane waves, coherently compounded")
def _build_planewave(system: SystemConfig,
                     options: PlaneWaveOptions) -> TransmitScheme:
    if options.n_angles < 1:
        raise ValueError("planewave scheme needs at least one angle")
    span = options.max_angle_fraction * system.volume.theta_max
    phi = options.elevation_fraction * system.volume.phi_max
    if options.n_angles == 1:
        thetas = np.array([0.0])
    else:
        thetas = np.linspace(-span, span, options.n_angles)
    events = tuple(TransmitEvent.plane_wave(float(theta), phi)
                   for theta in thetas)
    return TransmitScheme(name="planewave", events=events)


@SCHEMES.register(
    "synthetic_aperture", options=SyntheticApertureOptions,
    description="per-element spherical firings (decimated), compounded")
def _build_synthetic_aperture(system: SystemConfig,
                              options: SyntheticApertureOptions
                              ) -> TransmitScheme:
    if options.every < 1:
        raise ValueError("synthetic_aperture element stride must be >= 1")
    from ..geometry.transducer import MatrixTransducer
    positions = MatrixTransducer.from_config(system).positions[::options.every]
    events = tuple(
        TransmitEvent(wavefront=Wavefront.SPHERICAL, origin=position,
                      label=f"sa[{i}]")
        for i, position in enumerate(positions))
    return TransmitScheme(name="synthetic_aperture", events=events)


@SCHEMES.register(
    "diverging", options=DivergingOptions,
    description="virtual sources behind the probe (diverging waves)")
def _build_diverging(system: SystemConfig,
                     options: DivergingOptions) -> TransmitScheme:
    from ..core.multi_origin import OriginSchedule
    schedule = OriginSchedule.virtual_sources_behind_probe(
        system, count=options.count,
        standoff_wavelengths=options.standoff_wavelengths)
    events = tuple(
        TransmitEvent(wavefront=Wavefront.SPHERICAL, origin=origin,
                      label=f"vs[{i}]")
        for i, origin in enumerate(schedule.origins))
    return TransmitScheme(name="diverging", events=events)


def resolve_scheme(system: SystemConfig,
                   scheme: TransmitScheme | str | None = None,
                   options: object | None = None) -> TransmitScheme:
    """Coerce a scheme selector into a :class:`TransmitScheme`.

    ``None`` resolves to the registered ``focused`` default; strings go
    through :data:`SCHEMES`; pre-built instances pass through unchanged
    (``options`` must then be ``None``).
    """
    if isinstance(scheme, TransmitScheme):
        if options is not None:
            raise ValueError("options cannot be combined with a pre-built "
                             "TransmitScheme")
        return scheme
    return SCHEMES.create(scheme or "focused", system, options=options)
