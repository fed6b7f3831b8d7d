"""Memory-budgeted tiling: budget -> tiles.

Experiment E9 puts the paper's storage argument in numbers: a compiled
whole-grid :class:`~repro.kernels.plan.BeamformingPlan` costs terabytes at
paper scale — the very reason the DATE'15 architecture generates delays on
the fly instead of storing them.  This module is the software analogue of
that choice.  Given a ``memory_budget_bytes`` cap (e.g. ``"8G"``),
:class:`TilePlanner` splits the flat focal-point axis into contiguous
:class:`Tile` ranges whose per-tile plan cost
(:func:`~repro.kernels.plan.plan_storage_bytes`) fits the budget, aligned
to whole scanlines by default (the minimal unit the per-scanline delay
providers stream).  The plan-backed runtime backends
(:mod:`repro.runtime.backends`) compile one *segment* plan per tile and
firing on demand — a tile's firings in one ``compile_plans(..., tile=...)``
pass — stream the segments
through a byte-budgeted :class:`repro.runtime.cache.PlanCache` and write
each tile's rows into the output array, one tile after the other; without
a budget there is a single tile.

Bit-identity with untiled execution is structural, and pinned by the
conformance matrix and ``tests/test_property_tiling.py``: every plan's
tensors come from one flat-range builder, every dtype/quantisation
coercion is elementwise, and every focal point's gather/weight/sum is
independent of its neighbours — so a tile's rows are exact row slices of
the one-tile result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .plan import plan_storage_bytes
from .precision import Precision, resolve_precision

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..beamformer.das import DelayAndSumBeamformer

__all__ = ["Tile", "TilePlanner", "parse_memory_budget"]


_BUDGET_SUFFIXES = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}


def parse_memory_budget(value: int | str) -> int:
    """Normalise a memory budget to a positive integer byte count.

    Accepts plain integers, decimal strings, and binary-suffixed strings
    (``"8G"``, ``"512M"``, ``"64K"``, ``"1T"``, case-insensitive, optional
    trailing ``B`` as in ``"8GB"``; fractions like ``"0.5G"`` work too).
    Raises :class:`ValueError` for anything non-positive, non-finite
    (``"inf"``, ``"1e400"``, ``"nan"``) or unparseable —
    a budget is a hard promise, so a malformed one must fail loudly, never
    default.
    """
    if isinstance(value, bool):
        raise ValueError("memory budget must be a byte count or a string "
                         "like '8G', not a bool")
    if isinstance(value, (int, np.integer)):
        budget = int(value)
    elif isinstance(value, str):
        text = value.strip().upper()
        if text.endswith("B"):
            text = text[:-1]
        scale = 1
        if text and text[-1] in _BUDGET_SUFFIXES:
            scale = _BUDGET_SUFFIXES[text[-1]]
            text = text[:-1]
        try:
            size = float(text) * scale
        except ValueError:
            raise ValueError(
                f"unparseable memory budget {value!r}: expected bytes or a "
                "suffixed size like '8G', '512M', '64K'") from None
        if not math.isfinite(size):
            raise ValueError(f"memory budget must be a finite size, "
                             f"got {value!r}")
        budget = int(size)
    else:
        raise ValueError(f"memory budget must be an int or str, "
                         f"got {type(value).__name__}")
    if budget < 1:
        raise ValueError(f"memory budget must be positive, got {value!r}")
    return budget


@dataclass(frozen=True)
class Tile:
    """One contiguous flat-point range of the focal grid.

    ``start``/``stop`` index the scanline-major flattened point axis the
    plans execute over (``(i_theta, i_phi, i_depth)`` order), so a tile is
    exactly a row slice of the whole-grid tensors.
    """

    index: int
    start: int
    stop: int

    @property
    def n_points(self) -> int:
        """Number of focal points covered by this tile."""
        return self.stop - self.start

    @property
    def rows(self) -> slice:
        """The tile's flat-point range as a slice."""
        return slice(self.start, self.stop)


class TilePlanner:
    """Split a voxel grid into tiles from per-point plan cost.

    Parameters
    ----------
    grid_shape:
        Focal-grid shape ``(n_theta, n_phi, n_depth)``.
    n_elements:
        Receive-channel count (sets the per-point plan cost).
    memory_budget_bytes:
        The plan-memory cap, as bytes or a suffixed string (``"8G"``), or
        ``None`` for no cap.  Tiles are sized so one segment plan never
        exceeds it; the byte-budgeted
        :class:`repro.runtime.cache.PlanCache` then enforces it across
        however many segments are resident.
    precision / interpolation / quantization / variant:
        Execution dtype, gather interpolation, fixed-point spec and plan
        implementation — all change the per-point cost (see
        :func:`~repro.kernels.plan.plan_storage_bytes`).
    granularity:
        Tile alignment in points.  Defaults to ``n_depth`` — whole
        scanlines, the minimal unit the per-scanline delay providers
        stream.  Property tests use ``granularity=1`` (single-voxel tiles)
        to pin the degenerate partition.
    firings:
        Segment plans per tile: a transmit scheme's firings compile and
        cache a tile's segments together, so tiles are sized for that many
        segments to fit the budget at once.

    A budget too small to hold one granularity unit per firing is rejected
    with an actionable error naming the real minimum (the MWA-pointing
    stance: fail loudly, never degrade silently).
    """

    def __init__(self, grid_shape: Sequence[int], n_elements: int,
                 memory_budget_bytes: int | str | None = None, *,
                 precision: Precision | str | None = None,
                 interpolation="nearest",
                 quantization: object | None = None,
                 variant: str | None = None,
                 granularity: int | None = None, firings: int = 1) -> None:
        self.grid_shape = tuple(int(n) for n in grid_shape)
        if len(self.grid_shape) != 3 or min(self.grid_shape) < 1:
            raise ValueError(f"grid_shape must be three positive extents, "
                             f"got {grid_shape!r}")
        n_theta, n_phi, n_depth = self.grid_shape
        self.n_points = n_theta * n_phi * n_depth
        self.n_elements = int(n_elements)
        self.memory_budget_bytes = None if memory_budget_bytes is None \
            else parse_memory_budget(memory_budget_bytes)
        self.precision = resolve_precision(precision)
        self.interpolation = interpolation
        self.granularity = n_depth if granularity is None else int(granularity)
        if self.granularity < 1:
            raise ValueError("tile granularity must be at least 1 point")
        self.bytes_per_point = plan_storage_bytes(
            1, self.n_elements, self.precision, self.interpolation,
            quantization=quantization, variant=variant)
        unit_bytes = self.bytes_per_point * self.granularity
        units = math.ceil(self.n_points / self.granularity)
        if self.memory_budget_bytes is not None:
            budget_units = self.memory_budget_bytes // (firings * unit_bytes)
            if budget_units < 1:
                unit = "scanline" if granularity is None else \
                    f"{self.granularity}-point tile"
                if firings > 1:
                    unit += f" per firing ({firings} firings)"
                raise ValueError(
                    f"memory budget of {self.memory_budget_bytes} bytes "
                    f"cannot hold one {unit}: a single segment plan of "
                    f"{self.granularity} points x {self.n_elements} "
                    f"elements costs {unit_bytes} bytes "
                    f"({self.bytes_per_point} bytes/point at "
                    f"{self.precision.value}); raise the budget to at least "
                    f"{firings * unit_bytes} bytes")
            units = min(units, budget_units)
        self.tile_points = int(min(units * self.granularity, self.n_points))
        self.n_tiles = math.ceil(self.n_points / self.tile_points)

    # ------------------------------------------------------------ the tiles
    def tile(self, index: int) -> Tile:
        """The ``index``-th tile (last one may be short)."""
        if not 0 <= index < self.n_tiles:
            raise IndexError(f"tile index {index} out of range "
                             f"[0, {self.n_tiles})")
        start = index * self.tile_points
        return Tile(index=index, start=start,
                    stop=min(start + self.tile_points, self.n_points))

    def tiles(self) -> tuple[Tile, ...]:
        """All tiles, in flat-point order — an exact partition of the grid
        (no overlap, no gap, full coverage; pinned by the property suite)."""
        return tuple(self.tile(i) for i in range(self.n_tiles))

    # ------------------------------------------------------------- costing
    @property
    def tile_bytes(self) -> int:
        """Plan cost of one full-size tile segment [bytes]; it fits the
        budget."""
        return self.tile_points * self.bytes_per_point

    def tile_nbytes(self, tile: Tile) -> int:
        """Predicted plan cost of one specific tile's segment [bytes]."""
        return tile.n_points * self.bytes_per_point

    @property
    def untiled_bytes(self) -> int:
        """What the whole-grid plan would cost [bytes] — the E9 wall."""
        return self.n_points * self.bytes_per_point

    @classmethod
    def for_beamformer(cls, beamformer: "DelayAndSumBeamformer",
                       memory_budget_bytes: int | str | None, *,
                       precision: Precision | str | None = None,
                       variant: str | None = None,
                       granularity: int | None = None,
                       firings: int = 1) -> "TilePlanner":
        """Planner for a configured beamformer's grid/channels/interp/spec,
        compiling ``variant`` plans, ``firings`` per tile; ``precision``
        defaults to the beamformer's."""
        return cls(beamformer.grid.shape,
                   beamformer.transducer.element_count,
                   memory_budget_bytes,
                   precision=beamformer.precision if precision is None
                   else precision,
                   interpolation=beamformer.interpolation,
                   quantization=beamformer.quantization, variant=variant,
                   granularity=granularity, firings=firings)
