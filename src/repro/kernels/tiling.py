"""Memory-budgeted tiled execution: budget -> tiles -> streamed segments.

Experiment E9 puts the paper's storage argument in numbers: a compiled
whole-grid :class:`~repro.kernels.plan.BeamformingPlan` costs terabytes at
paper scale — the very reason the DATE'15 architecture generates delays on
the fly instead of storing them.  This module is the software analogue of
that choice.  Given a ``memory_budget_bytes`` cap (e.g. ``"8G"``):

* :class:`TilePlanner` splits the flat focal-point axis into contiguous
  :class:`Tile` ranges whose per-tile plan cost
  (:func:`~repro.kernels.plan.plan_storage_bytes`) fits the budget,
  aligned to whole scanlines by default (the minimal unit the per-scanline
  delay providers stream);
* :class:`TiledPlan` mirrors the :class:`BeamformingPlan` execute surface
  but compiles one *segment* plan per tile on demand — via
  ``compile_plans(..., tile=...)`` — and writes each tile's rows into the
  caller's output array, one tile after the other.  Every plan-backed
  runtime backend executes through one; without a budget it is a single
  tile;
* segments are cached in a byte-budgeted
  :class:`repro.runtime.cache.PlanCache` (segment-level LRU): the budget is
  *enforced*, never silently exceeded, and the achieved peak is reported
  through the cache's ``plan_cache_peak_bytes`` gauge.

Bit-identity with untiled execution is structural, and pinned by the
conformance matrix and ``tests/test_property_tiling.py``: every plan's
tensors come from one flat-range builder, every dtype/quantisation
coercion is elementwise, and every focal point's gather/weight/sum is
independent of its neighbours — so a tile's rows are exact row slices of
the one-tile result.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..observability.tracing import resolve_tracer
from .ops import pad_frames
from .plan import (_leaf_ordered, check_finite, compile_plans, plan_key,
                   plan_storage_bytes)
from .precision import Precision, resolve_precision

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..acoustics.echo import ChannelData
    from ..beamformer.das import DelayAndSumBeamformer
    from ..runtime.cache import PlanCache

__all__ = ["Tile", "TilePlanner", "TiledPlan", "parse_memory_budget"]


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

    A budget too small to hold one granularity unit is rejected with an
    actionable error naming the real minimum (the MWA-pointing stance:
    fail loudly, never degrade silently).
    """

    def __init__(self, grid_shape: Sequence[int], n_elements: int,
                 memory_budget_bytes: int | str | None = None, *,
                 precision: Precision | str | None = None,
                 interpolation="nearest",
                 quantization: object | None = None,
                 variant: str | None = None,
                 granularity: int | None = None) -> None:
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
            budget_units = self.memory_budget_bytes // unit_bytes
            if budget_units < 1:
                unit = "scanline" if granularity is None else \
                    f"{self.granularity}-point tile"
                raise ValueError(
                    f"memory budget of {self.memory_budget_bytes} bytes "
                    f"cannot hold one {unit}: a single segment plan of "
                    f"{self.granularity} points x {self.n_elements} "
                    f"elements costs {unit_bytes} bytes "
                    f"({self.bytes_per_point} bytes/point at "
                    f"{self.precision.value}); raise the budget to at least "
                    f"{unit_bytes} bytes")
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
                       granularity: int | None = None) -> "TilePlanner":
        """Planner for a configured beamformer's grid/channels/interp/spec,
        compiling ``variant`` plans."""
        return cls(beamformer.grid.shape,
                   beamformer.transducer.element_count,
                   memory_budget_bytes, precision=precision,
                   interpolation=beamformer.interpolation,
                   quantization=beamformer.quantization, variant=variant,
                   granularity=granularity)


class TiledPlan:
    """An engine's plan as tile segments, compiled and cached on demand.

    Mirrors the :class:`~repro.kernels.plan.BeamformingPlan` execute
    surface (``execute`` / ``execute_batch``); every plan-backed runtime
    backend holds one, with a single tile when unbudgeted.  Each call runs
    one body over the planner's tiles in order: fetch the tile's segment
    plan from the cache (compiling through ``compile_plans(..., tile=...)``
    on miss, under a ``compile`` span), execute it whole, and write its
    rows into the output array — one ``tile`` tracer span per tile.
    Plans linked as a firing group (:meth:`link`) may compile a missed tile
    for the whole group at once (:meth:`segment`).

    ``variant="compiled"`` streams fused
    :class:`~repro.kernels.compiled.CompiledPlan` segments instead, keyed
    by ``options.variant()`` and launched with ``options`` (so a segment
    shared through the cache runs with this plan's threads/block size); a
    beamformer carrying a ``quantization`` spec compiles segments that
    carry it, and frames are coerced once into its sample format.
    """

    def __init__(self, beamformer: "DelayAndSumBeamformer",
                 planner: TilePlanner,
                 precision: Precision | str | None = None, *,
                 cache: "PlanCache | None" = None,
                 variant: str | None = None,
                 options: object | None = None) -> None:
        self.beamformer = beamformer
        self.planner = planner
        self.precision = resolve_precision(precision)
        self.grid_shape = beamformer.grid.shape
        self.quantization = beamformer.quantization
        if variant is not None and variant != "compiled":
            raise ValueError(f"unknown plan variant {variant!r}; "
                             "available: compiled")
        self._variant = variant
        # Compiled segments also take the options per execute call: a
        # cached segment may have been built by a backend launching with
        # other threads/block size.
        self._variant_kwargs: dict = {}
        key_variant = None
        if variant == "compiled":
            from .compiled import CompiledOptions
            options = CompiledOptions() if options is None else options
            self._variant_kwargs = {"options": options}
            key_variant = options.variant()
        # Keyed once per tile, not per lookup: a key hashes the whole
        # system config, a per-tile cost on every frame otherwise.
        self._tile_keys = [plan_key(beamformer, self.precision,
                                    variant=key_variant, tile=tile)
                           for tile in planner.tiles()]
        if cache is None:
            # Private per-plan cache with a slot per tile, bounded by the
            # same budget the tiles were sized for.  Imported lazily:
            # repro.runtime imports the kernels package, not the reverse.
            from ..runtime.cache import PlanCache
            cache = PlanCache(capacity=planner.n_tiles, metrics=None,
                              max_bytes=planner.memory_budget_bytes)
        self.cache = cache
        self._group: tuple = ()

    @staticmethod
    def link(plans: "Sequence[TiledPlan]") -> None:
        """Link ``plans`` as one firing group: the tiled plans of one
        transmit scheme's firings, which differ only in their delay
        providers (:class:`repro.scenarios.SchemeEngine` links them).

        A linked plan whose segment misses compiles that tile for every
        plan of the group that misses it too, in one
        :func:`~repro.kernels.plan.compile_plans` pass, when the group
        shares one cache that can hold a full segment per firing (see
        :meth:`segment`).  The links are weak: a group never keeps a
        dropped plan alive."""
        refs = tuple(weakref.ref(plan) for plan in plans)
        for plan in plans:
            plan._group = refs

    # ------------------------------------------------------------ geometry
    @property
    def n_points(self) -> int:
        """Number of focal points (product of ``grid_shape``)."""
        return self.planner.n_points

    @property
    def dtype(self) -> np.dtype:
        """Execution dtype of the output volumes."""
        return self.precision.dtype

    # ------------------------------------------------------------ execution
    def segment(self, tile: Tile, tracer=None):
        """The compiled segment plan for one tile (cached; builds on miss).

        A linked plan (:meth:`link`) builds a miss for its whole group when
        the group's cache can hold one full segment per firing — a count
        bound of at least the firing count, or a byte budget of at least
        that many :attr:`TilePlanner.tile_bytes` — so no group segment is
        evicted before its firing uses it.  Under a smaller budget the
        firings stream their segments one at a time, as unlinked plans
        do."""
        tracer = resolve_tracer(tracer)
        group = self._grouped() or [self]

        def build(positions: list[int]) -> list:
            with tracer.span("compile") as span:
                plans = compile_plans(
                    [group[i].beamformer for i in positions],
                    self.precision, variant=self._variant, tile=tile,
                    **self._variant_kwargs)
                span.set(bytes=sum(int(plan.nbytes) for plan in plans),
                         points=tile.n_points,
                         elements=self.planner.n_elements, tile=tile.index)
                if len(plans) > 1:
                    span.set(firings=len(plans))
            return plans

        return self.cache.get_or_build_group(
            [plan._tile_keys[tile.index] for plan in group],
            group.index(self), build,
            size_hint=self.planner.tile_nbytes(tile))

    def _grouped(self) -> "list[TiledPlan] | None":
        """The linked plans, when they compile as one group: two or more,
        alive, tiled alike and sharing a cache that holds a full segment
        of each."""
        group = [ref() for ref in self._group]
        if len(group) < 2 or any(
                plan is None or plan.cache is not self.cache
                or plan.planner.tile_points != self.planner.tile_points
                for plan in group):
            return None
        if self.cache.max_bytes is None:
            fits = self.cache.capacity >= len(group)
        else:
            fits = len(group) * self.planner.tile_bytes \
                <= self.cache.max_bytes
        return group if fits else None

    def _run_tiles(self, body: Callable, tracer) -> None:
        """Run ``body(tile, segment)`` for every tile, in order, each under
        a ``tile`` span (index, point count, segment bytes)."""
        for tile in self.planner.tiles():
            with tracer.span("tile", index=tile.index,
                             tiles=self.planner.n_tiles,
                             points=tile.n_points) as span:
                segment = self.segment(tile, tracer)
                span.set(bytes=int(segment.nbytes))
                body(tile, segment)
            # Held no longer than the cache holds it: an evicted segment
            # must be freed before the next tile's segment is built.
            del segment

    def execute(self, channel_data: "ChannelData | np.ndarray",
                tracer=None) -> np.ndarray:
        """Beamform one frame tile by tile; shape ``grid_shape``: the
        one-frame case of :meth:`execute_batch`, so the frame is padded
        and checked once, not once per tile."""
        return self.execute_batch([channel_data], tracer)[0]

    def execute_batch(self, frames: "Sequence[ChannelData | np.ndarray]",
                      tracer=None) -> np.ndarray:
        """Beamform a cine batch tile by tile; ``(n_frames, *grid_shape)``.

        Frames are coerced and padded once, each written straight into its
        column (:func:`~repro.kernels.ops.pad_frames`) — every tile
        gathers from the same buffer — and every tile's
        segment executes the full batch before moving on: the segment (the
        expensive artifact) is amortised across frames, exactly the access
        order the LRU favours.  The buffer is built once the first tile's
        segment is in hand, so a cold compile of a one-tile plan never
        holds it beside its own scratch.  CSR segments refuse a NaN or
        infinite sample (:func:`~repro.kernels.plan.check_finite`), checked
        once here for every tile.
        """
        tracer = resolve_tracer(tracer)
        if len(frames) == 0:
            return np.empty((0, *self.grid_shape), dtype=self.dtype)
        out = np.empty((len(frames), self.n_points), dtype=self.dtype)
        padded = None

        def body(tile: Tile, segment) -> None:
            nonlocal padded
            if padded is None:
                padded = pad_frames(
                    frames, self.dtype, self.quantization,
                    (self.beamformer.transducer.element_count,
                     self.beamformer.system.echo_buffer_samples))
                if _leaf_ordered(self.beamformer.interpolation,
                                 self.quantization, self._variant):
                    check_finite(padded)
            out[:, tile.rows] = segment.execute_padded(
                padded, tracer=tracer, **self._variant_kwargs)

        self._run_tiles(body, tracer)
        return out.reshape((len(frames), *self.grid_shape))
