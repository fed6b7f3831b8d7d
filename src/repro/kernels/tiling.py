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
  delay providers stream), and with ``workers`` tiles executing at once
  to an even share of the scanlines and of the budget;
* :class:`TiledPlan` mirrors the :class:`BeamformingPlan` execute surface
  but compiles one *segment* plan per tile on demand — via
  ``compile_plan(..., tile=...)`` — and writes each tile's rows into the
  caller's output array, serially or on the ``sharded`` backend's thread
  pool: one partition is both the unit of plan memory and of parallel
  work (the paper's Fig. 4 blocks).  Every plan-backed runtime backend
  executes through one; without a budget it is a single tile;
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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..observability.tracing import resolve_tracer
from .ops import coerce_samples
from .plan import compile_plan, plan_key, plan_storage_bytes
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
    Raises :class:`ValueError` for anything non-positive or unparseable —
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
            budget = int(float(text) * scale)
        except ValueError:
            raise ValueError(
                f"unparseable memory budget {value!r}: expected bytes or a "
                "suffixed size like '8G', '512M', '64K'") from None
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
    """Split a voxel grid into tiles from per-point plan cost and workers.

    Parameters
    ----------
    grid_shape:
        Focal-grid shape ``(n_theta, n_phi, n_depth)``.
    n_elements:
        Receive-channel count (sets the per-point plan cost).
    memory_budget_bytes:
        The plan-memory cap, as bytes or a suffixed string (``"8G"``), or
        ``None`` for no cap.  Tiles are sized so the ``workers`` segment
        plans executing at once never exceed it together; the
        byte-budgeted :class:`repro.runtime.cache.PlanCache` then enforces
        it across however many segments are resident.
    precision / interpolation:
        Execution dtype and gather interpolation — both change the
        per-point cost (see :func:`~repro.kernels.plan.plan_storage_bytes`).
    granularity:
        Tile alignment in points.  Defaults to ``n_depth`` — whole
        scanlines, the minimal unit the per-scanline delay providers
        stream.  Property tests use ``granularity=1`` (single-voxel tiles)
        to pin the degenerate partition.
    workers:
        How many tiles execute concurrently.  A tile holds at most
        ``ceil(units / workers)`` granularity units, so every worker gets
        one, and at most ``budget // workers`` bytes.

    A budget too small to give every worker one granularity unit is
    rejected with an actionable error naming the real minimum (the
    MWA-pointing stance: fail loudly, never degrade silently).
    """

    def __init__(self, grid_shape: Sequence[int], n_elements: int,
                 memory_budget_bytes: int | str | None = None, *,
                 precision: Precision | str | None = None,
                 interpolation="nearest",
                 granularity: int | None = None,
                 workers: int = 1) -> None:
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
        self.workers = int(workers)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        self.bytes_per_point = plan_storage_bytes(
            1, self.n_elements, self.precision, self.interpolation)
        unit_bytes = self.bytes_per_point * self.granularity
        units = math.ceil(math.ceil(self.n_points / self.granularity)
                          / self.workers)
        if self.memory_budget_bytes is not None:
            budget_units = self.memory_budget_bytes // (self.workers
                                                        * unit_bytes)
            if budget_units < 1:
                unit = "scanline" if granularity is None else \
                    f"{self.granularity}-point tile"
                raise ValueError(
                    f"memory budget of {self.memory_budget_bytes} bytes "
                    f"cannot hold one {unit} for each of {self.workers} "
                    f"concurrent worker(s): a single segment plan of "
                    f"{self.granularity} points x {self.n_elements} "
                    f"elements costs {unit_bytes} bytes "
                    f"({self.bytes_per_point} bytes/point at "
                    f"{self.precision.value}); raise the budget to at least "
                    f"{self.workers * unit_bytes} bytes")
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
        """Plan cost of one full-size tile segment [bytes]; ``workers`` of
        them fit the budget together."""
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
                       granularity: int | None = None,
                       workers: int = 1) -> "TilePlanner":
        """Planner for a configured beamformer's grid/channels/interp."""
        return cls(beamformer.grid.shape,
                   beamformer.transducer.element_count,
                   memory_budget_bytes, precision=precision,
                   interpolation=beamformer.interpolation,
                   granularity=granularity, workers=workers)


class TiledPlan:
    """An engine's plan as tile segments, compiled and cached on demand.

    Mirrors the :class:`~repro.kernels.plan.BeamformingPlan` execute
    surface (``execute`` / ``execute_batch``); every plan-backed runtime
    backend holds one, with a single tile when unbudgeted.  Each call maps
    one body over the planner's tiles: fetch the tile's segment plan from
    the cache (compiling through ``compile_plan(..., tile=...)`` on miss,
    under a ``compile`` span), execute it whole, and write its rows into
    the output array — one ``tile`` tracer span per tile.

    ``map`` runs that body over the tiles: the builtin ``map`` (serial, the
    default) or a thread pool's ``map`` (the ``sharded`` backend).  The
    caller's current span is handed to every tile, so spans opened on pool
    threads nest under it; the first exception a tile raises propagates.

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
                 options: object | None = None,
                 map: Callable[[Callable, Iterable], Iterable] = map) -> None:
        self.beamformer = beamformer
        self.planner = planner
        self.map = map
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
        """The compiled segment plan for one tile (cached; builds on miss)."""
        tracer = resolve_tracer(tracer)

        def build():
            with tracer.span("compile") as span:
                plan = compile_plan(self.beamformer, self.precision,
                                    variant=self._variant, tile=tile,
                                    **self._variant_kwargs)
                span.set(bytes=int(plan.nbytes), points=tile.n_points,
                         elements=self.planner.n_elements,
                         tile=tile.index)
            return plan

        return self.cache.get_or_build(
            self._tile_keys[tile.index], build,
            size_hint=self.planner.tile_nbytes(tile))

    def _map_tiles(self, body: Callable, tracer) -> None:
        """Run ``body(tile, segment)`` for every tile through :attr:`map`.

        Each tile runs under a ``tile`` span (index, point count, segment
        bytes) nested in the caller's current span, whichever thread runs
        it.  Draining the results re-raises the first tile's exception.
        """
        parent = tracer.current()

        def run(tile: Tile) -> None:
            with tracer.adopt(parent), \
                    tracer.span("tile", index=tile.index,
                                tiles=self.planner.n_tiles,
                                points=tile.n_points) as span:
                segment = self.segment(tile, tracer)
                span.set(bytes=int(segment.nbytes))
                body(tile, segment)

        for _ in self.map(run, self.planner.tiles()):
            pass

    def execute(self, channel_data: "ChannelData | np.ndarray",
                tracer=None) -> np.ndarray:
        """Beamform one frame tile by tile; shape ``grid_shape``."""
        tracer = resolve_tracer(tracer)
        # Coerced once here; the segments' own (idempotent) coercion passes
        # the result through unchanged.
        samples = coerce_samples(channel_data, self.dtype, self.quantization)
        out = np.empty(self.n_points, dtype=self.dtype)

        def body(tile: Tile, segment) -> None:
            out[tile.rows] = segment.execute(
                samples, tracer=tracer, **self._variant_kwargs).reshape(-1)

        self._map_tiles(body, tracer)
        return out.reshape(self.grid_shape)

    def execute_batch(self, frames: "Sequence[ChannelData | np.ndarray]",
                      tracer=None) -> np.ndarray:
        """Beamform a cine batch tile by tile; ``(n_frames, *grid_shape)``.

        Frames are coerced and stacked once — every tile, on whichever
        thread, gathers from the same buffer — and every tile's segment
        executes the full batch before moving on: the segment (the
        expensive artifact) is amortised across frames, exactly the access
        order the LRU favours.
        """
        tracer = resolve_tracer(tracer)
        if len(frames) == 0:
            return np.empty((0, *self.grid_shape), dtype=self.dtype)
        stacked = np.stack([coerce_samples(frame, self.dtype,
                                           self.quantization)
                            for frame in frames])
        out = np.empty((len(frames), self.n_points), dtype=self.dtype)

        def body(tile: Tile, segment) -> None:
            out[:, tile.rows] = segment.execute_batch(
                stacked, tracer=tracer,
                **self._variant_kwargs).reshape(len(frames), -1)

        self._map_tiles(body, tracer)
        return out.reshape((len(frames), *self.grid_shape))
