"""Ablation studies for the design choices the paper calls out.

Each function isolates one design decision of the paper's architectures and
quantifies what changes when it is switched off or varied:

* :func:`directivity_filtering_ablation` — Section VI-A argues the worst
  TABLESTEER errors are harmless because they fall outside the elements'
  directivity; this ablation reports the error statistics with and without
  that filtering.
* :func:`symmetry_pruning_ablation` — Section V-A prunes three quarters of
  the reference table by symmetry; this ablation verifies the pruned lookup
  is lossless and reports the storage saved.
* :func:`incremental_tracking_ablation` — Section IV-B replaces the PWL
  segment search with incremental tracking; this ablation counts the segment
  steps actually needed along scanline- and nappe-ordered sweeps.
* :func:`interpolation_ablation` — the hardware addresses the echo buffer
  with integer indices; this ablation measures the image-level difference
  between nearest and linear interpolation.
* :func:`correction_reuse_ablation` — Fig. 4 keeps the same correction
  coefficients through an insonification; this ablation counts how many
  distinct coefficient sets a block needs per insonification versus per
  frame, which is what removes them from the critical timing path.
"""

from __future__ import annotations

import numpy as np

from ..acoustics.echo import EchoSimulator
from ..acoustics.phantom import point_target
from ..beamformer.das import DelayAndSumBeamformer
from ..beamformer.drivers import reconstruct_plane
from ..beamformer.image import envelope, normalized_rms_difference
from ..beamformer.interpolation import InterpolationKind, interpolation_cost_model
from ..config import SystemConfig
from ..core.exact import ExactDelayEngine
from ..core.reference_table import ReferenceDelayTable
from ..core.tablefree import TableFreeDelayGenerator
from ..core.tablesteer import TableSteerConfig, TableSteerDelayGenerator
from .accuracy import ErrorStats, directivity_mask, sample_volume_points, selection_errors


def directivity_filtering_ablation(system: SystemConfig,
                                   max_points: int = 400,
                                   seed: int = 21) -> dict[str, object]:
    """TABLESTEER error statistics with and without directivity filtering."""
    exact = ExactDelayEngine.from_config(system)
    generator = TableSteerDelayGenerator.from_config(
        system, TableSteerConfig(total_bits=None))
    points = sample_volume_points(system, max_points=max_points, seed=seed)
    errors = selection_errors(generator, exact, points)
    mask = directivity_mask(exact, points)
    unfiltered = ErrorStats.from_errors(errors)
    filtered = ErrorStats.from_errors(errors[mask]) if np.any(mask) else unfiltered
    return {
        "without_filtering": unfiltered.as_dict(),
        "with_filtering": filtered.as_dict(),
        "max_error_reduction_factor":
            unfiltered.max_abs / filtered.max_abs if filtered.max_abs > 0 else np.inf,
        "masked_fraction": float(1.0 - np.mean(mask)),
    }


def symmetry_pruning_ablation(system: SystemConfig) -> dict[str, float]:
    """Verify quadrant pruning is lossless and report the storage saved."""
    table = ReferenceDelayTable.build(system)
    depth_indices = np.linspace(0, len(table.grid.depths) - 1, 5).astype(int)
    worst_reconstruction_error = 0.0
    for i_depth in depth_indices:
        reconstructed = table.lookup(int(i_depth))
        direct = table.delays[:, :, int(i_depth)]
        worst_reconstruction_error = max(
            worst_reconstruction_error,
            float(np.max(np.abs(reconstructed - direct))))
    return {
        "full_entries": float(table.full_entry_count),
        "pruned_entries": float(table.quadrant_entry_count),
        "storage_saving_fraction": table.symmetry_savings,
        "max_reconstruction_error_samples": worst_reconstruction_error,
        "additional_directivity_prunable_fraction": table.prunable_fraction(),
    }


def incremental_tracking_ablation(system: SystemConfig,
                                  element_index: int = 0) -> dict[str, float]:
    """Segment steps needed by the PWL tracker in depth- vs angle-ordered sweeps."""
    generator = TableFreeDelayGenerator.from_config(system)
    grid = generator.grid

    # Depth-ordered (scanline) sweep for one element.
    scanline_stats = generator.segment_step_statistics(
        i_theta=len(grid.thetas) // 2, i_phi=len(grid.phis) // 2,
        element_index=element_index)

    # Angle-ordered (nappe) sweep at a mid depth for the same element.
    i_depth = len(grid.depths) // 2
    points = grid.nappe_points(i_depth).reshape(-1, 3)
    _tx_sq, rx_sq = generator._squared_args_samples(points)
    args = rx_sq[:, element_index]
    evaluator = generator.incremental_evaluator()
    evaluator.reset(int(generator.pwl.segment_index(args[0])))
    evaluator.evaluate_sequence(args)

    return {
        "segment_count": float(generator.segment_count),
        "scanline_mean_steps": scanline_stats["mean_steps"],
        "scanline_max_steps": scanline_stats["max_steps"],
        "nappe_mean_steps": evaluator.mean_steps_per_evaluation,
        "nappe_max_steps": float(evaluator.max_steps_single_evaluation),
        "search_cost_avoided_steps_per_point":
            float(np.log2(max(generator.segment_count, 2))),
    }


def interpolation_ablation(system: SystemConfig,
                           target_depth_fraction: float = 0.55) -> dict[str, object]:
    """Image-level effect of integer-index addressing vs linear interpolation."""
    exact = ExactDelayEngine.from_config(system)
    grid = exact.grid
    requested = (system.volume.depth_min
                 + target_depth_fraction * system.volume.depth_span)
    depth = float(grid.depths[np.argmin(np.abs(grid.depths - requested))])
    channel_data = EchoSimulator.from_config(system).simulate(
        point_target(depth=depth))

    images = {}
    for kind in (InterpolationKind.NEAREST, InterpolationKind.LINEAR):
        beamformer = DelayAndSumBeamformer(system, exact, interpolation=kind)
        images[kind.value] = envelope(
            reconstruct_plane(beamformer, channel_data), axis=1)
    difference = normalized_rms_difference(images["linear"], images["nearest"])
    return {
        "nrms_nearest_vs_linear": difference,
        "peak_ratio": float(np.max(images["nearest"]) / np.max(images["linear"])),
        "cost_nearest": interpolation_cost_model(
            InterpolationKind.NEAREST, system.transducer.element_count),
        "cost_linear": interpolation_cost_model(
            InterpolationKind.LINEAR, system.transducer.element_count),
    }


def correction_reuse_ablation(system: SystemConfig) -> dict[str, float]:
    """How often a Fig. 4 block must change its correction coefficients.

    Keeping the coefficients constant during an insonification (the paper's
    timing optimisation) means each block loads new coefficients only
    ``insonifications_per_volume`` times per frame instead of once per focal
    point; the ratio of the two is the coefficient-reload traffic avoided.
    """
    per_frame_points = system.volume.focal_point_count
    insonifications = system.beamformer.insonifications_per_volume
    scanlines_per_insonification = system.beamformer.scanlines_per_insonification
    reload_per_point = float(per_frame_points)
    reload_per_insonification = float(insonifications)
    return {
        "coefficient_reloads_per_frame_naive": reload_per_point,
        "coefficient_reloads_per_frame_optimised": reload_per_insonification,
        "reload_reduction_factor": reload_per_point / reload_per_insonification,
        "scanlines_per_insonification": float(scanlines_per_insonification),
    }
