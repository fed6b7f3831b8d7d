"""Experiment E9: delay-generation throughput (Section II-C / V-B, Fig. 4).

Paper claims:

* realtime 3D imaging needs ~2.5 x 10^12 delay values/s at 15 volumes/s;
* one Fig. 4 block (1 BRAM read + 8 x-corrections + 16 y-corrections) emits
  128 steered delays per clock using 136 adders;
* 128 such blocks reach a peak 3.3 Tdelays/s at 200 MHz, i.e. ~20 volumes/s;
* TABLEFREE delivers one delay per element per clock, ~1 fps per 20 MHz, so
  167 MHz gives ~8 fps.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig, paper_system
from ..core.reference_table import ReferenceDelayTable
from ..kernels import TilePlanner, parse_memory_budget, plan_storage_bytes
from ..core.steering import SteeringCorrections
from ..hardware.architecture import BlockGeometry, DelayComputeBlock, paper_block_array
from ..hardware.timing import (
    frames_per_second_per_mhz,
    required_delay_rate,
    tablefree_throughput,
    tablesteer_throughput,
)


def run(system: SystemConfig | None = None) -> dict[str, object]:
    """Compute throughput figures and validate the Fig. 4 block dataflow."""
    system = system or paper_system()
    array = paper_block_array()
    geometry = array.geometry

    tablesteer = tablesteer_throughput(
        system, n_blocks=array.n_blocks,
        delays_per_block_per_cycle=geometry.delays_per_cycle,
        clock_hz=200e6)
    tablefree = tablefree_throughput(
        system, n_units=system.transducer.element_count, clock_hz=167e6)

    # Functional check of the block dataflow on synthetic values: the block's
    # two-stage adder tree must equal the direct reference+correction sum.
    rng = np.random.default_rng(9)
    block = DelayComputeBlock(geometry=geometry)
    reference_sample = float(rng.uniform(100, 8000))
    x_corr = rng.uniform(-100, 100, geometry.nx)
    y_corr = rng.uniform(-100, 100, geometry.ny)
    block_output = block.process_cycle(reference_sample, x_corr, y_corr)
    direct = np.floor(reference_sample + x_corr[:, None] + y_corr[None, :] + 0.5)
    dataflow_matches = bool(np.array_equal(block_output, direct.astype(np.int64)))

    # Software-runtime counterpart of the storage argument: a compiled
    # repro.kernels plan is the "full delay table" in software form.  At
    # paper scale it does not fit (terabytes) — the reason both the paper's
    # hardware and our streaming runtime generate/compile once and reuse —
    # while the float32 policy shaves the weight tensor by 4 bytes/entry.
    n_points = system.volume.focal_point_count
    n_elements = system.transducer.element_count
    plan_storage = {
        "entries": n_points * n_elements,
        "float64_bytes": plan_storage_bytes(n_points, n_elements, "float64"),
        "float32_bytes": plan_storage_bytes(n_points, n_elements, "float32"),
    }

    # Tiled execution closes the storage gap: under a commodity memory
    # budget the planner streams budget-sized delay segments through the
    # byte-bounded plan cache, so the resident plan bytes never exceed the
    # budget while the swept volume is bit-identical to the untiled plan.
    budget = parse_memory_budget("8G")
    planner = TilePlanner(
        (system.volume.n_theta, system.volume.n_phi, system.volume.n_depth),
        n_elements, budget)
    memory_budget = {
        "budget_bytes": budget,
        "untiled_plan_bytes": planner.untiled_bytes,
        "n_tiles": planner.n_tiles,
        "tile_points": planner.tile_points,
        "tile_bytes": planner.tile_bytes,
        "peak_plan_bytes_bound": planner.tile_bytes,
        "fits_budget": planner.tile_bytes <= budget,
    }

    return {
        "system": system.name,
        "required_delay_rate": required_delay_rate(system),
        "plan_storage": plan_storage,
        "memory_budget": memory_budget,
        "block": {
            "adders": geometry.adder_count,
            "rounding_adders": geometry.rounding_adder_count,
            "delays_per_cycle": geometry.delays_per_cycle,
            "dataflow_matches_direct_sum": dataflow_matches,
        },
        "array": {
            "n_blocks": array.n_blocks,
            "total_adders": array.total_adders,
            "delays_per_cycle": array.delays_per_cycle,
            "peak_rate_at_200mhz": array.peak_delay_rate(200e6),
            "streaming_bram_megabits": array.total_bram_bits / 1e6,
        },
        "tablesteer_throughput": {
            "delay_rate": tablesteer.delay_rate,
            "frame_rate": tablesteer.achievable_frame_rate,
            "meets_target": tablesteer.meets_target,
        },
        "tablefree_throughput": {
            "delay_rate": tablefree.delay_rate,
            "frame_rate": tablefree.achievable_frame_rate,
            "fps_per_mhz": frames_per_second_per_mhz(system),
            "meets_target": tablefree.meets_target,
        },
        "paper_reference": {
            "required_delay_rate": 2.5e12,
            "block_adders": 136,
            "block_delays_per_cycle": 128,
            "peak_rate": 3.3e12,
            "tablesteer_frame_rate": 19.7,
            "tablefree_frame_rate": 7.8,
            "fps_per_20mhz": 1.0,
        },
    }


def run_with_real_tables(system: SystemConfig) -> dict[str, object]:
    """Drive one Fig. 4 block with real table/correction values (small systems).

    Streams an actual reference-table depth sequence through a block with the
    system's real correction coefficients for one group of scanlines, and
    verifies the emitted indices against the direct TABLESTEER computation.
    Intended for scaled-down systems in tests.
    """
    reference = ReferenceDelayTable.build(system)
    corrections = SteeringCorrections.build(system)
    nx = min(8, len(reference.grid.thetas))
    ny = min(16, len(reference.grid.phis))
    geometry = BlockGeometry(nx=nx, ny=ny)
    block = DelayComputeBlock(geometry=geometry)

    element_ix, element_iy = 0, 0
    depth_sequence = np.arange(len(reference.grid.depths))
    reference_samples = reference.delays[element_ix, element_iy, depth_sequence]
    # One correction per (theta, phi) in the block's window, for this element.
    x_corr = corrections.x_terms[element_ix, :nx, 0]
    y_corr = corrections.y_terms[element_iy, :ny]
    emitted = block.process_sequence(reference_samples, x_corr, y_corr)

    direct = np.floor(reference_samples[:, None, None]
                      + x_corr[None, :, None] + y_corr[None, None, :] + 0.5)
    return {
        "matches_direct": bool(np.array_equal(emitted, direct.astype(np.int64))),
        "emitted_shape": emitted.shape,
        "delays_per_cycle": geometry.delays_per_cycle,
    }


def run_tiled_demo(memory_budget_bytes: int | str = "256K",
                   frames: int = 2) -> dict[str, object]:
    """Execute a budgeted tiled sweep and report budget vs achieved peak.

    Runs the ``tiny`` preset once untiled and once under
    ``memory_budget_bytes`` (small enough to force several tiles), checks
    the two volume streams are bit-identical, and reports the measured
    peak resident plan bytes against the budget.  This is the executable
    counterpart of the analytic paper-scale tiling in :func:`run`.
    """
    from ..api import EngineSpec, ScanSpec, Session

    spec = EngineSpec(system="tiny", backend="vectorized")
    scan = ScanSpec(scenario="moving_point", frames=frames)
    budget = parse_memory_budget(memory_budget_bytes)

    untiled = [result.rf for result in Session(spec).stream(scan)]
    session = Session(spec.with_updates(memory_budget_bytes=budget))
    tiled = [result.rf for result in session.stream(scan)]
    stats = session.cache.stats

    bit_identical = len(tiled) == len(untiled) and all(
        np.array_equal(a, b) for a, b in zip(tiled, untiled))
    return {
        "system": "tiny",
        "frames": frames,
        "memory_budget_bytes": budget,
        "peak_plan_bytes": stats.peak_bytes,
        "within_budget": stats.peak_bytes <= budget,
        "evictions": stats.evictions,
        "bit_identical_to_untiled": bit_identical,
    }


def main(system: SystemConfig | None = None) -> None:
    """Print the throughput analysis."""
    result = run(system=system)
    print("Experiment E9: delay-generation throughput (paper system)")
    print(f"  required delay rate       : {result['required_delay_rate']:.3e} /s "
          f"(paper 2.5e12)")
    block = result["block"]
    print(f"  Fig. 4 block              : {block['adders']} adders "
          f"({block['rounding_adders']} rounding), "
          f"{block['delays_per_cycle']} delays/cycle (paper: 136 / 128)")
    array = result["array"]
    print(f"  128-block array           : {array['peak_rate_at_200mhz']:.3e} "
          f"delays/s at 200 MHz (paper 3.3e12)")
    steer = result["tablesteer_throughput"]
    free = result["tablefree_throughput"]
    print(f"  TABLESTEER frame rate     : {steer['frame_rate']:.1f} fps "
          f"(paper 19.7)")
    print(f"  TABLEFREE frame rate      : {free['frame_rate']:.1f} fps at 167 MHz "
          f"(paper 7.8); {20 * free['fps_per_mhz']:.2f} fps per 20 MHz")
    storage = result["plan_storage"]
    print(f"  compiled-plan storage     : {storage['entries']:.3e} entries -> "
          f"{storage['float64_bytes'] / 1e9:.2f} GB float64 / "
          f"{storage['float32_bytes'] / 1e9:.2f} GB float32 "
          f"(why delays must stream, Section II-B)")
    tiling = result["memory_budget"]
    print(f"  tiled under 8 GB budget   : {tiling['n_tiles']} tiles of "
          f"{tiling['tile_points']:.3e} voxels, "
          f"{tiling['tile_bytes'] / 1e9:.2f} GB resident peak "
          f"(untiled {tiling['untiled_plan_bytes'] / 1e12:.2f} TB; "
          f"fits budget: {tiling['fits_budget']})")
    demo = run_tiled_demo()
    print(f"  tiled demo (tiny preset)  : budget "
          f"{demo['memory_budget_bytes']} B -> peak "
          f"{demo['peak_plan_bytes']} B resident "
          f"(within budget: {demo['within_budget']}, "
          f"bit-identical to untiled: {demo['bit_identical_to_untiled']})")


if __name__ == "__main__":
    main()
