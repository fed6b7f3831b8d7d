"""Synthetic-aperture acquisition: multi-origin imaging and its table cost.

Section V of the paper notes that TABLESTEER assumes a fixed transmit origin;
synthetic-aperture schemes that move the origin between insonifications need
one reference delay table per origin ("at extra hardware cost"), whereas
TABLEFREE computes the transmit term on the fly and is indifferent to the
origin — an advantage the conclusions call out.

This example makes both halves concrete:

1. it acquires a point-target volume with diverging waves from virtual
   sources behind the probe (the ``diverging`` transmit scheme) and
   coherently compounds the per-firing volumes, showing the imaging chain
   supports synthetic aperture end to end;
2. it tabulates how the TABLESTEER reference-table storage grows with the
   number of distinct origins for the paper-scale system, versus TABLEFREE's
   constant (zero) table cost.

Usage::

    python examples/synthetic_aperture.py
"""

from __future__ import annotations

import numpy as np

from repro import paper_system
from repro.acoustics import point_target
from repro.api import EngineSpec, Session
from repro.beamformer import envelope, point_spread_metrics
from repro.core import OriginSchedule, synthetic_aperture_cost_comparison
from repro.pipeline import InsonificationPlan, acquisition_summary


def imaging_demo() -> None:
    focused = Session(EngineSpec(system="tiny"))
    system, grid = focused.system, focused.grid
    depth = float(grid.depths[len(grid.depths) // 2])
    phantom = point_target(depth=depth)

    print("1. Multi-origin (diverging-wave) acquisition and coherent "
          "compounding")
    print(f"   system: {system.transducer.elements_x}x"
          f"{system.transducer.elements_y} elements, "
          f"{system.volume.n_theta}x{system.volume.n_phi}x"
          f"{system.volume.n_depth} focal points")
    print(f"   point target at {1e3 * depth:.1f} mm\n")

    # The diverging scheme fires from OriginSchedule's virtual sources
    # behind the probe, one transmit origin per firing.
    diverging = Session(EngineSpec(system="tiny", scheme="diverging",
                                   scheme_options={"count": 4}))
    for label, session in (("single centred origin", focused),
                           ("4 virtual sources", diverging)):
        volume = session.pipeline().image_scheme(phantom).rf
        # Every firing is beamformed over the whole volume.
        events = session.scheme.events
        plan = InsonificationPlan(
            schedule=OriginSchedule([event.origin for event in events]),
            scanline_groups=(np.arange(system.volume.scanline_count),)
            * len(events))
        summary = acquisition_summary(system, plan)
        centre_plane = envelope(volume[:, system.volume.n_phi // 2, :], axis=1)
        axial = point_spread_metrics(centre_plane[np.argmax(
            np.max(centre_plane, axis=1))])
        print(f"   {label}:")
        print(f"     insonifications/volume : "
              f"{summary['insonifications_per_volume']:.0f} "
              f"({summary['distinct_origins']:.0f} distinct origins)")
        print(f"     axial peak index       : {axial.peak_index} "
              f"(target at {system.volume.n_depth // 2})")
        print(f"     axial FWHM             : {axial.fwhm_samples:.1f} samples")
    print()


def cost_demo() -> None:
    system = paper_system()
    print("2. Delay-table cost vs number of transmit origins (paper system)")
    rows = synthetic_aperture_cost_comparison(system, (1, 2, 4, 8, 16, 32))
    print(f"   {'origins':>8s}  {'TABLESTEER tables':>18s}  {'TABLEFREE':>10s}")
    for row in rows:
        print(f"   {row['origins']:8.0f}  "
              f"{row['tablesteer_megabits_18b']:14.1f} Mb  "
              f"{row['tablefree_megabits']:7.1f} Mb")
    print()
    print("   Off-centre origins additionally lose the four-fold symmetry")
    print("   pruning, which is why the growth is super-linear; TABLEFREE's")
    print("   cost is independent of the origin schedule (its advantage for")
    print("   advanced imaging modes, per the paper's conclusions).")


def main() -> None:
    imaging_demo()
    cost_demo()


if __name__ == "__main__":
    main()
