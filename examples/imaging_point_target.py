"""End-to-end imaging example: phantom -> echoes -> beamforming -> image.

Simulates a point-target phantom and images it with the exact, TABLEFREE
and TABLESTEER delay architectures through one shared
:class:`repro.api.Session` — the channel data are simulated once, so the
printed differences (peak location, axial/lateral resolution, normalised
RMS difference) come from delay generation alone.  Prints an ASCII
B-mode-style image of the exact-delay reconstruction.

Usage::

    python examples/imaging_point_target.py [--off-axis]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.api import EngineSpec, Session
from repro.acoustics import point_target
from repro.beamformer import (
    log_compress,
    normalized_rms_difference,
    point_spread_metrics,
)

ASCII_SHADES = " .:-=+*#%@"

ARCHITECTURES_TO_COMPARE = ("exact", "tablefree", "tablesteer")


def ascii_image(db_image: np.ndarray, dynamic_range: float = 40.0) -> str:
    """Render a log-compressed image as ASCII art (theta across, depth down)."""
    normalised = (db_image + dynamic_range) / dynamic_range
    normalised = np.clip(normalised, 0.0, 1.0)
    levels = (normalised * (len(ASCII_SHADES) - 1)).astype(int)
    rows = []
    for depth_row in levels.T:          # depth down the page
        rows.append("".join(ASCII_SHADES[level] for level in depth_row))
    return "\n".join(rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--off-axis", action="store_true",
                        help="place the target off axis (steered), where the "
                             "TABLESTEER approximation error is largest")
    args = parser.parse_args()

    session = Session(EngineSpec(system="small"))
    grid = session.grid

    # Put the target on a grid node so the comparison is purely about delays.
    i_depth = int(0.6 * len(grid.depths))
    i_theta = len(grid.thetas) - 2 if args.off_axis else len(grid.thetas) // 2
    depth = float(grid.depths[i_depth])
    theta = float(grid.thetas[i_theta])
    print(f"Point target at depth {1e3 * depth:.1f} mm, "
          f"theta {np.degrees(theta):.1f} deg")

    phantom = point_target(depth=depth, theta=theta)
    channel_data = session.acquire(phantom)
    print(f"Simulated {channel_data.element_count} channels x "
          f"{channel_data.sample_count} samples of RF data\n")

    # One acquisition, one shared grid/transducer — three delay engines.
    images = {name: session.pipeline(architecture=name)
              .image_plane(channel_data)
              for name in ARCHITECTURES_TO_COMPARE}

    reference = images["exact"]
    for name, image in images.items():
        peak_theta, peak_depth = np.unravel_index(np.argmax(image), image.shape)
        axial = point_spread_metrics(image[peak_theta, :])
        lateral = point_spread_metrics(image[:, peak_depth])
        line = (f"{name:15s} peak at (theta {peak_theta:2d}, depth {peak_depth:3d}), "
                f"axial FWHM {axial.fwhm_samples:5.1f} px, "
                f"lateral FWHM {lateral.fwhm_samples:4.1f} px")
        if name != "exact":
            nrms = normalized_rms_difference(reference, image)
            line += f", NRMS vs exact {nrms:.3f}"
        print(line)

    print("\nExact-delay image (theta across, depth down, 40 dB range):\n")
    print(ascii_image(log_compress(reference, 40.0)))


if __name__ == "__main__":
    main()
