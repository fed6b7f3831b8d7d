"""FPGA device descriptions.

The paper targets the largest Xilinx Virtex-7, the XC7VX1140T (speed grade
-2), and projects the TABLEFREE architecture onto the then-upcoming
UltraScale parts with roughly twice the LUT count.  These device descriptions
carry the resource capacities the analytical cost models are measured
against; they replace the Vivado synthesis backend used by the authors.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FpgaDevice:
    """Capacity description of an FPGA device."""

    name: str
    luts: int
    """Number of 6-input LUTs."""

    registers: int
    """Number of flip-flops."""

    bram_bits: int
    """Total Block RAM capacity in bits."""

    bram_blocks: int
    """Number of 36 Kb BRAM blocks."""

    dsp_slices: int
    """Number of DSP48 slices."""

    max_clock_hz: float
    """Practical upper bound on the datapath clock for this family [Hz]."""

    @property
    def bram_megabits(self) -> float:
        """Block RAM capacity in megabits."""
        return self.bram_bits / 1e6

    def utilization(self, luts: float = 0, registers: float = 0,
                    bram_bits: float = 0, dsp_slices: float = 0) -> dict[str, float]:
        """Fractional utilisation of each resource for a given demand."""
        return {
            "luts": luts / self.luts,
            "registers": registers / self.registers,
            "bram": bram_bits / self.bram_bits,
            "dsp": dsp_slices / self.dsp_slices if self.dsp_slices else 0.0,
        }

    def fits(self, luts: float = 0, registers: float = 0,
             bram_bits: float = 0, dsp_slices: float = 0) -> bool:
        """True if the demand fits within the device."""
        used = self.utilization(luts=luts, registers=registers,
                                bram_bits=bram_bits, dsp_slices=dsp_slices)
        return all(fraction <= 1.0 + 1e-9 for fraction in used.values())


def virtex7_xc7vx1140t() -> FpgaDevice:
    """Xilinx Virtex-7 XC7VX1140T (the paper's evaluation target).

    712k LUTs, 1.42 M flip-flops, 1880 x 36 Kb BRAM (~67.7 Mb), 3360 DSPs.
    """
    return FpgaDevice(
        name="XC7VX1140T-2",
        luts=712_000,
        registers=1_424_000,
        bram_bits=int(67.7e6),
        bram_blocks=1880,
        dsp_slices=3360,
        max_clock_hz=400e6,
    )


def virtex_ultrascale_projection() -> FpgaDevice:
    """Projection of the 20 nm Virtex UltraScale family used in Section VI-B.

    The paper notes UltraScale devices carry roughly twice the LUT count of
    Virtex-7, which is what lets it project 10-15 fps for TABLEFREE with
    100x100 channels.
    """
    base = virtex7_xc7vx1140t()
    return FpgaDevice(
        name="Virtex-UltraScale (projected)",
        luts=base.luts * 2,
        registers=base.registers * 2,
        bram_bits=int(base.bram_bits * 1.9),
        bram_blocks=int(base.bram_blocks * 1.9),
        dsp_slices=base.dsp_slices * 2,
        max_clock_hz=500e6,
    )
