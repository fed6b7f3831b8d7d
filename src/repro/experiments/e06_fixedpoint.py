"""Experiment E6: fixed-point representation impact (Section VI-A).

Paper claims: with the TABLESTEER datapath summing three values (reference
delay + two steering corrections), the index error versus a high-precision
computation is at most +/-1 sample; ~33 % of echo samples are affected when
delays are stored as plain 13-bit integers, and fewer than 2 % with the
18-bit (13.5) representation.
"""

from __future__ import annotations

import os

from ..analysis.fixedpoint_impact import (
    fixed_point_impact,
    fixed_point_sweep,
    kernel_fixed_point_sweep,
)
from ..config import SystemConfig, paper_system, tiny_system


def run(system: SystemConfig | None = None,
        n_samples: int = 1_000_000,
        seed: int = 2015,
        kernel_system: SystemConfig | None = None,
        store: str | None = None) -> dict[str, object]:
    """Monte-Carlo the fixed-point impact at the paper's two design points.

    Alongside the paper's Monte-Carlo over random delay triples, the same
    bit-width sweep is executed through the bit-true quantized kernel path
    (:func:`repro.analysis.fixedpoint_impact.kernel_fixed_point_sweep`):
    real TABLESTEER delay tensors at each width, compiled into a plan
    carrying that width's ``QuantizationSpec`` and compared against the
    unquantised plan.  The
    kernel sweep runs on a scaled preset (``kernel_system``, default
    ``tiny``) because it compiles full delay tensors; the error trends are
    scale-free.  ``store`` (a :class:`repro.sweep.SweepStore` directory)
    opts the kernel sweep into content-addressed reuse across runs.
    """
    system = system or paper_system()
    max_delay = float(system.echo_buffer_samples)
    result_13 = fixed_point_impact(13, n_samples=n_samples,
                                   max_delay_samples=max_delay, seed=seed)
    result_18 = fixed_point_impact(18, n_samples=n_samples,
                                   max_delay_samples=max_delay, seed=seed)
    sweep = fixed_point_sweep(n_samples=max(50_000, n_samples // 5), seed=seed)
    kernel_sweep = kernel_fixed_point_sweep(kernel_system or tiny_system(),
                                            store=store)
    return {
        "system": system.name,
        "bits_13": result_13.as_dict(),
        "bits_18": result_18.as_dict(),
        "sweep": [entry.as_dict() for entry in sweep],
        "kernel_sweep": [entry.as_dict() for entry in kernel_sweep],
        "paper_reference": {
            "affected_fraction_13b": 0.33,
            "affected_fraction_18b": 0.02,
            "max_index_error": 1,
        },
    }


def main(system: SystemConfig | None = None) -> None:
    """Print the fixed-point impact results.

    Setting ``REPRO_SWEEP_STORE`` routes the kernel-path sweep through the
    content-addressed store, so reruns skip the per-width plan compiles.
    """
    store = os.environ.get("REPRO_SWEEP_STORE") or None
    result = run(system=system, n_samples=1_000_000, store=store)
    print("Experiment E6: fixed-point impact on delay selection")
    r13, r18 = result["bits_13"], result["bits_18"]
    print(f"  13-bit integers : {100 * r13['affected_fraction']:.1f}% of samples "
          f"shifted (max {r13['max_index_error']:.0f})  [paper: ~33%, max 1]")
    print(f"  18-bit (13.5)   : {100 * r18['affected_fraction']:.1f}% of samples "
          f"shifted (max {r18['max_index_error']:.0f})  [paper: <2%, max 1]")
    print("  Monte-Carlo sweep:")
    for entry in result["sweep"]:
        print(f"    {entry['total_bits']:.0f} bits -> "
              f"{100 * entry['affected_fraction']:.2f}% affected")
    print("  kernel-path sweep (bit-true quantized plan, tiny preset):")
    for entry in result["kernel_sweep"]:
        print(f"    {entry['total_bits']:.0f} bits -> "
              f"{100 * entry['affected_fraction']:.2f}% of gather indices "
              f"shifted (max {entry['max_index_error']:.0f}), volume RMS "
              f"{100 * entry['volume_rms_error']:.3f}% of peak")


if __name__ == "__main__":
    main()
