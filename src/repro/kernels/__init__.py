"""repro.kernels: the unified low-level beamforming kernel layer.

Every path that *consumes* delays — the classic per-scanline loop in
:mod:`repro.beamformer.das`, the ``reference``/``vectorized``/``compiled``
execution backends in :mod:`repro.runtime.backends`, and the batched
multi-frame streaming path — executes through this package, so a speedup
landed here (a dtype policy, a better gather, one day a GPU kernel) reaches
every entry point at once.

* :mod:`repro.kernels.ops` — the three primitive kernels
  (:func:`gather_interp`, :func:`apply_weights`, :func:`accumulate`), the
  precompiled :class:`GatherIndex` addressing, the uncompiled
  :func:`delay_and_sum` composition, the datapath helpers
  (``coerce_samples``, ``weigh``, ``total``) that are the only code
  applying a quantization spec at execution time, and NumPy's summation
  order (``summation_leaves``, ``combine_leaf_sums``, ``LeafLayout``) with
  the pruned ``LeafRows`` a CSR plan stores.
* :mod:`repro.kernels.plan` — :class:`BeamformingPlan`, a frozen artifact
  compiled once per ``(system, architecture, apodization, interpolation,
  precision, quantization)`` and executed per frame / per batch, over the
  :func:`receive_weights` tensor every plan of one geometry shares; a
  float nearest plan executes as one leaf-ordered CSR product of only its
  non-zero-weight entries (the shared :func:`leaf_rows`), bit for bit the
  chunked loop's ``np.sum``.  :func:`compile_plans` compiles a transmit
  scheme's firings in one pass over their shared base delays.
* :mod:`repro.kernels.precision` — the :class:`Precision` dtype policy
  (``float64`` exact / ``float32`` fast) with pinned equivalence
  tolerances.
* :mod:`repro.kernels.quantized` — the bit-true fixed-point execution
  mode: :class:`QuantizationSpec` (per-stage Q-formats + rounding/overflow
  policy).  It rides on the one :class:`BeamformingPlan` (its
  ``quantization`` field) and on :func:`delay_and_sum` (``quantization=``),
  modelling the paper's hardware datapath exactly as
  :mod:`repro.fixedpoint` does.
* :mod:`repro.kernels.compiled` — the fused Numba-jitted datapath:
  :class:`CompiledPlan` executes the same (natural-order) tensors in a
  single gather/weight/accumulate pass per focal point,
  ``prange``-parallel over voxel blocks.  Optional: importable (and
  introspectable) without numba, but building a plan raises
  :class:`BackendUnavailable` unless numba is installed.
* :mod:`repro.kernels.tiling` — memory-budgeted tiling:
  :class:`TilePlanner` splits any grid into budget-sized :class:`Tile`
  ranges from per-point plan cost; the plan-backed runtime backends
  stream per-tile segment plans (NumPy or compiled) through a
  byte-budgeted plan cache — the software analogue of the paper's
  on-the-fly delay generation (see ``docs/memory.md``).
"""

from .compiled import (
    BackendUnavailable,
    CompiledOptions,
    CompiledPlan,
    numba_available,
)
from .ops import (
    GatherIndex,
    accumulate,
    apply_weights,
    build_gather_index,
    delay_and_sum,
    gather_interp,
)
from .plan import (
    BeamformingPlan,
    compile_plan,
    compile_plans,
    leaf_rows,
    plan_key,
    plan_storage_bytes,
    receive_weights,
)
from .precision import TOLERANCES, Precision, Tolerance, resolve_precision
from .quantized import QuantizationSpec, parse_qformat
from .tiling import Tile, TilePlanner, parse_memory_budget

__all__ = [
    "BackendUnavailable",
    "BeamformingPlan",
    "CompiledOptions",
    "CompiledPlan",
    "GatherIndex",
    "Precision",
    "QuantizationSpec",
    "TOLERANCES",
    "Tile",
    "TilePlanner",
    "Tolerance",
    "accumulate",
    "apply_weights",
    "build_gather_index",
    "compile_plan",
    "compile_plans",
    "delay_and_sum",
    "gather_interp",
    "leaf_rows",
    "numba_available",
    "parse_memory_budget",
    "parse_qformat",
    "plan_key",
    "plan_storage_bytes",
    "receive_weights",
    "resolve_precision",
]
