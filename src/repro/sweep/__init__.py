"""Batched bid sweeps: grids of bids × stacks of traces in one shot.

This package is the scaling substrate over the scalar
:mod:`repro.market.fastpath` oracle:

* :mod:`repro.sweep.kernels` — slot-batched NumPy kernels, bitwise
  identical to the oracle, vectorized over the bid (and trace) axes.
* :mod:`repro.sweep.engine` — :func:`run_sweep` front door with ragged
  trace stacking, per-trace start slots and paired bids.
* :mod:`repro.sweep.shards` — the shard driver under :func:`run_sweep`
  and :func:`repro.mapreduce.run_plan_grid`: row-span journal resume,
  serial / thread / process-pool waves and bisection of failing shards.
* :mod:`repro.sweep.report` — :class:`SweepReport` per-cell arrays plus
  :class:`SweepCounters` (slots simulated, kernel seconds, cache hits).
* :mod:`repro.sweep.cache` — memoized ``EmpiricalPriceDistribution``
  construction shared by the client and CLI layers.
"""

from .cache import (
    cached_distribution,
    clear_distribution_cache,
    distribution_cache_stats,
)
from .compiled import COMPILED_AVAILABLE
from .engine import run_sweep
from .kernels import (
    onetime_sweep_kernel,
    onetime_sweep_kernel_compiled,
    onetime_sweep_kernel_reference,
    persistent_sweep_kernel,
    persistent_sweep_kernel_compiled,
    persistent_sweep_kernel_reference,
)
from .report import SweepCounters, SweepReport
from .shm import SharedPriceStack, StackDescriptor

__all__ = [
    "COMPILED_AVAILABLE",
    "cached_distribution",
    "clear_distribution_cache",
    "distribution_cache_stats",
    "run_sweep",
    "onetime_sweep_kernel",
    "onetime_sweep_kernel_compiled",
    "onetime_sweep_kernel_reference",
    "persistent_sweep_kernel",
    "persistent_sweep_kernel_compiled",
    "persistent_sweep_kernel_reference",
    "SharedPriceStack",
    "StackDescriptor",
    "SweepCounters",
    "SweepReport",
]
