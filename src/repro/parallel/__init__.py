"""The one supervised process pool, for experiment sweeps and the service.

:func:`parallel_map` runs a sweep on a :class:`~.pool.Supervisor`:
per-attempt deadlines, bounded retries with backoff, worker-crash
isolation, and a completion hook for durable incremental persistence
(see :class:`repro.checkpoint.ResultsLedger`).  The simulation service
(:mod:`repro.service.pool`) runs its requests on the same supervisor.
"""

from .pool import DEFAULT_POOL_BACKOFF, default_workers, parallel_map

__all__ = ["DEFAULT_POOL_BACKOFF", "parallel_map", "default_workers"]
