"""Compatibility shim: the worker-process pool has been removed.

Kernels run serially or on the thread pool of
:class:`~repro.core.executor.ParallelExecutor`; this module keeps the one
name callers still import.
"""


def shutdown_process_pools() -> None:
    """No-op: there are no worker-process pools to tear down."""
