"""The one place process-parallel code gets its multiprocessing context.

Python's default start method differs across platforms (``fork`` on Linux
until 3.14, ``spawn`` on macOS/Windows), and forked workers inherit an
arbitrary snapshot of the parent — thread locks mid-acquire, BLAS thread
pools, open shared-memory handles — which is exactly the class of
platform-dependent behaviour a bit-pinned reproduction cannot tolerate.
Everything in this repo that creates processes or process-shared state
— the server's shared-memory frame ring (:mod:`repro.server.ring`), whose
segments spawned producers attach to by name, and the sweep executor's
spawn workers (:class:`repro.sweep.SweepExecutor` with ``workers > 1``) —
therefore resolves its context through :func:`spawn_context` instead of
touching :mod:`multiprocessing` directly, so the start method is pinned to
``spawn`` in exactly one line.

``tests/test_mp.py`` enforces the "one place" rule mechanically: it scans
``src/repro`` for stray ``get_context``/``set_start_method``/``Process(``
uses outside this module and fails on any, and round-trips frames through
a spawned producer to prove the pinned method actually works end to end.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.context import BaseContext

__all__ = ["START_METHOD", "spawn_context"]

START_METHOD = "spawn"
"""The pinned start method (identical on Linux/macOS/Windows).

Deliberately not configurable: ``fork`` would make worker behaviour (and
worker crashes) platform-specific, and ``forkserver`` does not exist on
Windows.  Code that needs a context imports :func:`spawn_context`; nothing
in the repo may call :func:`multiprocessing.set_start_method`, which would
mutate *global* interpreter state out from under the host application.
"""


def spawn_context() -> BaseContext:
    """The process-wide ``spawn`` multiprocessing context.

    A plain accessor rather than a module-level constant so importing this
    module stays side-effect free; ``multiprocessing.get_context`` itself
    memoises the context object.
    """
    return multiprocessing.get_context(START_METHOD)
