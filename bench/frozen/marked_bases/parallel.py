"""Optional thread fan-out for independent pure computations.

MARKED_BASES_THREADS caps the worker count.  The default is 1 (serial):
the workloads are pure Python and CPU-bound, so threads only help when a
caller knows better (e.g. coefficient domains that release the GIL).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_cap() -> int:
    raw = os.environ.get("MARKED_BASES_THREADS", "")
    try:
        cap = int(raw)
    except ValueError:
        return 1
    return max(cap, 1)


def parallel_map(fn, items):
    """Map preserving order; uses a thread pool only when the cap allows."""
    items = list(items)
    cap = thread_cap()
    if cap <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(cap, len(items))) as pool:
        return list(pool.map(fn, items))
