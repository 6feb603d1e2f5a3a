"""Keeping the cyclic garbage collector off a run's long-lived objects.

A run builds its topology, members, routers and compiled rules once and
then steps intervals for as long as it lasts.  Every full collection
would walk all of that set-up again, although none of it becomes garbage
before the run ends.  :func:`frozen_heap` moves everything alive when
set-up ends into the collector's permanent generation (``gc.freeze()``),
so collections during the run only walk what the intervals allocate.
Reference counting still frees frozen objects; only cycles among them
wait until the heap is unfrozen.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager


@contextmanager
def frozen_heap() -> Iterator[None]:
    """Freeze the heap for the body, and unfreeze it on the way out.

    Exiting unfreezes even when the body raises.  If the heap is already
    frozen — an enclosing ``frozen_heap`` or the caller's own
    ``gc.freeze()`` — this does nothing, and that freeze stays in place.
    """
    if gc.get_freeze_count():
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()

