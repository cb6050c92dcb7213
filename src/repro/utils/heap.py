"""The analysis heap's one garbage-collector policy.

Analysis allocates millions of small expression nodes and makes no
reference cycles: a block's symbolic state dies when the block ends
and a function's when its summary exists (paper Algorithm 2), so
reference counting alone frees it.  ``tests/test_heap.py`` scans the
golden corpus under ``gc.DEBUG_SAVEALL`` to keep it that way.  The
cyclic collector's generational scans over that heap find nothing and
cost a fifth of a cold scan, so analysis entry points run with it
paused.
"""

import functools
import gc


def gc_paused(func):
    """Run ``func`` with the cyclic garbage collector off.

    When the collector is already off (a paused caller up the stack,
    or a process that turned it off itself) this just calls ``func``.
    Otherwise the collector is turned back on when ``func`` returns or
    raises, without a collection: the paused work made no cycles.
    """

    @functools.wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused
