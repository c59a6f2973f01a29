"""Fixture: lock discipline honoured -- the GB1xx family stays quiet.

Parsed by the analyzer in tests; never imported or executed.
"""

import threading


class GoodCounter:
    """Guarded attributes touched only under their declared locks."""

    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition()
        self._count = 0  # guarded-by: _lock
        self._items = []  # guarded-by: _cond

    def bump(self):
        with self._lock:
            self._count += 1

    def peek(self):  # lock-held: _lock
        return self._count

    def drain(self):  # loop-thread-only
        # Guarded state is what threads share: a thread-only method still locks.
        with self._lock:
            return self._count + 1

    def consume(self):
        with self._cond:
            while not self._items:
                self._cond.wait()
            return self._items.pop()

    def produce(self, item):
        with self._cond:
            self._items.append(item)
            self._cond.notify_all()
