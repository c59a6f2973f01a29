"""Fixture: the single-thread contract rules (GB105/GB106) and the lock rule
inside a thread-only method (GB101) fire exactly where the tests expect.

Parsed by the analyzer in tests; never imported or executed.
"""

import threading


class BadSplit:
    """A two-thread front-end that crosses its own declared boundaries."""

    def __init__(self, engine, loop):
        self.engine = engine  # engine-thread-only: step, cancel
        self._loop = loop
        self._cond = threading.Condition()
        self._inbox = []  # guarded-by: _cond
        self._streams = {}  # loop-thread-only
        self.accepted = 0  # loop-thread-only

    def _engine_main(self):  # engine-thread-only
        commands = self._inbox  # GB101: thread-only is not a lock
        self.engine.step()
        self._streams.clear()  # GB105: the loop thread's state
        self._deliver(commands)  # GB106: direct cross-thread call

    def _deliver(self, frames):  # loop-thread-only
        self.accepted += 1
        self.engine.cancel(0)  # GB105: an engine-thread member
        self.engine.submit(frames)

    def snapshot(self):
        return len(self._streams)  # GB105: no declared thread at all

    def snapshot_suppressed(self):
        return self.accepted  # repro-analysis: ignore[GB105]

    def _on_token(self, token):  # engine-thread-only
        self._loop.call_soon_threadsafe(lambda: self._streams.pop(token))  # GB105: escapes
