"""Fixture: the single-thread contract honoured -- GB105/GB106 stay quiet.

Parsed by the analyzer in tests; never imported or executed.
"""

import threading


class GoodSplit:
    """Engine thread and event loop, each touching only its own state."""

    def __init__(self, engine, loop):
        self.engine = engine  # engine-thread-only: step, cancel
        self._loop = loop
        self._cond = threading.Condition()
        self._inbox = []  # guarded-by: _cond
        self._streams = {}  # loop-thread-only
        # loop-thread-only
        self.accepted = 0

    def _engine_main(self):  # engine-thread-only
        with self._cond:
            while not self._inbox:
                self._cond.wait()
            commands, self._inbox = self._inbox, []
        for request_id in commands:
            self.engine.cancel(request_id)
        self.engine.step(on_token=self._on_token)

    def _on_token(self, token):  # engine-thread-only
        # A reference handed to the other thread, not a call.
        self._loop.call_soon_threadsafe(self._deliver, token)

    def _deliver(self, token):  # loop-thread-only
        self.accepted += 1
        self._streams.pop(token, None)
        self._post(token)

    def _post(self, request_id):  # loop-thread-only
        self.engine.submit(request_id)  # not a listed member: shared
        with self._cond:
            self._inbox.append(request_id)
            self._cond.notify()

    def describe(self):
        return repr(self.engine)
