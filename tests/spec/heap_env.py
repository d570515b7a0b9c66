"""Single-heap oracle for the pop order of :class:`repro.des.Environment`.

Every schedule is one ``heappush`` of ``(time, priority, eid, entry)``;
the production pop loop degrades to a plain heap when only ``_queue``
is populated, so nothing else is overridden.  Bulk callbacks are never
fused: one entry each.
"""

from heapq import heappush

from repro.des import NORMAL, Environment
from repro.des.core import _Bulk


class HeapEnvironment(Environment):
    def schedule(self, event, priority=NORMAL, delay=0.0):
        heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def schedule_many(self, events, priority=NORMAL, delay=0.0):
        for event in events:
            self.schedule(event, priority, delay)

    def schedule_callback(self, fn, arg=None, priority=NORMAL, delay=0.0):
        bulk = _Bulk()
        bulk.callbacks.append((fn, arg))
        self.schedule(bulk, priority, delay)
