"""Single-heap oracle for the pop order of :class:`repro.des.Environment`.

Every schedule is one ``heappush`` of ``(time, priority, eid, entry)``;
the production pop loop degrades to a plain heap when the now ladder is
empty, and ``schedule_callback`` and ``sleep`` go through ``schedule``,
so nothing else is overridden.
"""

from heapq import heappush

from repro.des import NORMAL, Environment


class HeapEnvironment(Environment):
    def schedule(self, event, priority=NORMAL, delay=0.0):
        heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )
