"""Exception types for the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for errors raised by the DES kernel itself."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at ``until``."""

    def __init__(self, value=None):
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The interrupting party supplies ``cause``, available as
    ``exc.cause`` in the interrupted process.
    """

    def __init__(self, cause=None):
        super().__init__(cause)

    @property
    def cause(self):
        return self.args[0]
