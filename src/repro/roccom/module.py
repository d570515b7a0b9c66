"""Service-module protocol and the uniform I/O interface contract.

Every interchangeable I/O service module (Rocpanda, Rochdf, T-Rochdf)
implements :class:`ServiceModule` and, on ``load``, creates a window
named by ``window_name`` (default ``"OUT"``) exposing the three
file-format-independent collective operations of §5:

* ``write_attribute(window_name, attr_names, path, file_attrs=None)``
* ``read_attribute(window_name, attr_names, path_or_prefix)`` — one
  window and its prefix, or equal-length tuples of them: a whole
  snapshot restored by one collective call
* ``sync()`` — wait for previously issued (overlapped) output

Because every module registers the same function names under the same
window, application code written against ``COM_call_function`` is
untouched when the module is swapped.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["ServiceModule", "IO_WINDOW", "IO_FUNCTIONS"]

#: Conventional window name under which I/O services register.
IO_WINDOW = "OUT"

#: The uniform collective I/O interface (§5).
IO_FUNCTIONS = ("write_attribute", "read_attribute", "sync")


class ServiceModule:
    """Base class for loadable service modules."""

    #: Unique module name (subclasses must override).
    name: str = ""

    def load(self, com, *args, **kwargs) -> None:
        raise NotImplementedError

    def unload(self, com) -> None:
        raise NotImplementedError

    # -- helpers shared by the I/O modules ----------------------------------
    def _register_io_window(self, com, window_name: str = IO_WINDOW) -> None:
        window = com.new_window(window_name)
        for func in IO_FUNCTIONS:
            window.register_function(func, getattr(self, func))

    def _deregister_io_window(self, com, window_name: str = IO_WINDOW) -> None:
        com.delete_window(window_name)
