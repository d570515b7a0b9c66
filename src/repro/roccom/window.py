"""Windows and panes: Roccom's distributed data objects.

A :class:`Window` encapsulates data members (mesh + field attributes)
and public functions of a module.  In a parallel setting a window is
partitioned into :class:`Pane` s; each pane is owned by one process and
a process may own any number of panes (§5).  This module is the
*local* view: a process's Roccom registry holds the window with only
the locally-owned panes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

from .attribute import (
    LOC_ELEMENT,
    LOC_NODE,
    LOC_PANE,
    LOC_WINDOW,
    AttributeSpec,
)

__all__ = ["Pane", "Window"]


class Pane:
    """One data block: the locally-owned piece of a window.

    ``nnodes``/``nelems`` size the node- and element-located attribute
    arrays.  Arrays are stored by attribute name.
    """

    def __init__(self, pane_id: int, nnodes: int, nelems: int):
        if pane_id < 0:
            raise ValueError("pane id must be >= 0")
        if nnodes < 0 or nelems < 0:
            raise ValueError("sizes must be >= 0")
        self.id = pane_id
        self.nnodes = nnodes
        self.nelems = nelems
        self._arrays: Dict[str, np.ndarray] = {}

    def nitems(self, location: str) -> int:
        if location == LOC_NODE:
            return self.nnodes
        if location == LOC_ELEMENT:
            return self.nelems
        raise ValueError(f"no item count for location {location!r}")

    def resize(self, nnodes: Optional[int] = None, nelems: Optional[int] = None) -> None:
        """Change mesh sizes (adaptive refinement); drops stale arrays.

        Mesh blocks "change as the propellant burns in the simulation,
        requiring adaptive refinement over time" (§3.2); the I/O path
        re-reads whatever arrays are registered at output time, so no
        re-registration with the I/O library is ever needed (§4.1).
        """
        if nnodes is not None and nnodes != self.nnodes:
            self.nnodes = nnodes
            self._drop_stale(LOC_NODE)
        if nelems is not None and nelems != self.nelems:
            self.nelems = nelems
            self._drop_stale(LOC_ELEMENT)

    def _drop_stale(self, location: str) -> None:
        # The window tracks specs; the pane only knows names, so the
        # window calls back into _set/_get.  Stale arrays are removed
        # lazily by Window.set_array validation; here we clear arrays
        # whose first dimension no longer matches.
        for name in list(self._arrays):
            arr = self._arrays[name]
            if location == LOC_NODE and arr.shape[0] == self.nnodes:
                continue
            if location == LOC_ELEMENT and arr.shape[0] == self.nelems:
                continue
            # Conservatively keep arrays that still match either size.
            if arr.shape[0] in (self.nnodes, self.nelems):
                continue
            del self._arrays[name]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays.values())

    def __repr__(self) -> str:
        return f"<Pane {self.id}: {self.nnodes} nodes, {self.nelems} elems>"


class Window:
    """A named collection of attribute specs, panes, and functions."""

    def __init__(self, name: str):
        if not name or "." in name:
            raise ValueError(f"bad window name {name!r} ('.' reserved)")
        self.name = name
        self._specs: Dict[str, AttributeSpec] = {}
        self._panes: Dict[int, Pane] = {}
        self._functions: Dict[str, Callable] = {}
        self._window_values: Dict[str, Any] = {}

    # -- attribute declaration ---------------------------------------------
    def declare_attribute(self, spec: AttributeSpec) -> AttributeSpec:
        if spec.name in self._specs:
            raise ValueError(f"attribute {spec.name!r} already declared on {self.name!r}")
        self._specs[spec.name] = spec
        return spec

    def attribute(self, name: str) -> AttributeSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(f"window {self.name!r} has no attribute {name!r}") from None

    def attribute_names(self) -> List[str]:
        return list(self._specs)

    # -- panes ------------------------------------------------------------
    def register_pane(self, pane_id: int, nnodes: int, nelems: int) -> Pane:
        if pane_id in self._panes:
            raise ValueError(f"pane {pane_id} already registered on {self.name!r}")
        pane = Pane(pane_id, nnodes, nelems)
        self._panes[pane_id] = pane
        return pane

    def deregister_pane(self, pane_id: int) -> None:
        """Remove a pane (block migrated away under load balancing)."""
        try:
            del self._panes[pane_id]
        except KeyError:
            raise KeyError(f"no pane {pane_id} on window {self.name!r}") from None

    def pane(self, pane_id: int) -> Pane:
        try:
            return self._panes[pane_id]
        except KeyError:
            raise KeyError(f"no pane {pane_id} on window {self.name!r}") from None

    def pane_ids(self) -> List[int]:
        return sorted(self._panes)

    def panes(self) -> Iterator[Pane]:
        for pane_id in sorted(self._panes):
            yield self._panes[pane_id]

    @property
    def npanes(self) -> int:
        return len(self._panes)

    # -- data access ---------------------------------------------------------
    def set_array(self, attr_name: str, pane_id: int, array: np.ndarray) -> None:
        """Register (or replace) a pane's array for a declared attribute."""
        spec = self.attribute(attr_name)
        if spec.location == LOC_WINDOW:
            raise ValueError(
                f"{attr_name!r} is window-located; use set_window_value"
            )
        pane = self.pane(pane_id)
        array = np.asarray(array)
        if spec.location in (LOC_NODE, LOC_ELEMENT):
            spec.validate(array, pane.nitems(spec.location))
        else:  # LOC_PANE: free-size, dtype checked only
            if np.dtype(spec.dtype) != array.dtype:
                raise ValueError(
                    f"attribute {attr_name!r}: dtype {array.dtype} != declared {spec.dtype}"
                )
        pane._arrays[attr_name] = array

    def get_array(self, attr_name: str, pane_id: int) -> np.ndarray:
        # Hot path (physics kernels hit this per field per block per
        # step): plain dict lookups, diagnose failures only on miss.
        spec = self._specs.get(attr_name)
        if spec is None:
            raise KeyError(f"window {self.name!r} has no attribute {attr_name!r}")
        if spec.location == LOC_WINDOW:
            raise ValueError(f"{attr_name!r} is window-located; use get_window_value")
        pane = self._panes.get(pane_id)
        if pane is None:
            raise KeyError(f"no pane {pane_id} on window {self.name!r}")
        try:
            return pane._arrays[attr_name]
        except KeyError:
            raise KeyError(
                f"pane {pane_id} of {self.name!r} has no data for {attr_name!r}"
            ) from None

    def has_array(self, attr_name: str, pane_id: int) -> bool:
        return attr_name in self.pane(pane_id)._arrays

    def set_window_value(self, attr_name: str, value: Any) -> None:
        spec = self.attribute(attr_name)
        if spec.location != LOC_WINDOW:
            raise ValueError(f"{attr_name!r} is not window-located")
        self._window_values[attr_name] = value

    def get_window_value(self, attr_name: str) -> Any:
        spec = self.attribute(attr_name)
        if spec.location != LOC_WINDOW:
            raise ValueError(f"{attr_name!r} is not window-located")
        try:
            return self._window_values[attr_name]
        except KeyError:
            raise KeyError(f"window value {attr_name!r} not set on {self.name!r}") from None

    # -- functions ---------------------------------------------------------
    def register_function(self, func_name: str, fn: Callable) -> None:
        if "." in func_name:
            raise ValueError("function name must not contain '.'")
        if func_name in self._functions:
            raise ValueError(
                f"function {func_name!r} already registered on {self.name!r}"
            )
        self._functions[func_name] = fn

    def function(self, func_name: str) -> Callable:
        try:
            return self._functions[func_name]
        except KeyError:
            raise KeyError(
                f"window {self.name!r} has no function {func_name!r}"
            ) from None

    def function_names(self) -> List[str]:
        return list(self._functions)

    @property
    def local_nbytes(self) -> int:
        return sum(p.nbytes for p in self._panes.values())

    def __repr__(self) -> str:
        return (
            f"<Window {self.name!r}: {len(self._specs)} attrs, "
            f"{len(self._panes)} panes, {len(self._functions)} functions>"
        )
