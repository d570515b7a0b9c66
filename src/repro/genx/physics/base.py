"""Physics-module base: window management + compute-cost accounting.

Each physics module owns one Roccom window holding its mesh and field
attributes on the locally-assigned blocks, advances those fields every
timestep with a real (if simplified) numpy kernel, and charges virtual
compute time proportional to its cell count.  The I/O path reads
whatever is registered — physics modules never talk to the I/O modules
directly (§5).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from ...roccom.attribute import AttributeSpec
from ...roccom.registry import Roccom
from ..meshblock import BlockSpec, MeshBlock, build_block

__all__ = ["PhysicsModule", "fastmean", "rolled"]


def fastmean(a: np.ndarray) -> float:
    """``a.mean()`` for 1-D arrays without the ufunc-dispatch overhead.

    ``ndarray.mean`` routes through ``np.add.reduce`` (same pairwise
    summation) and divides by the count, so this is bitwise identical
    for 1-D float arrays while skipping the ``_methods._mean`` wrapper
    the kernels would otherwise pay per block per step.
    """
    return np.add.reduce(a) / a.size


class _PaneArrays:
    """Window facade over one pane for the kernel hot loop.

    ``kernel`` looks fields up per block per step through
    ``window.get_array``; binding the pane's array dict once per
    (block, step) turns each lookup into a plain dict hit while the
    kernels keep the window-shaped call they use in tests.
    """

    __slots__ = ("_arrays",)

    def __init__(self, arrays):
        self._arrays = arrays

    def get_array(self, attr_name: str, pane_id: int) -> np.ndarray:
        return self._arrays[attr_name]


def rolled(a: np.ndarray, shift: int) -> np.ndarray:
    """``np.roll`` for 1-D arrays with shift ±1, without its overhead.

    The physics kernels roll small per-block field vectors thousands of
    times per run; ``np.roll``'s generality (normalize axis tuples,
    build index expressions) costs more than the copy itself at these
    sizes.  Results are bitwise identical — the two slice-assignments
    below are exactly the element moves ``np.roll`` performs.  Other
    shapes/shifts fall back to ``np.roll``.
    """
    if a.ndim != 1:
        return np.roll(a, shift)
    n = a.shape[0]
    out = np.empty(n, dtype=a.dtype)
    if n == 0:
        return out
    if shift == 1:
        out[0] = a[n - 1]
        out[1:] = a[: n - 1]
    elif shift == -1:
        out[n - 1] = a[0]
        out[: n - 1] = a[1:]
    else:
        return np.roll(a, shift)
    return out


class PhysicsModule:
    """Base class for GENx physics components."""

    #: Window name (subclasses set; unique per module).
    window_name: str = ""
    #: Module label.
    name: str = ""
    #: Nominal compute cost per cell per timestep, seconds.
    cost_per_cell: float = 1.0e-4

    def __init__(self, cost_per_cell: Optional[float] = None):
        if cost_per_cell is not None:
            self.cost_per_cell = cost_per_cell
        self.blocks: List[MeshBlock] = []
        self.com: Optional[Roccom] = None
        self._total_cells = 0
        #: The block specs :meth:`declare` registered, in order.
        self._specs: List[BlockSpec] = []

    # -- interface for subclasses -----------------------------------------
    def attribute_specs(self) -> List[AttributeSpec]:
        """Field attributes (beyond mesh coords/connectivity)."""
        raise NotImplementedError

    def init_fields(self, window, block: MeshBlock, rng: np.random.Generator) -> None:
        """Fill the initial field arrays of one block."""
        raise NotImplementedError

    def kernel(self, window, block: MeshBlock, dt: float, step: int) -> None:
        """Advance one block's fields by ``dt`` (pure numpy, no DES)."""
        raise NotImplementedError

    # -- common machinery ------------------------------------------------------
    def setup(self, com: Roccom, specs: Sequence[BlockSpec], rng: np.random.Generator):
        """A fresh start: :meth:`declare` the window, then :meth:`initialize` it."""
        window = self.declare(com, specs)
        self.initialize(rng)
        return window

    def declare(self, com: Roccom, specs: Sequence[BlockSpec]):
        """Create the window, declare its attributes and register one pane
        per block spec, sized from the spec and holding no array yet: a
        restart's ``read_attribute`` fills them, :meth:`initialize` on a
        fresh start."""
        self.com = com
        window = com.new_window(self.window_name)
        window.declare_attribute(AttributeSpec("coords", "node", ncomp=3))
        window.declare_attribute(
            AttributeSpec("conn", "element", ncomp=self.nodes_per_elem(), dtype="i8")
        )
        for spec in self.attribute_specs():
            window.declare_attribute(spec)
        for bspec in specs:
            window.register_pane(bspec.block_id, bspec.nnodes, bspec.nelems)
        self._specs = list(specs)
        return window

    def initialize(self, rng: np.random.Generator) -> None:
        """Build each declared block's geometry and initial fields from
        ``rng``, block by block in declaration order."""
        window = self.com.window(self.window_name)
        nodes_per_elem = self.nodes_per_elem()
        for bspec in self._specs:
            built = build_block(bspec, rng)
            window.set_array("coords", bspec.block_id, built.coords)
            conn = built.conn
            if conn.shape[1] != nodes_per_elem:
                conn = np.resize(conn, (built.nelems, nodes_per_elem))
            window.set_array("conn", bspec.block_id, conn % built.nnodes)
            self.init_fields(window, self._bind(window, bspec), rng)

    def bind_panes(self) -> None:
        """Rebuild the blocks over the window's panes, as a restart left
        them: each block's ``coords`` / ``conn`` are its pane's arrays
        and the cell count is the panes' ``nelems``."""
        window = self.com.window(self.window_name)
        self.blocks, self._total_cells = [], 0
        for bspec in self._specs:
            pane = window.pane(bspec.block_id)
            self._bind(window, replace(bspec, nnodes=pane.nnodes, nelems=pane.nelems))

    def _bind(self, window, spec: BlockSpec) -> MeshBlock:
        """A block over its pane's ``coords`` and ``conn``, appended."""
        block = MeshBlock(
            spec,
            window.get_array("coords", spec.block_id),
            window.get_array("conn", spec.block_id),
        )
        self.blocks.append(block)
        self._total_cells += block.nelems
        return block

    def nodes_per_elem(self) -> int:
        return 8

    @property
    def total_cells(self) -> int:
        return self._total_cells

    def nominal_step_cost(self) -> float:
        """Virtual compute seconds per timestep on this rank."""
        return self.cost_per_cell * self._total_cells

    def advance(self, ctx, dt: float, step: int):
        """Generator: one timestep — real data update + virtual time."""
        window = self.com.window(self.window_name)
        panes = window._panes
        for block in self.blocks:
            self.kernel(_PaneArrays(panes[block.block_id]._arrays), block, dt, step)
        yield from ctx.compute(self.nominal_step_cost())

    def local_dt_limit(self) -> float:
        """Stability limit contributed by this module (for allreduce)."""
        return 1.0

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {len(self.blocks)} blocks, {self._total_cells} cells>"
