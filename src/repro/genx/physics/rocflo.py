"""Rocflo-MP analogue: multi-block structured-mesh gas dynamics.

A deliberately small explicit solver: cell-centered density/pressure/
temperature with node-centered velocity, advanced by a damped
diffusion + acoustic-coupling update.  The fields evolve genuinely
(checkpoints carry real state) and the per-cell cost model carries the
timing.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...roccom.attribute import AttributeSpec
from .base import PhysicsModule, fastmean, rolled

__all__ = ["Rocflo"]

_GAMMA = 1.4
_P0 = 6.0e6  # chamber pressure scale, Pa
_RHO0 = 8.0  # gas density scale, kg/m^3


class Rocflo(PhysicsModule):
    """Structured-mesh fluid solver."""

    window_name = "Rocflo"
    name = "rocflo"
    cost_per_cell = 8.6e-5

    def attribute_specs(self) -> List[AttributeSpec]:
        return [
            AttributeSpec("pressure", "element", unit="Pa"),
            AttributeSpec("density", "element", unit="kg/m^3"),
            AttributeSpec("temperature", "element", unit="K"),
            AttributeSpec("velocity", "node", ncomp=3, unit="m/s"),
        ]

    def nodes_per_elem(self) -> int:
        return 8

    def init_fields(self, window, block, rng) -> None:
        ne, nn = block.nelems, block.nnodes
        bid = block.block_id
        z = block.coords[:, 2]
        # Axial pressure gradient down the chamber + small perturbation.
        p_node = _P0 * (1.0 - 0.05 * (z - z.min()))
        p = p_node[: ne] if nn >= ne else np.resize(p_node, ne)
        window.set_array("pressure", bid, p + rng.normal(0, 1e3, ne))
        window.set_array("density", bid, np.full(ne, _RHO0))
        window.set_array(
            "temperature", bid, np.full(ne, 3300.0) + rng.normal(0, 5.0, ne)
        )
        v = np.zeros((nn, 3))
        v[:, 2] = 40.0  # axial flow
        window.set_array("velocity", bid, v)

    def kernel(self, window, block, dt: float, step: int) -> None:
        bid = block.block_id
        p = window.get_array("pressure", bid)
        rho = window.get_array("density", bid)
        T = window.get_array("temperature", bid)
        v = window.get_array("velocity", bid)
        # 1-D (block-local ordering) diffusion of pressure + acoustic
        # density coupling; keeps values bounded and evolving.
        lap = rolled(p, 1) - 2.0 * p + rolled(p, -1)
        p += 0.1 * lap + dt * 1e3 * (rho - _RHO0)
        rho += dt * 1e-7 * (rolled(p, -1) - p)
        T *= 1.0 - 1e-6 * dt
        T += 1e-6 * dt * 3300.0
        # Node velocities relax toward axial flow with pressure kick.
        v[:, 2] += dt * 1e-7 * (fastmean(p) - _P0)
        v *= 0.9999

    def local_dt_limit(self) -> float:
        # Acoustic CFL stand-in: smaller blocks -> tighter limit.
        return 1e-6 * (1.0 + 0.1 * (self._total_cells % 7))
