"""Mini-GENx: the multi-component rocket simulation workload.

Mesh blocks + partitioner, the physics modules (Rocflo/Rocflu fluids,
Rocfrac/Rocsolid solids, Rocburn combustion), Rocface interface
transfer, Rocblas algebraic operators, the Rocman orchestrator, the
paper's two experimental workloads, and the top-level driver.
"""

from . import physics, rocblas
from .adaptation import MeshAdaptor, resize_block
from .loadbalance import LoadBalancer, MigrationPlan, plan_migrations
from .driver import (
    ClientReport,
    GENxConfig,
    GENxRunResult,
    ServerReport,
    genx_main,
    run_genx,
)
from .meshblock import BlockSpec, MeshBlock, build_block, cylinder_blocks
from .partition import assignment_stats, migrate, partition_blocks
from .rocface import Rocface
from .rocman import IncompleteRestoreError, Rocman, RocmanConfig, snapshot_prefix
from .workloads import WorkloadSpec, lab_scale_motor, scalability_cylinder

__all__ = [
    "BlockSpec",
    "MeshBlock",
    "build_block",
    "cylinder_blocks",
    "partition_blocks",
    "assignment_stats",
    "migrate",
    "physics",
    "rocblas",
    "Rocface",
    "Rocman",
    "RocmanConfig",
    "IncompleteRestoreError",
    "snapshot_prefix",
    "WorkloadSpec",
    "lab_scale_motor",
    "scalability_cylinder",
    "MeshAdaptor",
    "resize_block",
    "LoadBalancer",
    "MigrationPlan",
    "plan_migrations",
    "GENxConfig",
    "GENxRunResult",
    "ClientReport",
    "ServerReport",
    "genx_main",
    "run_genx",
]
