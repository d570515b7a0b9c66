"""Machine presets: the paper's two platforms plus a small test box.

All constants here are *calibration parameters*, chosen so the shapes
of Table 1 and Figures 3(a)/3(b) come out right; they are not claimed
to be exact hardware specifications.  EXPERIMENTS.md records the
paper-vs-measured comparison produced with these values.
"""

from __future__ import annotations

from ..fs.models import GPFSModel, LocalFSModel, NFSModel
from ..util.units import GB, MB, USEC
from .machine import MachineSpec
from .network import NetworkSpec
from .noise import ExternalLoad, NoExternalLoad, NoNoise, OSNoise

__all__ = ["turing", "frost", "testbox"]


def turing(
    write_bw: float = 55 * MB,
    read_bw: float = 20 * MB,
    read_slots: int = 8,
    write_penalty: float = 0.22,
    max_penalty_factor: float = 3.2,
    shared_nodes: bool = True,
    nnodes: int = 208,
) -> MachineSpec:
    """GENx's development platform (§7.1).

    208 nodes x 2 x 1 GHz Pentium III, 1 GB/node, Myrinet, shared
    filesystem on a single NFS server.  Nodes are shared with other
    users' interactive jobs (no scheduler), so runs see random external
    load; the paper reports best-of-five, and so does our harness.

    The message-passing layer "does not scale well" on Turing (§7.1):
    per-message latency grows with job size (``scale_alpha``).

    ``nnodes`` scales the cluster beyond the historical 208 nodes for
    what-if runs past 416 ranks (the scaling bench's 512/1024-client
    points); everything else — per-node CPUs, network, the single NFS
    server — keeps the Turing calibration.
    """
    return MachineSpec(
        name="turing",
        nnodes=nnodes,
        cpus_per_node=2,
        mem_per_node=1 * GB,
        cpu_speed=1.0,
        memcpy_bw=65 * MB,
        network=NetworkSpec(
            latency=65 * USEC,
            inter_bw=110 * MB,
            intra_bw=280 * MB,
            sw_overhead=18 * USEC,
            nic_streams=1,
            scale_alpha=0.012,
            eager_threshold=16 * 1024,
        ),
        fs_factory=lambda env, disk: NFSModel(
            env,
            disk,
            write_bw=write_bw,
            read_bw=read_bw,
            read_slots=read_slots,
            write_penalty=write_penalty,
            max_penalty_factor=max_penalty_factor,
        ),
        noise=NoNoise(),
        external_load=ExternalLoad(mean_extra=0.15, sigma=0.5, p_loaded=0.35)
        if shared_nodes
        else NoExternalLoad(),
    )


def frost(
    noise_duty: float = 0.12,
    server_bw: float = 60 * MB,
) -> MachineSpec:
    """GENx's production platform, ASCI Frost (§7.2).

    63 x 16-way POWER3 375 MHz SMP nodes, 16 GB/node, SP Switch2,
    GPFS through two server nodes.  Nodes are dedicated (batch
    scheduled), but AIX background activity ("operating system related
    tasks", §4.1) provides per-node OS noise; with per-timestep
    synchronization this noise is amplified with scale — the mechanism
    behind Figure 3(b).

    Rocpanda runs at the 375 MHz CPUs' pace: its servers ingest slower
    than Turing's, and its clients pay a per-block marshalling cost, so
    one client cannot keep a server busy (Fig 3(a)).
    """
    return MachineSpec(
        name="frost",
        nnodes=63,
        cpus_per_node=16,
        mem_per_node=16 * GB,
        cpu_speed=1.0,
        memcpy_bw=350 * MB,
        network=NetworkSpec(
            latency=22 * USEC,
            inter_bw=330 * MB,
            intra_bw=900 * MB,
            sw_overhead=8 * USEC,
            nic_streams=2,
            scale_alpha=0.0,
            eager_threshold=16 * 1024,
        ),
        fs_factory=lambda env, disk: GPFSModel(
            env,
            disk,
            nservers=2,
            server_bw=server_bw,
            slots_per_server=1,
        ),
        noise=OSNoise(duty=noise_duty, leak=0.001, gamma_shape=0.5),
        external_load=NoExternalLoad(),
        pack_overhead=3.0e-3,
        pack_bw=80 * MB,
        ingest_overhead=2.0e-3,
        ingest_bw=100 * MB,
    )


def testbox(nnodes: int = 4, cpus_per_node: int = 4) -> MachineSpec:
    """A small quiet machine with a local disk model, for unit tests."""
    return MachineSpec(
        name="testbox",
        nnodes=nnodes,
        cpus_per_node=cpus_per_node,
        mem_per_node=4 * GB,
        cpu_speed=1.0,
        network=NetworkSpec(),
        fs_factory=lambda env, disk: LocalFSModel(env, disk),
        noise=NoNoise(),
        external_load=NoExternalLoad(),
    )
