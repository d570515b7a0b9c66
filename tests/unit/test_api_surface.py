"""Public-API surface checks: imports, __all__ integrity, docstrings."""

import importlib
import inspect
import pkgutil

import pytest

PACKAGES = [
    "repro",
    "repro.des",
    "repro.cluster",
    "repro.fs",
    "repro.vmpi",
    "repro.vthread",
    "repro.shdf",
    "repro.roccom",
    "repro.io",
    "repro.io.rocpanda",
    "repro.genx",
    "repro.genx.physics",
    "repro.rocketeer",
    "repro.bench",
    "repro.util",
    "repro.obs",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", PACKAGES)
def test_module_docstrings_present(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_classes_and_functions_documented(name):
    """Every exported class/function carries a docstring."""
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__ and obj.__doc__.strip(), (
                f"{name}.{symbol} lacks a docstring"
            )


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_bench_has_no_host_micro_suite():
    """Host time is measured end to end (benchmarks/e2e) and per sweep
    point (the scaling curves among them); repro.bench holds no
    synthetic micro suite, and the paper's artefacts have one registry
    (sweep) beside the micro experiments (micro) and the chaos matrix
    (faults) it runs."""
    bench = importlib.import_module("repro.bench")
    assert {m.name for m in pkgutil.iter_modules(bench.__path__)} == {
        "faults", "micro", "report", "sweep",
    }


def test_bench_exports_one_fault_harness():
    """Every chaos-matrix row is one checkpoint -> restart call: no
    runner per service or per faulted phase beside it."""
    bench = importlib.import_module("repro.bench")
    assert set(bench.__all__) == {
        "ARTEFACTS", "Artefact", "Grid", "Row", "Sweep", "compare", "sizing", "summarize",
        "run_fig3a_partial_read", "run_hdf_driver_scaling",
        "run_driver_tier_matrix", "run_load_balancing_ablation",
        "render_table", "render_series", "write_bench_json",
        "checkpoint_restart", "run_faultbench", "render_faults", "scenario_names",
    }
    faults = importlib.import_module("repro.bench.faults")
    runners = {"_run_rocpanda_scenario", "_run_rocpanda_restart_fault_scenario",
               "_run_hdf_scenario"}
    assert not runners & set(vars(faults))


def test_no_argument_selects_a_second_path():
    """Each layer has one path: no constructor takes a knob that only a
    test would pass to select another."""
    from repro.des import Environment
    from repro.genx import run_genx
    import repro.shdf
    import repro.vmpi
    from repro.io import RocpandaModule
    from repro.shdf import SHDFReader, SHDFWriter
    from repro.vmpi import Comm, Job, run_spmd

    knobs = {
        "queue", "mailbox_factory", "tracer", "batched", "batched_restart",
        "format_version", "journal",
    }
    for fn in (Environment, Job, run_spmd, run_genx, RocpandaModule, SHDFWriter):
        assert not knobs & set(inspect.signature(fn).parameters), fn
    assert not hasattr(Comm, "collective_algo")
    # One send body: no prebound sender beside Comm.send.
    assert not hasattr(Comm, "stream")
    assert not hasattr(repro.vmpi, "SendStream")
    # One SHDF format, one writer path, one reader mode.
    gone = {"read_index", "read_dataset_at", "detect_version", "iter_records"}
    assert not [
        name for name in repro.shdf.__all__ if name.endswith("_v2") or name in gone
    ]
    assert not hasattr(SHDFWriter, "write_dataset")
    # Bytes reach the disk only through landings: no header write of its own.
    assert not hasattr(SHDFWriter, "write_header")
    assert not hasattr(SHDFReader, "read_dataset")
    assert not hasattr(SHDFReader, "read_all")
    # One event queue: a heap and the now ladder, no second entry point.
    for name in ("schedule_many", "step", "bulk_merged", "_buckets"):
        assert not hasattr(Environment, name), name
        assert not hasattr(Environment(), name), name
    from repro.cluster.network import Network

    assert not hasattr(Network, "schedule_transfer")
    # One way to record an operation: io_record, no span timer beside it,
    # and no switch that turns the recorder off.
    import repro.obs
    from repro.obs import Recorder
    from repro.vmpi import RankContext

    assert not inspect.signature(Recorder).parameters
    assert not hasattr(Recorder, "span") and not hasattr(RankContext, "io_span")
    assert not {"IOSpan", "write_json", "to_json"} & set(repro.obs.__all__)


def test_merging_shares_adds_no_option():
    """Which Rocpanda shares ride another server's file follows from the
    filesystem's write latency and the network, and a writer's wait for
    its peers' word and the lander's staging follow from what the server
    observes: no config field, no argument selects any of them.  What
    Rocpanda's marshalling and ingest cost is the machine's."""
    import dataclasses

    from repro.genx import GENxConfig
    from repro.io import PandaServer, RocpandaModule, ServerConfig

    assert {f.name for f in dataclasses.fields(GENxConfig)} == {
        "adapt_interval", "adapt_mesh", "client_buffering",
        "driver_factory", "initial_snapshot", "io_mode", "lb_interval",
        "lb_threshold", "load_balance", "nservers", "prefix", "restart_prefix",
        "restart_step", "server_config", "steps", "storage_tier", "tier_config",
        "workload",
    }
    assert {f.name for f in dataclasses.fields(ServerConfig)} == {
        "active_buffering", "buffer_bytes", "driver", "retry",
    }
    assert set(inspect.signature(PandaServer).parameters) == {"ctx", "topo", "config"}
    assert set(inspect.signature(RocpandaModule).parameters) == {
        "ctx", "topo", "client_buffering", "retry",
    }


def test_taking_the_write_slot_lease_adds_no_argument():
    """Who takes turns at the write slot follows from the service:
    T-Rochdf's I/O thread and the Rocpanda lander do, blocking Rochdf
    does not.  No constructor takes an argument that selects it."""
    from repro.io import PandaServer, RochdfModule, RocpandaModule, TRochdfModule
    from repro.shdf import SHDFWriter

    for cls in (RochdfModule, TRochdfModule, PandaServer, RocpandaModule, SHDFWriter):
        assert not [p for p in inspect.signature(cls).parameters if "lease" in p], cls
    assert set(inspect.signature(TRochdfModule).parameters) == {"ctx", "driver", "retry"}


def test_fs_models_the_filesystem_and_shdf_gathers_the_file():
    """``repro.fs`` holds the timing models, the virtual disk and the
    storage tier; what one transfer carries — a writer's gathered stage,
    a reader's sieved runs — is SHDF's (``repro.shdf.file``), and the
    tier switch sits beside the tier, not among the format drivers."""
    import repro.fs
    import repro.shdf.drivers

    assert {m.name for m in pkgutil.iter_modules(repro.fs.__path__)} == {
        "models", "tiers", "vfs",
    }
    assert not {"WriteCoalescer", "ReadCoalescer", "merge_extents"} & set(repro.fs.__all__)
    for name in ("STORAGE_TIERS", "apply_storage_tier"):
        assert not hasattr(repro.shdf.drivers, name), name
