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
    """Host time is measured end to end (benchmarks/e2e) and across rank
    counts (scalebench); repro.bench holds no synthetic micro suite."""
    bench = importlib.import_module("repro.bench")
    assert {m.name for m in pkgutil.iter_modules(bench.__path__)} == {
        "ablations", "experiment", "faults", "fig3a", "fig3b", "report",
        "scale", "table1",
    }


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
