"""Property test: two-phase batched shipping lands the registered data.

File contents are a property of the *data*: every block the servers
wrote must decode to the arrays a client registered, once per snapshot,
with nothing missing and nothing extra — across random block layouts,
client/server counts, and snapshot schedules.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.io import PandaServer, RocpandaModule, datasets_to_blocks, rocpanda_init
from repro.roccom import AttributeSpec, Roccom
from repro.shdf import decode_file
from repro.vmpi import run_spmd


def _run(nservers, nclients, layout, nsnapshots, seed):
    """One rocpanda job; returns ({pane: {attr: array}}, {path: bytes})."""
    registered = {}

    def main(ctx):
        topo = yield from rocpanda_init(ctx, nservers)
        if topo.is_server:
            yield from PandaServer(ctx, topo).run()
            return
        com = Roccom(ctx)
        panda = com.load_module(RocpandaModule(ctx, topo))
        w = com.new_window("W")
        w.declare_attribute(AttributeSpec("coords", "node", ncomp=3))
        w.declare_attribute(AttributeSpec("field", "element"))
        rng = np.random.default_rng(seed + topo.comm.rank)
        for i, (nnodes, nelems) in enumerate(layout[topo.comm.rank]):
            pane_id = topo.comm.rank * 16 + i
            w.register_pane(pane_id, nnodes, nelems)
            registered[pane_id] = {
                "coords": rng.random((nnodes, 3)),
                "field": rng.random(nelems),
            }
            for attr, array in registered[pane_id].items():
                w.set_array(attr, pane_id, array.copy())
        for snap in range(nsnapshots):
            yield from com.call_function(
                "OUT.write_attribute", "W", None, f"eq_{snap:02d}"
            )
        yield from com.call_function("OUT.sync")
        yield from panda.finalize()

    machine = Machine(make_testbox(nnodes=4, cpus_per_node=4), seed=seed)
    run_spmd(machine, nservers + nclients, main)
    files = {
        path: machine.disk.open(path).read()
        for path in machine.disk.listdir("eq_")
    }
    return registered, files


@st.composite
def layouts(draw):
    nservers = draw(st.integers(min_value=1, max_value=3))
    # The stride-based topology requires nclients >= nservers (enforced
    # at rocpanda_init); only generate layouts the contract admits.
    nclients = draw(st.integers(min_value=nservers, max_value=4))
    layout = [
        [
            (
                draw(st.integers(min_value=1, max_value=600)),
                draw(st.integers(min_value=1, max_value=4000)),
            )
            for _ in range(draw(st.integers(min_value=1, max_value=4)))
        ]
        for _ in range(nclients)
    ]
    return nservers, nclients, layout


@given(
    layouts(),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=12, deadline=None)
def test_batched_shipping_is_bit_identical(shape, nsnapshots, seed):
    nservers, nclients, layout = shape
    registered, files = _run(nservers, nclients, layout, nsnapshots, seed)
    # Two servers on one node share its disk's write slot: latency-bound
    # shares merge into one file of the path.
    assert nsnapshots <= len(files) <= nservers * nsnapshots
    for snap in range(nsnapshots):
        seen = set()
        for path in files:
            if not path.startswith(f"eq_{snap:02d}_"):
                continue
            for block in datasets_to_blocks(list(decode_file(files[path]))):
                for attr, array in block.arrays.items():
                    expected = registered[block.block_id][attr]
                    assert (array.dtype, array.shape) == (expected.dtype, expected.shape)
                    np.testing.assert_array_equal(array, expected)
                    assert (block.block_id, attr) not in seen
                    seen.add((block.block_id, attr))
        assert seen == {(p, a) for p in registered for a in registered[p]}
