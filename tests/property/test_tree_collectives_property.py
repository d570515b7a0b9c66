"""Property tests: tree collectives place payloads by comm rank.

For arbitrary communicator sizes, roots, and payloads every rank must
receive exactly what the collective is defined to return —
``[payloads[r] for r in range(size)]`` at a gather root, ``payloads[r]``
at scatter rank ``r``, the comm-rank-order fold of a non-commutative
reduce — whatever shape the binomial tree takes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.vmpi import run_spmd


def run(size, body):
    """Run ``body(ctx, out)`` on ``size`` ranks; return the filled ``out``."""
    out = {}

    def main(ctx):
        yield from body(ctx, out)

    machine = Machine(make_testbox(nnodes=8, cpus_per_node=8), seed=0)
    run_spmd(machine, size, main)
    return out


SIZES = st.sampled_from([1, 2, 3, 5, 8])
PAYLOADS = st.lists(
    st.one_of(st.integers(-999, 999), st.text(max_size=6)),
    min_size=8,
    max_size=8,
)


@given(SIZES, st.integers(0, 63), PAYLOADS)
@settings(max_examples=30, deadline=None)
def test_gather_is_rank_ordered_at_root(size, root_raw, payloads):
    root = root_raw % size

    def body(ctx, out):
        out[ctx.rank] = yield from ctx.world.gather(
            payloads[ctx.rank], root=root
        )

    out = run(size, body)
    assert out == {
        r: payloads[:size] if r == root else None for r in range(size)
    }


@given(SIZES, st.integers(0, 63), PAYLOADS)
@settings(max_examples=30, deadline=None)
def test_scatter_delivers_item_r_to_rank_r(size, root_raw, payloads):
    root = root_raw % size

    def body(ctx, out):
        items = payloads[:size] if ctx.rank == root else None
        out[ctx.rank] = yield from ctx.world.scatter(items, root=root)

    assert run(size, body) == {r: payloads[r] for r in range(size)}


@given(SIZES, PAYLOADS)
@settings(max_examples=25, deadline=None)
def test_allgather_and_alltoall_placement(size, payloads):
    def body(ctx, out):
        ag = yield from ctx.world.allgather(payloads[ctx.rank])
        a2a = yield from ctx.world.alltoall(
            [(payloads[ctx.rank], d) for d in range(size)]
        )
        out[ctx.rank] = (ag, a2a)

    out = run(size, body)
    for r in range(size):
        assert out[r][0] == payloads[:size]
        assert out[r][1] == [(payloads[s], r) for s in range(size)]


@given(SIZES, st.integers(0, 63), st.lists(st.text(max_size=4), min_size=8, max_size=8))
@settings(max_examples=25, deadline=None)
def test_reduce_noncommutative_is_rank_order_fold(size, root_raw, parts):
    """List concatenation is order-sensitive: the result must be the
    comm-rank-order left fold for any root."""
    root = root_raw % size

    def body(ctx, out):
        out[ctx.rank] = yield from ctx.world.reduce(
            [parts[ctx.rank]], op=lambda a, b: a + b, root=root
        )

    out = run(size, body)
    assert out == {r: parts[:size] if r == root else None for r in range(size)}


def test_suite_placement_at_64_ranks():
    """One deterministic large case: the full collective suite at
    P = 64 (several tree levels deep, past every pow-2 boundary)."""
    size = 64

    def body(ctx, out):
        g = yield from ctx.world.gather(ctx.rank * 7, root=37)
        s = yield from ctx.world.scatter(
            list(range(0, size * 3, 3)) if ctx.rank == 11 else None, root=11
        )
        ag = yield from ctx.world.allgather((ctx.rank, "x"))
        red = yield from ctx.world.reduce(
            f"{ctx.rank:02d}", op=lambda a, b: a + b, root=5
        )
        out[ctx.rank] = (g, s, ag, red)

    out = run(size, body)
    fold = "".join(f"{r:02d}" for r in range(size))
    for r in range(size):
        g, s, ag, red = out[r]
        assert g == ([q * 7 for q in range(size)] if r == 37 else None)
        assert s == r * 3
        assert ag == [(q, "x") for q in range(size)]
        assert red == (fold if r == 5 else None)
