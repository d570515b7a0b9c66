"""Property test: burst-tier final disk images are bit-identical to direct.

For arbitrary write schedules (appends of arbitrary sizes across
several paths, interleaved truncates and settle pauses) and arbitrary
tier capacities — including capacities small enough to force watermark
eviction and synchronous spill — the final on-disk image on the
*backing* disk under ``tier="burst"`` must equal, byte for byte, the
image a direct run of the same schedule produces.  The tier may change
*when* bytes become durable, never *what* becomes durable.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.fs import BurstBufferTier, NFSModel, TierConfig


@st.composite
def schedules(draw):
    """A list of (op, path_index, payload) steps over up to 4 paths."""
    nsteps = draw(st.integers(min_value=1, max_value=12))
    steps = []
    for i in range(nsteps):
        op = draw(st.sampled_from(["append", "append", "append", "truncate", "pause"]))
        path = draw(st.integers(min_value=0, max_value=3))
        if op == "append":
            size = draw(st.integers(min_value=1, max_value=5000))
            fill = 32 + (7 * i + path) % 90  # deterministic, path-varied
            steps.append(("append", path, bytes([fill]) * size))
        else:
            steps.append((op, path, b""))
    return steps


def _run_schedule(schedule, tier_capacity=None):
    """Execute the schedule; return the final backing-disk image."""
    env = Environment()
    backing = NFSModel(env)
    if tier_capacity is None:
        fs = backing
    else:
        fs = BurstBufferTier(
            env, backing,
            TierConfig(capacity_bytes=tier_capacity, drain_chunk_bytes=1024),
        )

    def main():
        files = {}
        for op, path_idx, payload in schedule:
            path = f"f{path_idx}"
            if op == "pause":
                yield env.sleep(0.01)
                continue
            if path not in files:
                yield from fs.meta_op(None)
                files[path] = fs.disk.create(path, exist_ok=True)
            if op == "truncate":
                files[path].truncate()
                continue
            f = files[path]
            yield from fs.write(len(payload), None, land=lambda: f.append_many([payload]))
        barrier = getattr(fs, "drain_barrier", None)
        if barrier is not None:
            yield from barrier()

    env.process(main(), name="schedule")
    env.run()
    if tier_capacity is not None:
        assert fs.backlog_bytes == 0
        assert fs.journal.validate(backing.disk) == []
    return {p: backing.disk.open(p).read() for p in backing.disk.listdir()}


@given(
    schedules(),
    st.sampled_from([512, 2_000, 8_000, 64_000, 1 << 20]),
)
@settings(max_examples=60, deadline=None)
def test_burst_image_bit_identical_to_direct(schedule, capacity):
    direct = _run_schedule(schedule, tier_capacity=None)
    burst = _run_schedule(schedule, tier_capacity=capacity)
    assert burst == direct


@given(schedules())
@settings(max_examples=30, deadline=None)
def test_tiny_tier_forces_eviction_and_still_matches(schedule):
    """A tier smaller than single appends must spill/evict constantly —
    and still end bit-identical."""
    direct = _run_schedule(schedule, tier_capacity=None)
    burst = _run_schedule(schedule, tier_capacity=512)
    assert burst == direct
