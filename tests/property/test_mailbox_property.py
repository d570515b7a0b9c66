"""Property-based equivalence of the two mailbox matchers.

:class:`repro.vmpi.mailbox.Mailbox` (indexed) and
:class:`tests.spec.mailbox.LinearScanMailbox` (the original list-scan
reference) must implement *identical* matching semantics — same
envelope returned, in the same order, for every interleaving of
deliveries, consuming receives, non-consuming probes, and pending
waiters, wildcards included.  These tests drive both implementations
with the same randomly generated operation sequence and compare every
observable after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.vmpi.datatypes import ANY_SOURCE, ANY_TAG, Envelope
from repro.vmpi.mailbox import Mailbox

from tests.spec.mailbox import LinearScanMailbox

_SOURCES = st.integers(min_value=0, max_value=3)
_TAGS = st.integers(min_value=0, max_value=3)
_Q_SOURCES = st.one_of(st.just(ANY_SOURCE), _SOURCES)
_Q_TAGS = st.one_of(st.just(ANY_TAG), _TAGS)

#: One mailbox operation: (kind, source, tag).
_OPS = st.one_of(
    st.tuples(st.just("deliver"), _SOURCES, _TAGS),
    st.tuples(st.just("take"), _Q_SOURCES, _Q_TAGS),
    st.tuples(st.just("find"), _Q_SOURCES, _Q_TAGS),
    st.tuples(st.just("get"), _Q_SOURCES, _Q_TAGS),
    st.tuples(st.just("peek"), _Q_SOURCES, _Q_TAGS),
)


def _envelope(src: int, tag: int, seq: int) -> Envelope:
    # The payload is a unique serial number: envelope identity.
    return Envelope(
        comm_id=0, src=src, dst=0, tag=tag,
        payload=seq, nbytes=8, mode="eager", seq=seq,
    )


def _payload(envelope):
    return None if envelope is None else envelope.payload


def _event_state(event):
    """Observable state of a waiter event: untriggered, or the payload."""
    if not event.triggered:
        return "pending"
    return _payload(event.value)


@given(st.lists(_OPS, max_size=60))
@settings(max_examples=300, deadline=None)
def test_indexed_matches_reference_step_by_step(ops):
    env = Environment()
    indexed = Mailbox(env)
    reference = LinearScanMailbox(env)
    events = []  # (indexed_event, reference_event) pairs
    seq = 0

    for kind, source, tag in ops:
        if kind == "deliver":
            # Two distinct Envelope objects with the same identity: a
            # consuming take must not leave an alias in the other box.
            indexed.deliver(_envelope(source, tag, seq))
            reference.deliver(_envelope(source, tag, seq))
            seq += 1
        elif kind == "take":
            assert _payload(indexed.take(source, tag)) == _payload(
                reference.take(source, tag)
            )
        elif kind == "find":
            assert _payload(indexed.find(source, tag)) == _payload(
                reference.find(source, tag)
            )
        elif kind == "get":
            events.append(
                (indexed.get_matching(source, tag), reference.get_matching(source, tag))
            )
        else:  # peek
            events.append(
                (indexed.peek_matching(source, tag), reference.peek_matching(source, tag))
            )

        # After every operation the observable state must be identical:
        # queue content in arrival order, and each waiter's outcome.
        assert len(indexed) == len(reference)
        assert [e.payload for e in indexed.items] == [
            e.payload for e in reference.items
        ]
        for ie, re_ in events:
            assert _event_state(ie) == _event_state(re_)


@given(st.lists(_OPS, max_size=60))
@settings(max_examples=100, deadline=None)
def test_fixpoint_invariant_holds(ops):
    """No pending waiter ever matches a queued envelope (both impls)."""
    env = Environment()
    boxes = [Mailbox(env), LinearScanMailbox(env)]
    seq = 0
    for kind, source, tag in ops:
        for box in boxes:
            if kind == "deliver":
                box.deliver(_envelope(source, tag, seq))
            elif kind == "take":
                box.take(source, tag)
            elif kind == "find":
                box.find(source, tag)
            elif kind == "get":
                box.get_matching(source, tag)
            else:
                box.peek_matching(source, tag)
        seq += kind == "deliver"
        for box in boxes:
            for waiter in box._waiters:
                if waiter.event.triggered:
                    continue
                assert box.find(waiter.source, waiter.tag) is None
