"""Property-based tests of the wire protocol round-trip contract.

:mod:`repro.sim.wirepack` and :class:`repro.net.FrameCodec` promise the
same thing the JSON layer promises: every control-plane dataclass comes
back identical, for any field values the runtime can produce — 2**62
timestamp components, empty and all-zero vectors, negative ids,
aggregation provenance, and per-channel compression reference chains
(including the fresh-codec re-encode a transport performs on
reconnect).  The binary wire packs every bound against a reference —
the channel's previous head, or the enclosing interval — so nested
provenance at the paper's clock sizes gets its own strategies below."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.intervals import Interval
from repro.net import FrameCodec
from repro.sim import wirepack
from repro.sim.messages import (
    AppMessage,
    AttachAccept,
    AttachRequest,
    DetachNotice,
    Heartbeat,
    IntervalReport,
)
from repro.sim.wirepack import (
    pack_message,
    read_svarint,
    read_uvarint,
    unpack_message,
    write_svarint,
    write_uvarint,
)

SETTINGS = settings(max_examples=80, deadline=None)

#: Vector-clock components up to 2**62: far past int32, still inside
#: the svarint/int64 envelope the schemes promise to carry.
COMPONENT = st.integers(0, 2**62)
PROCESS_ID = st.integers(-(2**31), 2**31)


@st.composite
def timestamp_pairs(draw, n):
    """(lo, hi) with vc_le(lo, hi) by construction; n may be zero."""
    lo = np.array(draw(st.lists(COMPONENT, min_size=n, max_size=n)), dtype=np.int64)
    span = np.array(
        draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    return lo, lo + span


@st.composite
def intervals(draw, with_parts=True):
    n = draw(st.integers(0, 8))
    lo, hi = draw(timestamp_pairs(n))
    members = frozenset(draw(st.sets(PROCESS_ID, max_size=4)))
    parts = ()
    if with_parts and draw(st.booleans()):
        part_lo, part_hi = draw(timestamp_pairs(n))
        parts = (
            Interval(
                owner=draw(PROCESS_ID),
                seq=draw(st.integers(0, 2**32)),
                lo=part_lo,
                hi=part_hi,
            ),
        )
    return Interval(
        owner=draw(PROCESS_ID),
        seq=draw(st.integers(0, 2**32)),
        lo=lo,
        hi=hi,
        members=members,
        parts=parts,
    )


@st.composite
def interval_reports(draw):
    return IntervalReport(
        origin=draw(PROCESS_ID),
        dest=draw(PROCESS_ID),
        interval=draw(intervals()),
        transport_seq=draw(st.integers(0, 2**48)),
    )


JSON_PAYLOADS = st.one_of(
    st.text(max_size=32),
    st.integers(-(2**53), 2**53),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-100, 100), max_size=4),
    st.dictionaries(st.text(max_size=8), st.integers(-100, 100), max_size=3),
)


@st.composite
def app_messages(draw):
    piggyback = np.array(
        draw(st.lists(COMPONENT, max_size=8)), dtype=np.int64
    )
    return AppMessage(payload=draw(JSON_PAYLOADS), piggyback=piggyback)


MESSAGES = st.one_of(
    interval_reports(),
    app_messages(),
    st.builds(Heartbeat, sender=PROCESS_ID),
    st.builds(
        AttachRequest,
        child=PROCESS_ID,
        subtree=st.sets(PROCESS_ID, max_size=6).map(frozenset),
    ),
    st.builds(AttachAccept, parent=PROCESS_ID),
    st.builds(DetachNotice, child=PROCESS_ID),
)


def assert_intervals_equal(a: Interval, b: Interval) -> None:
    # Interval.__eq__ ignores members/parts; the wire must not.
    assert a == b
    assert a.members == b.members
    assert len(a.parts) == len(b.parts)
    for pa, pb in zip(a.parts, b.parts):
        assert_intervals_equal(pa, pb)


def assert_messages_equal(a, b) -> None:
    assert type(a) is type(b)
    if isinstance(a, AppMessage):
        assert a.payload == b.payload
        assert np.array_equal(a.piggyback, b.piggyback)
    elif isinstance(a, IntervalReport):
        assert (a.origin, a.dest, a.transport_seq) == (
            b.origin,
            b.dest,
            b.transport_seq,
        )
        assert_intervals_equal(a.interval, b.interval)
    else:
        assert a == b


class TestVarints:
    @SETTINGS
    @given(st.integers(0, 2**70 - 1))  # 10 LEB128 bytes carry 70 bits
    def test_uvarint_round_trips(self, value):
        buf = bytearray()
        write_uvarint(buf, value)
        got, offset = read_uvarint(bytes(buf), 0)
        assert got == value and offset == len(buf)

    @SETTINGS
    @given(st.integers(-(2**62), 2**62))
    def test_svarint_round_trips(self, value):
        buf = bytearray()
        write_svarint(buf, value)
        got, offset = read_svarint(bytes(buf), 0)
        assert got == value and offset == len(buf)

    @SETTINGS
    @given(st.integers(0, 2**62))
    def test_truncated_uvarint_raises(self, value):
        buf = bytearray()
        write_uvarint(buf, value)
        if len(buf) > 1:
            import pytest

            with pytest.raises(ValueError):
                read_uvarint(bytes(buf[:-1]), 0)


class TestPackedBodies:
    """pack_message / unpack_message, reference-free (the bodies a
    fresh codec or nested provenance produces)."""

    @SETTINGS
    @given(MESSAGES)
    def test_every_message_round_trips(self, message):
        tag, body = pack_message(message)
        out, offset = unpack_message(tag, body)
        assert offset == len(body)
        assert_messages_equal(message, out)

    @SETTINGS
    @given(interval_reports())
    def test_lean_packing_strips_parts_only(self, report):
        tag, body = pack_message(report, include_parts=False)
        out, _ = unpack_message(tag, body)
        assert out.interval.parts == ()
        assert out.interval == report.interval
        assert out.interval.members == report.interval.members


class TestCodecRoundTrip:
    @SETTINGS
    @given(MESSAGES, st.sampled_from(["json", "binary"]))
    def test_every_message_round_trips(self, message, wire):
        enc = FrameCodec(wire=wire)
        out = FrameCodec().decode(enc.encode(message))
        assert_messages_equal(message, out)

    @SETTINGS
    @given(MESSAGES, st.sampled_from(["json", "binary"]))
    def test_round_trip_is_wire_agnostic(self, message, wire):
        # The decoder's own wire= must not matter: frames self-describe.
        enc = FrameCodec(wire=wire)
        other = "binary" if wire == "json" else "json"
        out = FrameCodec(wire=other).decode(enc.encode(message))
        assert_messages_equal(message, out)


@st.composite
def report_streams(draw):
    """An ordered report stream on one channel: fixed n, clocks that
    advance by anything from nothing at all to 2**62 jumps."""
    n = draw(st.integers(1, 8))
    length = draw(st.integers(1, 10))
    clock = np.array(
        draw(st.lists(COMPONENT, min_size=n, max_size=n)), dtype=np.int64
    )
    reports = []
    for seq in range(length):
        step = np.array(
            draw(
                st.lists(
                    st.one_of(
                        st.integers(0, 3),
                        st.integers(0, 2**40),
                        st.just(2**61),
                    ),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=np.int64,
        )
        # Cap the accumulation at 2**62 so hi = clock + 1 stays far
        # from int64 overflow while still exercising huge deltas.
        clock = np.minimum(clock + step, 2**62)
        reports.append(
            IntervalReport(
                origin=1,
                dest=0,
                interval=Interval(owner=1, seq=seq, lo=clock.copy(), hi=clock + 1),
                transport_seq=seq,
            )
        )
    return reports


class TestReferenceChains:
    @SETTINGS
    @given(report_streams(), st.sampled_from(["json", "binary"]))
    def test_chained_references_stay_in_lockstep(self, reports, wire):
        enc, dec = FrameCodec(wire=wire), FrameCodec()
        for report in reports:
            out = dec.decode(enc.encode(report))
            assert_messages_equal(report, out)

    @SETTINGS
    @given(report_streams(), st.integers(0, 9), st.sampled_from(["json", "binary"]))
    def test_reconnect_reencode_resets_the_chain(self, reports, cut_raw, wire):
        # A transport reconnect builds a fresh codec pair and re-encodes
        # every unacked message: the new chain must round-trip no matter
        # where the old one was cut.
        cut = cut_raw % (len(reports) + 1)
        enc, dec = FrameCodec(wire=wire), FrameCodec()
        for report in reports[:cut]:
            assert_messages_equal(report, dec.decode(enc.encode(report)))
        enc, dec = FrameCodec(wire=wire), FrameCodec()  # reconnect
        for report in reports[cut:]:
            assert_messages_equal(report, dec.decode(enc.encode(report)))


# ----------------------------------------------------------------------
# v2 bound packing: reference-relative provenance
# ----------------------------------------------------------------------
#: Components stay inside ±2**62, so part deltas of up to ±2**62 fit
#: int64 on either side.
_LIMIT = 2**62


def _provenance(rng, n, lo, hi, depth, fanout, mode, scale, density, owner=0):
    """An interval over (lo, hi) with *depth* levels of parts below it."""
    parts = []
    for k in range(fanout if depth else 0):
        kind = mode if mode != "mixed" else rng.choice(["equal", "aggregate", "free"])
        mask = rng.random(n) < density
        if kind == "equal":  # a singleton aggregate repeats its part
            part_lo, part_hi = lo, hi
        elif kind == "aggregate":  # lo = max(parts' lo), hi = min(parts' hi)
            part_lo = np.maximum(lo - rng.integers(0, scale, n) * mask, -_LIMIT)
            part_hi = np.minimum(hi + rng.integers(0, scale, n) * mask, _LIMIT)
        else:  # any signs
            shift = rng.integers(-scale + 1, scale, n) * mask
            part_lo = np.clip(lo + shift, -_LIMIT, _LIMIT - 2**40)
            part_hi = part_lo + rng.integers(0, 2**40, n) * (rng.random(n) < 0.5)
        parts.append(
            _provenance(
                rng,
                n,
                part_lo,
                part_hi,
                depth - 1,
                fanout,
                mode,
                scale,
                density,
                owner=owner * 4 + k + 1,
            )
        )
    return Interval(
        owner=owner,
        seq=int(rng.integers(0, 2**40)),
        lo=lo,
        hi=hi,
        members=frozenset(int(m) for m in rng.integers(-5, 400, size=3)),
        parts=tuple(parts),
    )


@st.composite
def provenance_streams(draw, n=None, depth=None):
    """An ordered report stream on one channel, each report carrying
    nested provenance: n in {1, 7, 341}, up to three levels of parts,
    parts equal to, aggregated from, or anywhere around their parent,
    with deltas from zero up to 2**62 in either direction."""
    n = draw(st.sampled_from((1, 7, 341))) if n is None else n
    depth = draw(st.integers(0, 3)) if depth is None else depth
    fanout = draw(st.integers(1, 3 if depth < 3 else 2))
    mode = draw(st.sampled_from(("equal", "aggregate", "free", "mixed")))
    scale = draw(st.sampled_from((1, 4, 2**20, _LIMIT)))
    density = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = rng.integers(-(2**61), 2**61, n)
    reports = []
    for seq in range(draw(st.integers(1, 4))):
        # Heads advance like clocks: by nothing, a little, or a lot.
        step = rng.integers(0, scale, n) * (rng.random(n) < density)
        lo = np.minimum(lo + step, 2**61)
        hi = lo + rng.integers(0, 2**40, n)
        interval = _provenance(rng, n, lo, hi, depth, fanout, mode, scale, density)
        reports.append(
            IntervalReport(origin=3, dest=1, interval=interval, transport_seq=seq)
        )
    return reports


def _binary_pair():
    return FrameCodec(wire="binary"), FrameCodec(wire="binary")


class TestProvenancePacking:
    @SETTINGS
    @given(provenance_streams())
    def test_stream_round_trips_exactly(self, reports):
        enc, dec = _binary_pair()
        for report in reports:
            assert_messages_equal(report, dec.decode(enc.encode(report)))

    @settings(max_examples=25, deadline=None)
    @given(provenance_streams(depth=3))
    def test_three_level_provenance_round_trips(self, reports):
        enc, dec = _binary_pair()
        for report in reports:
            out = dec.decode(enc.encode(report))
            assert_messages_equal(report, out)
            assert [leaf.key() for leaf in out.interval.concrete_leaves()] == [
                leaf.key() for leaf in report.interval.concrete_leaves()
            ]

    @SETTINGS
    @given(provenance_streams(), st.integers(0, 4))
    def test_reconnect_resets_the_chain(self, reports, cut_raw):
        cut = cut_raw % (len(reports) + 1)
        enc, dec = _binary_pair()
        for report in reports[:cut]:
            assert_messages_equal(report, dec.decode(enc.encode(report)))
        enc, dec = _binary_pair()  # reconnect: both ends start over
        for k, report in enumerate(reports[cut:]):
            frame = enc.encode(report)
            if k == 0:  # no reference survives the reconnect
                assert frame == FrameCodec(wire="binary").encode(report)
            assert_messages_equal(report, dec.decode(frame))

    @settings(max_examples=40, deadline=None)
    @given(provenance_streams())
    def test_scalar_and_matrix_paths_agree_byte_for_byte(self, reports):
        # Small tables are packed in Python, large ones in numpy: forcing
        # either path must give the same bytes and the same messages.
        frames = {}
        for path, limit in (("scalar", 1 << 30), ("matrix", -1)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(wirepack, "_SCALAR_MAX", limit)
                enc, dec = _binary_pair()
                frames[path] = [enc.encode(report) for report in reports]
                for report, frame in zip(reports, frames[path]):
                    assert_messages_equal(report, dec.decode(frame))
        assert frames["scalar"] == frames["matrix"]

    @SETTINGS
    @given(provenance_streams(depth=1))
    def test_lean_codec_ships_heads_only(self, reports):
        enc = FrameCodec(wire="binary", include_parts=False)
        dec = FrameCodec()
        for report in reports:
            out = dec.decode(enc.encode(report))
            assert out.interval == report.interval
            assert out.interval.members == report.interval.members
            assert out.interval.parts == ()

    @SETTINGS
    @given(provenance_streams())
    def test_uncompressed_codec_round_trips(self, reports):
        enc, dec = FrameCodec(wire="binary", compress=False), FrameCodec()
        for report in reports:
            assert_messages_equal(report, dec.decode(enc.encode(report)))


class TestExtremeDeltas:
    """Deltas are taken modulo 2**64, so vectors at opposite ends of
    int64 still round-trip, on both implementation paths."""

    @pytest.mark.parametrize("limit", [1 << 30, -1], ids=["scalar", "matrix"])
    @pytest.mark.parametrize("n", [1, 7, 341])
    def test_int64_extremes_wrap_exactly(self, monkeypatch, limit, n):
        monkeypatch.setattr(wirepack, "_SCALAR_MAX", limit)
        top = np.full(n, 2**63 - 1, dtype=np.int64)
        bottom = np.full(n, -(2**63), dtype=np.int64)
        part = Interval(owner=2, seq=0, lo=bottom, hi=top)
        head = Interval(owner=1, seq=0, lo=top, hi=top, parts=(part,))
        enc, dec = _binary_pair()
        for seq, interval in enumerate((head, part, head)):
            report = IntervalReport(
                origin=1, dest=0, interval=interval, transport_seq=seq
            )
            assert_messages_equal(report, dec.decode(enc.encode(report)))
