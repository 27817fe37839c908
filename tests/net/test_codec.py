"""Unit tests: the length-prefixed frame codec and its timestamp
compression."""

import numpy as np
import pytest

from repro.intervals import Interval
from repro.net import FrameCodec
from repro.net.codec import ACK_TYPE, HELLO_TYPE, MAGIC_BINARY
from repro.sim.messages import (
    AppMessage,
    AttachAccept,
    AttachRequest,
    DetachNotice,
    Heartbeat,
    IntervalReport,
)


def _interval(owner=0, seq=0, lo=(1, 0, 0), hi=(3, 1, 0), **kw):
    return Interval(
        owner=owner,
        seq=seq,
        lo=np.array(lo, dtype=np.int64),
        hi=np.array(hi, dtype=np.int64),
        **kw,
    )


def _report(seq=0, ts=0, **kw):
    return IntervalReport(
        origin=1, dest=0, interval=_interval(owner=1, seq=seq, **kw), transport_seq=ts
    )


ALL_MESSAGES = [
    AppMessage(payload="gossip", piggyback=np.array([1, 2, 3], dtype=np.int64)),
    _report(),
    Heartbeat(sender=4),
    AttachRequest(child=5, subtree=frozenset({5, 6})),
    AttachAccept(parent=2),
    DetachNotice(child=6),
]


class TestFraming:
    @pytest.mark.parametrize("message", ALL_MESSAGES, ids=lambda m: type(m).__name__)
    def test_every_message_type_round_trips(self, message):
        enc, dec = FrameCodec(), FrameCodec()
        out = dec.decode(enc.encode(message))
        assert type(out) is type(message)
        if isinstance(message, AppMessage):
            assert out.payload == message.payload
            assert out.piggyback.tolist() == message.piggyback.tolist()
        elif isinstance(message, IntervalReport):
            assert out.interval.key() == message.interval.key()
            assert out.transport_seq == message.transport_seq
        else:
            assert out == message

    def test_byte_by_byte_feed_reassembles(self):
        enc, dec = FrameCodec(), FrameCodec()
        frames = b"".join(enc.encode(Heartbeat(sender=i)) for i in range(3))
        got = []
        for i in range(len(frames)):
            got.extend(dec.feed(frames[i : i + 1]))
        assert [m.sender for m in got] == [0, 1, 2]
        assert dec.pending_bytes == 0

    def test_meta_frames_stay_dicts(self):
        enc, dec = FrameCodec(), FrameCodec()
        out = dec.decode(enc.encode({"type": HELLO_TYPE, "node": 3}))
        assert out == {"type": HELLO_TYPE, "node": 3}

    def test_non_meta_dict_rejected(self):
        with pytest.raises(ValueError):
            FrameCodec().encode({"type": "IntervalReport"})

    def test_oversized_declared_length_poisons_stream(self):
        dec = FrameCodec(max_frame=64)
        with pytest.raises(ValueError):
            dec.feed(b"\x7f\xff\xff\xff" + b"x" * 8)


class TestCompression:
    def test_reference_chain_round_trips_a_report_sequence(self):
        enc, dec = FrameCodec(), FrameCodec()
        rng = np.random.default_rng(7)
        clock = np.zeros(16, dtype=np.int64)
        for seq in range(40):
            clock = clock + rng.integers(0, 3, size=16)
            report = IntervalReport(
                origin=1,
                dest=0,
                interval=Interval(owner=1, seq=seq, lo=clock.copy(), hi=clock + 1),
                transport_seq=seq,
            )
            out = dec.decode(enc.encode(report))
            assert out.interval.lo.tolist() == report.interval.lo.tolist()
            assert out.interval.hi.tolist() == report.interval.hi.tolist()
        # Slowly advancing clocks must actually trigger the cheap schemes.
        assert enc.encodings["differential"] + enc.encodings["sparse"] > 0

    def test_compression_beats_raw_for_slow_clocks(self):
        compressed, raw = FrameCodec(), FrameCodec(compress=False)
        clock = np.zeros(64, dtype=np.int64)
        small = big = 0
        for seq in range(20):
            clock[seq % 3] += 1
            report = IntervalReport(
                origin=1,
                dest=0,
                interval=Interval(owner=1, seq=seq, lo=clock.copy(), hi=clock.copy()),
                transport_seq=seq,
            )
            small += len(compressed.encode(report))
            big += len(raw.encode(report))
        assert small < big

    def test_parts_survive_by_default_and_strip_when_lean(self):
        part = _interval(owner=2, seq=0)
        aggregate = Interval(
            owner=1,
            seq=0,
            lo=part.lo,
            hi=part.hi,
            members=frozenset({1, 2}),
            parts=(part,),
        )
        report = IntervalReport(origin=1, dest=0, interval=aggregate)

        fat = FrameCodec().decode(FrameCodec().encode(report))
        assert [p.key() for p in fat.interval.parts] == [part.key()]

        lean_codec = FrameCodec(include_parts=False)
        lean = FrameCodec().decode(lean_codec.encode(report))
        assert lean.interval.parts == ()
        assert lean.interval.members == aggregate.members

    def test_shape_change_resets_reference(self):
        enc, dec = FrameCodec(), FrameCodec()
        for n in (3, 5, 3):
            report = _report(lo=[1] * n, hi=[2] * n)
            out = dec.decode(enc.encode(report))
            assert out.interval.lo.tolist() == [1] * n


class TestMetaSidecar:
    """The ``_meta`` frame sidecar: transport-level annotations (span
    coordinates for cross-node trace stitching) riding on message
    frames without touching message identity."""

    def test_meta_round_trips(self):
        tx, rx = FrameCodec(), FrameCodec()
        frame = tx.encode(_report(), meta={"span": [1, 5]})
        ((message, meta),) = rx.feed_meta(frame)
        assert isinstance(message, IntervalReport)
        assert meta == {"span": [1, 5]}

    def test_absent_meta_decodes_as_none(self):
        tx, rx = FrameCodec(), FrameCodec()
        ((_, meta),) = rx.feed_meta(tx.encode(Heartbeat(sender=2)))
        assert meta is None

    def test_plain_feed_discards_meta(self):
        tx, rx = FrameCodec(), FrameCodec()
        (message,) = rx.feed(tx.encode(_report(), meta={"span": [0, 1]}))
        assert isinstance(message, IntervalReport)

    def test_meta_does_not_change_message_identity(self):
        tx_a, tx_b = FrameCodec(), FrameCodec()
        rx_a, rx_b = FrameCodec(), FrameCodec()
        plain = rx_a.feed(tx_a.encode(_report()))[0]
        tagged = rx_b.feed(tx_b.encode(_report(), meta={"span": [3, 7]}))[0]
        assert plain.interval.key() == tagged.interval.key()
        assert plain.transport_seq == tagged.transport_seq

    def test_meta_frames_reject_meta(self):
        codec = FrameCodec()
        with pytest.raises(ValueError):
            codec.encode({"type": HELLO_TYPE, "node": 1}, meta={"span": [0, 0]})

    @pytest.mark.parametrize("wire", ["binary", "json"])
    def test_epoch_ids_ride_the_sidecar(self, wire):
        # The epoch ledger's ids travel next to span coordinates; the
        # packed wire must hand them back bit-identical and typed.
        tx = FrameCodec(wire=wire)
        rx = FrameCodec(wire=wire)
        meta = {"span": [1, 5], "sampled": True, "epochs": [0, 3, 17]}
        ((message, got),) = rx.feed_meta(tx.encode(_report(), meta=meta))
        assert isinstance(message, IntervalReport)
        assert got == meta
        assert got["epochs"] == [0, 3, 17]

    def test_epoch_sidecar_respects_max_meta(self):
        tx = FrameCodec(wire="binary", max_meta=64)
        small = {"epochs": [1]}
        assert tx.encode(_report(), meta=small)
        with pytest.raises(ValueError, match="max_meta"):
            tx.encode(_report(seq=1, ts=1), meta={"epochs": list(range(1000))})

    def test_meta_survives_compression_chain(self):
        tx, rx = FrameCodec(), FrameCodec()
        for seq in range(4):
            frame = tx.encode(
                _report(seq=seq, ts=seq, lo=(seq + 1, 0, 0), hi=(seq + 3, 1, 0)),
                meta={"span": [1, seq]},
            )
            ((message, meta),) = rx.feed_meta(frame)
            assert meta == {"span": [1, seq]}
            assert message.interval.seq == seq


class TestMetaBounds:
    """Sidecar hygiene: unknown keys tolerated for forward compat, but
    the sidecar's size is bounded on both sides of the wire so a rogue
    peer cannot smuggle unbounded payload past ``max_frame`` policy."""

    def test_unknown_meta_keys_round_trip(self):
        tx, rx = FrameCodec(), FrameCodec()
        meta = {"span": [1, 5], "sampled": True, "future_field": {"x": 1}}
        ((_, got),) = rx.feed_meta(tx.encode(_report(), meta=meta))
        assert got == meta

    def test_non_dict_meta_rejected_on_encode(self):
        codec = FrameCodec()
        for bad in ([1, 2], "span", 7):
            with pytest.raises(ValueError):
                codec.encode(_report(), meta=bad)

    def test_oversized_meta_rejected_on_encode(self):
        codec = FrameCodec(max_meta=64)
        with pytest.raises(ValueError, match="max_meta"):
            codec.encode(_report(), meta={"blob": "x" * 256})

    def test_oversized_meta_poisons_frame_on_decode(self):
        # A permissive sender vs a strict receiver: the decode-side
        # check fires even though the frame itself framed fine.
        tx = FrameCodec(max_meta=1 << 20)
        rx = FrameCodec(max_meta=64)
        frame = tx.encode(_report(), meta={"blob": "x" * 256})
        with pytest.raises(ValueError, match="max_meta"):
            rx.feed_meta(frame)

    def test_meta_within_bound_passes_both_sides(self):
        tx = FrameCodec(max_meta=128)
        rx = FrameCodec(max_meta=128)
        ((_, meta),) = rx.feed_meta(tx.encode(_report(), meta={"span": [0, 1]}))
        assert meta == {"span": [0, 1]}


def _binary():
    return FrameCodec(wire="binary")


class TestBinaryWire:
    """The packed wire: struct header + varint bodies, self-describing
    frame by frame so either end may still speak legacy JSON."""

    @pytest.mark.parametrize("message", ALL_MESSAGES, ids=lambda m: type(m).__name__)
    def test_every_message_type_round_trips(self, message):
        enc, dec = _binary(), _binary()
        frame = enc.encode(message)
        assert frame[0] == MAGIC_BINARY
        out = dec.decode(frame)
        assert type(out) is type(message)
        if isinstance(message, AppMessage):
            assert out.payload == message.payload
            assert out.piggyback.tolist() == message.piggyback.tolist()
        elif isinstance(message, IntervalReport):
            assert out.interval.key() == message.interval.key()
            assert out.transport_seq == message.transport_seq
        else:
            assert out == message

    def test_binary_stream_is_smaller_than_json(self):
        # A cold raw frame can lose to JSON digits (8 bytes per int64
        # vs a few characters), but over a report stream the varint
        # pair schemes chain and the packed wire wins overall.
        bin_codec, json_codec = _binary(), FrameCodec()
        packed = plain = 0
        clock = np.zeros(32, dtype=np.int64)
        for seq in range(20):
            clock[seq % 5] += 1
            report = IntervalReport(
                origin=1,
                dest=0,
                interval=Interval(owner=1, seq=seq, lo=clock.copy(), hi=clock + 1),
                transport_seq=seq,
            )
            packed += len(bin_codec.encode(report))
            plain += len(json_codec.encode(report))
        assert packed < plain

    def test_byte_by_byte_feed_reassembles(self):
        enc, dec = _binary(), _binary()
        frames = b"".join(enc.encode(Heartbeat(sender=i)) for i in range(3))
        got = []
        for i in range(len(frames)):
            got.extend(dec.feed(frames[i : i + 1]))
        assert [m.sender for m in got] == [0, 1, 2]
        assert dec.pending_bytes == 0

    def test_truncated_header_waits_for_more_bytes(self):
        dec = _binary()
        frame = _binary().encode(Heartbeat(sender=9))
        assert dec.feed(frame[:3]) == []
        assert dec.pending_bytes == 3
        (out,) = dec.feed(frame[3:])
        assert out.sender == 9

    def test_mixed_wire_stream_interoperates(self):
        # One decoder, alternating senders: frames are self-describing,
        # so a json peer and a binary peer can share a buffer.
        json_tx, bin_tx, rx = FrameCodec(), _binary(), FrameCodec()
        stream = (
            json_tx.encode(Heartbeat(sender=1))
            + bin_tx.encode(Heartbeat(sender=2))
            + json_tx.encode(DetachNotice(child=3))
            + bin_tx.encode(AttachAccept(parent=4))
        )
        out = rx.feed(stream)
        assert [type(m).__name__ for m in out] == [
            "Heartbeat",
            "Heartbeat",
            "DetachNotice",
            "AttachAccept",
        ]

    def test_hello_stays_legacy_json_on_binary_wire(self):
        frame = _binary().encode(
            {"type": HELLO_TYPE, "node": 3, "wire": "binary", "codec": 1}
        )
        assert not frame[0] & 0x80  # legacy length prefix, readable by v0 peers
        out = FrameCodec().decode(frame)
        assert out["wire"] == "binary"

    def test_ack_goes_packed_on_binary_wire(self):
        frame = _binary().encode({"type": ACK_TYPE, "n": 1 << 20})
        assert frame[0] == MAGIC_BINARY
        assert len(frame) < 16
        assert _binary().decode(frame) == {"type": ACK_TYPE, "n": 1 << 20}

    def test_ack_stays_json_on_json_wire(self):
        frame = FrameCodec().encode({"type": ACK_TYPE, "n": 5})
        assert not frame[0] & 0x80
        assert _binary().decode(frame) == {"type": ACK_TYPE, "n": 5}

    def test_unsupported_version_byte_poisons_stream(self):
        with pytest.raises(ValueError, match="version"):
            _binary().feed(b"\xb3\x00\x00\x00\x00\x00\x00")

    def test_unknown_flags_poison_stream(self):
        import struct

        frame = struct.pack(">BBBI", MAGIC_BINARY, 2, 0x04, 1) + b"\x02"
        with pytest.raises(ValueError, match="flags"):
            _binary().feed(frame)

    def test_trailing_garbage_after_body_poisons_stream(self):
        import struct

        good = _binary().encode(Heartbeat(sender=1))
        _, tag, flags, length = struct.unpack_from(">BBBI", good)
        bad = struct.pack(">BBBI", MAGIC_BINARY, tag, flags, length + 2) + good[7:] + b"\x00\x00"
        with pytest.raises(ValueError, match="trailing"):
            _binary().feed(bad)

    def test_oversized_body_rejected_on_encode(self):
        codec = FrameCodec(wire="binary", max_frame=64)
        with pytest.raises(ValueError, match="max_frame"):
            codec.encode(AppMessage(payload="x" * 256, piggyback=np.zeros(1, np.int64)))

    def test_oversized_declared_length_poisons_stream(self):
        import struct

        dec = FrameCodec(wire="binary", max_frame=64)
        with pytest.raises(ValueError, match="max_frame"):
            dec.feed(struct.pack(">BBBI", MAGIC_BINARY, 2, 0, 1 << 20) + b"x" * 8)

    def test_escape_hatch_carries_unknown_types_as_json(self, monkeypatch):
        # Simulate a message type the packer does not know: the frame
        # must still go out behind a binary header, tagged TAG_JSON.
        import repro.net.codec as codec_mod

        monkeypatch.setattr(codec_mod, "pack_message", lambda *a, **k: None)
        enc = _binary()
        frame = enc.encode(Heartbeat(sender=7))
        assert frame[0] == MAGIC_BINARY and frame[1] == 0  # TAG_JSON
        monkeypatch.undo()
        out = _binary().decode(frame)
        assert isinstance(out, Heartbeat) and out.sender == 7

    def test_reference_chain_round_trips_a_report_sequence(self):
        enc, dec = _binary(), _binary()
        rng = np.random.default_rng(11)
        clock = np.zeros(16, dtype=np.int64)
        for seq in range(40):
            clock = clock + rng.integers(0, 3, size=16)
            report = IntervalReport(
                origin=1,
                dest=0,
                interval=Interval(owner=1, seq=seq, lo=clock.copy(), hi=clock + 1),
                transport_seq=seq,
            )
            out = dec.decode(enc.encode(report))
            assert out.interval.lo.tolist() == report.interval.lo.tolist()
            assert out.interval.hi.tolist() == report.interval.hi.tolist()
        assert enc.encodings["dense"] + enc.encodings["sparse"] > 0

    def test_shape_change_resets_reference(self):
        enc, dec = _binary(), _binary()
        for n in (3, 5, 3):
            report = _report(lo=[1] * n, hi=[2] * n)
            out = dec.decode(enc.encode(report))
            assert out.interval.lo.tolist() == [1] * n

    def test_parts_survive_by_default_and_strip_when_lean(self):
        part = _interval(owner=2, seq=0)
        aggregate = Interval(
            owner=1,
            seq=0,
            lo=part.lo,
            hi=part.hi,
            members=frozenset({1, 2}),
            parts=(part,),
        )
        report = IntervalReport(origin=1, dest=0, interval=aggregate)

        fat = _binary().decode(_binary().encode(report))
        assert [p.key() for p in fat.interval.parts] == [part.key()]

        lean = _binary().decode(
            FrameCodec(wire="binary", include_parts=False).encode(report)
        )
        assert lean.interval.parts == ()
        assert lean.interval.members == aggregate.members

    def test_invalid_wire_name_rejected(self):
        with pytest.raises(ValueError, match="wire"):
            FrameCodec(wire="protobuf")


class TestBinaryMeta:
    """The ``_meta`` sidecar on the packed path: a flag bit plus a
    length-prefixed JSON trailer, bounded exactly like the JSON path."""

    def test_meta_round_trips(self):
        tx, rx = _binary(), _binary()
        frame = tx.encode(_report(), meta={"span": [1, 5]})
        assert frame[0] == MAGIC_BINARY and frame[2] & 0x01
        ((message, meta),) = rx.feed_meta(frame)
        assert isinstance(message, IntervalReport)
        assert meta == {"span": [1, 5]}

    def test_absent_meta_decodes_as_none(self):
        tx, rx = _binary(), _binary()
        frame = tx.encode(Heartbeat(sender=2))
        assert not frame[2] & 0x01
        ((_, meta),) = rx.feed_meta(frame)
        assert meta is None

    def test_meta_survives_json_receiver(self):
        # A binary sender's sidecar reaches a receiver built for json.
        tx, rx = _binary(), FrameCodec()
        ((_, meta),) = rx.feed_meta(tx.encode(_report(), meta={"span": [3, 7]}))
        assert meta == {"span": [3, 7]}

    def test_oversized_meta_rejected_on_encode(self):
        codec = FrameCodec(wire="binary", max_meta=64)
        with pytest.raises(ValueError, match="max_meta"):
            codec.encode(_report(), meta={"blob": "x" * 256})

    def test_oversized_meta_poisons_frame_on_decode(self):
        tx = FrameCodec(wire="binary", max_meta=1 << 20)
        rx = FrameCodec(max_meta=64)
        frame = tx.encode(_report(), meta={"blob": "x" * 256})
        with pytest.raises(ValueError, match="max_meta"):
            rx.feed_meta(frame)

    def test_truncated_sidecar_poisons_frame(self):
        import struct

        tx = _binary()
        frame = tx.encode(_report(), meta={"span": [1, 2]})
        _, tag, flags, length = struct.unpack_from(">BBBI", frame)
        # Chop the last sidecar byte and re-declare the shorter length:
        # the sidecar's own length prefix now points past the body.
        body = frame[7:-1]
        bad = struct.pack(">BBBI", MAGIC_BINARY, tag, flags, len(body)) + body
        with pytest.raises(ValueError, match="truncated _meta"):
            _binary().feed_meta(bad)

    def test_meta_frames_reject_meta(self):
        with pytest.raises(ValueError):
            _binary().encode({"type": ACK_TYPE, "n": 1}, meta={"span": [0, 0]})

    def test_sidecar_serialized_once_per_frame(self, monkeypatch):
        import json as real_json

        import repro.net.codec as codec_mod

        dumped = []

        class CountingJson:
            loads = staticmethod(real_json.loads)

            @staticmethod
            def dumps(obj, **kw):
                dumped.append(obj)
                return real_json.dumps(obj, **kw)

        monkeypatch.setattr(codec_mod, "json", CountingJson)
        meta = {"span": [1, 5], "epochs": [3]}
        frame = _binary().encode(_report(), meta=meta)
        assert dumped == [meta]
        dumped.clear()
        ((_, got),) = _binary().feed_meta(frame)
        assert got == meta and dumped == []  # bounded by its length prefix

    def test_non_object_sidecar_poisons_frame_on_decode(self):
        import struct

        from repro.sim.wirepack import write_uvarint

        frame = _binary().encode(Heartbeat(sender=1))
        body = bytearray(frame[7:])
        write_uvarint(body, 5)
        body += b"[1,2]"
        bad = struct.pack(">BBBI", MAGIC_BINARY, frame[1], 0x01, len(body)) + body
        with pytest.raises(ValueError, match="JSON object"):
            _binary().feed_meta(bytes(bad))


def _report_body_parts(body):
    """Split a packed IntervalReport body into (field count, varint
    section, schemes + raw sections)."""
    from repro.sim.wirepack import read_uvarint

    count, offset = read_uvarint(body, 0)
    length, offset = read_uvarint(body, offset)
    return count, body[offset : offset + length], body[offset + length :]


def _rebuild(frame, count, section, rest):
    """A binary frame around a report body reassembled from its parts."""
    import struct

    from repro.sim.wirepack import write_uvarint

    body = bytearray()
    write_uvarint(body, count)
    write_uvarint(body, len(section))
    body += section + rest
    return struct.pack(">BBBI", frame[0], frame[1], frame[2], len(body)) + bytes(body)


def _nested_report(part_hi=(10, 10, 10)):
    """Head and one part, every bound dense: the part's hi is the last
    value of the varint section."""
    part = Interval(
        owner=2,
        seq=0,
        lo=np.array([4, 5, 6], dtype=np.int64),
        hi=np.array(part_hi, dtype=np.int64),
    )
    head = Interval(
        owner=1,
        seq=0,
        lo=np.array([5, 6, 7], dtype=np.int64),
        hi=np.array([9, 9, 9], dtype=np.int64),
        members=frozenset({1, 2}),
        parts=(part,),
    )
    return IntervalReport(origin=1, dest=0, interval=head)


class TestBinaryV2Poisoning:
    """Damage inside the v2 report body — the reference-relative bounds
    block — poisons the stream like any other structural damage."""

    def test_intact_frame_decodes(self):
        frame = _binary().encode(_nested_report())
        count, section, rest = _report_body_parts(frame[7:])
        assert _binary().decode(_rebuild(frame, count, section, rest)).interval.parts

    def test_truncated_part_delta_poisons_stream(self):
        frame = _binary().encode(_nested_report())
        count, section, rest = _report_body_parts(frame[7:])
        assert rest[:4] == bytes([2, 2, 2, 2])  # all four bounds dense
        bad = _rebuild(frame, count, section[:-1], rest)
        with pytest.raises(ValueError, match="truncated timestamp deltas"):
            _binary().feed(bad)

    def test_part_delta_cut_mid_varint_poisons_stream(self):
        # A +1000 delta zigzags to a two-byte varint; cut after its
        # first byte, the continuation bit points past the section.
        frame = _binary().encode(_nested_report(part_hi=(10, 10, 1009)))
        count, section, rest = _report_body_parts(frame[7:])
        assert section[-2] & 0x80
        with pytest.raises(ValueError, match="truncated varint"):
            _binary().feed(_rebuild(frame, count, section[:-1], rest))

    def test_unknown_scheme_byte_poisons_stream(self):
        frame = _binary().encode(_nested_report())
        count, section, rest = _report_body_parts(frame[7:])
        bad = _rebuild(frame, count, section, bytes([3]) + rest[1:])
        with pytest.raises(ValueError, match="unknown timestamp scheme byte 3"):
            _binary().feed(bad)

    def test_v1_frame_poisons_stream(self):
        frame = _binary().encode(_report())
        with pytest.raises(ValueError, match="version byte 0xb1"):
            _binary().feed(b"\xb1" + frame[1:])

    def test_mismatched_part_size_rejected_on_encode(self):
        part = _interval(owner=2, lo=(1, 0), hi=(2, 0))
        head = _interval(owner=1, parts=(part,), members=frozenset({1, 2}))
        with pytest.raises(ValueError, match="provenance part"):
            _binary().encode(IntervalReport(origin=1, dest=0, interval=head))

    def test_part_repeating_its_parent_costs_a_byte_per_bound(self):
        leaf = _interval(owner=3, lo=(7, 8, 9), hi=(9, 9, 9))
        singleton = Interval(
            owner=3, seq=0, lo=leaf.lo, hi=leaf.hi, parts=(leaf,)
        )
        bare = _binary().encode(IntervalReport(origin=3, dest=1, interval=leaf))
        wrapped = _binary().encode(IntervalReport(origin=3, dest=1, interval=singleton))
        # One more interval: owner, seq, member count, member, part
        # count (five one-byte fields) and two sparse bounds with a
        # zero count each (a scheme byte plus a count byte apiece).
        assert len(wrapped) - len(bare) == 5 + 2 * 2


class TestWireBudget:
    """Bytes on the wire for a fixed 7-node report stream (binary tree,
    seed 3, four epochs; two detections): leaf reports carry their own
    interval as a singleton aggregate, interior reports the nested
    provenance of their subtree.  v1 sent 3,735 and 4,392 bytes."""

    def test_leaf_and_interior_report_sizes(self, monkeypatch):
        from repro import EpochConfig, SpanningTree, run_hierarchical
        from repro.sim.network import Network

        sent = []
        send = Network.send

        def recording_send(self, src, dst, message, plane="app"):
            if isinstance(message, IntervalReport):
                sent.append(message)
            return send(self, src, dst, message, plane)

        monkeypatch.setattr(Network, "send", recording_send)
        tree = SpanningTree.regular(2, 3)
        result = run_hierarchical(
            tree, seed=3, config=EpochConfig(epochs=4, sync_prob=0.8)
        )
        assert len(result.detections) == 2
        codecs, sizes = {}, {"leaf": [], "interior": []}
        for report in sent:
            codec = codecs.setdefault(
                (report.origin, report.dest), FrameCodec(wire="binary")
            )
            kind = "leaf" if tree.is_leaf(report.origin) else "interior"
            sizes[kind].append(len(codec.encode(report)))
        assert (len(sizes["leaf"]), sum(sizes["leaf"])) == (16, 668)
        assert (len(sizes["interior"]), sum(sizes["interior"])) == (6, 606)
        assert max(sizes["leaf"]) <= 64 and max(sizes["interior"]) <= 128
