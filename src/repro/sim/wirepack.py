"""Packed binary bodies for the control-plane message dataclasses.

:mod:`repro.sim.serialize` defines the canonical *JSON* forms of every
:mod:`repro.sim.messages` dataclass; this module defines the equivalent
*packed* forms — the payload layer of the binary wire protocol
(:class:`repro.net.FrameCodec` with ``wire="binary"``).  Both layers
serialize exactly the same information, so the round-trip contract is
shared: ``unpack_message(*pack_message(m)) == m`` for every message
type, pinned by the property suite in ``tests/property/test_wire.py``.

Layout conventions
------------------
* **uvarint** — LEB128 unsigned varint (7 bits per byte, little-endian
  groups, continuation bit 0x80).  Used for counts, lengths, sequence
  numbers and vector sizes.
* **svarint** — zigzag-mapped uvarint (``(v << 1) ^ (v >> 63)`` in the
  signed sense, but unbounded — Python ints never truncate).  Used for
  every value field that could conceivably be negative.
* **bounds** — every ``lo``/``hi`` vector of a report (the head and all
  of its provenance) is packed as signed deltas against a *reference*
  both ends already hold: the channel's previous head for the head
  (passed in by the frame codec; all zeros when there is none), and the
  enclosing interval's own bound for each part.  Each bound then takes
  whichever scheme packs it into the fewest bytes:

  - raw (:data:`SCHEME_RAW`): the absolute values, ``n`` big-endian
    int64s, no reference;
  - sparse (:data:`SCHEME_SPARSE`): the non-zero deltas as a count and
    ``(index, zigzag delta)`` pairs;
  - dense (:data:`SCHEME_DENSE`): all ``n`` zigzag deltas.

  Deltas are taken modulo 2**64, so every int64 vector round-trips
  exactly.  The sizing and the varint coding run on the whole report's
  bound matrix at once in numpy, so a 341-entry clock costs a handful
  of array operations, not a Python loop per component.

An ``IntervalReport`` body is::

    uvarint #fields | uvarint byte length of the varint section
    varint section:
        fields: zigzag origin, zigzag dest, transport_seq, n; then per
            interval in preorder (head first, then each part's subtree)
            zigzag owner, seq, #members, zigzag member…, #parts
        bound values: the dense bounds' deltas, row by row; one count
            per sparse bound; the sparse bounds' (index, delta) pairs
    one scheme byte per bound (lo then hi of each interval, preorder)
    raw section: 8·n bytes per raw bound

All of a report's integers share one varint section, so encoding and
decoding it are a few array operations however many intervals the
provenance holds.  Every interval of a report has the head's ``n``
components (a part of another size cannot be packed), and every field
fits 64 bits.

Message tags are part of the stable wire schema, mirroring the JSON
``type`` strings one-to-one (:data:`MESSAGE_TAGS`).  Tag 0 is reserved
by the frame layer for the JSON escape hatch (meta frames and message
types unknown to the packer), so packed message tags start at 1.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List, Optional, Tuple

import numpy as np

from ..clocks import freeze
from ..intervals import Interval
from .messages import (
    AppMessage,
    AttachAccept,
    AttachRequest,
    DetachNotice,
    Heartbeat,
    IntervalReport,
)

__all__ = [
    "TAG_JSON",
    "TAG_INTERVAL_REPORT",
    "TAG_HEARTBEAT",
    "TAG_APP_MESSAGE",
    "TAG_ATTACH_REQUEST",
    "TAG_ATTACH_ACCEPT",
    "TAG_DETACH_NOTICE",
    "TAG_ACK",
    "MESSAGE_TAGS",
    "SCHEME_RAW",
    "SCHEME_SPARSE",
    "SCHEME_DENSE",
    "SCHEME_NAMES",
    "write_uvarint",
    "read_uvarint",
    "write_svarint",
    "read_svarint",
    "pack_message",
    "unpack_message",
]

#: Frame-layer escape hatch: the body is a JSON object (a ``__``-meta
#: frame, or a message type this packer does not know).
TAG_JSON = 0
TAG_INTERVAL_REPORT = 1
TAG_HEARTBEAT = 2
TAG_APP_MESSAGE = 3
TAG_ATTACH_REQUEST = 4
TAG_ATTACH_ACCEPT = 5
TAG_DETACH_NOTICE = 6
#: Transport acknowledgement (``{"type": "__ack__", "n": N}``): packed
#: by the frame codec itself (a single uvarint body), listed here so the
#: tag space has one home.
TAG_ACK = 7

#: JSON ``type`` string -> packed tag, one-to-one.
MESSAGE_TAGS = {
    "IntervalReport": TAG_INTERVAL_REPORT,
    "Heartbeat": TAG_HEARTBEAT,
    "AppMessage": TAG_APP_MESSAGE,
    "AttachRequest": TAG_ATTACH_REQUEST,
    "AttachAccept": TAG_ATTACH_ACCEPT,
    "DetachNotice": TAG_DETACH_NOTICE,
}

SCHEME_RAW = 0
SCHEME_SPARSE = 1
SCHEME_DENSE = 2
#: scheme byte -> name (the keys of ``FrameCodec.encodings``).
SCHEME_NAMES = {
    SCHEME_RAW: "raw",
    SCHEME_SPARSE: "sparse",
    SCHEME_DENSE: "dense",
}

#: Hard cap on varint length: 10 bytes covers 70 bits, enough for any
#: zigzagged int64.  Longer runs indicate a corrupt or hostile stream.
_MAX_VARINT_BYTES = 10


# ----------------------------------------------------------------------
# varint primitives
# ----------------------------------------------------------------------
def write_uvarint(buf: bytearray, value: int) -> None:
    """Append *value* (non-negative int) to *buf* as a LEB128 varint."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def read_uvarint(data: bytes, offset: int) -> Tuple[int, int]:
    """Read a LEB128 varint from ``data[offset:]``; returns
    ``(value, new_offset)``.  Truncated or over-long runs raise
    :class:`ValueError` (the frame layer treats that as a poisoned
    stream)."""
    value = 0
    shift = 0
    limit = len(data)
    for count in range(_MAX_VARINT_BYTES):
        if offset >= limit:
            raise ValueError("truncated varint in packed frame body")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
    raise ValueError("over-long varint in packed frame body")


def write_svarint(buf: bytearray, value: int) -> None:
    """Append a signed int as a zigzag-mapped varint."""
    write_uvarint(buf, (value << 1) ^ (value >> 63) if value < 0 else value << 1)


def read_svarint(data: bytes, offset: int) -> Tuple[int, int]:
    raw, offset = read_uvarint(data, offset)
    return (raw >> 1) ^ -(raw & 1), offset


# -- the same primitives over uint64 arrays ----------------------------
#: A uint64 ``z`` packs into ``1 + #{step <= z}`` LEB128 bytes.
_VARINT_STEPS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)


def _varint_sizes(values: np.ndarray) -> np.ndarray:
    """LEB128 byte length of every uint64 in *values* (same shape)."""
    return np.searchsorted(_VARINT_STEPS, values, side="right") + 1


def _zigzag(deltas: np.ndarray) -> np.ndarray:
    """int64 -> uint64, small magnitudes of either sign to small codes."""
    return ((deltas << 1) ^ (deltas >> 63)).view(np.uint64)


def _unzigzag(codes: np.ndarray) -> np.ndarray:
    return (codes >> np.uint64(1)).view(np.int64) ^ -(codes & np.uint64(1)).view(
        np.int64
    )


def _pack_varints(values: np.ndarray) -> bytes:
    """LEB128 of every value of a 1-D uint64 array, concatenated."""
    if not values.size:
        return b""
    sizes = _varint_sizes(values)
    width = int(sizes.max())
    if width == 1:
        return values.astype(np.uint8).tobytes()
    shifts = np.arange(0, 7 * width, 7, dtype=np.uint64)
    groups = ((values[:, None] >> shifts) & np.uint64(0x7F)).astype(np.uint8)
    column = np.arange(width)
    groups[column < (sizes - 1)[:, None]] |= 0x80
    return groups[column < sizes[:, None]].tobytes()


def _unpack_varints(data: bytes, offset: int, end: int) -> np.ndarray:
    """Invert :func:`_pack_varints` over ``data[offset:end]``."""
    raw = np.frombuffer(data, dtype=np.uint8, count=end - offset, offset=offset)
    if not raw.size:
        return np.zeros(0, dtype=np.uint64)
    stops = np.flatnonzero(raw < 0x80)
    if not stops.size or stops[-1] != raw.size - 1:
        raise ValueError("truncated varint in packed frame body")
    if stops.size == raw.size:
        return raw.astype(np.uint64)
    starts = np.empty_like(stops)
    starts[0] = 0
    starts[1:] = stops[:-1] + 1
    sizes = stops - starts + 1
    if sizes.max() > _MAX_VARINT_BYTES:
        raise ValueError("over-long varint in packed frame body")
    position = np.arange(raw.size) - np.repeat(starts, sizes)
    if sizes.max() == _MAX_VARINT_BYTES and (raw[position == 9] > 1).any():
        raise ValueError("varint beyond 64 bits in packed timestamp")
    chunks = (raw & 0x7F).astype(np.uint64) << (7 * position).astype(np.uint64)
    return np.bitwise_or.reduceat(chunks, starts)


def _varint_list(chunk: bytes) -> List[int]:
    """:func:`_unpack_varints` over a short byte string, in Python."""
    if max(chunk, default=0) < 0x80:
        return list(chunk)
    out = []
    value = shift = 0
    for byte in chunk:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
            if shift >= 7 * _MAX_VARINT_BYTES:
                raise ValueError("over-long varint in packed frame body")
        else:
            if value >> 64:
                raise ValueError("varint beyond 64 bits in packed timestamp")
            out.append(value)
            value = shift = 0
    if shift:
        raise ValueError("truncated varint in packed frame body")
    return out


# ----------------------------------------------------------------------
# bounds (the report's timestamp table)
# ----------------------------------------------------------------------
# A report's bounds form a table: row 0 all zeros, rows 1/2 the channel
# reference (zeros when absent or of another size), then one row per
# bound in preorder.  ``refs[i]`` names the table row bound ``i`` is
# packed against.  Two implementations produce and accept the same
# bytes: a matrix one in numpy, whose cost is a fixed number of array
# operations (a 341-entry clock), and a scalar one over Python lists
# for small tables, where numpy's per-call overhead would dominate (the
# 7-entry clocks of a small cluster).

#: ``(lo, hi)`` of the channel's previous head, or ``None``.
Reference = Optional[Tuple[np.ndarray, np.ndarray]]

#: Tables of at most this many bound entries, and varint sections of at
#: most this many bytes, take the scalar path.
_SCALAR_MAX = 256

#: Guard on the decoded bound table: sparse rows cost a byte each at
#: any ``n``, so a hostile ``n`` must not size the allocation.
_MAX_TABLE_ENTRIES = 1 << 24

_INT64_MIN = -(1 << 63)
_UINT64 = (1 << 64) - 1


def _zz(value: int) -> int:
    """Python-int zigzag (unbounded; int64 values map below 2**64)."""
    return value << 1 if value >= 0 else ~(value << 1)


def _unzz(code: int) -> int:
    return (code >> 1) ^ -(code & 1)


def _wrap(value: int) -> int:
    """*value* modulo 2**64, as an int64."""
    return ((value - _INT64_MIN) & _UINT64) + _INT64_MIN


def _size(code: int) -> int:
    """LEB128 byte length of a non-negative int."""
    return (code.bit_length() + 6) // 7 or 1


def _table(
    n: int, rows: int, reference: Reference, bounds: List[np.ndarray] = ()
) -> np.ndarray:
    """The table as an int64 matrix (bound rows zero when *bounds* is
    empty)."""
    table = np.zeros((3 + rows, n), dtype=np.int64)
    if reference is not None and reference[0].shape == (n,):
        table[1] = reference[0]
        table[2] = reference[1]
    if bounds and n:
        np.concatenate(bounds, out=table[3:].reshape(-1))
    return table


def _reference_rows(n: int, reference: Reference) -> List[list]:
    """Rows 0–2 of the table as lists."""
    if reference is None or reference[0].shape != (n,):
        return [[0] * n] * 3
    return [[0] * n, reference[0].tolist(), reference[1].tolist()]


def _choose(n: int, dense: int, sparse: int) -> int:
    """The scheme of a bound from its exact packed sizes (ties go to
    raw, then sparse)."""
    if 8 * n <= min(sparse, dense):
        return SCHEME_RAW
    return SCHEME_SPARSE if sparse <= dense else SCHEME_DENSE


def _pack_bounds_scalar(
    n: int, reference: Reference, bounds: List[np.ndarray], refs: List[int]
) -> Tuple[bytes, list, bytes]:
    """Pack every bound against its reference row: the scheme bytes,
    the ints for the varint section, and the raw section."""
    table = _reference_rows(n, reference) + [bound.tolist() for bound in bounds]
    schemes = bytearray()
    dense_values: list = []
    counts: list = []
    pairs: list = []
    raw: list = []
    for row, ref in zip(table[3:], refs):
        if row == table[ref]:  # a part repeating its parent: no deltas
            schemes.append(SCHEME_SPARSE)
            counts.append(0)
            continue
        codes = [
            d << 1 if (d := a - b) >= 0 else ~(d << 1) for a, b in zip(row, table[ref])
        ]
        top = max(codes)
        if top >> 64:  # a delta beyond int64: wrap it like the matrix path
            codes = [_zz(_wrap(a - b)) for a, b in zip(row, table[ref])]
        count = n - codes.count(0)
        if top < 0x80 and n < 0x80:
            dense, sparse = n, 1 + 2 * count
        else:
            dense = sum(map(_size, codes))
            sparse = dense - n + count + _size(count)
            sparse += sum(_size(column) for column, code in enumerate(codes) if code)
        scheme = _choose(n, dense, sparse)
        schemes.append(scheme)
        if scheme == SCHEME_DENSE:
            dense_values += codes
        elif scheme == SCHEME_SPARSE:
            counts.append(count)
            for column, code in enumerate(codes):
                if code:
                    pairs += (column, code)
        else:
            raw += row
    packed_raw = np.array(raw, dtype=">i8").tobytes() if raw else b""
    return bytes(schemes), dense_values + counts + pairs, packed_raw


def _unpack_bounds_scalar(
    values: list,
    schemes: bytes,
    data: bytes,
    offset: int,
    n: int,
    reference: Reference,
    refs: List[int],
) -> Tuple[List[np.ndarray], int]:
    """Invert :func:`_pack_bounds_scalar`; returns the bounds as frozen
    timestamps and the offset past the raw section."""
    table = _reference_rows(n, reference)
    dense_at = 0
    count_at = schemes.count(SCHEME_DENSE) * n
    pair_at = count_at + schemes.count(SCHEME_SPARSE)
    if pair_at > len(values):
        raise ValueError("truncated timestamp deltas in packed frame body")
    for scheme, ref in zip(schemes, refs):
        base = table[ref]
        if scheme == SCHEME_DENSE:
            codes = values[dense_at : dense_at + n]
            dense_at += n
            row = [b + ((c >> 1) ^ -(c & 1)) for b, c in zip(base, codes)]
        elif scheme == SCHEME_SPARSE:
            count = values[count_at]
            count_at += 1
            if not count:
                table.append(base)
                continue
            end = pair_at + 2 * count
            if end > len(values):
                raise ValueError("sparse timestamp pairs overrun their section")
            row = list(base)
            for at in range(pair_at, end, 2):
                column = values[at]
                if column >= n:
                    raise ValueError("sparse timestamp index out of range")
                row[column] = base[column] + _unzz(values[at + 1])
            pair_at = end
        else:
            end = offset + 8 * n
            if end > len(data):
                raise ValueError("truncated raw timestamp in packed frame body")
            row = np.frombuffer(data, dtype=">i8", count=n, offset=offset).tolist()
            offset = end
        table.append(row)
    if pair_at != len(values):
        raise ValueError("timestamp values do not match their schemes")
    # Rows are exact Python ints; one past int64 came from a wrapped
    # delta and wraps back.
    try:
        return [freeze(row) for row in table[3:]], offset
    except OverflowError:
        return [freeze([_wrap(v) for v in row]) for row in table[3:]], offset


def _pack_bounds_matrix(
    table: np.ndarray, refs: np.ndarray
) -> Tuple[bytes, List[np.ndarray], bytes]:
    """:func:`_pack_bounds_scalar` over an int64 table: the scheme
    bytes, uint64 arrays for the varint section, the raw section."""
    bounds = table[3:]
    rows, n = bounds.shape
    codes = _zigzag(bounds - table[refs])
    sizes = _varint_sizes(codes)
    dense_cost = sizes.sum(axis=1)
    nonzero = codes != 0
    count = nonzero.sum(axis=1)
    # Sparse pays what dense pays for the non-zero deltas (a zero costs
    # dense exactly one byte), plus the count and one index per delta.
    sparse_cost = dense_cost - n + count
    if n < 0x80:  # every count and index fits one byte
        sparse_cost += 1 + count
    else:
        sparse_cost += _varint_sizes(count.astype(np.uint64)) + nonzero @ _varint_sizes(
            np.arange(n, dtype=np.uint64)
        )
    schemes = np.where(sparse_cost <= dense_cost, SCHEME_SPARSE, SCHEME_DENSE)
    schemes[8 * n <= np.minimum(sparse_cost, dense_cost)] = SCHEME_RAW
    schemes = schemes.astype(np.uint8)

    values = [codes[schemes == SCHEME_DENSE].ravel()]
    sparse = schemes == SCHEME_SPARSE
    if sparse.any():
        picked = codes[sparse]
        row_of, column = np.nonzero(picked)
        pairs = np.empty((row_of.size, 2), dtype=np.uint64)
        pairs[:, 0] = column
        pairs[:, 1] = picked[row_of, column]
        values += [count[sparse].astype(np.uint64), pairs.ravel()]
    raw = schemes == SCHEME_RAW
    packed_raw = bounds[raw].astype(">i8").tobytes() if raw.any() else b""
    return schemes.tobytes(), values, packed_raw


def _unpack_bounds_matrix(
    values: np.ndarray,
    schemes: bytes,
    data: bytes,
    offset: int,
    table: np.ndarray,
    refs: np.ndarray,
    depth: np.ndarray,
) -> int:
    """Invert :func:`_pack_bounds_matrix` into ``table[3:]``; returns
    the offset past the raw section.  ``depth[row]`` orders the rows so
    every reference row is complete before the rows that lean on it."""
    n = table.shape[1]
    deltas = table[3:]
    schemes = np.frombuffer(schemes, dtype=np.uint8)
    dense = schemes == SCHEME_DENSE
    dense_rows = int(dense.sum())
    cut = dense_rows * n
    if values.size < cut:
        raise ValueError("truncated timestamp deltas in packed frame body")
    deltas[dense] = _unzigzag(values[:cut]).reshape(dense_rows, n)
    sparse = np.flatnonzero(schemes == SCHEME_SPARSE)
    if sparse.size:
        counts = values[cut : cut + sparse.size]
        pairs = values[cut + sparse.size :]
        if counts.size < sparse.size or counts.max() > n:
            raise ValueError("malformed sparse timestamp counts in packed frame")
        counts = counts.astype(np.int64)
        if pairs.size != 2 * int(counts.sum()):
            raise ValueError("timestamp values do not match their schemes")
        if pairs.size:
            pairs = pairs.reshape(-1, 2)
            if pairs[:, 0].max() >= n:
                raise ValueError("sparse timestamp index out of range")
            deltas[np.repeat(sparse, counts), pairs[:, 0].astype(np.intp)] = _unzigzag(
                pairs[:, 1]
            )
    elif values.size != cut:
        raise ValueError("timestamp values do not match their schemes")

    raw = np.flatnonzero(schemes == SCHEME_RAW)
    end = offset + 8 * n * raw.size
    if end > len(data):
        raise ValueError("truncated raw timestamp in packed frame body")
    if raw.size:
        deltas[raw] = np.frombuffer(
            data, dtype=">i8", count=n * raw.size, offset=offset
        ).reshape(raw.size, n)
        refs = refs.copy()
        refs[raw] = 0
    for level in range(int(depth.max()) + 1):
        at = np.flatnonzero(depth == level) + 3
        table[at] += table[refs[at - 3]]
    return end


# ----------------------------------------------------------------------
# interval reports
# ----------------------------------------------------------------------
def _pack_varint_list(values: list) -> bytes:
    """:func:`_pack_varints` over a short list of ints, in Python."""
    buf = bytearray()
    for value in values:
        if 0 <= value < 0x80:
            buf.append(value)
        elif value >> 64:
            raise OverflowError(value)
        else:
            write_uvarint(buf, value)
    return bytes(buf)


def _pack_report(
    report, *, include_parts: bool, reference: Reference, compress: bool
) -> Tuple[bytes, bytes]:
    """One ``IntervalReport`` body (layout in the module docstring) and
    the scheme byte chosen for each bound."""
    head = report.interval
    n = head.n
    fields = [_zz(report.origin), _zz(report.dest), report.transport_seq, n]
    bounds: List[np.ndarray] = []
    refs: List[int] = []

    def walk(interval: Interval, lo_ref: int, hi_ref: int) -> None:
        if interval.n != n:
            raise ValueError(
                f"provenance part has {interval.n} components, its report {n}"
            )
        row = 3 + len(bounds)
        bounds.append(interval.lo)
        bounds.append(interval.hi)
        refs.append(lo_ref)
        refs.append(hi_ref)
        members = sorted(interval.members)
        parts = interval.parts if include_parts else ()
        fields.append(_zz(interval.owner))
        fields.append(interval.seq)
        fields.append(len(members))
        fields.extend([_zz(int(member)) for member in members])
        fields.append(len(parts))
        for part in parts:
            walk(part, row, row + 1)

    walk(head, 1, 2)
    try:
        if not compress or not n:
            schemes = bytes(len(bounds))
            section = _pack_varint_list(fields)
            raw = np.concatenate(bounds).astype(">i8").tobytes()
        elif len(bounds) * n <= _SCALAR_MAX:
            schemes, values, raw = _pack_bounds_scalar(n, reference, bounds, refs)
            section = _pack_varint_list(fields + values)
        else:
            table = _table(n, len(bounds), reference, bounds)
            schemes, values, raw = _pack_bounds_matrix(
                table, np.asarray(refs, dtype=np.intp)
            )
            fields = np.array(fields, dtype=np.uint64)
            section = _pack_varints(np.concatenate((fields, *values)))
    except OverflowError:
        raise ValueError("an IntervalReport field does not fit 64 bits") from None
    buf = bytearray()
    write_uvarint(buf, len(fields))
    write_uvarint(buf, len(section))
    buf += section
    buf += schemes
    buf += raw
    return bytes(buf), schemes


def _unpack_report(data: bytes, offset: int, reference: Reference):
    """Invert :func:`_pack_report`; returns ``(report, new_offset)``."""
    count, offset = read_uvarint(data, offset)
    length, offset = read_uvarint(data, offset)
    end = offset + length
    if end > len(data):
        raise ValueError("truncated varint section in packed frame body")
    if length <= _SCALAR_MAX:
        values = _varint_list(data[offset:end])
        fields = values[:count]
    else:
        values = _unpack_varints(data, offset, end)
        fields = values[:count].tolist()
    offset = end
    if len(fields) < count:
        raise ValueError("truncated report fields in packed frame body")
    # Preorder walk with an explicit stack: the field count bounds the
    # work whatever the nesting a hostile frame declares.
    nodes: List[tuple] = []  # (owner, seq, members, parent index)
    depth: List[int] = []
    refs: List[int] = []
    open_parts = [1]  # intervals still to read at each open level
    parents: List[Optional[int]] = [None]
    try:
        origin, dest, transport_seq, n = fields[:4]
        at = 4
        while open_parts:
            if not open_parts[-1]:
                open_parts.pop()
                parents.pop()
                continue
            open_parts[-1] -= 1
            parent = parents[-1]
            owner, seq, size = fields[at : at + 3]
            members = [_unzz(code) for code in fields[at + 3 : at + 3 + size]]
            at += 3 + size
            parts = fields[at]
            at += 1
            index = len(nodes)
            nodes.append((_unzz(owner), seq, members, parent))
            depth += [len(parents) - 1] * 2
            if parent is None:
                refs += [1, 2]
            else:
                refs += [3 + 2 * parent, 4 + 2 * parent]
            if parts:
                open_parts.append(parts)
                parents.append(index)
    except (IndexError, ValueError):
        raise ValueError("truncated report fields in packed frame body") from None
    if at != count:
        raise ValueError("report fields do not match their declared count")
    rows = 2 * len(nodes)
    if rows * n > _MAX_TABLE_ENTRIES:
        raise ValueError(f"report of {rows} bounds of {n} components is too large")
    end = offset + rows
    if end > len(data):
        raise ValueError("truncated scheme bytes in packed frame body")
    schemes = data[offset:end]
    if max(schemes) > SCHEME_DENSE:
        raise ValueError(
            f"unknown timestamp scheme byte {max(schemes)} in packed frame"
        )
    tail = values[count:]
    if rows * n <= _SCALAR_MAX:
        if not isinstance(tail, list):
            tail = tail.tolist()
        bounds, offset = _unpack_bounds_scalar(
            tail, schemes, data, end, n, reference, refs
        )
    else:
        table = _table(n, rows, reference)
        offset = _unpack_bounds_matrix(
            np.asarray(tail, dtype=np.uint64),
            schemes,
            data,
            end,
            table,
            np.asarray(refs, dtype=np.intp),
            np.asarray(depth, dtype=np.intp),
        )
        bounds = table[3:]
    # Children follow their parent in preorder: build back to front.
    children: List[List[Interval]] = [[] for _ in nodes]
    for index in range(len(nodes) - 1, -1, -1):
        owner, seq, members, parent = nodes[index]
        interval = Interval(
            owner=owner,
            seq=seq,
            lo=bounds[2 * index],
            hi=bounds[2 * index + 1],
            members=frozenset(members),
            parts=tuple(reversed(children[index])),
        )
        if parent is not None:
            children[parent].append(interval)
    report = IntervalReport(
        origin=_unzz(origin),
        dest=_unzz(dest),
        interval=interval,
        transport_seq=transport_seq,
    )
    return report, offset


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
def pack_message(
    message: object,
    *,
    include_parts: bool = True,
    reference: Reference = None,
    compress: bool = True,
    tally: Optional[Counter] = None,
) -> Optional[Tuple[int, bytes]]:
    """One dataclass -> ``(tag, packed body)``, or ``None`` when the
    type has no packed form (the caller falls back to the JSON escape
    hatch, so unknown/cold types keep working on a binary wire).

    For an ``IntervalReport``, ``reference`` is the ``(lo, hi)`` the
    head's bounds are packed against (the channel's previous head), and
    ``compress=False`` sends every bound raw.  ``tally``, when given,
    counts the chosen scheme of every bound by name."""
    if isinstance(message, IntervalReport):
        body, schemes = _pack_report(
            message,
            include_parts=include_parts,
            reference=reference,
            compress=compress,
        )
        if tally is not None:
            for scheme in SCHEME_NAMES:
                count = schemes.count(scheme)
                if count:
                    tally[SCHEME_NAMES[scheme]] += count
        return TAG_INTERVAL_REPORT, body
    buf = bytearray()
    if isinstance(message, Heartbeat):
        write_svarint(buf, message.sender)
        return TAG_HEARTBEAT, bytes(buf)
    if isinstance(message, AppMessage):
        payload = json.dumps(message.payload, separators=(",", ":")).encode("utf-8")
        write_uvarint(buf, len(payload))
        buf += payload
        piggyback = message.piggyback
        write_uvarint(buf, int(piggyback.shape[0]))
        for component in piggyback.tolist():
            write_svarint(buf, component)
        return TAG_APP_MESSAGE, bytes(buf)
    if isinstance(message, AttachRequest):
        write_svarint(buf, message.child)
        subtree = sorted(int(m) for m in message.subtree)
        write_uvarint(buf, len(subtree))
        for member in subtree:
            write_svarint(buf, member)
        return TAG_ATTACH_REQUEST, bytes(buf)
    if isinstance(message, AttachAccept):
        write_svarint(buf, message.parent)
        return TAG_ATTACH_ACCEPT, bytes(buf)
    if isinstance(message, DetachNotice):
        write_svarint(buf, message.child)
        return TAG_DETACH_NOTICE, bytes(buf)
    return None


def unpack_message(
    tag: int,
    data: bytes,
    offset: int = 0,
    *,
    reference: Reference = None,
) -> Tuple[object, int]:
    """Invert :func:`pack_message` (``reference`` as there); returns
    ``(message, new_offset)`` so the frame layer can read a trailing
    sidecar.  Unknown tags and any structural damage (truncation, bad
    scheme bytes) raise :class:`ValueError`."""
    if tag == TAG_INTERVAL_REPORT:
        return _unpack_report(data, offset, reference)
    if tag == TAG_HEARTBEAT:
        sender, offset = read_svarint(data, offset)
        return Heartbeat(sender=sender), offset
    if tag == TAG_APP_MESSAGE:
        length, offset = read_uvarint(data, offset)
        end = offset + length
        if end > len(data):
            raise ValueError("truncated AppMessage payload in packed frame body")
        payload = json.loads(data[offset:end].decode("utf-8"))
        offset = end
        n, offset = read_uvarint(data, offset)
        components = []
        for _ in range(n):
            component, offset = read_svarint(data, offset)
            components.append(component)
        piggyback = np.asarray(components, dtype=np.int64)
        return AppMessage(payload=payload, piggyback=piggyback), offset
    if tag == TAG_ATTACH_REQUEST:
        child, offset = read_svarint(data, offset)
        count, offset = read_uvarint(data, offset)
        members = []
        for _ in range(count):
            member, offset = read_svarint(data, offset)
            members.append(member)
        return AttachRequest(child=child, subtree=frozenset(members)), offset
    if tag == TAG_ATTACH_ACCEPT:
        parent, offset = read_svarint(data, offset)
        return AttachAccept(parent=parent), offset
    if tag == TAG_DETACH_NOTICE:
        child, offset = read_svarint(data, offset)
        return DetachNotice(child=child), offset
    raise ValueError(f"unknown packed message tag {tag}")
