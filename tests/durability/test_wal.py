"""WAL unit tests: framing, value codec, batch protocol, torn tails."""

import dataclasses
import os
import struct
import tempfile
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.durability.wal import (
    FILE_HEADER,
    BeginRecord,
    CommitRecord,
    OpRecord,
    TornFrame,
    WriteAheadLog,
    decode_frames,
    decode_record,
    decode_value,
    encode_batch_frames,
    encode_value,
    frame,
    group_frames,
    is_loggable,
    scan_wal,
)
from repro.errors import SimulationError
from repro.model.costs import DEFAULT_DURABILITY_COSTS
from repro.workloads.ops import OpKind, Operation


def write_op(op_id, key, value=None):
    return Operation(op_id=op_id, kind=OpKind.WRITE, key=key, value=value)


def delete_op(op_id, key):
    return Operation(op_id=op_id, kind=OpKind.DELETE, key=key)


# ---------------------------------------------------------------------------
# readable reference encoders the fast writer must equal
# ---------------------------------------------------------------------------


def reference_encode_value(value):
    """The readable tagged codec the fast ``encode_value`` must equal."""
    if value is None:
        return bytes([0])
    if value is False:
        return bytes([1])
    if value is True:
        return bytes([2])
    if isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        return bytes([3]) + struct.pack("<H", len(raw)) + raw
    if isinstance(value, float):
        return bytes([4]) + struct.pack("<d", value)
    if isinstance(value, bytes):
        return bytes([5]) + struct.pack("<I", len(value)) + value
    raw = value.encode("utf-8")
    return bytes([6]) + struct.pack("<I", len(raw)) + raw


def reference_payload(record):
    """One record's unframed payload, spelled out from the format."""
    if isinstance(record, BeginRecord):
        return struct.pack("<BI", 1, record.batch)
    if isinstance(record, OpRecord):
        code = {OpKind.WRITE: 1, OpKind.DELETE: 2}[record.op_kind]
        return (
            struct.pack("<BBQH", 2, code, record.op_id, len(record.key))
            + record.key
            + reference_encode_value(record.value)
        )
    return struct.pack("<BII", 3, record.batch, record.n_ops)


def reference_frame(record):
    payload = reference_payload(record)
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


class ReferenceLog:
    """The per-record writer group commit must equal, byte for byte.

    Frames each record, bills ``wal_seconds(len)`` per record in record
    order, and adds one fsync term per batch.
    """

    def __init__(self, costs):
        self.costs = costs
        self.data = bytearray(FILE_HEADER)
        self.records = 0
        self.fsyncs = 0
        self.seconds = 0.0

    def commit(self, batch_index, mutating):
        records = [
            BeginRecord(batch_index),
            *(OpRecord(op.kind, op.op_id, bytes(op.key), op.value)
              for op in mutating),
            CommitRecord(batch_index, len(mutating)),
        ]
        for record in records:
            raw = reference_frame(record)
            self.data += raw
            self.records += 1
            self.seconds += self.costs.wal_seconds(len(raw))
        self.fsyncs += 1
        self.seconds += self.costs.wal_seconds(0, n_fsyncs=1)


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 2**70, -(2**70), 3.25, b"", b"\x00raw",
         "", "héllo", "x" * 300],
    )
    def test_round_trip(self, value):
        raw = encode_value(value)
        decoded, offset = decode_value(raw, 0)
        assert decoded == value
        assert type(decoded) is type(value)
        assert offset == len(raw)

    def test_unencodable_type_raises(self):
        with pytest.raises(SimulationError):
            encode_value(object())

    def test_unknown_tag_raises(self):
        with pytest.raises(SimulationError):
            decode_value(bytes([250]), 0)


class TestRecordCodec:
    @pytest.mark.parametrize(
        "record",
        [
            BeginRecord(0),
            BeginRecord(12345),
            OpRecord(OpKind.WRITE, 7, b"\x01\x02", "payload"),
            OpRecord(OpKind.DELETE, 2**40, b"k", None),
            CommitRecord(3, 199),
        ],
    )
    def test_round_trip(self, record):
        assert decode_record(reference_payload(record)) == record

    def test_frame_carries_crc(self):
        raw = frame(reference_payload(BeginRecord(1)))
        length, crc = struct.unpack_from("<II", raw, 0)
        assert length == len(raw) - 8
        assert crc == zlib.crc32(raw[8:])

    def test_only_mutating_ops_are_loggable(self):
        assert not is_loggable(Operation(op_id=1, kind=OpKind.READ, key=b"k"))
        assert is_loggable(write_op(1, b"k"))
        assert is_loggable(delete_op(1, b"k"))


class TestBatchProtocol:
    def test_committed_batches_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        ops = [write_op(0, b"a", 1), delete_op(1, b"b"), write_op(2, b"c", "v")]
        with WriteAheadLog(path) as wal:
            wal.commit_group(0, ops)
            wal.commit_group(1, [write_op(3, b"d", None)])

        scan = scan_wal(path)
        assert not scan.torn
        assert sorted(scan.committed) == [0, 1]
        assert scan.committed_through == 1
        assert [r.key for r in scan.committed[0]] == [b"a", b"b", b"c"]
        assert scan.committed[0][0].value == 1
        assert scan.committed[0][1].op_kind is OpKind.DELETE
        assert list(scan.committed_ops_after(0)) == [
            (1, scan.committed[1][0])
        ]

    def test_reopen_appends_after_existing_records(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.commit_group(0, [write_op(0, b"a", 1)])
        with WriteAheadLog(path) as wal:
            wal.commit_group(1, [write_op(1, b"b", 2)])
        with open(path, "rb") as handle:
            data = handle.read()
        assert data.count(FILE_HEADER[:4]) == 1  # one magic, not two
        scan = scan_wal(path)
        assert sorted(scan.committed) == [0, 1]

    def test_costs_accumulate(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.commit_group(0, [write_op(0, b"a", b"x" * 100)])
        assert wal.records_written == 3
        assert wal.fsyncs == 1
        assert wal.modelled_seconds > 0.0
        wal.close()

    def test_torn_write_is_never_billed(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.write_torn(b"".join(group_frames(0, [write_op(0, b"a", 1)]))[:-3])
        assert wal.bytes_written > len(FILE_HEADER)
        assert (wal.records_written, wal.fsyncs) == (0, 0)
        assert wal.modelled_seconds == 0.0
        wal.close()


class TestTornDetection:
    def make_wal(self, tmp_path, n_batches=3):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        for batch in range(n_batches):
            wal.commit_group(batch, [write_op(batch, bytes([batch]), batch)])
        return path, wal

    def test_missing_file_scans_empty(self, tmp_path):
        scan = scan_wal(str(tmp_path / "absent.log"))
        assert not scan.torn
        assert scan.committed == {}
        assert scan.committed_through == -1

    def test_torn_record_ends_scan_keeps_prefix(self, tmp_path):
        path, wal = self.make_wal(tmp_path)
        begin, op, _ = group_frames(3, [write_op(9, b"torn", "x")])
        wal.write_torn(begin + op[:5])
        wal.close()
        scan = scan_wal(path)
        assert scan.torn
        assert scan.torn_reason in ("short frame header", "record overruns file")
        assert sorted(scan.committed) == [0, 1, 2]
        assert 3 in scan.uncommitted

    def test_bitflip_is_a_crc_mismatch(self, tmp_path):
        path, wal = self.make_wal(tmp_path)
        wal.close()
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        # Flip one payload byte inside the second batch's group.
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        scan = scan_wal(path)
        assert scan.torn
        assert scan.torn_reason == "CRC mismatch"
        assert 0 in scan.committed  # the prefix before the flip survives
        assert scan.committed_through < 2

    def test_uncommitted_group_is_reported_not_committed(self, tmp_path):
        path, wal = self.make_wal(tmp_path, n_batches=1)
        begin, op, _ = group_frames(1, [write_op(5, b"u", 1)])
        wal.write_torn(begin + op)
        wal.close()  # no COMMIT
        scan = scan_wal(path)
        assert not scan.torn
        assert sorted(scan.committed) == [0]
        assert scan.uncommitted == [1]
        assert scan.uncommitted_ops == 1

    def test_commit_mismatch_ends_scan(self, tmp_path):
        path, wal = self.make_wal(tmp_path, n_batches=1)
        begin, op, _ = group_frames(1, [write_op(5, b"u", 1)])
        # The COMMIT lies about the op count.
        wal.write_torn(begin + op + frame(reference_payload(CommitRecord(1, 99))))
        wal.close()
        scan = scan_wal(path)
        assert scan.torn
        assert "commit mismatch" in scan.torn_reason
        assert sorted(scan.committed) == [0]

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with open(path, "wb") as handle:
            handle.write(b"NOPE" + b"\x00" * 16)
        scan = scan_wal(path)
        assert scan.torn
        assert scan.torn_reason == "bad file magic"
        assert scan.committed == {}


# ---------------------------------------------------------------------------
# group commit: byte and billing identity with the per-record reference
# ---------------------------------------------------------------------------


payload_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),
    st.binary(max_size=12),
    st.text(max_size=8),
)

op_lists = st.lists(
    st.tuples(
        st.sampled_from([OpKind.WRITE, OpKind.DELETE, OpKind.READ]),
        st.binary(min_size=1, max_size=6),
        payload_values,
    ),
    max_size=40,
)


def to_batches(specs, batch_size):
    ops = [
        Operation(op_id=i * 7919, kind=kind, key=key,
                  value=value if kind is OpKind.WRITE else None)
        for i, (kind, key, value) in enumerate(specs)
    ]
    return [ops[i : i + batch_size] for i in range(0, len(ops), batch_size)]


@given(value=payload_values)
@settings(max_examples=200, deadline=None)
def test_encode_value_matches_reference_codec(value):
    assert encode_value(value) == reference_encode_value(value)


# With a negligible fsync term the per-record terms are not absorbed
# into a much larger sum, so a drift in their accumulation order shows.
cost_models = st.sampled_from(
    [DEFAULT_DURABILITY_COSTS,
     dataclasses.replace(DEFAULT_DURABILITY_COSTS, fsync_latency_us=1e-9)]
)


@given(
    specs=op_lists,
    batch_size=st.integers(min_value=1, max_value=9),
    costs=cost_models,
)
@settings(max_examples=80, deadline=None)
def test_group_commit_is_byte_and_billing_identical(specs, batch_size, costs):
    batches = to_batches(specs, batch_size)
    reference = ReferenceLog(costs)
    with tempfile.TemporaryDirectory(prefix="dcart-wal-") as directory:
        path = os.path.join(directory, "group.log")
        with WriteAheadLog(path, costs) as group:
            for batch_index, batch in enumerate(batches):
                mutating = [op for op in batch if is_loggable(op)]
                group.commit_group(batch_index, mutating)
                reference.commit(batch_index, mutating)
        with open(path, "rb") as handle:
            group_bytes = handle.read()

    shipped = FILE_HEADER + b"".join(
        encode_batch_frames(batch_index, batch)
        for batch_index, batch in enumerate(batches)
    )
    assert group_bytes == bytes(reference.data) == shipped
    # Exact equality: the group commit bills record by record, in order.
    assert group.modelled_seconds == reference.seconds
    assert group.bytes_written == len(shipped)
    assert group.records_written == reference.records
    assert group.fsyncs == reference.fsyncs == len(batches)


# ---------------------------------------------------------------------------
# one frame reader: the strict and the tolerant decoder agree on tears
# ---------------------------------------------------------------------------

FRAMING_REASONS = ("short frame header", "record overruns file", "CRC mismatch")


@given(
    specs=op_lists,
    batch_size=st.integers(min_value=1, max_value=9),
    damage=st.one_of(
        st.tuples(st.just("truncate"), st.floats(min_value=0.0, max_value=1.0)),
        st.tuples(st.just("flip"), st.floats(min_value=0.0, max_value=1.0),
                  st.integers(min_value=0, max_value=7)),
    ),
)
@settings(max_examples=150, deadline=None)
def test_strict_and_tolerant_readers_agree_on_framing_tears(
    specs, batch_size, damage
):
    stream = bytearray(b"".join(
        encode_batch_frames(batch_index, batch)
        for batch_index, batch in enumerate(to_batches(specs, batch_size))
    ))
    # Frame start offsets of the intact stream, read from the length
    # fields directly: the oracle for where a tear must be reported.
    starts = [0]
    while starts[-1] < len(stream):
        (length,) = struct.unpack_from("<I", stream, starts[-1])
        starts.append(starts[-1] + 8 + length)
    position = min(len(stream), int(damage[1] * len(stream)))
    if damage[0] == "truncate":
        torn = position not in starts
        del stream[position:]
    else:
        torn = position < len(stream)
        if torn:
            stream[position] ^= 1 << damage[2]
    stream = bytes(stream)

    try:
        decode_frames(stream)
        strict = None
    except TornFrame as tear:
        strict = (tear.offset + len(FILE_HEADER), tear.reason)

    with tempfile.TemporaryDirectory(prefix="dcart-wal-") as directory:
        path = os.path.join(directory, "wal.log")
        with open(path, "wb") as handle:
            handle.write(FILE_HEADER + stream)
        scan = scan_wal(path)
    tolerant = (
        (scan.torn_offset, scan.torn_reason)
        if scan.torn and scan.torn_reason in FRAMING_REASONS
        else None
    )
    assert strict == tolerant
    if torn:
        # The tear starts at the frame holding the damaged byte.
        damaged = max(start for start in starts if start <= position)
        assert strict is not None
        assert strict[0] == len(FILE_HEADER) + damaged
        if damage[0] == "truncate":
            assert strict[1] == (
                "short frame header" if position - damaged < 8
                else "record overruns file"
            )
        elif position - damaged >= 4:  # a CRC or payload bit
            assert strict[1] == "CRC mismatch"
    else:
        assert strict is None
