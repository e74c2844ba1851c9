"""Write-ahead log: append-only, CRC-framed, batch-delimited.

DCART's batch-overlap execution gives the reproduction natural
consistency points: a combined batch either executes fully or not at
all, so the WAL groups its records per batch between BEGIN and COMMIT
markers.  Recovery replays *committed* batches only; an interrupted
batch (BEGIN without COMMIT, or a record torn mid-write) is discarded —
the same contract a transactional store honours.

On-disk format (little-endian)::

    file   := header record*
    header := MAGIC "DWAL" | u16 version | u16 reserved
    record := u32 payload_len | u32 crc32(payload) | payload
    payload:= u8 kind | kind-specific fields

    BEGIN  (kind 1) := u32 batch_index
    OP     (kind 2) := u8 op_kind | u64 op_id | u16 key_len | key | value
    COMMIT (kind 3) := u32 batch_index | u32 n_ops

Values use a small tagged codec (None/bool/int/float/bytes/str) so the
log is self-describing without pickle.  Torn-write detection is purely
local: a record whose header is short, whose length overruns the file,
or whose CRC mismatches ends the scan — everything before it is intact
(appends never rewrite earlier bytes), everything from it on is the torn
tail.

Every record is billed through
:class:`~repro.model.costs.DurabilityCosts`, one term per record in
record order; a COMMIT is an fsync point (the batch's durability
barrier), modelled — and optionally executed with a real ``os.fsync`` —
by :meth:`WriteAheadLog.sync`.  :func:`group_frames` is the one encoder
of a batch's record group: the replication stream
(:func:`encode_batch_frames`) and the writer's group commit
(:meth:`WriteAheadLog.commit_group`) both emit its bytes.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.log import get_logger
from repro.model.costs import DEFAULT_DURABILITY_COSTS, DurabilityCosts
from repro.workloads.ops import OpKind, Operation

LOG = get_logger("durability")

WAL_MAGIC = b"DWAL"
WAL_VERSION = 1
FILE_HEADER = WAL_MAGIC + struct.pack("<HH", WAL_VERSION, 0)

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_BEGIN = struct.Struct("<BI")  # REC_BEGIN, batch_index
_OP_HEAD = struct.Struct("<BBQH")  # REC_OP, op code, op_id, key_len
_COMMIT = struct.Struct("<BII")  # REC_COMMIT, batch_index, n_ops

REC_BEGIN = 1
REC_OP = 2
REC_COMMIT = 3

#: WAL op encoding of the mutating :class:`OpKind` members.
_OP_TO_CODE = {OpKind.WRITE: 1, OpKind.DELETE: 2}
_CODE_TO_OP = {code: kind for kind, code in _OP_TO_CODE.items()}

# ---------------------------------------------------------------------------
# value codec
# ---------------------------------------------------------------------------

_V_NONE, _V_FALSE, _V_TRUE, _V_INT, _V_FLOAT, _V_BYTES, _V_STR = range(7)

_INT_HEAD = struct.Struct("<BH")  # _V_INT, length of the big-endian body
_FLOAT_VALUE = struct.Struct("<Bd")
_BLOB_HEAD = struct.Struct("<BI")  # _V_BYTES/_V_STR, body length
_CONSTANTS = {None: bytes([_V_NONE]), False: bytes([_V_FALSE]),
              True: bytes([_V_TRUE])}


def encode_value(value: object) -> bytes:
    """Encode one op payload value into the tagged wire form."""
    if value is None or value is False or value is True:
        return _CONSTANTS[value]
    if isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        return _INT_HEAD.pack(_V_INT, len(raw)) + raw
    if isinstance(value, float):
        return _FLOAT_VALUE.pack(_V_FLOAT, value)
    if isinstance(value, (bytes, bytearray)):
        return _BLOB_HEAD.pack(_V_BYTES, len(value)) + bytes(value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return _BLOB_HEAD.pack(_V_STR, len(raw)) + raw
    raise SimulationError(
        f"WAL cannot encode value of type {type(value).__name__}; "
        "durable workloads carry None/bool/int/float/bytes/str payloads"
    )


def decode_value(buf: bytes, offset: int) -> Tuple[object, int]:
    """Decode one tagged value; returns ``(value, next_offset)``."""
    tag = buf[offset]
    offset += 1
    if tag == _V_NONE:
        return None, offset
    if tag == _V_FALSE:
        return False, offset
    if tag == _V_TRUE:
        return True, offset
    if tag == _V_INT:
        (length,) = struct.unpack_from("<H", buf, offset)
        offset += 2
        raw = buf[offset : offset + length]
        return int.from_bytes(raw, "big", signed=True), offset + length
    if tag == _V_FLOAT:
        (value,) = struct.unpack_from("<d", buf, offset)
        return value, offset + 8
    if tag in (_V_BYTES, _V_STR):
        (length,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        raw = buf[offset : offset + length]
        return (raw if tag == _V_BYTES else raw.decode("utf-8")), offset + length
    raise SimulationError(f"unknown WAL value tag {tag}")


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeginRecord:
    """Start of one batch's record group."""

    batch: int


@dataclass(frozen=True)
class OpRecord:
    """One mutating operation inside a batch group."""

    op_kind: OpKind
    op_id: int
    key: bytes
    value: object = None

    def apply(self, tree) -> None:
        """Replay this op against ``tree`` (upsert/delete semantics)."""
        from repro.errors import KeyNotFoundError

        if self.op_kind is OpKind.WRITE:
            tree.upsert(self.key, self.value)
        else:
            try:
                tree.delete(self.key)
            except KeyNotFoundError:
                pass  # deleting an absent key is a no-op, as in the run


@dataclass(frozen=True)
class CommitRecord:
    """Durability barrier: the batch's ops are all on disk before this."""

    batch: int
    n_ops: int


WalRecord = Union[BeginRecord, OpRecord, CommitRecord]


def frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in the length+CRC frame."""
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _op_payload(kind: OpKind, op_id: int, key: bytes, value: object) -> bytes:
    return (
        _OP_HEAD.pack(REC_OP, _OP_TO_CODE[kind], op_id, len(key))
        + key
        + encode_value(value)
    )


def encode_record(record: WalRecord) -> bytes:
    """Serialise one record payload (unframed)."""
    if isinstance(record, BeginRecord):
        return _BEGIN.pack(REC_BEGIN, record.batch)
    if isinstance(record, OpRecord):
        return _op_payload(record.op_kind, record.op_id, record.key, record.value)
    if isinstance(record, CommitRecord):
        return _COMMIT.pack(REC_COMMIT, record.batch, record.n_ops)
    raise SimulationError(f"unknown WAL record {record!r}")


def decode_record(payload: bytes) -> WalRecord:
    """Parse one framed record's payload back into its dataclass."""
    if not payload:
        raise SimulationError("empty WAL record payload")
    kind = payload[0]
    if kind == REC_BEGIN:
        (batch,) = struct.unpack_from("<I", payload, 1)
        return BeginRecord(batch)
    if kind == REC_OP:
        code = payload[1]
        if code not in _CODE_TO_OP:
            raise SimulationError(f"unknown WAL op code {code}")
        op_id, key_len = struct.unpack_from("<QH", payload, 2)
        offset = 2 + 10
        key = payload[offset : offset + key_len]
        value, _ = decode_value(payload, offset + key_len)
        return OpRecord(_CODE_TO_OP[code], op_id, key, value)
    if kind == REC_COMMIT:
        batch, n_ops = struct.unpack_from("<II", payload, 1)
        return CommitRecord(batch, n_ops)
    raise SimulationError(f"unknown WAL record kind {kind}")


def op_record(op: Operation) -> OpRecord:
    """The WAL form of a workload operation (mutating kinds only)."""
    if op.kind not in _OP_TO_CODE:
        raise SimulationError(f"op kind {op.kind} is not WAL-loggable")
    return OpRecord(op.kind, op.op_id, bytes(op.key), op.value)


def is_loggable(op: Operation) -> bool:
    """Whether the op mutates the tree (reads/scans are not logged)."""
    return op.kind in _OP_TO_CODE


def group_frames(batch_index: int, mutating: List[Operation]) -> List[bytes]:
    """One batch's framed ``BEGIN / op* / COMMIT`` records, in order.

    ``mutating`` holds only loggable ops.  Each op is packed straight
    from the workload operation — the bytes :func:`encode_record` gives
    its :class:`OpRecord`, without building one.
    """
    frames = [frame(_BEGIN.pack(REC_BEGIN, batch_index))]
    frames.extend(
        frame(_op_payload(op.kind, op.op_id, bytes(op.key), op.value))
        for op in mutating
    )
    frames.append(frame(_COMMIT.pack(REC_COMMIT, batch_index, len(mutating))))
    return frames


def encode_batch_frames(batch_index: int, operations: List[Operation]) -> bytes:
    """One batch's complete framed record group, as raw log bytes.

    ``BEGIN / op* / COMMIT`` with every record length+CRC framed —
    byte-identical to what :class:`WriteAheadLog` appends for the batch.
    The cluster replication link ships exactly these bytes, so a
    replica's catch-up replay decodes the same wire format recovery
    does.  Non-mutating ops are skipped, as the WAL skips them.
    """
    loggable = [op for op in operations if is_loggable(op)]
    return b"".join(group_frames(batch_index, loggable))


def decode_frames(data: bytes, offset: int = 0) -> List[WalRecord]:
    """Strict decode of a framed record stream held in memory.

    Unlike :func:`scan_wal` — which tolerates a torn tail because a
    crash legitimately tears the on-disk log — an in-memory replication
    stream has no torn-write failure mode, so any framing or CRC damage
    here is an invariant violation and raises
    :class:`~repro.errors.SimulationError`.
    """
    records: List[WalRecord] = []
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            raise SimulationError(
                f"replication stream truncated at byte {offset}"
            )
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        if start + length > len(data):
            raise SimulationError(
                f"replication stream record overruns buffer at byte {offset}"
            )
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            raise SimulationError(
                f"replication stream CRC mismatch at byte {offset}"
            )
        records.append(decode_record(payload))
        offset = start + length
    return records


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


class WriteAheadLog:
    """Append-only log writer with fsync-point cost accounting.

    A committed batch is one group commit (:meth:`commit_group`): its
    whole ``BEGIN / op* / COMMIT`` group goes out in one write and one
    flush before the fsync point.  The per-record protocol
    (:meth:`begin_batch` / :meth:`log_op` / :meth:`commit_batch`) writes
    the same bytes one record at a time, flushing after each, so the
    chaos harness's crash points see exactly the bytes written before
    the kill.  *Durability* points (what a real device guarantees after
    power loss) are only the explicit :meth:`sync` calls, billed through
    the cost model and optionally executed with ``os.fsync``.  Either
    way each record is billed on its own, in record order, so both paths
    accumulate bit-identical modelled seconds.
    """

    def __init__(
        self,
        path: str,
        costs: DurabilityCosts = DEFAULT_DURABILITY_COSTS,
        real_fsync: bool = False,
    ):
        self.path = path
        self.costs = costs
        self.real_fsync = real_fsync
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._file = open(path, "ab")
        if fresh:
            self._file.write(FILE_HEADER)
            self._file.flush()
        self.bytes_written = len(FILE_HEADER) if fresh else 0
        self.records_written = 0
        self.fsyncs = 0
        self.modelled_seconds = 0.0
        self._open_batch: Optional[int] = None

    # -- raw appends ---------------------------------------------------

    def append(self, record: WalRecord) -> int:
        """Frame and append one record; returns bytes written."""
        raw = frame(encode_record(record))
        self._file.write(raw)
        self._file.flush()
        self.bytes_written += len(raw)
        self.records_written += 1
        self.modelled_seconds += self.costs.wal_seconds(len(raw))
        return len(raw)

    def append_torn(self, record: WalRecord, keep_bytes: int) -> int:
        """Crash-injection hook: write only a prefix of the framed record.

        Models the power cut landing mid-sector: the record's first
        ``keep_bytes`` bytes reach the platter, the rest never do.  The
        scanner must detect the tail via length/CRC and skip it.
        """
        raw = frame(encode_record(record))
        keep = max(1, min(keep_bytes, len(raw) - 1))
        self._file.write(raw[:keep])
        self._file.flush()
        self.bytes_written += keep
        return keep

    def sync(self) -> None:
        """Cross an fsync point (durability barrier)."""
        self._file.flush()
        if self.real_fsync:
            os.fsync(self._file.fileno())
        self.fsyncs += 1
        self.modelled_seconds += self.costs.wal_seconds(0, n_fsyncs=1)

    # -- batch protocol ------------------------------------------------

    def begin_batch(self, batch_index: int) -> None:
        if self._open_batch is not None:
            raise SimulationError(
                f"batch {self._open_batch} still open; WAL batches do not nest"
            )
        self._open_batch = batch_index
        self.append(BeginRecord(batch_index))

    def log_op(self, op: Operation) -> None:
        if self._open_batch is None:
            raise SimulationError("log_op outside a WAL batch")
        self.append(op_record(op))

    def commit_group(self, batch_index: int, mutating: List[Operation]) -> None:
        """Append a batch's whole record group in one write, then sync.

        Equivalent to ``begin_batch`` / ``log_op`` per op /
        ``commit_batch`` — same bytes, counters and modelled seconds —
        at one write and one flush per batch.
        """
        if self._open_batch is not None:
            raise SimulationError(
                f"batch {self._open_batch} still open; WAL batches do not nest"
            )
        frames = group_frames(batch_index, mutating)
        data = b"".join(frames)
        self._file.write(data)
        self.bytes_written += len(data)
        self.records_written += len(frames)
        # Bill record by record: float addition is not associative, so
        # one summed length would drift from the per-record path.
        seconds = self.modelled_seconds
        wal_seconds = self.costs.wal_seconds
        for raw in frames:
            seconds += wal_seconds(len(raw))
        self.modelled_seconds = seconds
        self.sync()

    def commit_batch(self, n_ops: int) -> None:
        """Append COMMIT and cross the batch's fsync point."""
        if self._open_batch is None:
            raise SimulationError("commit without an open WAL batch")
        self.append(CommitRecord(self._open_batch, n_ops))
        self.sync()
        self._open_batch = None

    def abandon_batch(self) -> None:
        """Forget the open batch without committing (crash paths)."""
        self._open_batch = None

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# scanner
# ---------------------------------------------------------------------------


@dataclass
class WalScan:
    """Everything a WAL scan established, torn tail included."""

    path: str
    records: List[WalRecord] = field(default_factory=list)
    #: Ops of every *committed* batch, keyed by batch index.
    committed: Dict[int, List[OpRecord]] = field(default_factory=dict)
    #: Batch indices that began but never committed (discarded on replay).
    uncommitted: List[int] = field(default_factory=list)
    uncommitted_ops: int = 0
    torn: bool = False
    torn_offset: Optional[int] = None
    torn_reason: str = ""
    bytes_scanned: int = 0

    @property
    def committed_through(self) -> int:
        """Highest committed batch index (``-1`` for an empty log)."""
        return max(self.committed) if self.committed else -1

    def committed_ops_after(self, after_batch: int) -> Iterator[Tuple[int, OpRecord]]:
        """Ops of committed batches strictly after ``after_batch``, in order."""
        for batch in sorted(self.committed):
            if batch <= after_batch:
                continue
            for op in self.committed[batch]:
                yield batch, op

    def summary(self) -> str:
        tail = (
            f", torn tail at byte {self.torn_offset} ({self.torn_reason})"
            if self.torn
            else ""
        )
        return (
            f"WAL {self.path}: {len(self.records)} records, "
            f"{len(self.committed)} committed batches "
            f"(through {self.committed_through}), "
            f"{len(self.uncommitted)} uncommitted{tail}"
        )


def scan_wal(path: str) -> WalScan:
    """Read a WAL, stopping cleanly at the first torn/corrupt record.

    Never raises on bad bytes: appends cannot damage earlier records, so
    everything before the first bad frame is trusted and everything from
    it on is reported as the torn tail.  A missing file scans as empty.
    """
    scan = WalScan(path=path)
    if not os.path.exists(path):
        return scan
    with open(path, "rb") as handle:
        data = handle.read()
    scan.bytes_scanned = len(data)

    offset = len(FILE_HEADER)
    if data[: len(WAL_MAGIC)] != WAL_MAGIC:
        scan.torn = True
        scan.torn_offset = 0
        scan.torn_reason = "bad file magic"
        return scan

    open_batch: Optional[int] = None
    open_ops: List[OpRecord] = []
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            scan.torn = True
            scan.torn_offset = offset
            scan.torn_reason = "short frame header"
            break
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        if start + length > len(data):
            scan.torn = True
            scan.torn_offset = offset
            scan.torn_reason = "record overruns file"
            break
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            scan.torn = True
            scan.torn_offset = offset
            scan.torn_reason = "CRC mismatch"
            break
        try:
            record = decode_record(payload)
        except (SimulationError, struct.error, IndexError) as exc:
            scan.torn = True
            scan.torn_offset = offset
            scan.torn_reason = f"undecodable record: {exc}"
            break
        offset = start + length
        scan.records.append(record)

        if isinstance(record, BeginRecord):
            if open_batch is not None:
                # A BEGIN inside an open group: the previous group never
                # committed (crash between batches); discard it.
                scan.uncommitted.append(open_batch)
                scan.uncommitted_ops += len(open_ops)
            open_batch = record.batch
            open_ops = []
        elif isinstance(record, OpRecord):
            if open_batch is None:
                scan.torn = True
                scan.torn_offset = offset
                scan.torn_reason = "op record outside a batch group"
                break
            open_ops.append(record)
        elif isinstance(record, CommitRecord):
            if open_batch != record.batch or len(open_ops) != record.n_ops:
                scan.torn = True
                scan.torn_offset = offset
                scan.torn_reason = (
                    f"commit mismatch: group batch={open_batch} "
                    f"ops={len(open_ops)} vs commit batch={record.batch} "
                    f"n_ops={record.n_ops}"
                )
                break
            scan.committed[record.batch] = open_ops
            open_batch = None
            open_ops = []

    if open_batch is not None and not scan.torn:
        scan.uncommitted.append(open_batch)
        scan.uncommitted_ops += len(open_ops)
    if scan.torn and open_batch is not None:
        scan.uncommitted.append(open_batch)
        scan.uncommitted_ops += len(open_ops)
    if scan.torn:
        LOG.warning(
            "WAL %s: torn tail at byte %s (%s); %d committed batches kept",
            path, scan.torn_offset, scan.torn_reason, len(scan.committed),
        )
    return scan
