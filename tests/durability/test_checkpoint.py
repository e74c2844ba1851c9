"""Checkpoint unit tests: atomic protocol, sha256 signing, corruption."""

import json
import os
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.art.tree import AdaptiveRadixTree
from repro.durability.checkpoint import (
    CHECKPOINT_FORMAT,
    CRASH_MANIFEST,
    CRASH_PAYLOAD,
    REC_CKPT_ACCEL,
    REC_CKPT_HEADER,
    REC_CKPT_ITEM,
    build_payload,
    checkpoint_name,
    list_checkpoints,
    load_checkpoint,
    parse_payload,
    restore_tree,
    write_checkpoint,
)
from repro.durability.wal import encode_value, frame
from repro.errors import SimulatedCrash, SimulationError


def make_tree(n=50):
    tree = AdaptiveRadixTree()
    for i in range(n):
        tree.insert(i.to_bytes(4, "big"), i * 10)
    return tree


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        directory = str(tmp_path)
        tree = make_tree()
        accel = {"shortcut_entries": [["0001", 4, 2]], "bucket_spilled_bytes": 7}
        info = write_checkpoint(directory, tree, batch_index=5, accel_state=accel)
        assert info.seq == 6
        assert info.manifest["n_keys"] == len(tree)

        found = list_checkpoints(directory)
        assert [c.seq for c in found] == [6]
        batch, items, state = load_checkpoint(found[0])
        assert batch == 5
        assert state == accel
        restored = restore_tree(items)
        assert list(restored.items()) == list(tree.items())
        restored.validate()

    def test_bulk_load_snapshot_is_seq_zero(self, tmp_path):
        info = write_checkpoint(str(tmp_path), make_tree(3), batch_index=-1)
        assert info.seq == 0
        assert checkpoint_name(-1) == "ckpt-00000000"

    def test_newest_first_ordering(self, tmp_path):
        directory = str(tmp_path)
        for batch in (-1, 2, 5):
            write_checkpoint(directory, make_tree(5), batch_index=batch)
        assert [c.seq for c in list_checkpoints(directory)] == [6, 3, 0]

    def test_payload_parse_rejects_damage(self):
        payload = build_payload(make_tree(10), 0, {})
        with pytest.raises(SimulationError):
            parse_payload(payload[:-3])  # truncated
        mangled = bytearray(payload)
        mangled[len(mangled) // 2] ^= 0x40
        with pytest.raises(SimulationError):
            parse_payload(bytes(mangled))  # CRC


class TestCorruptionDetection:
    def test_sha256_mismatch_rejected(self, tmp_path):
        directory = str(tmp_path)
        write_checkpoint(directory, make_tree(), batch_index=0)
        info = list_checkpoints(directory)[0]
        with open(info.payload_path, "r+b") as handle:
            handle.seek(30)
            handle.write(b"\xff")
        with pytest.raises(SimulationError, match="sha256 mismatch"):
            load_checkpoint(info)

    def test_manifest_missing_fields_rejected(self, tmp_path):
        directory = str(tmp_path)
        write_checkpoint(directory, make_tree(), batch_index=0)
        info = list_checkpoints(directory)[0]
        with open(info.manifest_path, "w") as handle:
            json.dump({"format": 1}, handle)
        info = list_checkpoints(directory)[0]
        with pytest.raises(SimulationError, match="missing"):
            load_checkpoint(info)


class TestCrashPoints:
    def test_payload_crash_leaves_no_checkpoint(self, tmp_path):
        directory = str(tmp_path)
        with pytest.raises(SimulatedCrash):
            write_checkpoint(
                directory, make_tree(), batch_index=0, crash=CRASH_PAYLOAD
            )
        # Only a temp file exists; no manifest means no checkpoint.
        assert list_checkpoints(directory) == []
        leftovers = os.listdir(directory)
        assert any(name.endswith(".tmp") for name in leftovers)
        assert not any(name.endswith(".json") for name in leftovers)

    def test_manifest_crash_leaves_unloadable_torn_manifest(self, tmp_path):
        directory = str(tmp_path)
        with pytest.raises(SimulatedCrash):
            write_checkpoint(
                directory, make_tree(), batch_index=0, crash=CRASH_MANIFEST
            )
        found = list_checkpoints(directory)
        assert len(found) == 1
        assert found[0].manifest == {}  # torn JSON surfaces as unreadable
        with pytest.raises(SimulationError, match="unreadable manifest"):
            load_checkpoint(found[0])


# ---------------------------------------------------------------------------
# the payload format, pinned by a readable reference encoder
# ---------------------------------------------------------------------------


def _encode_item(key, value):
    return (
        bytes([REC_CKPT_ITEM])
        + struct.pack("<H", len(key))
        + key
        + encode_value(value)
    )


def reference_payload(tree, batch_index, accel_state):
    """Record by record: header, ``frame(_encode_item(...))`` per item, state."""
    header = bytes([REC_CKPT_HEADER]) + struct.pack(
        "<IqQ", CHECKPOINT_FORMAT, batch_index, len(tree)
    )
    chunks = [frame(header)]
    chunks.extend(frame(_encode_item(key, value)) for key, value in tree.items())
    accel_json = json.dumps(accel_state, sort_keys=True).encode("utf-8")
    chunks.append(frame(bytes([REC_CKPT_ACCEL]) + accel_json))
    return b"".join(chunks)


@given(
    items=st.dictionaries(
        st.binary(min_size=4, max_size=4),  # fixed width: ART keys are prefix-free
        st.one_of(
            st.none(),
            st.integers(min_value=-(2**70), max_value=2**70),
            st.binary(max_size=10),
            st.text(max_size=8),
            st.floats(allow_nan=False),
        ),
        max_size=60,
    ),
    batch_index=st.integers(min_value=-1, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_build_payload_matches_reference_encoder(items, batch_index):
    tree = AdaptiveRadixTree()
    for key, value in items.items():
        tree.upsert(key, value)
    accel = {"bucket_spilled_bytes": len(items)}
    assert build_payload(tree, batch_index, accel) == reference_payload(
        tree, batch_index, accel
    )
