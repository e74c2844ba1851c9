"""Workload persistence: save and reload generated workloads.

Large experiment grids want to generate each workload once and replay
it everywhere (and a reviewer wants to inspect the exact operation
stream a number came from).  The format is JSON-lines:

* line 1 — a header object (name, key family, seed, metadata);
* one line per loaded key (``{"load": "<hex>"}``);
* one line per operation (``{"id", "op", "key", "value"?, "scan"?}``).

Keys are hex-encoded so any byte string round-trips; values are
restricted to JSON scalars (which is all the generators produce).
"""

from __future__ import annotations

import json
from typing import IO, Union

from repro.errors import WorkloadError
from repro.workloads.ops import OpKind, Operation, OperationStream, Workload

FORMAT_VERSION = 1


def save_workload(workload: Workload, path_or_file: Union[str, IO]) -> None:
    """Write a workload as JSON-lines."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as handle:
            save_workload(workload, handle)
        return
    out = path_or_file
    header = {
        "format": FORMAT_VERSION,
        "name": workload.name,
        "key_family": workload.key_family,
        "seed": workload.seed,
        "description": workload.description,
        "metadata": workload.metadata,
    }
    out.write(json.dumps(header) + "\n")
    for key in workload.loaded_keys:
        out.write(json.dumps({"load": key.hex()}) + "\n")
    for op in workload.operations:
        record = {"id": op.op_id, "op": op.kind.value, "key": op.key.hex()}
        if op.value is not None:
            record["value"] = op.value
        if op.scan_count:
            record["scan"] = op.scan_count
        out.write(json.dumps(record) + "\n")


def load_workload(path_or_file: Union[str, IO]) -> Workload:
    """Read a workload written by :func:`save_workload`.

    Raises :class:`~repro.errors.WorkloadError` for a file that cannot
    be read or decoded.
    """
    if isinstance(path_or_file, str):
        try:
            with open(path_or_file) as handle:
                return load_workload(handle)
        except OSError as exc:
            raise WorkloadError(
                f"cannot read workload file {path_or_file!r}: "
                f"{exc.strerror or exc}"
            ) from exc
    try:
        return _parse_workload(iter(path_or_file))
    except (ValueError, KeyError, TypeError) as exc:
        # Bad JSON, bad UTF-8, bad hex or a record missing a field.
        raise WorkloadError(f"undecodable workload file: {exc}") from exc


def _parse_workload(lines) -> Workload:
    try:
        header = json.loads(next(lines))
    except StopIteration:
        raise WorkloadError("empty workload file")
    if not isinstance(header, dict) or "name" not in header:
        raise WorkloadError("malformed workload header")
    if header.get("format") != FORMAT_VERSION:
        raise WorkloadError(
            f"unsupported workload format: {header.get('format')!r}"
        )

    loaded_keys = []
    operations = []
    for line_number, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if "load" in record:
            if operations:
                raise WorkloadError(
                    f"line {line_number}: load key after operations began"
                )
            loaded_keys.append(bytes.fromhex(record["load"]))
        else:
            try:
                kind = OpKind(record["op"])
            except (KeyError, ValueError):
                raise WorkloadError(f"line {line_number}: bad operation record")
            operations.append(
                Operation(
                    op_id=record["id"],
                    kind=kind,
                    key=bytes.fromhex(record["key"]),
                    value=record.get("value"),
                    scan_count=record.get("scan", 0),
                )
            )
    return Workload(
        name=header["name"],
        key_family=header.get("key_family", "unknown"),
        loaded_keys=loaded_keys,
        operations=OperationStream(operations),
        seed=header.get("seed", 0),
        description=header.get("description", ""),
        metadata=header.get("metadata", {}),
    )
