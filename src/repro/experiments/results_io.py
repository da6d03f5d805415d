"""Persistence and transport of raw trial records.

Tables summarize; raw records let downstream users re-analyze.  Every
:class:`~repro.experiments.harness.TrialRecord` the harness makes
holds JSON-native reports and int64 scalars (checked where it is
made), so it round-trips through JSON lines unchanged, per-agent
reports included; CSV export flattens the scalar fields for
spreadsheet work.

Two access shapes for JSON lines: :func:`read_records_jsonl`
materializes the whole list (small files, tests), and
:func:`iter_records_jsonl` streams one record at a time so consumers
— the ``repro report`` command, streaming aggregation — stay O(1) in
the file size.

The **columnar batch codec** (:func:`pack_record_batch` /
:func:`unpack_record_batch`) is the wire format of the sweep fabric
(:mod:`repro.experiments.parallel`): the nine scalar fields of a whole
batch of records travel as typed ``array``/``struct`` columns and the
variable-shape fields (algorithm, graph name, scenario, per-agent
reports) as one compact JSON side channel, so a worker→parent transfer
is a single ``bytes`` object instead of one pickled ``TrialRecord`` per
trial.  The codec is object-exact: ``unpack(pack(records)) == records``
for every record the harness makes; ``docs/performance.md`` documents
the layout.
"""

from __future__ import annotations

import csv
import json
import struct
import warnings
from array import array
from dataclasses import fields
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.experiments.harness import _INT_COLUMNS, TrialRecord

__all__ = [
    "record_to_jsonable",
    "record_from_jsonable",
    "write_records_jsonl",
    "read_records_jsonl",
    "iter_records_jsonl",
    "write_records_csv",
    "pack_record_batch",
    "unpack_record_batch",
]

_FIELDS = tuple(field.name for field in fields(TrialRecord))
_CSV_FIELDS = [
    "algorithm", "graph_name", "n", "id_space", "delta", "max_degree",
    "seed", "met", "rounds", "total_moves", "whiteboard_writes", "scenario",
]


def record_to_jsonable(record: TrialRecord) -> dict[str, Any]:
    """One record as a plain JSON-able dict of its fields.

    Every writer encodes records through this function: the JSONL
    cache, :func:`write_records_jsonl` and :func:`write_records_csv`.
    The dict is built directly, not deep-copied, so it shares the
    record's ``reports`` dicts; copy before mutating them.  The harness
    checks that reports are JSON-native when it makes a record, so
    ``json.dumps`` needs no copy to encode them.
    """
    return {name: getattr(record, name) for name in _FIELDS}


def record_from_jsonable(payload: dict[str, Any]) -> TrialRecord:
    """Inverse of :func:`record_to_jsonable`."""
    return TrialRecord(**payload)


def write_records_jsonl(records: Iterable[TrialRecord], path: str | Path) -> Path:
    """Write records as one JSON object per line; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_jsonable(record), sort_keys=True) + "\n")
    return target


def iter_records_jsonl(path: str | Path) -> Iterator[TrialRecord]:
    """Stream records written by :func:`write_records_jsonl` one at a time.

    The generator holds exactly one decoded record at a time, so
    consumers that fold records into summaries (``repro report``, the
    streaming sweep aggregation) stay O(1) in the file size.  Blank
    lines are skipped.

    A torn **final** line — the signature of a writer killed mid-append
    — is skipped with a :class:`UserWarning` so crash-resume can read
    everything that was durably written.  Corruption anywhere *before*
    the final line is not a crash artifact (appends only tear the tail)
    and still raises, exactly like :func:`read_records_jsonl`.
    """
    source = Path(path)
    with source.open("r", encoding="utf-8") as handle:
        pending: tuple[str, Exception] | None = None
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if pending is not None:
                raise pending[1]
            try:
                record = record_from_jsonable(json.loads(line))
            except (ValueError, TypeError, KeyError) as error:
                # Defer: only a *trailing* bad line is tolerated.
                pending = (line, error)
                continue
            yield record
        if pending is not None:
            warnings.warn(
                f"{source}: skipped truncated final line "
                f"({len(pending[0])} bytes) — interrupted writer",
                stacklevel=2,
            )


def read_records_jsonl(path: str | Path) -> list[TrialRecord]:
    """Load records written by :func:`write_records_jsonl` as one list."""
    return list(iter_records_jsonl(path))


# ----------------------------------------------------------------------
# Columnar batch codec (the sweep fabric's wire format)
# ----------------------------------------------------------------------

#: Magic + version prefix of a packed batch; bump on layout changes.
#: TRB2 added the per-record ``scenario`` entry to the JSON side
#: channel (the scalar column layout is unchanged from TRB1).
_BATCH_MAGIC = b"TRB2"


def pack_record_batch(records: Sequence[TrialRecord]) -> bytes:
    """Pack many records into one columnar ``bytes`` blob.

    Layout (all little-endian)::

        "TRB2" | uint32 count
              | 8 x int64[count]   -- n, id_space, delta, max_degree,
              |                       seed, rounds, total_moves,
              |                       whiteboard_writes
              | uint8[count]       -- met flags
              | utf-8 JSON         -- {"algorithm": [...],
              |                        "graph_name": [...],
              |                        "scenario": [...],
              |                        "reports": [...]} (to the end)

    Records the harness makes unpack equal to the originals: their
    reports are JSON-native and their scalars fit int64.  A scalar
    outside int64 raises ``OverflowError``.
    """
    count = len(records)
    parts = [_BATCH_MAGIC, struct.pack("<I", count)]
    for name in _INT_COLUMNS:
        column = array("q", (getattr(r, name) for r in records))
        parts.append(column.tobytes())
    parts.append(bytes(1 if r.met else 0 for r in records))
    side = {
        "algorithm": [r.algorithm for r in records],
        "graph_name": [r.graph_name for r in records],
        "scenario": [r.scenario for r in records],
        "reports": [r.reports for r in records],
    }
    parts.append(json.dumps(side, separators=(",", ":")).encode("utf-8"))
    return b"".join(parts)


def unpack_record_batch(data: bytes) -> list[TrialRecord]:
    """Inverse of :func:`pack_record_batch`."""
    if data[:4] != _BATCH_MAGIC:
        raise ValueError("not a packed TrialRecord batch (bad magic)")
    (count,) = struct.unpack_from("<I", data, 4)
    offset = 8
    columns: dict[str, array] = {}
    for name in _INT_COLUMNS:
        column = array("q")
        column.frombytes(data[offset:offset + 8 * count])
        columns[name] = column
        offset += 8 * count
    met = data[offset:offset + count]
    offset += count
    side = json.loads(data[offset:].decode("utf-8"))
    return [
        TrialRecord(
            algorithm=side["algorithm"][i],
            graph_name=side["graph_name"][i],
            n=columns["n"][i],
            id_space=columns["id_space"][i],
            delta=columns["delta"][i],
            max_degree=columns["max_degree"][i],
            seed=columns["seed"][i],
            met=bool(met[i]),
            rounds=columns["rounds"][i],
            total_moves=columns["total_moves"][i],
            whiteboard_writes=columns["whiteboard_writes"][i],
            reports=side["reports"][i],
            scenario=side["scenario"][i],
        )
        for i in range(count)
    ]


def write_records_csv(records: Iterable[TrialRecord], path: str | Path) -> Path:
    """Write the scalar fields of the records as CSV; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for record in records:
            payload = record_to_jsonable(record)
            writer.writerow({k: payload[k] for k in _CSV_FIELDS})
    return target
