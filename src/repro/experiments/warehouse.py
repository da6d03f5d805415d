"""Columnar results warehouse: per-column segment files under one directory.

A *warehouse* persists a sweep's records the way the fabric already
ships them — as typed columns, not JSON objects.  One directory holds:

``<column>.seg`` / ``<column>.<code>.seg``
    One file per scalar column.  The eight int64 columns of the TRB2
    codec (``n``, ``id_space``, ``delta``, ``max_degree``, ``seed``,
    ``rounds``, ``total_moves``, ``whiteboard_writes``) are raw
    little-endian ``array('q')`` bytes; ``met`` is one byte per row;
    the three string columns (``algorithm``, ``graph_name``, and the
    TRB2 ``scenario`` side channel) are dictionary-encoded codes whose
    value tables live in the manifest.  Their file names carry the
    code width as the ``array`` typecode — ``algorithm.B.seg`` (u8),
    widened to ``.H`` (u16) / ``.q`` (int64) if a sweep ever exceeds
    256/65536 distinct values.  Widening writes the wider codes as a
    *new* file and leaves the committed narrow segment untouched until
    the next manifest commit flips the recorded type, so the manifest
    always references an intact file.  Sweeps written through
    :class:`WarehouseCache` add a ``_point.seg`` int64 column holding
    each row's grid index — the warehouse twin of the JSONL cache's
    content-hash keys.

``reports.seg``
    Per-agent reports, one zlib-compressed JSON frame per appended
    batch; the manifest records ``[first_row, rows, offset, nbytes]``
    per frame so readers that never select ``reports`` never touch it.

``manifest.json``
    Schema, committed row count, dictionary tables, report-frame
    table, and a chained content hash
    (``sha256(prev_chain + sha256(batch payload))`` per append, so the
    hash extends across crash-resumed runs).  Its ``"fallback"`` map
    is always empty: every record the harness makes fits the columns
    exactly (JSON-native reports, int64 scalars), so round trips are
    object-exact.  Warehouses whose manifest lists fallback rows were
    written by an older version with a pickled side channel; readers
    and the resume writer refuse them with a
    :class:`~repro.errors.WarehouseError`.

**Crash safety** mirrors :class:`~repro.experiments.cache.ResultCache`
batch-append semantics: column bytes are appended and flushed first,
then the manifest is atomically replaced (``os.replace``).  The
manifest's row count is the commit point — a crash mid-batch leaves
segment files longer than the manifest says (plus, if the batch was
widening a dictionary column, a half-written wider ``.H``/``.q`` file
next to the committed one), and reopening for append truncates the
live segments back and discards widths the manifest does not record,
so at most the in-flight batch is recomputed.

Reading is :class:`SweepWarehouse`: columns load lazily, one
``mmap``-backed bulk ``array`` per column (O(columns) loads instead of
O(records) JSON parses).  The reader and the resume writer check the
manifest through one parser, and dictionary codes are checked where
they are decoded, so a malformed warehouse raises
:class:`~repro.errors.WarehouseError`.  The fused summary kernel on
top, :mod:`repro.experiments.query`, folds the columns into one
:class:`~repro.experiments.harness.StreamSummary` per group.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import sys
import zlib
from array import array
from pathlib import Path
from typing import Any, IO, Iterable, Iterator, Sequence

from repro.errors import WarehouseError
from repro.experiments.harness import _INT_COLUMNS, _INT64_MAX, TrialRecord

__all__ = [
    "WAREHOUSE_FORMAT",
    "WAREHOUSE_VERSION",
    "MANIFEST_NAME",
    "WarehouseWriter",
    "SweepWarehouse",
    "WarehouseCache",
    "write_records_warehouse",
    "is_warehouse",
]

WAREHOUSE_FORMAT = "repro-warehouse"
WAREHOUSE_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: Dictionary-encoded string columns (TRB2 side-channel fields).
_DICT_COLUMNS = ("algorithm", "graph_name", "scenario")
_POINT = "_point"
_REPORTS_FILE = "reports.seg"
#: The pickled side channel of older warehouses; only ever deleted.
_LEGACY_FALLBACK_FILE = "fallback.jsonl"
#: Code-width ladder for dictionary columns; widened on demand.
_CODE_CAPACITY = {"B": 256, "H": 65536, "q": _INT64_MAX}
_NEXT_CODE_TYPE = {"B": "H", "H": "q"}


def _segment_file(name: str) -> str:
    return f"{name}.seg"


def _dict_segment_file(name: str, typecode: str) -> str:
    """Dict-column segment name; the typecode makes widening crash-safe."""
    return f"{name}.{typecode}.seg"


def _le(column: array) -> array:
    """The column with little-endian byte order (no-op on LE hosts)."""
    if sys.byteorder == "big":  # pragma: no cover - LE-only CI
        column = array(column.typecode, column)
        column.byteswap()
    return column


def _read_manifest(directory: Path) -> dict[str, Any]:
    """Parse and check ``directory``'s manifest for the reader and the writer.

    A manifest either passes — an object of this format and version
    with ``rows >= 0``, report frames of four ints, and for every
    dictionary column a code type of the width ladder and a value list
    — or raises :class:`~repro.errors.WarehouseError`.  Manifests that
    list rows of the retired pickled side channel are refused too:
    those rows hold placeholders in the columns (zero scalars or null
    reports), so reading them as records would be silently wrong.
    """
    path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as error:
        raise WarehouseError(f"{path}: unreadable manifest: {error}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != WAREHOUSE_FORMAT:
        raise WarehouseError(f"{directory} is not a results warehouse")
    version = manifest.get("version", 0)
    if not isinstance(version, int):
        raise WarehouseError(f"{path}: malformed manifest: version {version!r}")
    if version > WAREHOUSE_VERSION:
        raise WarehouseError(
            f"{directory}: manifest version {version} is newer than this "
            f"reader (understands {WAREHOUSE_VERSION})"
        )
    if manifest.get("fallback"):
        raise WarehouseError(
            f"{directory}: written by an older version that stored "
            f"{len(manifest['fallback'])} row(s) in a pickled side channel "
            "this version does not read; re-run the sweep with --no-resume"
        )
    rows = manifest.get("rows")
    if not isinstance(rows, int) or rows < 0:
        raise WarehouseError(f"{path}: malformed manifest: rows {rows!r}")
    dict_columns = manifest.get("dict_columns")
    if not isinstance(dict_columns, dict) or not all(
        isinstance(meta, dict)
        and meta.get("type") in _CODE_CAPACITY
        and isinstance(meta.get("values"), list)
        for meta in dict_columns.values()
    ):
        raise WarehouseError(
            f"{path}: malformed manifest: every dictionary column needs a "
            f"code type of {'/'.join(_CODE_CAPACITY)} and a values list"
        )
    frames = manifest.get("report_frames")
    if not isinstance(frames, list) or not all(
        isinstance(frame, list) and len(frame) == 4
        and all(isinstance(field, int) for field in frame)
        for frame in frames
    ):
        raise WarehouseError(f"{path}: malformed manifest: report_frames {frames!r}")
    return manifest


def is_warehouse(path: str | Path) -> bool:
    """Whether ``path`` is a results-warehouse directory (has a manifest)."""
    target = Path(path)
    return target.is_dir() and (target / MANIFEST_NAME).is_file()


def _wipe(directory: Path) -> None:
    """Remove every warehouse-owned file in ``directory`` (reset)."""
    if not directory.is_dir():
        return
    for entry in directory.iterdir():
        if entry.name in (MANIFEST_NAME, _LEGACY_FALLBACK_FILE):
            entry.unlink()
        elif entry.suffix == ".seg" or entry.suffix == ".tmp":
            entry.unlink()


class WarehouseWriter:
    """Incremental batch writer for one warehouse directory.

    Parameters
    ----------
    directory:
        The warehouse directory; created on first append.
    spec_payload:
        Optional JSON-able sweep description embedded in the manifest.
    with_point:
        Store a ``_point`` int64 column of grid indices alongside the
        record columns (what :class:`WarehouseCache` uses for resume).
    resume:
        Reopen an existing warehouse for append (truncating any
        uncommitted tail) instead of discarding it.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        spec_payload: Any | None = None,
        with_point: bool = False,
        resume: bool = True,
    ) -> None:
        self._directory = Path(directory)
        self._spec_payload = spec_payload
        self._with_point = bool(with_point)
        self._handles: dict[str, IO[bytes]] = {}
        self._rows = 0
        self._dict_values: dict[str, list[Any]] = {n: [] for n in _DICT_COLUMNS}
        self._dict_index: dict[str, dict[Any, int]] = {n: {} for n in _DICT_COLUMNS}
        self._dict_types: dict[str, str] = {n: "B" for n in _DICT_COLUMNS}
        self._frames: list[list[int]] = []
        self._chain = hashlib.sha256(WAREHOUSE_FORMAT.encode("ascii")).hexdigest()
        if (self._directory / MANIFEST_NAME).exists():
            if resume:
                self._recover()
            else:
                _wipe(self._directory)

    @property
    def rows(self) -> int:
        """Committed row count (what the manifest promises readers)."""
        return self._rows

    @property
    def directory(self) -> Path:
        return self._directory

    # -- recovery ------------------------------------------------------

    def _recover(self) -> None:
        manifest = _read_manifest(self._directory)
        if bool(manifest.get("has_point")) != self._with_point:
            raise WarehouseError(
                f"{self._directory}: existing warehouse "
                f"{'has' if manifest.get('has_point') else 'lacks'} a _point "
                "column; cannot reopen it in the other mode"
            )
        self._rows = manifest["rows"]
        for name, meta in manifest["dict_columns"].items():
            self._dict_values[name] = list(meta["values"])
            self._dict_index[name] = {v: i for i, v in enumerate(meta["values"])}
            self._dict_types[name] = meta["type"]
        self._frames = manifest["report_frames"]
        self._chain = manifest.get("content_hash", self._chain)
        if self._spec_payload is None:
            self._spec_payload = manifest.get("spec")
        self._truncate_to_manifest()

    def _truncate_to_manifest(self) -> None:
        """Drop any bytes past the committed row count (torn batch)."""
        expected: dict[str, int] = {}
        for name in _INT_COLUMNS:
            expected[_segment_file(name)] = self._rows * 8
        expected[_segment_file("met")] = self._rows
        for name in _DICT_COLUMNS:
            itemsize = array(self._dict_types[name]).itemsize
            filename = _dict_segment_file(name, self._dict_types[name])
            expected[filename] = self._rows * itemsize
        if self._with_point:
            expected[_segment_file(_POINT)] = self._rows * 8
        if self._frames:
            last = self._frames[-1]
            expected[_REPORTS_FILE] = last[2] + last[3]
        else:
            expected[_REPORTS_FILE] = 0
        for filename, size in expected.items():
            path = self._directory / filename
            if not path.exists():
                if size:
                    raise WarehouseError(
                        f"{path}: segment missing but manifest commits "
                        f"{self._rows} row(s)"
                    )
                continue
            actual = path.stat().st_size
            if actual < size:
                raise WarehouseError(
                    f"{path}: segment holds {actual} byte(s), manifest "
                    f"commits {size} — corrupt warehouse"
                )
            if actual > size:
                os.truncate(path, size)
        self._drop_stale_dict_segments()

    def _drop_stale_dict_segments(self) -> None:
        """Remove dict segments whose width is not the committed one.

        A crash between :meth:`_escalate` and the manifest commit
        leaves the half-written wider file next to the committed
        narrow one; after a commit flips the type, the narrow file is
        the stale leftover.  Either way only the manifest's recorded
        width is live.
        """
        for name in _DICT_COLUMNS:
            for typecode in _CODE_CAPACITY:
                if typecode == self._dict_types[name]:
                    continue
                stale = self._directory / _dict_segment_file(name, typecode)
                if stale.exists():
                    handle = self._handles.pop(stale.name, None)
                    if handle is not None:
                        handle.close()
                    stale.unlink()

    # -- writing -------------------------------------------------------

    def _handle_for(self, filename: str) -> IO[bytes]:
        handle = self._handles.get(filename)
        if handle is None:
            self._directory.mkdir(parents=True, exist_ok=True)
            handle = (self._directory / filename).open("ab")
            self._handles[filename] = handle
        return handle

    def _escalate(self, name: str) -> None:
        """Widen a dictionary column's code type into a new segment file.

        The widened codes land under the wider type's file name
        (``name.H.seg`` next to ``name.B.seg``); the committed narrow
        segment stays on disk untouched until :meth:`_write_manifest`
        flips the recorded type, so a crash anywhere in between leaves
        the manifest pointing at an intact file and recovery merely
        discards the half-written wide one.
        """
        old_type = self._dict_types[name]
        new_type = _NEXT_CODE_TYPE[old_type]
        old_file = _dict_segment_file(name, old_type)
        handle = self._handles.pop(old_file, None)
        if handle is not None:
            handle.close()
        old_path = self._directory / old_file
        narrow = array(old_type)
        if old_path.exists():
            raw = old_path.read_bytes()
            narrow.frombytes(raw[: self._rows * narrow.itemsize])
            narrow = _le(narrow)
        wide = _le(array(new_type, narrow))
        if old_path.exists() or len(wide):
            self._directory.mkdir(parents=True, exist_ok=True)
            new_path = self._directory / _dict_segment_file(name, new_type)
            tmp = new_path.with_suffix(".seg.tmp")
            tmp.write_bytes(wide.tobytes())
            os.replace(tmp, new_path)
        self._dict_types[name] = new_type

    def append_batch(
        self,
        records: Sequence[TrialRecord],
        points: Sequence[int] | None = None,
    ) -> None:
        """Append one batch: column bytes flushed, then manifest committed.

        ``points`` (required iff the warehouse was opened with
        ``with_point=True``) are the records' grid indices, stored as
        the ``_point`` column.
        """
        records = list(records)
        if self._with_point:
            if points is None:
                raise WarehouseError("this warehouse stores _point; pass points=")
            points = list(points)
            if len(points) != len(records):
                raise WarehouseError(
                    f"{len(points)} point(s) for {len(records)} record(s)"
                )
        elif points is not None:
            raise WarehouseError("this warehouse has no _point column")
        if not records:
            return

        ints = {
            name: array("q", (getattr(record, name) for record in records))
            for name in _INT_COLUMNS
        }
        met = bytes(1 if record.met else 0 for record in records)
        raw_strings = {
            name: [getattr(record, name) for record in records]
            for name in _DICT_COLUMNS
        }
        reports_payload = [record.reports for record in records]

        codes: dict[str, array] = {}
        for name in _DICT_COLUMNS:
            values = self._dict_values[name]
            index = self._dict_index[name]
            for value in raw_strings[name]:
                if value not in index:
                    index[value] = len(values)
                    values.append(value)
            while len(values) > _CODE_CAPACITY[self._dict_types[name]]:
                self._escalate(name)
            codes[name] = array(
                self._dict_types[name], (index[v] for v in raw_strings[name])
            )

        frame = zlib.compress(
            json.dumps(reports_payload, separators=(",", ":")).encode("utf-8"), 6
        )
        frame_offset = (
            self._frames[-1][2] + self._frames[-1][3] if self._frames else 0
        )

        digest = hashlib.sha256()

        def write(filename: str, data: bytes) -> None:
            digest.update(f"{filename}:{len(data)}:".encode("ascii"))
            digest.update(data)
            self._handle_for(filename).write(data)

        for name in _INT_COLUMNS:
            write(_segment_file(name), _le(ints[name]).tobytes())
        write(_segment_file("met"), met)
        for name in _DICT_COLUMNS:
            write(
                _dict_segment_file(name, self._dict_types[name]),
                _le(codes[name]).tobytes(),
            )
        if self._with_point:
            write(_segment_file(_POINT), _le(array("q", points)).tobytes())
        write(_REPORTS_FILE, frame)
        for handle in self._handles.values():
            handle.flush()

        self._frames.append([self._rows, len(records), frame_offset, len(frame)])
        self._rows += len(records)
        self._chain = hashlib.sha256(
            (self._chain + digest.hexdigest()).encode("ascii")
        ).hexdigest()
        self._write_manifest()

    def _write_manifest(self) -> None:
        self._directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": WAREHOUSE_FORMAT,
            "version": WAREHOUSE_VERSION,
            "rows": self._rows,
            "int_columns": list(_INT_COLUMNS),
            "dict_columns": {
                name: {
                    "type": self._dict_types[name],
                    "values": self._dict_values[name],
                }
                for name in _DICT_COLUMNS
            },
            "has_point": self._with_point,
            "report_frames": self._frames,
            "fallback": {},
            "content_hash": self._chain,
            "spec": self._spec_payload,
        }
        path = self._directory / MANIFEST_NAME
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8"
        )
        os.replace(tmp, path)
        # Only after the commit point moved may superseded narrow
        # segments (and any crash leftovers) be discarded.
        self._drop_stale_dict_segments()

    def commit(self) -> None:
        """Force a manifest write (used to materialize empty warehouses)."""
        self._write_manifest()

    def reset(self) -> None:
        """Discard the on-disk contents (``--no-resume`` semantics)."""
        self.close()
        _wipe(self._directory)
        self._rows = 0
        self._dict_values = {n: [] for n in _DICT_COLUMNS}
        self._dict_index = {n: {} for n in _DICT_COLUMNS}
        self._dict_types = {n: "B" for n in _DICT_COLUMNS}
        self._frames = []
        self._chain = hashlib.sha256(WAREHOUSE_FORMAT.encode("ascii")).hexdigest()

    def close(self) -> None:
        """Release file handles (safe to call repeatedly)."""
        for handle in self._handles.values():
            handle.close()
        self._handles = {}

    def __enter__(self) -> "WarehouseWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SweepWarehouse:
    """Reader for one warehouse directory: lazy bulk column loads.

    Columns load on first access — one ``mmap``-backed copy of exactly
    the committed prefix per column — and are cached.  The reports
    channel is only touched when asked for.  Raises
    :class:`~repro.errors.WarehouseError` for paths that are not
    warehouses, malformed manifests, segments shorter than the manifest
    commits, and dictionary codes outside their value tables.
    """

    def __init__(self, directory: str | Path) -> None:
        self._directory = Path(directory)
        if not (self._directory / MANIFEST_NAME).is_file():
            raise WarehouseError(
                f"{self._directory} is not a results warehouse "
                f"(no {MANIFEST_NAME})"
            )
        manifest = _read_manifest(self._directory)
        self.rows: int = manifest["rows"]
        self._dict_meta = manifest["dict_columns"]
        self._frames = manifest["report_frames"]
        self.has_point = bool(manifest.get("has_point"))
        self.content_hash = manifest.get("content_hash")
        self.spec = manifest.get("spec")
        self._columns: dict[str, Any] = {}

    @property
    def directory(self) -> Path:
        return self._directory

    def _load_segment(self, filename: str, expected: int) -> bytes:
        path = self._directory / filename
        if expected == 0:
            return b""
        if not path.exists():
            raise WarehouseError(
                f"{path}: segment missing but manifest commits {self.rows} row(s)"
            )
        with path.open("rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size < expected:
                raise WarehouseError(
                    f"{path}: segment holds {size} byte(s), manifest "
                    f"commits {expected} — corrupt warehouse"
                )
            with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                return mm[:expected]

    def column(self, name: str) -> Any:
        """The raw column: ``array`` for ints and codes, ``bytes`` for met.

        Dictionary columns return *codes*; :meth:`decode` maps a code to
        its value.  ``reports`` returns the decoded per-row
        list (loads and decompresses every frame).
        """
        cached = self._columns.get(name)
        if cached is not None:
            return cached
        if name in _INT_COLUMNS or (name == _POINT and self.has_point):
            column = array("q")
            column.frombytes(self._load_segment(_segment_file(name), self.rows * 8))
            column = _le(column)
        elif name == "met":
            column = self._load_segment(_segment_file(name), self.rows)
        elif name in self._dict_meta:
            typecode = self._dict_meta[name]["type"]
            column = array(typecode)
            column.frombytes(
                self._load_segment(
                    _dict_segment_file(name, typecode), self.rows * column.itemsize
                )
            )
            column = _le(column)
        elif name == "reports":
            column = self._load_reports()
        else:
            raise WarehouseError(f"{self._directory}: no such column {name!r}")
        self._columns[name] = column
        return column

    def decode(self, name: str, code: int) -> Any:
        """The value of one code of a dictionary column.

        Raises :class:`~repro.errors.WarehouseError` for a code outside
        the column's value table (a corrupt segment or manifest).
        """
        values = self._dict_meta[name]["values"]
        if 0 <= code < len(values):
            return values[code]
        raise WarehouseError(
            f"{self._directory}: {name} code {code} is outside its "
            f"{len(values)}-value table — corrupt warehouse"
        )

    def _load_reports(self) -> list[Any]:
        reports: list[Any] = []
        for first_row, nrows, offset, nbytes in self._frames:
            frame = self._read_frame(offset, nbytes)
            if len(frame) != nrows or first_row != len(reports):
                raise WarehouseError(
                    f"{self._directory}: report frame at offset {offset} "
                    "does not match its manifest entry"
                )
            reports.extend(frame)
        if len(reports) != self.rows:
            raise WarehouseError(
                f"{self._directory}: {len(reports)} report row(s) for "
                f"{self.rows} record(s)"
            )
        return reports

    def _read_frame(self, offset: int, nbytes: int) -> list[Any]:
        path = self._directory / _REPORTS_FILE
        try:
            with path.open("rb") as handle:
                handle.seek(offset)
                blob = handle.read(nbytes)
        except OSError as error:
            raise WarehouseError(f"{path}: cannot read report frame: {error}")
        if len(blob) != nbytes:
            raise WarehouseError(
                f"{path}: report frame at offset {offset} is truncated"
            )
        return json.loads(zlib.decompress(blob).decode("utf-8"))

    def iter_records(self) -> Iterator[TrialRecord]:
        """Stream the rows back as :class:`TrialRecord` objects in order.

        Report frames decompress one at a time, so resident memory is
        one batch of reports, not the whole channel.
        """
        if self.rows == 0:
            return
        columns = {name: self.column(name) for name in _INT_COLUMNS}
        met = self.column("met")
        algorithms, graph_names, scenarios = map(self.column, _DICT_COLUMNS)
        decode = self.decode
        for first_row, nrows, offset, nbytes in self._frames:
            frame = self._read_frame(offset, nbytes)
            if len(frame) != nrows:
                raise WarehouseError(
                    f"{self._directory}: report frame at offset {offset} "
                    "does not match its manifest entry"
                )
            for row, reports in enumerate(frame, first_row):
                yield TrialRecord(
                    algorithm=decode("algorithm", algorithms[row]),
                    graph_name=decode("graph_name", graph_names[row]),
                    met=bool(met[row]),
                    reports=reports,
                    scenario=decode("scenario", scenarios[row]),
                    **{name: columns[name][row] for name in _INT_COLUMNS},
                )

    def __len__(self) -> int:
        return self.rows


class WarehouseCache:
    """Drop-in warehouse twin of :class:`~repro.experiments.cache.ResultCache`.

    Stores a sweep's records under ``<dir>/<spec_hash>.wh/`` with a
    ``_point`` column of grid indices instead of content-hash keys:
    resume streams ``(grid index, record)`` pairs back and the sweep
    recomputes only the missing indices, exactly like the JSONL cache
    — same batched-append crash boundary, same ``reset`` semantics.
    """

    def __init__(
        self,
        directory: str | Path,
        spec_hash: str,
        spec_payload: Any | None = None,
    ) -> None:
        self._path = Path(directory) / f"{spec_hash}.wh"
        self._spec_payload = spec_payload
        self._writer: WarehouseWriter | None = None

    @property
    def path(self) -> Path:
        """The warehouse directory backing this cache."""
        return self._path

    def _open_writer(self) -> WarehouseWriter:
        if self._writer is None:
            self._writer = WarehouseWriter(
                self._path,
                spec_payload=self._spec_payload,
                with_point=True,
                resume=True,
            )
        return self._writer

    def iter_indexed(self) -> Iterator[tuple[int, TrialRecord]]:
        """Stream cached ``(grid index, record)`` pairs one at a time."""
        if not is_warehouse(self._path):
            return
        warehouse = SweepWarehouse(self._path)
        points = warehouse.column(_POINT)
        seen: set[int] = set()
        for point, record in zip(points, warehouse.iter_records()):
            if point in seen:
                continue
            seen.add(point)
            yield point, record

    def append_indexed(self, pairs: Iterable[tuple[int, TrialRecord]]) -> None:
        """Persist a batch of ``(grid index, record)`` pairs (one commit)."""
        pairs = list(pairs)
        if not pairs:
            return
        writer = self._open_writer()
        writer.append_batch(
            [record for _point, record in pairs],
            points=[point for point, _record in pairs],
        )

    def reset(self) -> None:
        """Discard the on-disk contents (``--no-resume`` semantics)."""
        if self._writer is not None:
            self._writer.reset()
        else:
            _wipe(self._path)

    def close(self) -> None:
        """Release file handles (safe to call repeatedly)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "WarehouseCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_records_warehouse(
    records: Iterable[TrialRecord],
    path: str | Path,
    *,
    spec_payload: Any | None = None,
    batch_rows: int = 4096,
) -> Path:
    """Write records as a fresh warehouse directory; returns the path.

    The columnar twin of
    :func:`~repro.experiments.results_io.write_records_jsonl`: any
    existing warehouse at ``path`` is replaced, records land in
    iteration order, and the directory is immediately summarizable by
    :func:`repro.experiments.query.scan` and ``repro report``.
    """
    writer = WarehouseWriter(
        path, spec_payload=spec_payload, with_point=False, resume=False
    )
    with writer:
        batch: list[TrialRecord] = []
        for record in records:
            batch.append(record)
            if len(batch) >= batch_rows:
                writer.append_batch(batch)
                batch = []
        if batch:
            writer.append_batch(batch)
        writer.commit()
    return Path(path)
