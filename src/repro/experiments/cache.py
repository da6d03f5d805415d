"""Content-addressed on-disk cache for sweep trial results.

The parallel sweep engine (:mod:`repro.experiments.parallel`) keys
every trial by the hash of its *content* — the grid point's family,
size, δ rule, algorithm, seed, constants preset, and round budget —
so a cached record is valid exactly as long as that tuple is, and a
re-run of the same :class:`~repro.experiments.parallel.SweepSpec`
never recomputes a trial it already has on disk.

Storage is one JSON-lines file per spec (``<dir>/<spec_hash>.jsonl``,
one ``{"key": ..., "record": ...}`` object per line) plus a
human-readable ``<spec_hash>.spec.json`` manifest.  Appending
line-by-line makes interrupted sweeps resumable: reading back skips a
torn line with a warning and the sweep re-runs whatever is missing.
All record (de)serialization goes through
:mod:`repro.experiments.results_io`, so cached records round-trip
exactly like exported ones.

**Crash-safety boundary.**  :meth:`ResultCache.append_many` writes a
whole batch with **one** flush at the end: a crash loses at most the
records of the in-flight batch, every batch flushed before it is
durable, and a torn line inside the lost batch is skipped by
:meth:`ResultCache.iter_records`.  The first append after reopening
cuts that torn tail off, so new lines never glue onto it.  Since
sweeps and the broker append a batch only after all of its trials
completed, resume recomputes exactly the lost trials and nothing else.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import warnings
from pathlib import Path
from typing import Any, IO, Iterable, Iterator, Sequence

from repro.experiments.harness import TrialRecord
from repro.experiments.results_io import record_from_jsonable, record_to_jsonable

__all__ = ["CACHE_FORMAT_VERSION", "content_hash", "ResultCache"]

#: Bump to invalidate every existing cache file (schema changes).
CACHE_FORMAT_VERSION = 1


def content_hash(payload: Any) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``.

    Canonical means sorted keys and compact separators, so logically
    equal payloads hash identically regardless of construction order.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Append-only JSON-lines store of trial records keyed by content hash.

    Parameters
    ----------
    directory:
        Cache root; created on first write.
    spec_hash:
        Hash of the owning sweep spec — names the cache file.
    spec_payload:
        Optional JSON-able description of the spec, written once as a
        ``.spec.json`` manifest next to the data for human inspection.
    keys:
        The content key of every grid point, in grid order.  They let
        :meth:`iter_indexed` and :meth:`append_indexed` speak grid
        indices, like the warehouse cache does.
    """

    def __init__(
        self,
        directory: str | Path,
        spec_hash: str,
        spec_payload: Any | None = None,
        keys: Sequence[str] = (),
    ) -> None:
        self._directory = Path(directory)
        self._spec_hash = spec_hash
        self._spec_payload = spec_payload
        self._keys = keys
        self._handle: IO[str] | None = None

    @property
    def path(self) -> Path:
        """The JSON-lines data file backing this cache."""
        return self._directory / f"{self._spec_hash}.jsonl"

    @property
    def manifest_path(self) -> Path:
        """The human-readable spec manifest next to the data file."""
        return self._directory / f"{self._spec_hash}.spec.json"

    def iter_records(self) -> Iterator[tuple[str, TrialRecord]]:
        """Stream cached ``(key, record)`` pairs one at a time.

        Resident memory is one record plus the set of keys already
        seen.  Blank lines are skipped; corrupt lines (an interrupted
        writer) are skipped too, with one :class:`UserWarning` naming
        the file — a truncated tail after a crash is expected (the
        sweep recomputes those keys), yet it should be *visible*, not
        silent, when it happens mid-resume.  Duplicate keys yield
        their *first* occurrence — for the deterministic trials this
        cache stores, duplicates are byte-identical re-runs, so first
        and last coincide.
        """
        if not self.path.exists():
            return
        seen: set[str] = set()
        skipped = 0
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    key = payload["key"]
                    record = record_from_jsonable(payload["record"])
                except (ValueError, KeyError, TypeError):
                    skipped += 1
                    continue
                if key in seen:
                    continue
                seen.add(key)
                yield key, record
        if skipped:
            warnings.warn(
                f"{self.path}: skipped {skipped} corrupt line(s) "
                "(interrupted writer); the sweep will recompute them",
                stacklevel=2,
            )

    def iter_indexed(self) -> Iterator[tuple[int, TrialRecord]]:
        """Stream cached ``(grid index, record)`` pairs one at a time.

        Records whose key names no grid point are skipped.
        """
        index_of = {key: index for index, key in enumerate(self._keys)}
        for key, record in self.iter_records():
            index = index_of.get(key)
            if index is not None:
                yield index, record

    def append_indexed(self, pairs: Iterable[tuple[int, TrialRecord]]) -> None:
        """Persist a batch of ``(grid index, record)`` pairs (one flush)."""
        keys = self._keys
        self.append_many((keys[index], record) for index, record in pairs)

    def reset(self) -> None:
        """Discard the on-disk contents (``--no-resume`` semantics)."""
        self.close()
        if self.path.exists():
            self.path.unlink()

    def _open_handle(self) -> IO[str]:
        if self._handle is None:
            self._directory.mkdir(parents=True, exist_ok=True)
            if self._spec_payload is not None and not self.manifest_path.exists():
                self.manifest_path.write_text(
                    json.dumps(self._spec_payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
            self._cut_torn_tail()
            self._handle = self.path.open("a", encoding="utf-8")
        return self._handle

    def _cut_torn_tail(self) -> None:
        """Truncate a torn final line, so the next append starts a line.

        An append right after a crash fragment would glue the first new
        record onto it, and both would read back as one corrupt line.
        """
        if not self.path.exists():
            return
        with self.path.open("r+b") as handle:
            size = handle.seek(0, os.SEEK_END)
            if size == 0:
                return
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as data:
                handle.truncate(data.rfind(b"\n") + 1)

    def append_many(self, pairs: Iterable[tuple[str, TrialRecord]]) -> None:
        """Persist a batch of records with **one** flush at the end.

        The sweep fabric appends one completed result batch at a time
        through this method; see the module docstring for the exact
        crash-safety boundary this buys (at most the in-flight batch
        is lost, and only after all earlier batches are durable).
        An empty batch is a no-op and does not touch the disk.
        """
        lines = [
            json.dumps(
                {"key": key, "record": record_to_jsonable(record)}, sort_keys=True
            ) + "\n"
            for key, record in pairs
        ]
        if not lines:
            return
        handle = self._open_handle()
        handle.write("".join(lines))
        handle.flush()

    def close(self) -> None:
        """Release the file handle (safe to call repeatedly)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
