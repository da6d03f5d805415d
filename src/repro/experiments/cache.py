"""On-disk JSON-lines cache for sweep trial results.

The parallel sweep engine (:mod:`repro.experiments.parallel`) stores
every trial under its **grid index**, as the warehouse does in its
``_point`` column, in a file named by the spec's content hash
(:meth:`~repro.experiments.parallel.SweepSpec.spec_hash`): a re-run
of the same spec finds its trials, and no other spec reads them.

Storage is one JSON-lines file per spec (``<dir>/<spec_hash>.jsonl``,
one ``{"point": <grid index>, "record": ...}`` object per line, whose
record is byte for byte the exported line) plus a human-readable
``<spec_hash>.spec.json`` manifest.  Appending line-by-line makes
interrupted sweeps resumable: reading back skips a torn line with a
warning and the sweep re-runs whatever is missing.  A file in the
earlier content-keyed format is refused, naming it.

**Crash-safety boundary.**  :meth:`ResultCache.append_many` writes a
whole batch with **one** flush at the end: a crash loses at most the
records of the in-flight batch, every batch flushed before it is
durable, and a torn line inside the lost batch is skipped by
:meth:`ResultCache.iter_indexed`.  The first append after reopening
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
from typing import Any, IO, Iterable, Iterator

from repro.errors import ReproError
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
    """Append-only JSON-lines store of trial records, one line per grid point.

    Parameters
    ----------
    directory:
        Cache root; created on first write.
    spec_hash:
        Hash of the owning sweep spec — names the cache file.
    spec_payload:
        Optional JSON-able description of the spec, written once as a
        ``.spec.json`` manifest next to the data for human inspection.
    """

    def __init__(
        self,
        directory: str | Path,
        spec_hash: str,
        spec_payload: Any | None = None,
    ) -> None:
        self._directory = Path(directory)
        self._spec_hash = spec_hash
        self._spec_payload = spec_payload
        self._handle: IO[str] | None = None

    @property
    def path(self) -> Path:
        """The JSON-lines data file backing this cache."""
        return self._directory / f"{self._spec_hash}.jsonl"

    @property
    def manifest_path(self) -> Path:
        """The human-readable spec manifest next to the data file."""
        return self._directory / f"{self._spec_hash}.spec.json"

    def iter_indexed(self) -> Iterator[tuple[int, TrialRecord]]:
        """Stream the stored ``(grid index, record)`` rows in write order.

        Resident memory is one record, and repeated indices all come
        back.  Blank lines are skipped; corrupt lines (an interrupted
        writer) are skipped too, with one :class:`UserWarning` naming
        the file — a truncated tail after a crash is expected (the
        sweep recomputes those trials), yet it should be *visible*,
        not silent, when it happens mid-resume.  A line in the earlier
        content-keyed format raises :class:`ReproError` instead of
        being skipped, which would recompute every trial silently.
        """
        if not self.path.exists():
            return
        skipped = 0
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    if isinstance(payload, dict) and "key" in payload:
                        raise ReproError(
                            f"{self.path} is a result cache in an older format "
                            "(records keyed by content hash, not grid index); "
                            "delete it, or rerun with `repro sweep --no-resume`, "
                            "to recompute its trials"
                        )
                    index = payload["point"]
                    if type(index) is not int:
                        raise TypeError(f"grid index {index!r} is not an integer")
                    record = record_from_jsonable(payload["record"])
                except (ValueError, KeyError, TypeError):
                    skipped += 1
                    continue
                yield index, record
        if skipped:
            warnings.warn(
                f"{self.path}: skipped {skipped} corrupt line(s) "
                "(interrupted writer); the sweep will recompute them",
                stacklevel=2,
            )

    def append_indexed(self, pairs: Iterable[tuple[int, TrialRecord]]) -> None:
        """Persist a batch of ``(grid index, record)`` pairs: :meth:`append_many`."""
        self.append_many(pairs)

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

    def append_many(self, pairs: Iterable[tuple[int, TrialRecord]]) -> None:
        """Persist a batch of ``(grid index, record)`` pairs with **one** flush.

        The sweep fabric appends one completed result batch at a time
        through this method; see the module docstring for the exact
        crash-safety boundary this buys (at most the in-flight batch
        is lost, and only after all earlier batches are durable).
        An empty batch is a no-op and does not touch the disk.
        """
        lines = [
            json.dumps(
                {"point": index, "record": record_to_jsonable(record)},
                sort_keys=True,
            ) + "\n"
            for index, record in pairs
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
