"""Plain-text and markdown tables for experiment output.

The benchmark harness prints one or more :class:`Table` objects per
experiment — the reproduction's analogue of the paper's result tables —
and optionally persists them under ``results/`` for EXPERIMENTS.md.

:func:`summarize_records` folds any stream of
:class:`~repro.experiments.harness.TrialRecord` objects into one
grouped summary table without materializing the stream — the engine
behind ``repro report FILE.jsonl``, which replays sweep exports of any
size in O(1) memory via
:func:`~repro.experiments.results_io.iter_records_jsonl`.
:func:`summarize_warehouse` builds the same per-group summaries from a
warehouse's columns, and both render through one table builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.harness import StreamSummary, TrialRecord

__all__ = [
    "Table",
    "summarize_records",
    "summarize_jsonl",
    "summarize_warehouse",
    "summarize_path",
]


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


@dataclass
class Table:
    """A titled table with fixed headers and appendable rows."""

    title: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        """Append one row; must match the header count."""
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        """Append a footnote printed under the table."""
        self.notes.append(note)

    def render(self) -> str:
        """Fixed-width text rendering."""
        cells = [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.headers[i]), *(len(row[i]) for row in cells), 1)
            if cells
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavored markdown rendering."""
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)

    def save_markdown(self, directory: str | Path, stem: str) -> Path:
        """Write the markdown rendering to ``directory/stem.md``."""
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        target = path / f"{stem}.md"
        target.write_text(self.to_markdown() + "\n", encoding="utf-8")
        return target


#: The record fields a report groups by, in column order.
_GROUP_KEYS = ("algorithm", "graph_name", "n", "delta", "scenario")


def _summary_table(
    title: str, groups: "dict[tuple[str, str, int, int, str | None], StreamSummary]"
) -> Table:
    """The grouped summary table of ``(algorithm, graph, n, δ, scenario)`` groups."""
    table = Table(
        title=title,
        headers=[
            "algorithm", "graph", "n", "delta", "scenario",
            "met", "mean rounds", "median rounds",
        ],
    )
    for (algorithm, graph_name, n, delta, scenario), group in groups.items():
        summary = group.summary()
        table.add_row(
            algorithm, graph_name, n, delta, scenario or "none",
            f"{group.met}/{group.total}",
            summary.mean if summary else float("nan"),
            summary.median if summary else float("nan"),
        )
    total = sum(group.total for group in groups.values())
    table.add_note(f"{total} records in {len(groups)} group(s)")
    return table


def summarize_records(
    records: "Iterable[TrialRecord]", title: str = "RECORDS"
) -> Table:
    """Fold a record stream into a grouped summary table, record by record.

    Groups by ``(algorithm, graph name, n, δ, scenario)`` — the axes a
    sweep export varies — and keeps only the per-group
    :class:`~repro.experiments.harness.StreamSummary` aggregates, so
    an arbitrarily large stream (a generator over a JSONL file) is
    summarized holding one int per successful trial and no record.
    Rows appear in first-seen order,
    which for sweep exports is canonical grid order.
    """
    from repro.experiments.harness import StreamSummary

    groups: dict[tuple[str, str, int, int, str | None], StreamSummary] = {}
    for record in records:  # _GROUP_KEYS spelled out: faster than attrgetter
        key = (record.algorithm, record.graph_name, record.n, record.delta, record.scenario)
        group = groups.get(key)
        if group is None:
            group = groups[key] = StreamSummary()
        group.add(record)
    return _summary_table(title, groups)


def summarize_jsonl(path: str | Path, title: str | None = None) -> Table:
    """Summarize a JSON-lines record export without loading it whole.

    Streams through
    :func:`~repro.experiments.results_io.iter_records_jsonl`, so peak
    memory is one record plus the group aggregates regardless of file
    size.  This record-by-record fold is the *differential oracle* for
    the fused warehouse path: :func:`summarize_warehouse` must produce
    a byte-identical table for the same records.
    """
    if title is None:
        title = f"RECORDS {Path(path).name}"
    from repro.experiments.results_io import iter_records_jsonl

    return summarize_records(iter_records_jsonl(path), title=title)


def summarize_warehouse(path: str | Path, title: str | None = None) -> Table:
    """Summarize a results warehouse with the fused summary kernel.

    :mod:`repro.experiments.query` folds the mmap'd columns into the
    same per-group :class:`~repro.experiments.harness.StreamSummary`
    aggregates :func:`summarize_records` builds, in one pass, and both
    render through one table builder — so the table is byte-identical
    to the record fold's, and a million-row sweep summarizes in
    milliseconds instead of re-parsing JSON.  Groups are ordered by
    their first grid point (the ``_point`` column sweeps store), which
    restores canonical grid order however the rows arrived on disk.
    """
    from repro.experiments import query

    if title is None:
        title = f"RECORDS {Path(path).name}"
    groups = query.scan(path).group_by(*_GROUP_KEYS).collect()
    return _summary_table(title, groups)


def summarize_path(path: str | Path, title: str | None = None) -> Table:
    """Summarize a record export, auto-detecting its storage format.

    Warehouse directories go through the fused columnar path, JSONL
    files through the streaming fold.  Anything else — a missing path,
    an empty file, a directory without a manifest, a file that is not
    a record export — raises :class:`~repro.errors.WarehouseError`
    (a :class:`~repro.errors.ReproError`), which ``repro report`` turns
    into a clean one-line message instead of a traceback.
    """
    from repro.errors import WarehouseError
    from repro.experiments.warehouse import is_warehouse

    target = Path(path)
    if is_warehouse(target):
        return summarize_warehouse(target, title=title)
    if target.is_dir():
        raise WarehouseError(
            f"{target} is a directory but not a results warehouse "
            "(no manifest.json)"
        )
    if not target.exists():
        raise WarehouseError(f"{target}: no such record file or warehouse")
    if target.stat().st_size == 0:
        raise WarehouseError(f"{target} is empty — no records to summarize")
    try:
        return summarize_jsonl(target, title=title)
    except (ValueError, TypeError, KeyError) as error:
        raise WarehouseError(
            f"{target} is not a JSON-lines record export: {error}"
        ) from None
