"""The fused warehouse summary kernel: one pass, one summary per group.

``scan(path)`` opens a results warehouse without reading its columns;
``group_by(*keys)`` names the grouping columns and ``collect()`` folds
every row into one :class:`~repro.experiments.harness.StreamSummary`
per group — the same aggregate the record fold of
:func:`~repro.experiments.report.summarize_records` builds, so
``repro report`` renders warehouse and JSONL sources through one
table builder.

**Fusion.**  ``collect()`` is a single pass over the raw columns.
Group runs are found by galloping probes plus binary search; each
candidate run is verified constant at C speed
(``slice.count(value) == length``) and then consumed as whole slices:
``met.count(1)`` for the met tally and one bulk append of the met
rounds into the group's ``array('q')``.  Dictionary keys decode one
code per run; one whose value table holds a single entry is constant,
checked once and left out of run detection.  The summaries do not
depend on the order of their rounds, so the kernel and the record fold
agree exactly.
"""

from __future__ import annotations

from itertools import compress
from pathlib import Path

from repro.errors import WarehouseError
from repro.experiments.harness import _INT_COLUMNS, StreamSummary
from repro.experiments.warehouse import _DICT_COLUMNS, SweepWarehouse

__all__ = ["scan", "LazyFrame"]


def scan(path: str | Path | SweepWarehouse) -> "LazyFrame":
    """Open a results warehouse directory; nothing is read until ``collect()``.

    An already-open :class:`SweepWarehouse` is accepted directly (no
    second manifest parse).  Anything else — a missing path, a plain
    directory, a JSONL export — raises
    :class:`~repro.errors.WarehouseError`; JSONL exports are summarized
    by :func:`~repro.experiments.report.summarize_path`.
    """
    return LazyFrame(path if isinstance(path, SweepWarehouse) else SweepWarehouse(path))


class LazyFrame:
    """A grouped summary over one warehouse; ``collect()`` runs it."""

    def __init__(self, warehouse: SweepWarehouse, keys: tuple[str, ...] = ()) -> None:
        self._warehouse = warehouse
        self._keys = keys

    def group_by(self, *keys: str) -> "LazyFrame":
        """Group by the int or dictionary columns of the records."""
        for key in keys:
            if key not in _INT_COLUMNS + _DICT_COLUMNS:
                raise WarehouseError(
                    f"cannot group by {key!r}; groupable columns: "
                    + ", ".join(_INT_COLUMNS + _DICT_COLUMNS)
                )
        return LazyFrame(self._warehouse, keys)

    def describe_plan(self) -> str:
        """The plan, one line per stage; the kernel is always fused."""
        warehouse = self._warehouse
        return "\n".join([
            f"SCAN warehouse {warehouse.directory} rows={warehouse.rows}",
            "GROUP BY " + ", ".join(self._keys),
            "-> fused single pass",
        ])

    def collect(self) -> dict[tuple, StreamSummary]:
        """One summary per key tuple, ordered by each group's first grid point.

        Warehouses without a ``_point`` column keep first-row order.
        """
        warehouse = self._warehouse
        rows = warehouse.rows
        # A dictionary column listing one value is constant: no run detection.
        constant = {}
        for name in self._keys:
            if len(warehouse.dictionaries.get(name, ())) == 1:
                codes = warehouse.column(name)
                if codes.count(0) != rows:  # decoding a stray code raises
                    warehouse.decode(name, next(code for code in codes if code))
                constant[name] = warehouse.decode(name, 0)
        varying = [name for name in self._keys if name not in constant]
        columns = [warehouse.column(name) for name in varying]
        met = warehouse.column("met")
        rounds = warehouse.column("rounds")
        deltas = warehouse.column("delta")
        points = warehouse.column("_point") if warehouse.has_point else None
        groups: dict[tuple, StreamSummary] = {}
        first_point: dict[tuple, int] = {}

        def same(other: int) -> bool:
            """Whether row ``other`` has the current run's key."""
            return all(column[other] == probe for column, probe in zip(columns, probes))

        row = 0
        while row < rows:
            probes = [column[row] for column in columns]
            # Gallop for a candidate boundary, then binary-search it.
            low, high, step = row, rows, 1
            while row + step < rows:
                if not same(row + step):
                    high = row + step
                    break
                low = row + step
                step *= 2
            while low + 1 < high:
                mid = (low + high) // 2
                if same(mid):
                    low = mid
                else:
                    high = mid
            # The keys need not be sorted, so the searched boundary is a
            # candidate: shrink until every key column is constant on it.
            stop = high
            while stop > row + 1 and not all(
                column[row:stop].count(probe) == stop - row
                for column, probe in zip(columns, probes)
            ):
                stop = row + (stop - row + 1) // 2
            found = {
                name: warehouse.decode(name, probe) if name in _DICT_COLUMNS else probe
                for name, probe in zip(varying, probes)
            }
            found.update(constant)
            key = tuple(found[name] for name in self._keys)
            group = groups.get(key)
            if group is None:
                group = groups[key] = StreamSummary()
                group.delta = deltas[row]
            mask = met[row:stop]
            hits = mask.count(1)
            group.total += stop - row
            if hits == stop - row:
                group.rounds += rounds[row:stop]
            elif hits:
                group.rounds.fromlist(list(compress(rounds[row:stop], mask)))
            group.met += hits
            if points is not None:
                lowest = min(points[row:stop])
                first_point[key] = min(lowest, first_point.get(key, lowest))
            row = stop
        if points is None:
            return groups
        return {key: groups[key] for key in sorted(groups, key=first_point.__getitem__)}
