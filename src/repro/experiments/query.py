"""Lazy, fused queries over trial records — the one aggregation engine.

``scan(path)`` opens a results warehouse directory (or a JSONL export)
without reading data; ``select`` / ``filter`` / ``group_by`` / ``agg``
build a tiny logical plan; ``collect()`` executes it.  ``repro
report`` over a warehouse and the FAULT-TOL and DYN-CHURN workload
gates phrase their aggregation as one of these plans, and the
record-by-record JSONL fold stays available as a differential oracle.

**Fusion.**  Over a warehouse source, a ``group_by(...).agg(...)``
plan with bare-column keys executes as a *single pass over the raw
columns*: group runs are found by galloping probes plus binary
search, each candidate run is verified constant at C speed
(``slice.count(value) == length``), and every aggregation consumes
the run as one slice — ``sum``, ``count``, masked variants via
``itertools.compress`` with the ``met`` byte column as the mask.  Plans
the fused kernel does not cover (filters over a warehouse, computed
keys) fall back to a row-wise fold with identical semantics —
``describe_plan()`` says which executor a plan gets.

Aggregation results do not depend on the executor: ``mean`` is
:func:`statistics.fmean` and ``median`` is :func:`statistics.median`,
both independent of value order, so a fused summary is byte-identical
to the record-by-record fold.
"""

from __future__ import annotations

import statistics
from itertools import compress
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import QueryError, WarehouseError
from repro.experiments.harness import _INT_COLUMNS, TrialRecord
from repro.experiments.warehouse import SweepWarehouse, is_warehouse

__all__ = [
    "col",
    "lit",
    "count",
    "sum_",
    "mean",
    "min_",
    "max_",
    "median",
    "values",
    "scan",
    "from_records",
    "LazyFrame",
    "Frame",
    "Expr",
    "Agg",
]

_DICT_COLUMNS = ("algorithm", "graph_name", "scenario")
_SCALAR_COLUMNS = _INT_COLUMNS + ("met",)


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------

_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "&": lambda a, b: bool(a) and bool(b),
    "|": lambda a, b: bool(a) or bool(b),
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": lambda a, b: a // b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


class Expr:
    """A tiny expression tree over record columns.

    Built from :func:`col` and :func:`lit` with Python operators:
    comparisons, ``& | ~`` for boolean logic, ``+ - * // / %`` for
    arithmetic, plus :meth:`is_in`.  Expressions are inert until a
    plan containing them is collected.
    """

    __slots__ = ("kind", "args", "_alias")

    def __init__(self, kind: str, args: tuple, alias: str | None = None) -> None:
        self.kind = kind
        self.args = args
        self._alias = alias

    # -- construction ------------------------------------------------

    def _bin(self, op: str, other: Any) -> "Expr":
        return Expr("bin", (op, self, _as_expr(other)))

    __eq__ = lambda self, other: self._bin("==", other)  # type: ignore[assignment]
    __ne__ = lambda self, other: self._bin("!=", other)  # type: ignore[assignment]
    __lt__ = lambda self, other: self._bin("<", other)
    __le__ = lambda self, other: self._bin("<=", other)
    __gt__ = lambda self, other: self._bin(">", other)
    __ge__ = lambda self, other: self._bin(">=", other)
    __and__ = lambda self, other: self._bin("&", other)
    __or__ = lambda self, other: self._bin("|", other)
    __add__ = lambda self, other: self._bin("+", other)
    __sub__ = lambda self, other: self._bin("-", other)
    __mul__ = lambda self, other: self._bin("*", other)
    __floordiv__ = lambda self, other: self._bin("//", other)
    __truediv__ = lambda self, other: self._bin("/", other)
    __mod__ = lambda self, other: self._bin("%", other)
    __hash__ = None  # type: ignore[assignment]

    def __invert__(self) -> "Expr":
        return Expr("not", (self,))

    def is_in(self, options: Iterable[Any]) -> "Expr":
        """Membership test against a fixed set of values."""
        return Expr("isin", (self, frozenset(options)))

    def alias(self, name: str) -> "Expr":
        """Name this expression's output column."""
        clone = Expr(self.kind, self.args, name)
        return clone

    # -- introspection -----------------------------------------------

    @property
    def output_name(self) -> str | None:
        if self._alias is not None:
            return self._alias
        if self.kind == "col":
            return self.args[0]
        return None

    def columns(self) -> set[str]:
        """Every column name this expression reads."""
        if self.kind == "col":
            return {self.args[0]}
        if self.kind == "lit":
            return set()
        out: set[str] = set()
        for arg in self.args:
            if isinstance(arg, Expr):
                out |= arg.columns()
        return out

    def evaluate(self, get: Callable[[str], Any]) -> Any:
        """Row-wise evaluation; ``get`` maps a column name to its value."""
        kind = self.kind
        if kind == "col":
            return get(self.args[0])
        if kind == "lit":
            return self.args[0]
        if kind == "not":
            return not self.args[0].evaluate(get)
        if kind == "isin":
            return self.args[0].evaluate(get) in self.args[1]
        op, left, right = self.args
        return _BINOPS[op](left.evaluate(get), right.evaluate(get))

    def describe(self) -> str:
        if self.kind == "col":
            return f"col({self.args[0]!r})"
        if self.kind == "lit":
            return repr(self.args[0])
        if self.kind == "not":
            return f"~{self.args[0].describe()}"
        if self.kind == "isin":
            return f"{self.args[0].describe()}.is_in({sorted(map(repr, self.args[1]))})"
        op, left, right = self.args
        return f"({left.describe()} {op} {right.describe()})"


def _as_expr(value: Any) -> Expr:
    if isinstance(value, Expr):
        return value
    return lit(value)


def col(name: str) -> Expr:
    """Reference a record column (``n``, ``rounds``, ``algorithm`` …)."""
    return Expr("col", (name,))


def lit(value: Any) -> Expr:
    """A literal constant inside an expression."""
    return Expr("lit", (value,))


# ----------------------------------------------------------------------
# Aggregations
# ----------------------------------------------------------------------

#: Aggregations that accumulate the selected values as a list.
_LIST_OPS = frozenset({"mean", "median", "values"})


class Agg:
    """One aggregation inside ``group_by(...).agg(...)``.

    ``where=`` restricts the aggregation to rows where the predicate
    holds — the fused executor turns ``where=col("met")`` into a mask
    over the met byte column at no per-row cost.
    """

    __slots__ = ("op", "target", "where")

    def __init__(self, op: str, target: Expr | None, where: Expr | None) -> None:
        self.op = op
        self.target = target
        self.where = where

    def columns(self) -> set[str]:
        out: set[str] = set()
        if self.target is not None:
            out |= self.target.columns()
        if self.where is not None:
            out |= self.where.columns()
        return out

    def describe(self) -> str:
        inner = self.target.describe() if self.target is not None else ""
        where = f", where={self.where.describe()}" if self.where is not None else ""
        return f"{self.op}({inner}{where})"


def _agg(op: str, target: str | Expr | None, where: str | Expr | None) -> Agg:
    target_expr = None if target is None else (
        col(target) if isinstance(target, str) else target
    )
    where_expr = None if where is None else (
        col(where) if isinstance(where, str) else where
    )
    return Agg(op, target_expr, where_expr)


def count(where: str | Expr | None = None) -> Agg:
    """Number of (selected) rows in the group."""
    return _agg("count", None, where)


def sum_(target: str | Expr, where: str | Expr | None = None) -> Agg:
    """Sum of the target over the (selected) rows; 0 when none."""
    return _agg("sum", target, where)


def mean(target: str | Expr, where: str | Expr | None = None) -> Agg:
    """:func:`statistics.fmean` of the target; ``None`` when empty."""
    return _agg("mean", target, where)


def min_(target: str | Expr, where: str | Expr | None = None) -> Agg:
    """Minimum of the target; ``None`` when empty."""
    return _agg("min", target, where)


def max_(target: str | Expr, where: str | Expr | None = None) -> Agg:
    """Maximum of the target; ``None`` when empty."""
    return _agg("max", target, where)


def median(target: str | Expr, where: str | Expr | None = None) -> Agg:
    """:func:`statistics.median` of the target; ``None`` when empty."""
    return _agg("median", target, where)


def values(target: str | Expr, where: str | Expr | None = None) -> Agg:
    """The selected values themselves, in row order."""
    return _agg("values", target, where)


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------


class _RecordsSource:
    """Row-wise source over in-memory records (or any record iterable)."""

    fused = False

    def __init__(self, records: Iterable[TrialRecord], label: str) -> None:
        self._records = records
        self.label = label

    def iter_rows(self) -> Iterator[tuple[TrialRecord, int | None]]:
        for record in self._records:
            yield record, None


class _JsonlSource(_RecordsSource):
    """Row-wise source streaming a JSONL export (the legacy oracle path)."""

    def __init__(self, path: Path) -> None:
        self.path = path
        super().__init__((), f"jsonl {path}")

    def iter_rows(self) -> Iterator[tuple[TrialRecord, int | None]]:
        from repro.experiments.results_io import iter_records_jsonl

        for record in iter_records_jsonl(self.path):
            yield record, None


class _WarehouseSource:
    """Columnar source over a warehouse directory (fused kernel eligible)."""

    fused = True

    def __init__(self, warehouse: SweepWarehouse) -> None:
        self.warehouse = warehouse
        self.label = f"warehouse {warehouse.directory} rows={warehouse.rows}"

    def iter_rows(self) -> Iterator[tuple[TrialRecord, int | None]]:
        warehouse = self.warehouse
        points = warehouse.column("_point") if warehouse.has_point else None
        for row, record in enumerate(warehouse.iter_records()):
            yield record, (points[row] if points is not None else None)


def _record_get(record: TrialRecord, point: int | None) -> Callable[[str], Any]:
    def get(name: str) -> Any:
        if name == "_point":
            if point is None:
                raise QueryError(
                    "_point is only available on warehouses written by a sweep"
                )
            return point
        try:
            return getattr(record, name)
        except AttributeError:
            raise QueryError(f"no such column {name!r}") from None

    return get


def scan(path: str | Path | SweepWarehouse) -> "LazyFrame":
    """Lazily open a results warehouse directory or a JSONL export.

    Nothing is read until ``collect()``; the returned plan runs the
    fused columnar kernel for warehouses and the row-wise streaming
    fold for JSONL files.  An already-open :class:`SweepWarehouse` is
    accepted directly (no second manifest parse).  Raises
    :class:`~repro.errors.WarehouseError` for paths that are neither.
    """
    if isinstance(path, SweepWarehouse):
        return LazyFrame(_WarehouseSource(path))
    target = Path(path)
    if is_warehouse(target):
        return LazyFrame(_WarehouseSource(SweepWarehouse(target)))
    if target.is_dir():
        raise WarehouseError(
            f"{target} is a directory but not a results warehouse "
            "(no manifest.json)"
        )
    if not target.exists():
        raise WarehouseError(f"{target}: no such record file or warehouse")
    return LazyFrame(_JsonlSource(target))


def from_records(records: Iterable[TrialRecord]) -> "LazyFrame":
    """Query in-memory records with the same plan API as :func:`scan`."""
    return LazyFrame(_RecordsSource(records, "records"))


# ----------------------------------------------------------------------
# Frames (collected results)
# ----------------------------------------------------------------------


class Frame:
    """A small materialized result: named columns of equal length."""

    def __init__(self, columns: dict[str, list[Any]]) -> None:
        lengths = {len(column) for column in columns.values()}
        if len(lengths) > 1:
            raise QueryError(f"ragged frame: column lengths {sorted(lengths)}")
        self._columns = columns

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    def column(self, name: str) -> list[Any]:
        try:
            return self._columns[name]
        except KeyError:
            raise QueryError(f"no such column {name!r}") from None

    def __len__(self) -> int:
        for column in self._columns.values():
            return len(column)
        return 0

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        names = list(self._columns)
        for values_ in zip(*(self._columns[n] for n in names)):
            yield dict(zip(names, values_))

    def sort_by(self, *names: str) -> "Frame":
        """A new frame with rows stably sorted by the named columns."""
        order = sorted(
            range(len(self)), key=lambda i: tuple(self._columns[n][i] for n in names)
        )
        return Frame(
            {name: [column[i] for i in order] for name, column in self._columns.items()}
        )

    def drop(self, *names: str) -> "Frame":
        return Frame(
            {name: column for name, column in self._columns.items() if name not in names}
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Frame({len(self)} rows: {', '.join(self._columns)})"


# ----------------------------------------------------------------------
# The lazy plan
# ----------------------------------------------------------------------


class LazyFrame:
    """An inert query plan; ``collect()`` executes it in one pass."""

    def __init__(
        self,
        source: Any,
        filters: tuple[Expr, ...] = (),
        projection: tuple[Expr, ...] | None = None,
        group_keys: tuple[Expr, ...] | None = None,
        aggs: tuple[tuple[str, Agg], ...] | None = None,
    ) -> None:
        self._source = source
        self._filters = filters
        self._projection = projection
        self._group_keys = group_keys
        self._aggs = aggs

    # -- plan building -----------------------------------------------

    def filter(self, predicate: Expr) -> "LazyFrame":
        """Keep only rows where the predicate holds."""
        if self._group_keys is not None:
            raise QueryError("filter() must come before group_by()")
        return LazyFrame(self._source, self._filters + (predicate,), self._projection)

    def select(self, *exprs: str | Expr) -> "LazyFrame":
        """Project columns (or named expressions) without grouping."""
        if self._group_keys is not None:
            raise QueryError("select() cannot follow group_by(); use agg()")
        resolved = tuple(col(e) if isinstance(e, str) else e for e in exprs)
        for i, expr in enumerate(resolved):
            if expr.output_name is None:
                raise QueryError(
                    f"select() expression #{i} needs .alias(name): "
                    f"{expr.describe()}"
                )
        return LazyFrame(self._source, self._filters, resolved)

    def group_by(self, *keys: str | Expr) -> "LazyFrame":
        """Group rows by columns (or named expressions); follow with agg()."""
        if not keys:
            raise QueryError("group_by() needs at least one key")
        resolved = tuple(col(k) if isinstance(k, str) else k for k in keys)
        for i, key in enumerate(resolved):
            if key.output_name is None:
                raise QueryError(
                    f"group_by() key #{i} needs .alias(name): {key.describe()}"
                )
        return LazyFrame(self._source, self._filters, None, resolved, ())

    def agg(self, **aggs: Agg) -> "LazyFrame":
        """Attach named aggregations to a grouped plan."""
        if self._group_keys is None:
            raise QueryError("agg() requires group_by() first")
        if not aggs:
            raise QueryError("agg() needs at least one aggregation")
        for name, agg in aggs.items():
            if not isinstance(agg, Agg):
                raise QueryError(
                    f"agg {name}= expects count()/sum_()/mean()/… , got {agg!r}"
                )
        return LazyFrame(
            self._source,
            self._filters,
            None,
            self._group_keys,
            tuple(aggs.items()),
        )

    # -- plan introspection ------------------------------------------

    def _fusable(self) -> bool:
        """Whether the fused columnar kernel can run this plan."""
        if not getattr(self._source, "fused", False):
            return False
        if self._filters:
            return False
        if self._group_keys is None:
            return self._projection is None or all(
                expr.kind == "col" for expr in self._projection
            )
        if not self._aggs:
            return False
        warehouse = self._source.warehouse
        available = set(warehouse.column_names)
        for key in self._group_keys:
            if key.kind != "col":
                return False
            if key.args[0] not in available or key.args[0] == "reports":
                return False
        for _name, agg in self._aggs:
            if agg.target is not None and agg.target.kind != "col":
                return False
            if agg.where is not None and agg.where.kind != "col":
                return False
            for name in agg.columns():
                if name not in available or name == "reports":
                    return False
        return True

    def describe_plan(self) -> str:
        """One line per plan stage, naming the executor it will get."""
        lines = [f"SCAN {self._source.label}"]
        for predicate in self._filters:
            lines.append(f"FILTER {predicate.describe()}")
        if self._projection is not None:
            lines.append(
                "SELECT " + ", ".join(e.output_name for e in self._projection)
            )
        if self._group_keys is not None:
            lines.append(
                "GROUP BY " + ", ".join(k.describe() for k in self._group_keys)
            )
            lines.append(
                "AGG " + ", ".join(f"{n}={a.describe()}" for n, a in self._aggs)
            )
        executor = "fused single pass" if self._fusable() else "row-wise fold"
        lines.append(f"-> {executor}")
        return "\n".join(lines)

    # -- execution ----------------------------------------------------

    def collect(self) -> Frame:
        """Execute the plan and materialize the result frame."""
        if self._group_keys is not None and not self._aggs:
            raise QueryError("group_by() without agg(); nothing to collect")
        if self._group_keys is not None:
            if self._fusable():
                return _collect_grouped_fused(
                    self._source.warehouse, self._group_keys, self._aggs
                )
            return _collect_grouped_rowwise(
                self._source, self._filters, self._group_keys, self._aggs
            )
        if self._fusable() and self._projection is not None:
            return _collect_select_fused(self._source.warehouse, self._projection)
        return _collect_select_rowwise(
            self._source, self._filters, self._projection
        )


# ----------------------------------------------------------------------
# Row-wise executor (records, JSONL, non-fusable warehouse plans)
# ----------------------------------------------------------------------


class _AggState:
    """Accumulator for one aggregation inside one group."""

    __slots__ = ("agg", "scalar", "items", "seen")

    def __init__(self, agg: Agg) -> None:
        self.agg = agg
        self.scalar: Any = 0 if agg.op in ("count", "sum") else None
        self.items: list[Any] | None = [] if agg.op in _LIST_OPS else None
        self.seen = False

    def add_value(self, value: Any) -> None:
        op = self.agg.op
        if op == "count":
            self.scalar += 1
        elif op == "sum":
            self.scalar += value
        elif op == "min":
            if not self.seen or value < self.scalar:
                self.scalar = value
        elif op == "max":
            if not self.seen or value > self.scalar:
                self.scalar = value
        else:
            self.items.append(value)
        self.seen = True

    def add_row(self, get: Callable[[str], Any]) -> None:
        if self.agg.where is not None and not self.agg.where.evaluate(get):
            return
        value = (
            self.agg.target.evaluate(get) if self.agg.target is not None else None
        )
        self.add_value(value)

    def finalize(self) -> Any:
        op = self.agg.op
        if op in ("count", "sum"):
            return self.scalar
        if op in ("min", "max"):
            return self.scalar if self.seen else None
        if op == "values":
            return self.items
        if not self.items:
            return None
        if op == "mean":
            return statistics.fmean(self.items)
        return statistics.median(self.items)


def _finalize_groups(
    group_keys: Sequence[Expr],
    aggs: Sequence[tuple[str, Agg]],
    states: dict[tuple, list[_AggState]],
) -> Frame:
    key_names = [key.output_name for key in group_keys]
    columns: dict[str, list[Any]] = {name: [] for name in key_names}
    for name, _agg_spec in aggs:
        if name in columns:
            raise QueryError(f"agg name {name!r} collides with a group key")
        columns[name] = []
    for key_tuple, group_states in states.items():
        for name, value in zip(key_names, key_tuple):
            columns[name].append(value)
        for (name, _agg_spec), state in zip(aggs, group_states):
            columns[name].append(state.finalize())
    return Frame(columns)


def _collect_grouped_rowwise(
    source: Any,
    filters: Sequence[Expr],
    group_keys: Sequence[Expr],
    aggs: Sequence[tuple[str, Agg]],
) -> Frame:
    states: dict[tuple, list[_AggState]] = {}
    for record, point in source.iter_rows():
        get = _record_get(record, point)
        if any(not predicate.evaluate(get) for predicate in filters):
            continue
        key = tuple(expr.evaluate(get) for expr in group_keys)
        group = states.get(key)
        if group is None:
            group = states[key] = [_AggState(agg) for _name, agg in aggs]
        for state in group:
            state.add_row(get)
    return _finalize_groups(group_keys, aggs, states)


def _collect_select_rowwise(
    source: Any,
    filters: Sequence[Expr],
    projection: Sequence[Expr] | None,
) -> Frame:
    if projection is None:
        projection = tuple(col(name) for name in _SCALAR_COLUMNS + _DICT_COLUMNS)
    names = [expr.output_name for expr in projection]
    columns: dict[str, list[Any]] = {name: [] for name in names}
    for record, point in source.iter_rows():
        get = _record_get(record, point)
        if any(not predicate.evaluate(get) for predicate in filters):
            continue
        for name, expr in zip(names, projection):
            columns[name].append(expr.evaluate(get))
    return Frame(columns)


# ----------------------------------------------------------------------
# Fused columnar executor (warehouse sources)
# ----------------------------------------------------------------------


class _KeyPlan:
    """Segment-wise access to one bare-column group key over raw columns."""

    __slots__ = ("column", "decode")

    def __init__(self, warehouse: SweepWarehouse, key: Expr) -> None:
        name = key.args[0]
        self.column: Any = warehouse.column(name)
        self.decode: Sequence[Any] | None = (
            warehouse.dictionary(name) if name in _DICT_COLUMNS
            else (False, True) if name == "met"
            else None
        )

    def logical(self, row: int) -> Any:
        value = self.column[row]
        if self.decode is not None:
            return self.decode[value]
        return value

    def constant(self, start: int, stop: int) -> bool:
        """Whether rows [start, stop) share one key value (C-speed check)."""
        if stop - start <= 1:
            return True
        return self.column[start:stop].count(self.column[start]) == stop - start


class _FusedAgg:
    """Segment-wise accumulator driver for one aggregation."""

    __slots__ = ("agg", "column", "decode", "mask")

    def __init__(self, warehouse: SweepWarehouse, agg: Agg) -> None:
        self.agg = agg
        self.column = None
        self.decode: Sequence[Any] | None = None
        if agg.target is not None:
            name = agg.target.args[0]
            self.column = warehouse.column(name)
            if name in _DICT_COLUMNS:
                self.decode = warehouse.dictionary(name)
            elif name == "met":
                self.decode = (False, True)
        self.mask = warehouse.column(agg.where.args[0]) if agg.where is not None else None

    def add_segment(self, state: _AggState, start: int, stop: int) -> None:
        op = state.agg.op
        mask = self.mask[start:stop] if self.mask is not None else None
        if op == "count":
            selected_count = (stop - start) if mask is None else _mask_count(mask)
            if selected_count:
                state.scalar += selected_count
                state.seen = True
            return
        segment = self.column[start:stop]
        if mask is None:
            selected: Any = segment
        else:
            selected = list(compress(segment, mask))
            if not selected:
                return
        if op == "sum" and isinstance(selected, (bytes, bytearray)):
            state.scalar += selected.count(1)  # the met flag column is 0/1
            state.seen = True
            return
        if self.decode is not None:
            table = self.decode
            selected = [table[c] for c in selected]
        if op == "sum":
            state.scalar += sum(selected)
            state.seen = True
        elif op == "min":
            state.add_value(min(selected))
        elif op == "max":
            state.add_value(max(selected))
        else:
            state.items.extend(selected)
            state.seen = True


def _mask_count(mask: Any) -> int:
    if isinstance(mask, (bytes, bytearray)):
        return mask.count(1)
    return sum(1 for m in mask if m)


def _collect_grouped_fused(
    warehouse: SweepWarehouse,
    group_keys: Sequence[Expr],
    aggs: Sequence[tuple[str, Agg]],
) -> Frame:
    rows = warehouse.rows
    key_plans = [_KeyPlan(warehouse, key) for key in group_keys]
    fused_aggs = [_FusedAgg(warehouse, agg) for _name, agg in aggs]
    states: dict[tuple, list[_AggState]] = {}
    row = 0
    while row < rows:
        probes = tuple(plan.column[row] for plan in key_plans)
        # Gallop for a candidate boundary, then binary-search it.
        low, step = row, 1
        high = rows
        while True:
            candidate = row + step
            if candidate >= rows:
                break
            if all(
                plan.column[candidate] == probes[i]
                for i, plan in enumerate(key_plans)
            ):
                low = candidate
                step *= 2
            else:
                high = candidate
                break
        while low + 1 < high:
            mid = (low + high) // 2
            if all(
                plan.column[mid] == probes[i] for i, plan in enumerate(key_plans)
            ):
                low = mid
            else:
                high = mid
        boundary = high
        # The keys need not be sorted, so the searched boundary is a
        # candidate: shrink until every key column is constant on it.
        while boundary > row + 1 and not all(
            plan.constant(row, boundary) for plan in key_plans
        ):
            boundary = row + (boundary - row + 1) // 2
        key = tuple(plan.logical(row) for plan in key_plans)
        group = states.get(key)
        if group is None:
            group = states[key] = [_AggState(agg) for _name, agg in aggs]
        for state, driver in zip(group, fused_aggs):
            driver.add_segment(state, row, boundary)
        row = boundary
    return _finalize_groups(group_keys, aggs, states)


def _collect_select_fused(
    warehouse: SweepWarehouse, projection: Sequence[Expr]
) -> Frame:
    # Match the row-wise executor's errors (see _record_get) so the
    # exception a caller sees does not depend on which executor runs.
    available = set(warehouse.column_names)
    for expr in projection:
        name = expr.args[0]
        if name in available:
            continue
        if name == "_point":
            raise QueryError(
                "_point is only available on warehouses written by a sweep"
            )
        raise QueryError(f"no such column {name!r}")
    columns: dict[str, list[Any]] = {}
    for expr in projection:
        name = expr.args[0]
        output = expr.output_name
        if name in _DICT_COLUMNS:
            table = warehouse.dictionary(name)
            column = [table[c] for c in warehouse.column(name)]
        elif name == "met":
            column = [bool(m) for m in warehouse.column("met")]
        elif name == "reports":
            column = list(warehouse.column("reports"))
        else:
            column = warehouse.column(name).tolist()
        columns[output] = column
    return Frame(columns)
