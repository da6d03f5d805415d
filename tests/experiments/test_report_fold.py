"""``repro report``'s JSONL fold accepts, skips and refuses lines as the record fold did.

:func:`repro.experiments.report.summarize_jsonl` folds each line's
record object into its group as a plain dict, and its table builder
asks each group only for its mean and median
(:meth:`StreamSummary.center`).  The reference here is the way it was
written before: stream :class:`TrialRecord` objects out of the file
(``TrialRecord(**json.loads(line))`` per line), fold them with
:meth:`StreamSummary.add`, and print each row from the full
:meth:`StreamSummary.summary`.  Every case compares the rendered table,
or the exception, and the warnings.
"""

from __future__ import annotations

import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WarehouseError
from repro.experiments.harness import StreamSummary, TrialRecord
from repro.experiments.report import (
    Table,
    summarize_jsonl,
    summarize_path,
    summarize_records,
    summarize_warehouse,
)
from repro.experiments.results_io import (
    iter_records_jsonl,
    record_to_jsonable,
    write_records_jsonl,
)
from repro.experiments.warehouse import write_records_warehouse


def reference_iter_records(path):
    """The record stream as it was read: one ``TrialRecord`` per line."""
    source = Path(path)
    with source.open("r", encoding="utf-8") as handle:
        pending = None
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if pending is not None:
                raise pending[1]
            try:
                record = TrialRecord(**json.loads(line))
            except (ValueError, TypeError, KeyError) as error:
                pending = (line, error)
                continue
            yield record
        if pending is not None:
            warnings.warn(
                f"{source}: skipped truncated final line "
                f"({len(pending[0])} bytes) — interrupted writer",
                stacklevel=2,
            )


def reference_summarize_records(records, title):
    """The record fold, with every row printed from the full summary."""
    groups = {}
    for record in records:
        key = (record.algorithm, record.graph_name, record.n, record.delta, record.scenario)
        group = groups.get(key)
        if group is None:
            group = groups[key] = StreamSummary()
        group.add(record)
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


def reference_summarize_path(path):
    try:
        return reference_summarize_records(reference_iter_records(path), "T")
    except (ValueError, TypeError, KeyError) as error:
        raise WarehouseError(
            f"{path} is not a JSON-lines record export: {error}"
        ) from None


def outcome(call, *args):
    """``(rendered table or raised exception, warnings)`` of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(*args)
        except Exception as error:  # noqa: BLE001 - the class is the outcome
            result = error
    seen = [(w.category, str(w.message)) for w in caught]
    if isinstance(result, Exception):
        return result, seen
    return (result.render() if isinstance(result, Table) else result), seen


def record(seed, met=True, rounds=None, scenario=None):
    return TrialRecord(
        algorithm="trivial", graph_name="complete(n=8)", n=8, id_space=64,
        delta=7, max_degree=7, seed=seed, met=met,
        rounds=10 + seed if rounds is None else rounds, total_moves=3,
        whiteboard_writes=0, reports={"a": {"probes": [1, 2]}}, scenario=scenario,
    )


def line(**changes):
    """One export line of a met record, with fields changed or (``None``) dropped."""
    payload = record_to_jsonable(record(7))
    for name, value in changes.items():
        if value is None:
            del payload[name]
        else:
            payload[name] = value
    return json.dumps(payload, sort_keys=True)


GOOD = line()
CORPUS = {
    "full record": GOOD,
    "no scenario": line(scenario=None),
    "no reports": line(reports=None),
    "named scenario": line(scenario="edge-churn"),
    "unmet, string rounds": line(met=False, rounds="x"),
    "torn": GOOD[: len(GOOD) // 2],
    "list": "[1]",
    "number": "3",
    "string": '"x"',
    "null": "null",
    "unknown key": line(extra=1),
    "missing required key": line(rounds=None),
    "trailing object": GOOD + " {}",
    "trailing garbage": GOOD + "x",
    "BOM": "\ufeff" + GOOD,
    "NaN rounds": line(rounds=float("nan")),
    "string rounds": line(rounds="12"),
    "float rounds": line(rounds=12.5),
    "integral float rounds": line(rounds=12.0),
    "too many digits": "1" * 5000,
}


@pytest.mark.parametrize("place", ["mid-file", "final"])
@pytest.mark.parametrize("case", sorted(CORPUS))
def test_every_line_kind_reads_as_the_record_fold_read_it(tmp_path, case, place):
    head = [json.dumps(record_to_jsonable(record(s)), sort_keys=True) for s in (0, 1)]
    tail = [json.dumps(record_to_jsonable(record(2)), sort_keys=True)]
    lines = [*head, CORPUS[case], *(tail if place == "mid-file" else [])]
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    want, want_warnings = outcome(reference_summarize_path, path)
    got, got_warnings = outcome(summarize_path, path, "T")
    assert got_warnings == want_warnings
    if isinstance(want, Exception):
        assert type(got) is type(want) is WarehouseError
        assert str(got).startswith(f"{path} is not a JSON-lines record export: ")
        # One level down, the error itself is of the same class.
        inner, _ = outcome(summarize_jsonl, path, "T")
        reference, _ = outcome(reference_summarize_records, reference_iter_records(path), "T")
        assert type(inner) is type(reference)
    else:
        assert got == want
    records, records_warnings = outcome(lambda: list(iter_records_jsonl(path)))
    reference, reference_warnings = outcome(lambda: list(reference_iter_records(path)))
    assert records_warnings == reference_warnings
    if isinstance(reference, Exception):
        assert type(records) is type(reference)
    else:
        assert records == reference


def test_the_corpus_covers_all_three_outcomes(tmp_path):
    """Some lines are read, some skipped at the tail, some refused mid-file."""
    kinds = set()
    for text in CORPUS.values():
        path = tmp_path / f"{len(kinds)}.jsonl"
        path.write_text(GOOD + "\n" + text + "\n" + GOOD + "\n", encoding="utf-8")
        mid, _ = outcome(reference_summarize_path, path)
        path.write_text(GOOD + "\n" + text + "\n", encoding="utf-8")
        final, warned = outcome(reference_summarize_path, path)
        kinds.add((isinstance(mid, Exception), isinstance(final, Exception), bool(warned)))
    assert kinds == {(False, False, False), (True, False, True), (True, True, False)}


@st.composite
def record_lists(draw):
    """Trials of a few groups in any order: met and unmet, any scenario."""
    keys = draw(st.lists(
        st.tuples(
            st.sampled_from(["trivial", "theorem1"]),
            st.sampled_from([8, 16, 400]),
            st.sampled_from([None, "edge-churn"]),
        ),
        min_size=1, max_size=4, unique=True,
    ))
    trials = draw(st.lists(
        st.tuples(
            st.integers(0, len(keys) - 1),
            st.booleans(),
            st.one_of(st.integers(0, 500), st.integers(0, 2**63 - 1)),
        ),
        min_size=1, max_size=40,
    ))
    return [
        TrialRecord(
            algorithm=keys[group][0], graph_name=f"g(n={keys[group][1]})",
            n=keys[group][1], id_space=keys[group][1] ** 2, delta=keys[group][1] // 2,
            max_degree=keys[group][1] - 1, seed=seed, met=met, rounds=rounds,
            total_moves=rounds % 1000, whiteboard_writes=0, scenario=keys[group][2],
        )
        for seed, (group, met, rounds) in enumerate(trials)
    ]


# The example count comes from the active profile: Hypothesis's default
# in tier-1, ten times that under HYPOTHESIS_PROFILE=deep.
@settings(derandomize=True, deadline=None)
@given(record_lists())
def test_jsonl_records_and_warehouse_print_one_table(records):
    with tempfile.TemporaryDirectory() as scratch:
        export = write_records_jsonl(records, Path(scratch) / "records.jsonl")
        warehouse = write_records_warehouse(records, Path(scratch) / "records.wh")
        want = reference_summarize_records(records, "T").render()
        assert summarize_jsonl(export, title="T").render() == want
        assert summarize_records(records, title="T").render() == want
        assert summarize_warehouse(warehouse, title="T").render() == want
