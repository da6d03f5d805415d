"""Tests for the record-stream fold behind every sweep summary."""

from __future__ import annotations

import random

import pytest

from repro.experiments.harness import StreamSummary, run_trials
from repro.graphs.generators import complete_graph


class TestStreamSummary:
    def records(self):
        return run_trials(complete_graph(24), "trivial", range(6))

    def test_summary_matches_materialized_records(self):
        records = self.records()
        stream = StreamSummary()
        for record in records:
            stream.add(record)
        summary = stream.summary()
        rounds = [r.rounds for r in records if r.met]
        assert summary.count == len(rounds)
        assert summary.mean == pytest.approx(sum(rounds) / len(rounds))
        assert stream.total == 6
        assert stream.met == len(rounds)

    def test_out_of_order_folding_gives_the_same_summary(self):
        records = self.records()
        forward = StreamSummary()
        shuffled = StreamSummary()
        for record in records:
            forward.add(record)
        arrival = list(records)
        random.Random(3).shuffle(arrival)
        for record in arrival:
            shuffled.add(record)
        assert forward.summary() == shuffled.summary()

    def test_no_successful_trials(self):
        stream = StreamSummary()
        assert stream.summary() is None
