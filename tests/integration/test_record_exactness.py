"""Records cross every codec unchanged, because only exact records are made.

The harness checks each record where an execution becomes one: its
reports must survive JSON unchanged and its scalars must fit int64.
The codecs downstream — the columnar batch, the wire, the warehouse
and JSON lines — rely on that and keep no fallback of their own.

The paper's Theorem 1 algorithm is the registered algorithm with the
richest reports: whenever agent ``a`` finishes ``Construct`` before
the agents meet, its report carries the constructed target set and
the selected vertices.  Those records are the ones every codec must
return as equal objects, not merely as equal JSON.
"""

from __future__ import annotations

import threading

import pytest

from repro.baselines.explore import DfsExplorerA
from repro.errors import ProtocolError, ReproError, ServiceError
from repro.experiments import parallel
from repro.experiments.harness import run_trials
from repro.experiments.parallel import SweepSpec, run_sweep, shutdown_fabric
from repro.experiments.results_io import (
    pack_record_batch,
    read_records_jsonl,
    unpack_record_batch,
    write_records_jsonl,
)
from repro.experiments.warehouse import SweepWarehouse, write_records_warehouse
from repro.graphs.generators import complete_graph
from repro.service import Broker, run_worker, submit_sweep
from repro.service.protocol import decode_records, encode_records

THEOREM1_GRID = SweepSpec(
    name="theorem1-codecs",
    families=("er-min-degree",),
    ns=(400,),
    algorithms=("theorem1",),
    seeds=tuple(range(8)),
)

EXPLORE_GRID = SweepSpec(
    name="explore-birth-check",
    families=("complete",),
    ns=(24,),
    algorithms=("explore",),
    seeds=(0, 1),
    preset="testing",
)


@pytest.fixture(scope="module")
def theorem1_records():
    records = list(run_sweep(THEOREM1_GRID, workers=1).records)
    # These seeds finish Construct before the agents meet.
    assert [r.seed for r in records if "target_set" in r.reports["a"]] == [2, 6, 7]
    return records


class TestTheorem1RecordsRoundTrip:
    def test_batch_codec(self, theorem1_records):
        assert unpack_record_batch(pack_record_batch(theorem1_records)) == theorem1_records

    def test_wire_codec(self, theorem1_records):
        assert decode_records(encode_records(theorem1_records)) == theorem1_records

    def test_warehouse(self, theorem1_records, tmp_path):
        path = write_records_warehouse(theorem1_records, tmp_path / "grid.wh")
        assert list(SweepWarehouse(path).iter_records()) == theorem1_records
        assert not (path / "fallback.jsonl").exists()

    def test_jsonl(self, theorem1_records, tmp_path):
        path = write_records_jsonl(theorem1_records, tmp_path / "grid.jsonl")
        assert read_records_jsonl(path) == theorem1_records


@pytest.fixture
def explore_reports_a_tuple(monkeypatch):
    """Make explore's agent ``a`` report a tuple, also in fabric workers.

    Explore is not lockstep-eligible, so every trial reaches the
    program's ``report``.  The fabric is stopped first so its workers
    fork after the patch, and stopped again afterwards so no patched
    worker outlives the test.
    """
    shutdown_fabric()
    monkeypatch.setattr(DfsExplorerA, "report", lambda self: {"pair": (1, 2)})
    yield
    shutdown_fabric()


class TestBirthCheck:
    def test_inline_sweep_raises_protocol_error(self, explore_reports_a_tuple):
        with pytest.raises(ProtocolError, match="algorithm 'explore'"):
            run_sweep(EXPLORE_GRID, workers=1)

    @pytest.mark.skipif(
        parallel._pool_context().get_start_method() != "fork",
        reason="spawned workers do not inherit the patched program",
    )
    def test_fabric_sweep_raises_typed_error(self, explore_reports_a_tuple):
        with pytest.raises(ReproError, match="ProtocolError: algorithm 'explore'"):
            run_sweep(EXPLORE_GRID, workers=2)

    def test_service_host_reports_unit_failed(self, explore_reports_a_tuple, tmp_path):
        with Broker(tmp_path / "cache") as broker:
            threading.Thread(
                target=run_worker,
                args=(broker.address,),
                kwargs={"reconnect": 2.0},
                daemon=True,
            ).start()
            with pytest.raises(ServiceError, match="ProtocolError: algorithm 'explore'"):
                submit_sweep(broker.address, EXPLORE_GRID)

    def test_seed_outside_int64_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="seed=18446744073709551616"):
            run_trials(complete_graph(16), "trivial", [2 ** 64])
