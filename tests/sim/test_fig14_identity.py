"""Cross-backend byte-identity of a Figure 14 cell.

The fast-path PR made the simulation core the performance-critical
layer; this test is the corresponding identity gate at figure
granularity: one real Figure 14 grid cell (random_multiflow / TCP /
Prop controller) dispatched through each execution backend must produce
the same payload bytes as the inline serial reference.  Together with
the sim trace goldens (event granularity) and the experiment goldens
(scenario granularity) this closes the identity chain the CI
``sim-identity`` job runs.
"""

from __future__ import annotations

import json

import pytest

from repro.experiment.backends.base import SerialBackend
from repro.experiment.backends.work_queue import WorkQueueBackend
from repro.experiment.batch import BatchRunner
from repro.experiment.specs import ControllerSpec, ExperimentSpec, ProbingSpec, ScenarioSpec

#: The cell the ledger's ``cell_static`` workload times: the repeated
#: unit of the Figure 14 grid.
FIG14_CELL = ExperimentSpec(
    scenario=ScenarioSpec(
        scenario="random_multiflow",
        transport="tcp",
        run_seed=1000,
        seed=7,
        num_flows=3,
        rate_mode="11",
    ),
    probing=ProbingSpec(warmup_s=45.0),
    controller=ControllerSpec(alpha=1.0, probing_window=80, payload_bytes=1460),
    cycles=1,
    cycle_measure_s=12.0,
    settle_s=2.0,
    label="fig14-identity-cell",
)


def _canonical(batch) -> str:
    return json.dumps(
        batch.to_dicts(include_runtime=False), sort_keys=True, separators=(",", ":")
    )


@pytest.mark.slow
def test_fig14_cell_is_byte_identical_across_backends(tmp_path) -> None:
    reference = _canonical(
        BatchRunner([FIG14_CELL], backend=SerialBackend(), cache=False).run()
    )
    assert reference  # the cell must actually produce a payload

    backends = {
        "process": "process",
        "work_queue": WorkQueueBackend(tmp_path / "queue", workers=1, timeout_s=600.0),
    }
    for name, backend in backends.items():
        batch = BatchRunner([FIG14_CELL], backend=backend, cache=False).run()
        assert _canonical(batch) == reference, (
            f"fig14 cell payload differs between serial and {name} backends"
        )


@pytest.mark.slow
def test_fig14_cell_rerun_is_byte_identical() -> None:
    """Two cold serial runs of the same cell agree bit for bit — the
    in-process determinism precondition for the cross-backend check."""
    first = _canonical(
        BatchRunner([FIG14_CELL], backend=SerialBackend(), cache=False).run()
    )
    second = _canonical(
        BatchRunner([FIG14_CELL], backend=SerialBackend(), cache=False).run()
    )
    assert first == second
