"""Golden-result regression: frozen ExperimentResult JSON per scenario,
and the frozen spec digest table.

One small experiment per registered scenario is frozen byte-for-byte
under ``tests/experiment/golden/``.  A failure here means the simulation
semantics changed — see ``golden/regenerate.py`` (the single source of
truth for the spec grid and the canonical serialization) for the
documented regeneration procedure when the change is intentional.

``spec_digests.json`` freezes, for one spec per axis of the spec
vocabulary, the canonical JSON and its ``spec_digest``; checking it runs
no simulation, so it is the fast fence around the spec (de)serializer
and the spec defaults — and, on CI's oldest/latest numpy legs, the proof
that digests do not depend on the interpreter or numpy's number repr.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiment import ExperimentSpec
from repro.experiment.registry import scenario_names
from repro.sim.dynamics import mobility_names
from repro.sim.generators import topology_names, workload_names

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_golden_module():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", _GOLDEN_DIR / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_golden_module()


def test_every_registered_scenario_has_a_golden() -> None:
    """New scenarios must add a fixture (and existing ones keep theirs).

    Extra fixture keys beyond the registered names are allowed — that is
    how regression grids like the multi-cycle chain freeze behaviour a
    single per-scenario cell cannot.
    """
    assert set(scenario_names()) <= set(golden.GOLDEN_SPECS)
    for name in golden.GOLDEN_SPECS:
        assert golden.golden_path(name).exists(), (
            f"missing golden fixture for {name!r}; run "
            "PYTHONPATH=src python tests/experiment/golden/regenerate.py"
        )


def test_multicycle_fixture_freezes_every_cycle() -> None:
    """The cycles>1 fixture really carries per-cycle convergence data."""
    spec = golden.GOLDEN_SPECS["chain_multicycle"]
    assert spec.cycles > 1 and spec.controller.enabled
    frozen = json.loads(golden.golden_path("chain_multicycle").read_text())
    assert len(frozen["cycles"]) == spec.cycles
    for cycle in frozen["cycles"]:
        assert cycle["target_bps"], "RC fixture must freeze optimizer targets"


def _digest_table() -> dict[str, dict[str, str]]:
    return json.loads(golden.DIGEST_TABLE_PATH.read_text(encoding="utf-8"))


def test_digest_table_covers_every_registered_name() -> None:
    """A newly registered built-in must add its row."""
    assert set(_digest_table()) == set(golden.DIGEST_SPECS)
    expected = (
        [f"topology-{name}" for name in topology_names()]
        + [f"workload-{name}" for name in workload_names()]
        + [f"mobility-{name}" for name in mobility_names()]
        + [f"scenario-{name}" for name in scenario_names()]
        + ["churn", "monitors"]
    )
    assert set(expected) <= set(golden.DIGEST_SPECS)


@pytest.mark.parametrize("name", sorted(golden.DIGEST_SPECS))
def test_spec_digest_table(name: str) -> None:
    spec = golden.DIGEST_SPECS[name]
    frozen = _digest_table()[name]
    assert golden.digest_entry(spec) == frozen, (
        f"canonical dict or digest of {name!r} moved: every cached result "
        "of such specs is orphaned — bump SPEC_SCHEMA_VERSION if intended"
    )
    # ... and the frozen bytes deserialize back to the same spec, whose
    # re-serialization is those bytes again.
    rebuilt = ExperimentSpec.from_dict(json.loads(frozen["canonical"]))
    assert rebuilt == spec
    assert golden.digest_entry(rebuilt) == frozen


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(golden.GOLDEN_SPECS))
def test_golden_result_bit_identity(name: str) -> None:
    frozen = golden.golden_path(name).read_text(encoding="utf-8")
    computed = golden.compute(name)
    assert computed == frozen, (
        f"golden result for {name!r} drifted — if the simulation change is "
        "intentional, regenerate with "
        "PYTHONPATH=src python tests/experiment/golden/regenerate.py "
        "and explain the move in the commit message"
    )
    # The fixture itself stays canonical: sorted keys, two-space indent,
    # trailing newline — regeneration is the only sanctioned writer.
    assert frozen == json.dumps(json.loads(frozen), indent=2, sort_keys=True) + "\n"
