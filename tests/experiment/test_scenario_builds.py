"""The build table: every built-in scenario name still builds what it built.

``golden/scenario_builds.json`` records, for each spec of
``regenerate.SCENARIO_BUILDS``, what ``build_scenario`` made of it:
positions, every directed link's rate, propagation σ and seed, the radio,
the traffic seed, each flow and ``meta``.  Nothing here simulates, so the
grid can be wide — ``random_multiflow`` over seeds x rate modes x
transports x hop budgets, ``chain`` at every PHY rate, ``testbed`` at
three σ settings, ``starvation`` at both rates with a ``run_seed``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiment import ScenarioSpec

_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_golden_module():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", _GOLDEN_DIR / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_golden_module()
FROZEN = json.loads(golden.SCENARIO_BUILDS_PATH.read_text(encoding="utf-8"))


def test_the_fixture_records_the_grid() -> None:
    assert {name: entry["spec"] for name, entry in FROZEN.items()} == {
        name: spec.to_dict() for name, spec in golden.SCENARIO_BUILDS.items()
    }


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_build_matches_its_record(name: str) -> None:
    spec = ScenarioSpec.from_dict(FROZEN[name]["spec"])
    assert golden.scenario_build_record(spec) == FROZEN[name]["build"]
