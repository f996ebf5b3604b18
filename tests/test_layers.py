"""What each layer's import loads, checked in fresh interpreters.

A package ``__init__`` imports only what it re-exports, so importing a
layer loads that layer and what its modules use, never the layers above
it:

* ``import repro.core`` — the paper's measure/model/optimize loop —
  loads the core modules and the few substrate modules they read
  (MAC constants and the nominal-throughput model, ETT routing, the PHY
  rate table): no event kernel, medium, DCF, node, probing, simulator,
  transport or experiment layer;
* ``import repro.engine`` loads the kernel and its scheduler only;
* ``import repro.sim.network`` loads no experiment module.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Beyond ``repro.core.*``, what ``import repro.core`` may load.
CORE_READS = {
    "repro",
    "repro.mac",
    "repro.mac.constants",
    "repro.mac.nominal",
    "repro.net",
    "repro.net.routing",
    "repro.phy",
    "repro.phy.radio",
}


def _repro_modules_after(statement: str) -> list[str]:
    """The ``repro`` modules loaded after ``statement`` ran in a new
    interpreter, sorted."""
    code = (
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


#: Layers above the loop, none of which ``import repro.core`` may load.
SIMULATOR = (
    "repro.engine",
    "repro.scheduler",
    "repro.mac.medium",
    "repro.mac.dcf",
    "repro.net.node",
    "repro.net.probing",
    "repro.sim",
    "repro.transport",
    "repro.experiment",
)


def test_core_loads_the_loop_and_what_it_reads():
    loaded = _repro_modules_after("import repro.core")
    assert "repro.core.controller" in loaded
    assert [m for m in loaded if m.startswith(SIMULATOR)] == []
    assert [m for m in loaded if not m.startswith("repro.core") and m not in CORE_READS] == []


def test_engine_loads_the_kernel_and_its_scheduler():
    assert _repro_modules_after("import repro.engine") == [
        "repro",
        "repro.engine",
        "repro.scheduler",
    ]


def test_the_simulator_loads_no_experiment_layer():
    loaded = _repro_modules_after("import repro.sim.network")
    assert "repro.sim.network" in loaded
    assert [m for m in loaded if m.startswith("repro.experiment")] == []
