"""What a process loads, checked in fresh interpreters.

numpy is the only runtime dependency and comes with ``import repro``:
every rate program, linear ones included, is solved in plain numpy.
scipy (``scipy.optimize`` alone is about half a second, 50 MB resident,
tens of thousands of GC-tracked objects) is a test-extra referee, and
networkx a test-extra referee for the clique enumeration.  No process
loads either on its own.

The queue transports' stack (``http.client``, with ``ssl`` and
``email``) and the process pool's (``concurrent.futures``, with
``multiprocessing``) load where they are used: a broker conversation
and a ``ProcessPoolBackend`` fan-out.  A cell, a controller cycle and
the worker import load neither.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiment.specs import ControllerSpec, ProbingSpec
from repro.experiment.backends.queue_common import worker_subprocess_env

from _helpers import FAST_SPEC

HEAVY = ("scipy", "networkx")
TRANSPORT = ("ssl", "http.client", "email", "multiprocessing", "concurrent.futures")

_REPORT = (
    "import json, sys; "
    f"print(json.dumps([name for name in {HEAVY + TRANSPORT!r} if sys.modules.get(name)]))"
)


def _loaded_after(code: str) -> list[str]:
    """The ``HEAVY`` and ``TRANSPORT`` modules present after ``code`` ran
    in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_REPORT}"],
        env=worker_subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _run_experiment(spec) -> str:
    return (
        "from repro.experiment.runner import run_experiment\n"
        "from repro.experiment.specs import ExperimentSpec\n"
        f"run_experiment(ExperimentSpec.from_dict({spec.to_dict()!r}))"
    )


@pytest.mark.parametrize("module", ["repro.experiment", "repro.experiment.worker"])
def test_import_loads_no_solver_and_no_transport(module):
    assert _loaded_after(f"import {module}") == []


def test_controller_off_cell_loads_no_solver_and_no_transport():
    assert not FAST_SPEC.controller.enabled
    assert _loaded_after(_run_experiment(FAST_SPEC)) == []


def _controller_on(alpha: float):
    return dataclasses.replace(
        FAST_SPEC,
        controller=ControllerSpec(enabled=True, alpha=alpha),
        probing=ProbingSpec(warmup_s=10.0),
    )


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_controller_on_cell_loads_no_solver_and_no_transport(alpha):
    """The default (proportional-fair) solve and the max-throughput LP
    are the same interior-point iteration in numpy, and a controller
    cycle opens no connection."""
    assert ControllerSpec(enabled=True).alpha == 1.0
    assert _loaded_after(_run_experiment(_controller_on(alpha=alpha))) == []


@pytest.mark.parametrize(
    "backend, stack",
    [
        ("ProcessPoolBackend(max_workers=2)", {"concurrent.futures", "multiprocessing"}),
        ("BrokerBackend(workers=1)", {"http.client", "ssl", "email"}),
    ],
    ids=["process_pool", "broker"],
)
def test_a_backend_run_loads_its_transport(backend, stack):
    """The positive control: the probe sees each stack once the backend
    that opens it runs."""
    loaded = set(
        _loaded_after(
            "from repro.experiment.backends.base import ProcessPoolBackend\n"
            "from repro.experiment.backends.broker_client import BrokerBackend\n"
            f"{backend}.run([{FAST_SPEC.to_dict()!r}] * 2)"
        )
    )
    assert stack <= loaded
    assert not set(HEAVY) & loaded


def test_the_fork_host_stays_at_the_worker_import_after_serving_an_lp_cell():
    """The host only forks: whatever the drainer that solves a
    max-throughput cell imports stays in its own copy-on-write image and
    exits with it, so what the next drainer starts from - and what stays
    resident until the submitter exits - is still the host's start-up
    image (``import repro.experiment.worker`` plus what a drainer runs,
    see ``test_fork_host.py``), never a solver.  Read off the host's
    memory map: an import there would leave the extension modules
    mapped."""
    from repro.experiment.backends.work_queue import WorkQueueBackend
    from repro.experiment.backends import queue_common

    maps = Path("/proc/self/maps")
    if not maps.exists():
        pytest.skip("reads /proc/<pid>/maps")
    spec = _controller_on(alpha=0.0)
    [payload] = WorkQueueBackend(workers=1).run([spec.to_dict()])
    assert payload["spec"] == spec.to_dict()
    host = queue_common._FORK_HOST._proc
    assert host is not None and host.poll() is None
    mapped = Path(f"/proc/{host.pid}/maps").read_text()
    assert "numpy" in mapped  # the probe sees extension modules at all
    assert "scipy/optimize" not in mapped and "networkx" not in mapped


def test_repro_imports_without_networkx():
    """networkx is a test-extra oracle, not a runtime dependency."""
    code = (
        "import sys; sys.modules['networkx'] = None\n"
        "import repro\n"
        "from repro.core.conflict_graph import ConflictGraph\n"
        "graph = ConflictGraph.from_edges([(0, 1), (1, 2)], [((0, 1), (1, 2))])\n"
        "assert len(graph.independent_sets()) == 2"
    )
    assert _loaded_after(code) == []


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def test_every_rate_program_runs_without_scipy():
    """scipy is a test-extra referee, not a runtime dependency: with it
    unimportable, the Figure 13 example (both controllers) and the
    region's membership, scaling and max-min programs still run."""
    code = (
        "import runpy, sys; sys.modules['scipy'] = None\n"
        f"runpy.run_path({str(EXAMPLES / 'tcp_starvation.py')!r}, run_name='__main__')\n"
        "import numpy as np\n"
        "from repro.core.extreme_points import FeasibilityRegion\n"
        "from repro.core.optimizer import RateOptimizer\n"
        "from repro.core.utility import MAX_THROUGHPUT\n"
        "from repro.net.routing import FlowRoute, build_routing_matrix\n"
        "links = [(0, 1), (1, 2)]\n"
        "region = FeasibilityRegion(links, np.array([[2e6, 0.0], [0.0, 1e6]]))\n"
        "assert region.contains([1e6, 0.4e6]) and not region.contains([1e6, 0.6e6])\n"
        "assert abs(region.max_scaling([1.0, 1.0]) - 2e6 / 3) < 1e-3\n"
        "flows = [FlowRoute(0, 0, 2, [0, 1, 2]), FlowRoute(1, 1, 2, [1, 2])]\n"
        "routing = build_routing_matrix(flows, links=links)\n"
        "result = RateOptimizer(region, routing, MAX_THROUGHPUT).solve_max_min()\n"
        "assert result.success and abs(result.flow_rates - 0.4e6).max() < 1e-3, result"
    )
    assert _loaded_after(code) == []
