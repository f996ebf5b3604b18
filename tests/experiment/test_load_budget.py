"""What a process loads, checked in fresh interpreters.

numpy comes with ``import repro``; ``scipy.optimize`` (about half a
second, 50 MB resident, tens of thousands of GC-tracked objects) belongs
to processes that solve a linear program - a max-throughput (alpha = 0)
or max-min controller, ``FeasibilityRegion.contains`` - and networkx only
to ``ConflictGraph.to_networkx``.  A drainer, a broker, a controller-off
cell or a default (proportional-fair) controller, whose solve is plain
numpy, would pay for a solver it never calls, on every spawn.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiment import ControllerSpec, ProbingSpec
from repro.experiment.backends.queue_common import worker_subprocess_env

from _helpers import FAST_SPEC

HEAVY = ("scipy.optimize", "networkx")

_REPORT = (
    "import json, sys; "
    f"print(json.dumps([name for name in {HEAVY!r} if sys.modules.get(name)]))"
)


def _loaded_after(code: str) -> list[str]:
    """The ``HEAVY`` modules present after ``code`` ran in a new interpreter."""
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
        "from repro.experiment import ExperimentSpec, run_experiment\n"
        f"run_experiment(ExperimentSpec.from_dict({spec.to_dict()!r}))"
    )


def test_worker_import_loads_no_solver():
    assert _loaded_after("import repro.experiment.worker") == []


def test_controller_off_cell_loads_no_solver():
    assert not FAST_SPEC.controller.enabled
    assert _loaded_after(_run_experiment(FAST_SPEC)) == []


def _controller_on(alpha: float):
    return dataclasses.replace(
        FAST_SPEC,
        controller=ControllerSpec(enabled=True, alpha=alpha),
        probing=ProbingSpec(warmup_s=10.0),
    )


def test_default_controller_on_cell_loads_neither_scipy_optimize_nor_networkx():
    """The proportional-fair solve is an interior-point iteration in numpy."""
    assert ControllerSpec(enabled=True).alpha == 1.0
    assert _loaded_after(_run_experiment(_controller_on(alpha=1.0))) == []


def test_max_throughput_controller_on_cell_still_loads_the_lp_solver():
    """The same probe does see ``scipy.optimize`` once a cell solves an LP:
    the lazy ``linprog`` import is the only way scipy gets in."""
    assert _loaded_after(_run_experiment(_controller_on(alpha=0.0))) == ["scipy.optimize"]


def test_the_fork_host_stays_at_the_worker_import_after_serving_an_lp_cell():
    """The host only forks: the drainer that solves the LP imports
    ``scipy.optimize`` in its own copy-on-write image and exits with it, so
    what the next drainer starts from - and what stays resident until the
    submitter exits - is still exactly ``import repro.experiment.worker``.
    Read off the host's memory map: an import there would leave the
    extension modules mapped."""
    from repro.experiment import WorkQueueBackend
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
        "from repro.core import ConflictGraph\n"
        "graph = ConflictGraph.from_edges([(0, 1), (1, 2)], [((0, 1), (1, 2))])\n"
        "assert len(graph.independent_sets()) == 2\n"
        "try:\n"
        "    graph.to_networkx()\n"
        "except ImportError as exc:\n"
        "    assert 'test' in str(exc) and 'extra' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('to_networkx worked without networkx')"
    )
    assert _loaded_after(code) == []
