"""Per-path scoping and policy knobs for the analyzer.

A rule that is correct everywhere (``RPL101``: builtin ``hash()``) runs
everywhere; a rule that is only meaningful in specific layers runs only
there — wall-clock calls are fine in the batch orchestration code that
measures wall clock on purpose, but a bug inside the simulation, and
direct file writes are fine in a benchmark script but a protocol
violation inside the cache/queue/broker modules.  The scoping table
below is the single place that records which rule owns which paths.

Paths are matched against a *module path*: the file's path from its
``repro`` package segment onward when there is one (so the same config
works whether the tree is scanned as ``src``, ``src/repro`` or a
checkout root), else the path relative to the scanned root (which is
what fixture trees under ``tests/lint/fixtures`` use).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["LintConfig", "path_matches", "scope_path"]

#: Determinism scope: the layers whose code runs *inside* a simulation —
#: anything here that draws from global RNG state or the wall clock can
#: silently change results between two runs of the same spec.
_SIM_LAYERS = (
    "repro/sim/**",
    "repro/mac/**",
    "repro/phy/**",
    "repro/net/**",
    "repro/core/**",
    "repro/transport/**",
    # Monitors sample *inside* the event loop; their series are part of
    # experiment payloads, so they are held to the same determinism bar.
    "repro/monitors/**",
    "repro/engine.py",
    "repro/scheduler.py",
)

#: Atomic-IO scope: the modules that speak the shared-directory JSON
#: envelope protocols (result cache, work queue, broker).  ``fsio.py``
#: is deliberately absent — it *is* the blessed helper.
_QUEUE_MODULES = (
    "repro/experiment/cache.py",
    "repro/experiment/backends/**",
    "repro/experiment/broker.py",
    "repro/experiment/broker_store.py",
    "repro/experiment/worker.py",
)


def path_matches(pattern: str, path: str) -> bool:
    """Match a posix module path against one scoping pattern.

    ``"**"`` matches everything, ``"pkg/**"`` matches the package
    subtree, anything else is a plain :mod:`fnmatch` pattern.
    """
    if pattern == "**":
        return True
    if pattern.endswith("/**"):
        prefix = pattern[:-3]
        return path == prefix or path.startswith(prefix + "/")
    return fnmatch.fnmatchcase(path, pattern)


def scope_path(parts: tuple[str, ...], fallback: str) -> str:
    """The module path used for scope matching.

    ``parts`` are the path components of the scanned file; when a
    ``repro`` package segment is present the module path starts there
    (``.../src/repro/sim/x.py`` -> ``repro/sim/x.py``), so fixture trees
    that *embed* a ``repro/...`` layout scope exactly like the real one.
    """
    if "repro" in parts:
        index = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        if index < len(parts) - 1:  # "repro" as a file name doesn't count
            return "/".join(parts[index:])
    return fallback


@dataclass(frozen=True)
class LintConfig:
    """Which rule applies where, plus rule-family policy knobs.

    Attributes:
        rule_scopes: rule code -> include patterns (module paths).  A
            code absent from the mapping applies everywhere.
        rule_excludes: rule code -> exclude patterns; an exclude beats
            an include.
        blessed_unlink_functions: the repossession/collection helpers
            allowed to delete claim/result envelopes (``RPL202``).
            Everything else that unlinks inside the queue protocol
            modules is a finding — deletion is how the PR 5 requeue
            race lost tasks, so new deletion sites must be reviewed
            into this list, not sprinkled ad hoc.
        schema_fingerprint_path: where the recorded spec-schema
            fingerprint lives (``RPL301``), resolved against the
            current working directory when relative — CI and the test
            suite both run the linter from the repo root.
    """

    rule_scopes: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    rule_excludes: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    blessed_unlink_functions: frozenset[str] = frozenset()
    schema_fingerprint_path: str = (
        "tests/experiment/golden/spec_schema_fingerprint.json"
    )

    @classmethod
    def default(cls) -> "LintConfig":
        """The repo's production scoping — what ``python -m repro.lint``
        uses."""
        return cls(
            rule_scopes={
                # RPL101 (builtin hash) applies everywhere: a salted hash
                # feeding anything persistent is wrong in every layer.
                "RPL102": _SIM_LAYERS + ("repro/experiment/registry.py",),
                "RPL103": _SIM_LAYERS + ("repro/experiment/registry.py",),
                "RPL104": _SIM_LAYERS + ("repro/experiment/specs.py",),
                # RPL105 (unordered iteration) applies everywhere: queue
                # collect paths and sim code are equally order-sensitive.
                "RPL201": _QUEUE_MODULES,
                "RPL202": (
                    "repro/experiment/backends/**",
                    "repro/experiment/broker.py",
                    "repro/experiment/broker_store.py",
                    "repro/experiment/worker.py",
                ),
                # RPL203 (os.rename) applies everywhere: every rename in
                # this repo wants os.replace semantics.
            },
            rule_excludes={
                # The simulation profiler is the one sanctioned wall
                # clock inside the sim layers: the engine's run loop
                # calls ``profiler.clock()`` through a duck-typed hook
                # precisely so ``time`` never appears in engine/medium
                # code.  Profiler output is diagnostics, never part of
                # an experiment payload.
                "RPL104": ("repro/sim/profile.py",),
            },
            blessed_unlink_functions=frozenset(
                {
                    # work_queue.py — lease repossession and orphan reaping
                    "requeue_expired_claims",
                    "_reap_stale_files",
                    # work_queue.py, FileQueueClient — result handover
                    # (write result, drop claim), acked-result collection
                    # and submission withdrawal
                    "complete",
                    "collect",
                    "cancel",
                    # worker.py — the chaos-test kill flag
                    "_chaos_kill",
                    # broker_store.py — journal generations a snapshot
                    # has superseded (checkpoint compaction)
                    "_retire_journals",
                }
            ),
        )

    @classmethod
    def unscoped(cls, **overrides: object) -> "LintConfig":
        """Every rule everywhere — what the fixture meta-tests use, so a
        fixture exercises rule logic without re-creating the package
        layout.  Policy knobs (blessed helpers) keep their defaults.
        """
        base = cls.default()
        kwargs: dict[str, object] = {
            "rule_scopes": {},
            "rule_excludes": {},
            "blessed_unlink_functions": base.blessed_unlink_functions,
            "schema_fingerprint_path": base.schema_fingerprint_path,
        }
        kwargs.update(overrides)
        return cls(**kwargs)  # type: ignore[arg-type]

    def applies(self, code: str, module_path: str) -> bool:
        """Does rule ``code`` apply to ``module_path``?"""
        for pattern in self.rule_excludes.get(code, ()):
            if path_matches(pattern, module_path):
                return False
        includes = self.rule_scopes.get(code)
        if includes is None:
            return True
        return any(path_matches(pattern, module_path) for pattern in includes)
