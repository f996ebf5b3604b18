"""Content-addressed on-disk cache of :class:`ExperimentResult` payloads.

The paper's evaluation is a grid of repeated simulation cells (the
fig13 starvation variants, the fig14 scenarios x controllers x seeds
matrix), and the runner is deterministic: a spec's canonical dict fully
determines its result.  That makes results cacheable by content
address — :func:`repro.experiment.specs.spec_digest` hashes the
canonical spec dict together with :data:`SPEC_SCHEMA_VERSION`, and
:class:`ResultCache` stores the result payload JSON under that digest.

The directory *is* the cache: there is no index beside it.  Layout on
disk (every write is atomic — unique temp name + ``os.replace``)::

    <cache_dir>/
        ab/abcdef....json     # one result payload per digest, fanned out
                              # by the first two hex characters

* ``get(spec)`` / ``put(result)`` move typed
  :class:`ExperimentResult`\\ s in and out;
* ``get_payload(...)`` / ``put_payload(...)`` are the dict-level
  equivalents the :class:`repro.experiment.batch.BatchRunner` uses so
  warm sweeps never touch worker processes;
* a lookup opens the digest's file: a missing file is a miss, and so is
  a file that does not parse, or whose embedded ``spec`` hashes to
  another digest — such a file is unlinked, never served;
* nothing is evicted: :meth:`ResultCache.clear` is the bound;
* ``stats`` counts hits / misses / puts for benchmark reporting.

Cached payloads are returned exactly as stored — bit-identical to what
the original run serialized, including the original run's runtime block
(``wall_time_s`` of the *simulation that produced it*, not of the cache
lookup).  :class:`ControlDecision` objects never serialize, so cache
hits cannot reconstruct them; :meth:`Experiment.run` therefore only
consults the cache when ``keep_decisions=False``, and writes back
put-if-absent — an existing entry keeps the exact payload its original
run serialized.

:func:`default_cache` builds the conventional cache for this machine,
honoring the ``REPRO_CACHE_DIR`` environment variable; setting that
variable also turns caching on by default for every
:meth:`Experiment.run` and :class:`BatchRunner` that was not given an
explicit ``cache`` argument (see :func:`resolve_cache`).

Any number of handles and processes may share one directory — the
batch runner's bulk writeback, a fleet of work-queue workers
(``python -m repro.experiment.worker --cache-dir ...``) draining a
queue: payload files are content-addressed and replaced atomically, so
every handle sees every entry the moment its file lands, and two
writers of one digest write the same bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.experiment.fsio import atomic_write_text as _atomic_write_text
from repro.experiment.runner import ExperimentResult
from repro.experiment.specs import SPEC_SCHEMA_VERSION, ExperimentSpec, spec_digest

__all__ = [
    "CacheStats",
    "ResultCache",
    "default_cache",
    "resolve_cache",
]


@dataclass
class CacheStats:
    """Hit/miss/put counters of one :class:`ResultCache` handle."""

    hits: int = 0
    misses: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 when nothing was looked up yet."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """Content-addressed store of experiment result payloads.

    Args:
        cache_dir: directory to store payloads in (created on first put).
        schema_version: mixed into every key; defaults to
            :data:`repro.experiment.specs.SPEC_SCHEMA_VERSION`.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike[str],
        schema_version: int = SPEC_SCHEMA_VERSION,
    ) -> None:
        self.cache_dir = Path(cache_dir).expanduser()
        self.schema_version = schema_version
        self.stats = CacheStats()

    # ------------------------------------------------------------------ keys
    def key(self, spec: ExperimentSpec | Mapping[str, Any]) -> str:
        """The content address of ``spec`` under this cache's schema."""
        return spec_digest(spec, schema_version=self.schema_version)

    def _payload_path(self, digest: str) -> Path:
        return self.cache_dir / digest[:2] / f"{digest}.json"

    def _paths(self) -> list[Path]:
        return sorted(self.cache_dir.glob("??/*.json"))

    # ---------------------------------------------------------- payload-level
    def get_payload(
        self,
        spec: ExperimentSpec | Mapping[str, Any],
        digest: str | None = None,
    ) -> dict[str, Any] | None:
        """The stored result dict for ``spec``, or ``None`` on a miss.

        A missing file is a miss.  A file that does not parse to a dict,
        or whose embedded ``spec`` hashes to another digest (a payload
        stored under the wrong name), is unlinked and counted as a miss.
        ``digest`` lets callers that already hold ``self.key(spec)``
        (the sweep planner) skip the canonical-JSON + sha256 pass.
        """
        digest = digest if digest is not None else self.key(spec)
        path = self._payload_path(digest)
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            if not (
                isinstance(payload, dict)
                and isinstance(payload.get("spec"), Mapping)
                and self.key(payload["spec"]) == digest
            ):
                raise ValueError("not the payload of this digest")
        except FileNotFoundError:
            pass
        except (OSError, ValueError):
            try:
                path.unlink()
            except OSError:
                pass
        else:
            self.stats.hits += 1
            return payload
        self.stats.misses += 1
        return None

    def put_payload(
        self,
        spec: ExperimentSpec | Mapping[str, Any],
        payload: Mapping[str, Any],
        label: str = "",
        flush: bool = True,
        digest: str | None = None,
    ) -> str:
        """Store a result dict under ``spec``'s digest; returns the digest.

        The payload file lands atomically before this returns, and it is
        the whole entry.  ``label`` and ``flush`` are accepted and
        ignored: they fed the index this cache no longer keeps, and the
        performance ledger still passes them.  ``digest``, when the
        caller already holds ``self.key(spec)``, skips recomputing it.
        """
        digest = digest if digest is not None else self.key(spec)
        path = self._payload_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(path, json.dumps(payload, sort_keys=True))
        self.stats.puts += 1
        return digest

    def put_payloads(
        self,
        items: "Iterable[tuple[Mapping[str, Any], Mapping[str, Any], str]]",
        digests: "Iterable[str | None] | None" = None,
    ) -> list[str]:
        """Store ``(spec, payload, label)`` triples — the batch runner's
        writeback; ``digests`` optionally supplies precomputed keys,
        parallel to ``items``.  Returns the digests in input order."""
        return [
            self.put_payload(spec, payload, digest=digest)
            for (spec, payload, _label), digest in zip(
                items, digests if digests is not None else repeat(None)
            )
        ]

    # ------------------------------------------------------------ typed-level
    def get(self, spec: ExperimentSpec) -> ExperimentResult | None:
        """The cached :class:`ExperimentResult` for ``spec``, or ``None``."""
        payload = self.get_payload(spec)
        return ExperimentResult.from_dict(payload) if payload is not None else None

    def put(self, result: ExperimentResult) -> str:
        """Cache ``result`` under its own spec's digest; returns the digest."""
        return self.put_payload(result.spec, result.to_dict(include_runtime=True))

    # ------------------------------------------------------------- management
    def flush(self) -> None:
        """Nothing to persist: every put is on disk when it returns.  Kept
        because the performance ledger still calls it."""

    def __len__(self) -> int:
        return len(self._paths())

    def __contains__(self, spec: object) -> bool:
        if not isinstance(spec, (ExperimentSpec, Mapping)):
            return False
        return self._payload_path(self.key(spec)).is_file()

    def clear(self) -> int:
        """Delete every entry; returns how many were dropped."""
        dropped = 0
        for path in self._paths():
            try:
                path.unlink()
            except OSError:
                continue
            dropped += 1
        return dropped


def default_cache() -> ResultCache:
    """The conventional on-disk cache for this machine.

    Resolution order for the directory:

    1. ``$REPRO_CACHE_DIR`` when set and non-empty;
    2. ``$XDG_CACHE_HOME/repro-mesh`` when ``XDG_CACHE_HOME`` is set;
    3. ``~/.cache/repro-mesh``.
    """
    env_dir = os.environ.get("REPRO_CACHE_DIR")
    if env_dir:
        return ResultCache(env_dir)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return ResultCache(base / "repro-mesh")


def resolve_cache(
    cache: "ResultCache | None | bool",
) -> ResultCache | None:
    """Resolve the ``cache`` argument of :meth:`Experiment.run` and
    :class:`BatchRunner`.

    * an explicit :class:`ResultCache` is used as given;
    * ``True`` forces the default cache;
    * ``False`` disables caching unconditionally;
    * ``None`` (the default everywhere) enables the default cache iff
      ``REPRO_CACHE_DIR`` is set — so exporting that variable turns
      result caching on for every call site that leaves ``cache``
      unspecified.
    """
    if isinstance(cache, bool):
        return default_cache() if cache else None
    if cache is None:
        return default_cache() if os.environ.get("REPRO_CACHE_DIR") else None
    return cache
