"""Clean fixture: deletion only inside blessed helpers, handover by rename."""

import os
from pathlib import Path


def requeue_expired_claims(root: Path, entry_path: str, name: str) -> None:
    # Blessed helper: repossession may drop a spent claim...
    os.unlink(entry_path)
    # ...and hands live ones back by atomic rename, never write+unlink.
    os.replace(entry_path, root / "tasks" / name)


def collect(path: Path) -> None:
    path.unlink()  # blessed: the collector consumes acked result envelopes
