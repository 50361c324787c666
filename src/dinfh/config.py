"""Run configuration shared by the CLI and the verification suite."""

from __future__ import annotations

import os
from dataclasses import dataclass

# "D1EDRA" read as a base-36 literal; recorded in every artifact header
DEFAULT_SEED = int("D1EDRA", 36)

SCHEMA_VERSION = "1"


@dataclass
class RunConfig:
    """What a run may vary: only the seed.  The criteria's tolerances and
    sizes are fixed where they are checked."""

    seed: int = DEFAULT_SEED


def thread_cap() -> int | None:
    """Optional worker cap from the SPECTRA_THREADS environment variable."""
    raw = os.environ.get("SPECTRA_THREADS")
    if not raw:
        return None
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError("SPECTRA_THREADS must be a positive integer")
    return n
