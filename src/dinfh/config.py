"""Run configuration shared by the CLI and the verification suite."""

from __future__ import annotations

import os
from dataclasses import dataclass

# "D1EDRA" read as a base-36 literal; recorded in every artifact header
DEFAULT_SEED = int("D1EDRA", 36)

SCHEMA_VERSION = "1"


@dataclass
class RunConfig:
    membership_tol: float = 1e-9
    quad_target: float = 1e-10
    period_residual_tol: float = 1e-6
    default_N: int = 256
    default_n_nodes: int = 256
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name in ("membership_tol", "quad_target", "period_residual_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


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
