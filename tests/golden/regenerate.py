"""Rebuild the golden artifacts that ``tests/test_golden.py`` compares with.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

It writes, next to this script:

- ``verify.json``: ``dinfh verify --out`` at the default seed, and
  ``verify-seed{1,2,3}.json`` the same at ``--seed`` 1, 2 and 3;
- ``erratum-report.json``: ``dinfh erratum-report --out`` at the default
  seed, periods included;
- ``tree-spectrum-6.csv``: ``dinfh tree-spectrum --z1 1 --z2 1 --z3 0.5
  --level 6``;
- ``level-checks.json``: ``selfsim.validate_eigs_in_spectrum`` of each of
  ``PENCILS`` seeded pencils and ``selfsim.count_violations`` of all of them
  at levels 0-6 with tol 1e-8 and 1e-15, and ``selfsim.coverage_gap`` of
  each at levels 2-6;
- ``fingerprint.json``: the numpy and SciPy versions, ``platform.machine()``
  and numpy's enabled CPU features the floats were computed with.

A change that moves these outputs on purpose runs this script and records
the diff in CHANGES.md.
"""

from __future__ import annotations

import importlib.metadata
import json
import platform
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from dinfh import cli, selfsim

HERE = Path(__file__).resolve().parent
PENCILS = 12
LEVEL_CHECK_SEED = 26
TOLS = (1e-8, 1e-15)
COVERAGE_LEVELS = range(2, selfsim.MAX_LEVEL + 1)
VERIFY_SEEDS = (1, 2, 3)


def fingerprint() -> dict:
    """What decides the last bits of the floats on this machine."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": np.__version__,
        # read from the metadata, so the check imports no SciPy
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def _cli_text(*argv: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "artifact"
        status = cli.main([*argv, "--out", str(out)])
        if status != 0:
            raise RuntimeError(f"dinfh {' '.join(argv)} exited {status}")
        return out.read_text()


def build_verify(seed: int | None = None) -> str:
    return _cli_text(*(() if seed is None else ("--seed", str(seed))), "verify")


def build_erratum_report() -> str:
    return _cli_text("erratum-report")


def build_tree_spectrum() -> str:
    return _cli_text("tree-spectrum", "--z1", "1", "--z2", "1", "--z3", "0.5", "--level", "6")


def level_pencils() -> np.ndarray:
    """(PENCILS, 3) coefficient rows: (1, 1, 0.5), the x-independent
    (1, 0, 0), and seeded uniform rows in [-2, 2]."""
    pencils = np.random.default_rng(LEVEL_CHECK_SEED).uniform(-2.0, 2.0, (PENCILS, 3))
    pencils[:2] = ((1.0, 1.0, 0.5), (1.0, 0.0, 0.0))
    return pencils


def build_level_checks() -> dict:
    pencils = level_pencils()
    levels = range(selfsim.MAX_LEVEL + 1)
    return {
        "pencils": pencils.tolist(),
        "validate": {
            repr(tol): {
                str(n): [selfsim.validate_eigs_in_spectrum(*z, n, tol=tol) for z in pencils]
                for n in levels
            }
            for tol in TOLS
        },
        "count_violations": {
            repr(tol): {str(n): selfsim.count_violations(pencils, n, tol=tol) for n in levels}
            for tol in TOLS
        },
        "coverage_gap": {
            str(n): [selfsim.coverage_gap(*z, n) for z in pencils] for n in COVERAGE_LEVELS
        },
    }


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


# file name -> builder of its text
ARTIFACTS = {
    "verify.json": build_verify,
    **{f"verify-seed{seed}.json": partial(build_verify, seed) for seed in VERIFY_SEEDS},
    "erratum-report.json": build_erratum_report,
    "tree-spectrum-6.csv": build_tree_spectrum,
    "level-checks.json": lambda: _json_text(build_level_checks()),
}


def main() -> None:
    for name, build in ARTIFACTS.items():
        (HERE / name).write_text(build())
    (HERE / "fingerprint.json").write_text(_json_text(fingerprint()))


if __name__ == "__main__":
    main()
