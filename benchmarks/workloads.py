"""Inputs, operations and output checks of the benchmark workloads.

Each workload is a closed loop with one client: the harness calls ``run`` on
one input, checks the output, and only then starts the next call.  Inputs
come from ``make_inputs(seed)`` alone, so the same seed gives the same
inputs, and the program under test receives nothing but those inputs.

Every workload draws its pool of inputs at set-up.  A run takes them in
order; only a run that outlasts its pool starts over at the first input.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from dinfh import acceptance, selfsim
from dinfh.config import RunConfig
from dinfh.group import GroupElement, mul

# --- tree: level-5 witness, coverage gaps, level-6 homomorphism law
TREE_POOL = 1024
TREE_LEVEL = 5
COVERAGE_LEVELS = (2, 3, 4, 5)
HOMOMORPHISM_LEVEL = 6
WORD_PAIRS = 20
MAX_K = 10_000
GAP_ROUNDOFF = 1e-12

# --- verify: the nine-criterion gate in order
CRITERIA = tuple(range(1, 10))

_TAGS = {"verify": 1, "tree": 4}


@dataclass
class Workload:
    make_inputs: Callable[[int], list]
    run: Callable[[object], object]
    check: Callable[[object, object], List[str]]
    # named stage times (s) of one operation's output, when it has stages
    stages: Callable[[object], Dict[str, float]] = lambda out: {}


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _TAGS[name]])


# ---------------------------------------------------------------------------
# verify


def verify_inputs(seed: int) -> list:
    return [RunConfig(seed=seed)]


def verify_run(config: RunConfig) -> dict:
    """One full gate; returns each criterion's result and its wall time."""
    results = {}
    for n in CRITERIA:
        t0 = time.perf_counter()
        res = acceptance.CRITERIA[n](config)
        results[n] = (res, time.perf_counter() - t0)
    return results


def verify_check(config: RunConfig, results: dict) -> List[str]:
    return [
        f"criterion {n} failed: {res.details}"
        for n, (res, _) in results.items()
        if not res.passed
    ]


def verify_stages(results: dict) -> Dict[str, float]:
    return {f"c{n}_s": seconds for n, (_, seconds) in results.items()}


# ---------------------------------------------------------------------------
# tree


def tree_inputs(seed: int) -> list:
    rng = _rng("tree", seed)
    items = []
    for _ in range(TREE_POOL):
        z = tuple(float(v) for v in rng.uniform(-2.0, 2.0, 3))
        ks = rng.integers(-MAX_K, MAX_K + 1, size=(WORD_PAIRS, 2))
        flags = rng.integers(0, 2, size=(WORD_PAIRS, 2, 2))
        pairs = [
            tuple(
                GroupElement(k=int(ks[p, s]), t_flag=int(flags[p, s, 0]),
                             tau_flag=int(flags[p, s, 1]))
                for s in range(2)
            )
            for p in range(WORD_PAIRS)
        ]
        items.append((z, pairs))
    return items


def tree_run(item):
    (z1, z2, z3), pairs = item
    witness = selfsim.validate_eigs_in_spectrum(z1, z2, z3, TREE_LEVEL, tol=1e-8)
    gaps = [selfsim.coverage_gap(z1, z2, z3, n) for n in COVERAGE_LEVELS]
    broken = []
    for g, h in pairs:
        lg = selfsim.level_matrix(g, HOMOMORPHISM_LEVEL).perm_vector
        lh = selfsim.level_matrix(h, HOMOMORPHISM_LEVEL).perm_vector
        lgh = selfsim.level_matrix(mul(g, h), HOMOMORPHISM_LEVEL).perm_vector
        if not np.array_equal(lgh, lg[lh]):
            broken.append((g, h))
    return witness, gaps, broken


def tree_check(item, out) -> List[str]:
    witness, gaps, broken = out
    problems = [f"eigenvalue off the spectrum: {v}" for v in witness["violations"]]
    # level-n eigenvalues nest in level n+1, so a gap can only shrink or stay
    # (up to eigensolver roundoff); over levels 2-5 it must shrink
    if not (all(b <= a + GAP_ROUNDOFF for a, b in zip(gaps, gaps[1:])) and gaps[-1] < gaps[0]):
        problems.append(f"coverage gaps not decreasing: {gaps}")
    problems.extend(f"homomorphism law fails for {g}, {h}" for g, h in broken)
    return problems


# ---------------------------------------------------------------------------


WORKLOADS = {
    "verify": Workload(verify_inputs, verify_run, verify_check, verify_stages),
    "tree": Workload(tree_inputs, tree_run, tree_check),
}
