"""Acceptance gate: the nine verification criteria at their stated
tolerances.

The suite is driven through :mod:`dinfh.acceptance` (the same engine as the
CLI ``verify`` subcommand).  Criteria are computed once per session; each
test asserts one criterion and prints its pass/fail line.
"""

import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dinfh import acceptance, oracle, selfsim
from dinfh.acceptance import CRITERIA, criterion_6, criterion_8, run_all
from dinfh.config import RunConfig
from dinfh.group import GEN_A, GEN_T, GEN_TAU, GroupElement, mul


@pytest.mark.parametrize(
    "name",
    ["membership_tol", "quad_target", "period_residual_tol", "default_N", "default_n_nodes"],
)
def test_run_config_carries_only_the_seed(name):
    # the criteria's tolerances and sizes are fixed, not configurable
    assert [f.name for f in dataclasses.fields(RunConfig)] == ["seed"]
    with pytest.raises(TypeError):
        RunConfig(**{name: 1.0})


@pytest.fixture(scope="module")
def results():
    out = {r.number: r for r in run_all(RunConfig(), echo=None)}
    total = sum(r.seconds for r in out.values())
    assert total < 600.0, f"acceptance suite took {total:.0f}s (budget 600s)"
    return out


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(results, number):
    result = results[number]
    print(result.line())
    assert result.passed, f"criterion {number} failed: {result.details}"


def test_criteria_are_registered_once_by_number():
    assert sorted(CRITERIA) == list(range(1, 10))
    for number, criterion in CRITERIA.items():
        assert getattr(acceptance, f"criterion_{number}") is criterion


@pytest.mark.parametrize("num, budget", [(1, 120.0), (6, 60.0), (2, None)])
def test_runtime_budget_fails_a_slow_criterion(monkeypatch, num, budget):
    # each clock read is 1000 s after the one before, past both budgets
    ticks = itertools.count(0.0, 1000.0)
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    result = CRITERIA[num](RunConfig())
    assert result.seconds == 1000.0
    assert result.passed is (budget is None)
    assert result.details.get("runtime_budget_s") == budget


@pytest.mark.parametrize(
    "only, message",
    [([], "no criterion selected"), ([2, 10], "no criterion 10"), ([11, 2, 0], "no criterion 0, 11")],
)
def test_run_all_checks_the_whole_selection_first(only, message):
    lines = []
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_all(RunConfig(), only=only, echo=lines.append)
    assert lines == []


def test_criterion_1_specifics(results):
    details = results[1].details
    assert details["mismatches_outside_band"] == 0
    assert results[1].seconds < 120.0


def test_criterion_2_specifics(results):
    details = results[2].details
    assert details["oracle_margin_N256"] >= 0.5
    assert details["relative_drift"] <= 0.01


def test_criterion_6_specifics(results):
    details = results[6].details
    assert details["integer_matrix"] == [[2, 2], [-2, 0]]
    assert details["rank"] == 2
    assert details["max_analytic_residual"] <= 1e-6
    assert results[6].seconds < 60.0


def test_criterion_6_solves_each_oracle_grid_once(monkeypatch):
    # each stacked gtsv gives both functionals for KLEIN_ROWS // 4N = 128
    # samples: L1 and L2 solve their 512 steps, then only the 512 new ones
    # of the 1024-step grid, 8 chunks per loop; the loops lie in the
    # z1 = z2 = 0 plane, so each sample's 4 Klein blocks are 1 x 1 systems
    calls = []
    gtsv = oracle._gtsv()

    def counted(*arrays, **kw):
        calls.append(len(arrays[1]))
        return gtsv(*arrays, **kw)

    monkeypatch.setattr(oracle, "_gtsv", lambda: counted)
    assert criterion_6(RunConfig()).passed
    assert calls == [4 * 128] * 16


@pytest.mark.parametrize("num", [4, 5, 6])
def test_scipy_import_precedes_the_klein_criteria_clock(monkeypatch, num):
    # the first Klein-block solve imports SciPy (oracle._gtsv); each criterion
    # that solves blocks makes that call before it reads its start time
    events = []
    gtsv = oracle._gtsv
    monkeypatch.setattr(oracle, "_gtsv", lambda: events.append("gtsv") or gtsv())
    clock = acceptance.time.perf_counter
    monkeypatch.setattr(
        acceptance, "time", SimpleNamespace(perf_counter=lambda: events.append("clock") or clock())
    )
    assert CRITERIA[num](RunConfig()).passed
    assert events[:2] == ["gtsv", "clock"]


def test_criterion_1_alone_loads_no_scipy():
    code = (
        "import sys; from dinfh import acceptance; "
        "assert acceptance.run_all(only=[1], echo=None)[0].passed; "
        "sys.exit('scipy' in sys.modules)"
    )
    src = str(Path(acceptance.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_line_reports_milliseconds():
    result = acceptance.CriterionResult(2, "p is a resolvent point", True, 0.01234)
    assert result.line() == "PASS criterion 2: p is a resolvent point (12.3 ms)"
    result = dataclasses.replace(result, passed=False, seconds=1.5)
    assert result.line() == "FAIL criterion 2: p is a resolvent point (1500.0 ms)"


def test_criterion_9_specifics(results):
    details = results[9].details
    gaps = details["coverage_gaps"]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.5


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_words_are_the_generator_products(seed):
    def folded(rng, count):
        gens = (GEN_A, GEN_T, GEN_TAU)
        words = []
        for _ in range(count):
            g = GroupElement()
            for i in rng.integers(0, 3, size=rng.integers(1, 7)):
                g = mul(g, gens[i])
            words.append(g)
        return words

    rng, ref = (np.random.default_rng([seed, 8]) for _ in range(2))
    assert acceptance._random_words(rng, 200) == folded(ref, 200)
    # the same rng calls: both generators are in the same state
    assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


def test_criterion_8_catches_a_wrong_product(monkeypatch):
    # g*h taken as h*g: the stacked check sees the law fail at levels 2-4
    # (level 1 is abelian: t acts trivially there)
    monkeypatch.setattr(acceptance, "mul", lambda g, h: mul(h, g))
    failures = criterion_8(RunConfig()).details["failures"]
    assert failures == [f"homomorphism at level {n}" for n in range(2, 5)]


class CoarseTreeAction(selfsim.TreeAction):
    """A wrong representation that is still a homomorphism: level n sees k
    modulo 2^(n-1) instead of 2^n, at every level of the recursion."""

    def level_matrix(self, g, n):
        k = g.k % (1 << max(n - 1, 0))
        return super().level_matrix(GroupElement(k, g.t_flag, g.tau_flag), n)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_criterion_8_rejects_a_coarser_homomorphic_image(monkeypatch, seed):
    monkeypatch.setattr(selfsim, "_DEFAULT_ACTION", CoarseTreeAction())
    failures = criterion_8(RunConfig(seed=seed)).details["failures"]
    assert "u does not have order 2^3 at level 3" in failures
    assert any("letter-by-letter" in f for f in failures)
    # the relations criterion 8 checked before hold for this image too
    relations = ("homomorphism", "involutive", "commute")
    assert not any(word in f for word in relations for f in failures)
