"""Acceptance gate: the nine verification criteria at their stated
tolerances.

The suite is driven through :mod:`dinfh.acceptance` (the same engine as the
CLI ``verify`` subcommand).  Criteria are computed once per session; each
test asserts one criterion and prints its pass/fail line.
"""

import dataclasses

import pytest

from dinfh import oracle, selfsim
from dinfh.acceptance import CRITERIA, criterion_6, criterion_8, run_all
from dinfh.config import RunConfig
from dinfh.group import GroupElement


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
    # of the 1024-step grid, 8 chunks per loop
    calls = []
    gtsv = oracle._gtsv()

    def counted(*arrays, **kw):
        calls.append(len(arrays[1]))
        return gtsv(*arrays, **kw)

    monkeypatch.setattr(oracle, "_gtsv", lambda: counted)
    assert criterion_6(RunConfig()).passed
    assert calls == [4 * 32 * 128] * 16


def test_criterion_9_specifics(results):
    details = results[9].details
    gaps = details["coverage_gaps"]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.5


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
