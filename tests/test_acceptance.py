"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS line with
the measured statistics, so a full run doubles as the acceptance record.
"""
import itertools
import random

import numpy as np
import pytest

import gridrestore.heuristics
from gridrestore.cli import EXIT_OK, main as cli_main
from gridrestore.heuristics import (MAX_PARTITION, brute_force_optimal,
                                    rad, rrr, util_order)
from gridrestore.lp import solve_lp
from gridrestore.milp import MipSolution, SolveOptions, solve_mip
from gridrestore.models import (PowerServedSeries, build_rop, evaluate_plan,
                                plan_to_assignment)
from gridrestore.network import (DamageScenario, RestorationPlan,
                                 build_schedule, parse_case)
from gridrestore.postprocess import monotonize, total_energy
from conftest import CASES_DIR, random_network, random_scenario

import os

from test_lp import random_lp, solve_with_scipy


def plan_energy(net, dmg, plan):
    sched = build_schedule(len(dmg.damaged_lines), plan.n_periods)
    series = evaluate_plan(net, dmg, plan, sched)
    return total_energy(monotonize(series, plan)[0])


@pytest.fixture(scope="module")
def instances():
    """The 25 shared benchmark instances with their enumeration optima."""
    out = []
    for seed in range(25):
        net, dmg = random_scenario(seed)
        n = len(dmg.damaged_lines)
        _, opt = brute_force_optimal(net, dmg, build_schedule(n, n))
        out.append((net, dmg, opt))
    return out


def test_criterion_01_exact_solver_matches_enumeration(instances):
    """Exact ordering MILP equals the brute-force optimum on every instance."""
    worst = 0.0
    for net, dmg, opt in instances:
        n = len(dmg.damaged_lines)
        sched = build_schedule(n, n)
        art = build_rop(net, dmg, sched)
        art.program.warm_start = plan_to_assignment(art, util_order(net, dmg))
        sol = solve_mip(art.program, SolveOptions(time_limit=120, rel_gap=0.0))
        assert sol.status == "optimal_within_gap"
        rel = abs(sol.objective_value - opt) / max(abs(opt), 1e-10)
        worst = max(worst, rel)
        assert rel <= 1e-6
    print(f"\ncriterion 1 (oracle exactness, 25 instances, "
          f"worst rel err {worst:.2e}): PASS")


def test_criterion_02_rrr_near_optimal(instances):
    ratios = []
    beats_util = 0
    for net, dmg, opt in instances:
        plan = rrr(net, dmg, SolveOptions(time_limit=60, rel_gap=0.0))
        e_rrr = plan_energy(net, dmg, plan)
        e_util = plan_energy(net, dmg, util_order(net, dmg))
        ratios.append(e_rrr / opt if opt > 0 else 1.0)
        if e_rrr >= e_util - 1e-9:
            beats_util += 1
    near = sum(r >= 0.97 - 1e-12 for r in ratios)
    assert near >= 0.90 * len(ratios)
    assert beats_util >= 0.95 * len(ratios)
    dist = ", ".join(f"{r:.4f}" for r in sorted(ratios))
    print(f"\ncriterion 2 (recursive refinement quality: {near}/25 within 3% "
          f"of optimum, {beats_util}/25 at least capacity-order; "
          f"distribution [{dist}]): PASS")


def test_criterion_03_two_period_split_optimality():
    checked = 0
    for seed in range(100):
        net, dmg = random_scenario(seed + 40, n_damaged_range=(4, 7))
        n = len(dmg.damaged_lines)
        if n > 7:
            continue
        sched = build_schedule(n, 2)
        art = build_rop(net, dmg, sched)
        sol = solve_mip(art.program, SolveOptions(time_limit=120, rel_gap=0.0))
        assert sol.status == "optimal_within_gap"
        # enumerate every first-period subset within the repair budget
        best = None
        ids = sorted(dmg.damaged_lines)
        for r in range(sched.repair_budget[0] + 1):
            for first in itertools.combinations(ids, r):
                plan = RestorationPlan.from_lists(
                    [first, [i for i in ids if i not in first]])
                series = evaluate_plan(net, dmg, plan, sched)
                energy = sum(d * t for d, t in
                             zip(series.delivered, series.durations))
                best = energy if best is None else max(best, energy)
        assert sol.objective_value == pytest.approx(best, abs=1e-7, rel=1e-9)
        checked += 1
        if checked == 10:
            break
    assert checked == 10
    print("\ncriterion 3 (two-period split equals subset enumeration on "
          "10 instances): PASS")


def test_criterion_04_subproblem_scaling():
    for n in (4, 8, 16):
        net = random_network(900 + n, n_buses=8, n_lines=max(n, 8))
        ids = [l.id for l in net.lines]
        dmg = DamageScenario(tuple(sorted(random.Random(n).sample(ids, n))))
        binary_counts = []

        def probe(art, opts):
            binary_counts.append(len(art.program.binary_vars))
            return MipSolution(status="failure")

        plan = rrr(net, dmg, SolveOptions(time_limit=30), rop_solver=probe)
        plan.validate_against(dmg)
        assert max(binary_counts) <= 2 * n
        assert len(binary_counts) <= 2 * n - 1
        assert max(binary_counts) <= n * n  # vs the monolithic formulation
    print("\ncriterion 4 (recursive sub-problems: <= 2n binaries and <= 2n-1 "
          "solves for n in {4, 8, 16}): PASS")


def test_criterion_05_monotonization_running_max():
    rng = random.Random(12345)
    for _ in range(100):
        n = rng.randint(1, 15)
        values = [rng.uniform(0, 10) for _ in range(n)]
        series = PowerServedSeries(tuple(values), (1.0,) * n)
        plan = RestorationPlan.from_lists([[i + 1] for i in range(n)])
        mono, replan = monotonize(series, plan)
        assert mono.delivered == tuple(itertools.accumulate(values, max))
        restored = sorted(lid for p in replan.periods for lid in p)
        assert restored == list(range(1, n + 1))
    print("\ncriterion 5 (monotonization equals running max on 100 random "
          "series, partitions preserved): PASS")


def test_criterion_06_lp_engine_against_reference():
    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        lp = random_lp(seed * 31 + 7)
        ref = solve_with_scipy(lp)
        if ref.status != 0:
            continue  # want feasible bounded instances here
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        sense = -1.0 if lp.objective_sense == "maximize" else 1.0
        assert sense * sol.objective_value == pytest.approx(ref.fun, abs=1e-6,
                                                            rel=1e-6)
        checked += 1
    # certified statuses on hand-built fixtures
    infeasible = random_lp(0)
    infeasible.add_constraint("pin_lo", [(0, 1.0)], ">=", 1e9)
    assert solve_lp(infeasible).status == "infeasible"
    from gridrestore.lp import INF, LinearProgram
    unbounded = LinearProgram()
    unbounded.add_variable("x", 0.0, INF)
    unbounded.set_objective("maximize", [(0, 1.0)])
    assert solve_lp(unbounded).status == "unbounded"
    print("\ncriterion 6 (simplex matches reference on 50 feasible LPs; "
          "infeasible/unbounded certified): PASS")


def test_criterion_07_fallback_paths():
    for seed in range(5):
        net, dmg = random_scenario(seed + 60)
        starved = rrr(net, dmg, SolveOptions(time_limit=1e-9))
        assert starved == util_order(net, dmg)

    def delaying(art, opts):
        assign = {art.z[(lid, 1)]: 0 for lid in art.damage.damaged_lines}
        return MipSolution(status="optimal_within_gap",
                           objective_value=0.0, assignment=assign)

    net, dmg = random_scenario(61)
    calls = []

    def counted(*args):
        calls.append(args)
        return delaying(*args)

    plan = rrr(net, dmg, SolveOptions(time_limit=5), rop_solver=counted)
    assert len(calls) == 1  # the empty first half ends the recursion
    assert plan == util_order(net, dmg)
    print("\ncriterion 7 (starved solver reproduces capacity order; empty "
          "first split falls back to capacity order): PASS")


def test_criterion_08_rad_behavior(monkeypatch):
    monkeypatch.setattr(gridrestore.heuristics, "STALL_LIMIT", 2)
    degraded = 0
    for seed in range(50):
        net, dmg = random_scenario(seed % 10)
        initial = util_order(net, dmg)
        before = plan_energy(net, dmg, initial)
        plan = rad(net, dmg, SolveOptions(time_limit=1.0), initial=initial, seed=seed)
        plan.validate_against(dmg)
        if plan_energy(net, dmg, plan) < before - 1e-9:
            degraded += 1
    assert degraded == 0

    time_limits = []
    block_sizes = []

    def failing(art, opts):
        time_limits.append(opts.time_limit)
        return MipSolution(status="failure")

    def identity(art, opts):
        block_sizes.append(len(art.damage.damaged_lines))
        plan = RestorationPlan.from_lists(
            [[lid] for lid in sorted(art.damage.damaged_lines)])
        return MipSolution(status="optimal_within_gap", objective_value=0.0,
                           assignment=plan_to_assignment(art, plan))

    net, dmg = random_scenario(2)
    monkeypatch.setattr(gridrestore.heuristics, "STALL_LIMIT", 3)
    rad(net, dmg, SolveOptions(time_limit=5), rop_solver=failing)
    assert max(time_limits[1:]) >= 2 * time_limits[0]
    # 12 lines: the block-size cap can grow past 5, up to n // 2 = 6
    net = random_network(7, n_buses=8, n_lines=12)
    dmg = DamageScenario(tuple(l.id for l in net.lines))
    initial = RestorationPlan.from_lists(
        [[lid] for lid in sorted(dmg.damaged_lines)])
    monkeypatch.setattr(gridrestore.heuristics, "STALL_LIMIT", 6)
    rad(net, dmg, SolveOptions(time_limit=60), initial=initial, rop_solver=identity)
    assert max(block_sizes) > MAX_PARTITION
    print("\ncriterion 8 (randomized decomposition: 0/50 runs degraded; both "
          "adaptation rules observed): PASS")


def test_criterion_09_cli_determinism(tmp_path):
    case = os.path.join(CASES_DIR, "tiny3.m")
    args = ["solve", "--case", case, "--damage-fraction", "1.0", "--seed", "5",
            "--algo", "rrr", "--rel-gap", "0"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out)]) == EXIT_OK
        outs.append(out)
    for name in ("summary.json", "report.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print("\ncriterion 9 (repeated runs byte-identical): PASS")


def test_criterion_10_parser_golden_files():
    with open(os.path.join(CASES_DIR, "tiny3.m")) as f:
        tiny = parse_case(f.read())
    assert [(l.from_bus, l.to_bus, l.susceptance_b, l.thermal_limit)
            for l in tiny.lines] == [(1, 2, -10.0, 1.5), (1, 3, -5.0, 1.0),
                                     (2, 3, -8.0, 1.2)]
    with open(os.path.join(CASES_DIR, "status0.m")) as f:
        dropped = parse_case(f.read())
    assert len(dropped.lines) == 3  # the status-0 branch is absent
    assert {(l.from_bus, l.to_bus) for l in dropped.lines} == \
        {(1, 2), (3, 4), (1, 4)}
    with open(os.path.join(CASES_DIR, "defaultangle.m")) as f:
        defaulted = parse_case(f.read())
    assert all(l.angle_diff_max == pytest.approx(0.5236)
               for l in defaulted.lines)
    assert defaulted.lines[0].thermal_limit == pytest.approx(1.0)  # unlimited
    print("\ncriterion 10 (golden case parsing, status-0 drop and angle "
          "defaulting included): PASS")
