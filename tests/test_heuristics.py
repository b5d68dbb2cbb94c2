import itertools

import pytest

import gridrestore.heuristics
import gridrestore.lp
from gridrestore.heuristics import (AlgoBudget, RadConfig, RadStats, RrrStats,
                                    brute_force_optimal, rad, rrr, util_order)
from gridrestore.milp import MipSolution, SolveOptions, solve_mip
from gridrestore.models import (build_rop, energized_lines, evaluate_plan,
                                plan_to_assignment)
from gridrestore.network import (Bus, DamageScenario, Generator, Line, Load,
                                 Network, RestorationPlan, build_schedule)
from gridrestore.postprocess import monotonize, total_energy
from conftest import random_scenario, tiny3_network


def plan_energy(net, dmg, plan):
    sched = build_schedule(len(dmg.damaged_lines), plan.n_periods)
    series = evaluate_plan(net, dmg, plan, sched)
    mono, _ = monotonize(series, plan)
    return total_energy(mono)


class TestUtil:
    def test_capacity_order(self):
        net = Network(buses=(Bus(1), Bus(2)),
                      lines=(Line(1, 1, 2, -5.0, 0.3), Line(2, 1, 2, -5.0, 0.5),
                             Line(3, 1, 2, -5.0, 0.2)),
                      generators=(Generator(1, 1, 1.0),),
                      loads=(Load(1, 2, 0.9),))
        plan = util_order(net, DamageScenario((1, 2, 3)))
        assert plan.ordered_lines() == [2, 1, 3]

    def test_tie_break_by_endpoints_then_id(self):
        net = Network(buses=(Bus(1), Bus(2), Bus(3)),
                      lines=(Line(1, 2, 3, -5.0, 0.5), Line(2, 1, 2, -5.0, 0.5),
                             Line(3, 1, 2, -5.0, 0.5)),
                      generators=(Generator(1, 1, 1.0),),
                      loads=(Load(1, 3, 0.5),))
        plan = util_order(net, DamageScenario((1, 2, 3)))
        assert plan.ordered_lines() == [2, 3, 1]

    def test_single_line(self, tiny3):
        plan = util_order(tiny3, DamageScenario((2,)))
        assert plan.periods == (frozenset({2}),)


class TestRrr:
    def test_single_line_base_case(self, tiny3):
        plan = rrr(tiny3, DamageScenario((3,)), AlgoBudget(time_limit=5))
        assert plan.periods == (frozenset({3}),)

    def test_finds_better_order_than_capacity(self, tiny3):
        dmg = DamageScenario((1, 2))
        plan = rrr(tiny3, dmg, AlgoBudget(time_limit=20, rel_gap=0.0))
        assert plan.ordered_lines() == [1, 2]  # enumeration optimum

    def test_zero_budget_equals_util(self):
        for seed in range(5):
            net, dmg = random_scenario(seed)
            plan = rrr(net, dmg, AlgoBudget(time_limit=1e-9))
            assert plan == util_order(net, dmg)

    def test_failing_solver_still_partitions(self):
        def failing(net, dmg, sched, opts):
            art = build_rop(net, dmg, sched)
            return art, MipSolution(status="failure")

        for seed in range(5):
            net, dmg = random_scenario(seed)
            stats = RrrStats()
            plan = rrr(net, dmg, AlgoBudget(time_limit=5), rop_solver=failing,
                       stats=stats)
            plan.validate_against(dmg)
            assert stats.fallback_util_splits > 0

    def test_empty_first_split_returns_capacity_order(self):
        def delaying(net, dmg, sched, opts):
            art = build_rop(net, dmg, sched)
            assign = {}
            for lid in dmg.damaged_lines:
                assign[art.z[(lid, 1)]] = 0
                assign[art.z[(lid, 2)]] = 1
            return art, MipSolution(status="optimal_within_gap",
                                    objective_value=0.0, assignment=assign)

        net, dmg = random_scenario(3)
        stats = RrrStats()
        plan = rrr(net, dmg, AlgoBudget(time_limit=5), rop_solver=delaying,
                   stats=stats)
        assert stats.empty_first_returns >= 1
        assert plan == util_order(net, dmg)

    def test_subsolve_instrumentation_bounds(self):
        for seed in range(5):
            net, dmg = random_scenario(seed)
            n = len(dmg.damaged_lines)
            stats = RrrStats()
            rrr(net, dmg, AlgoBudget(time_limit=30, rel_gap=0.0), stats=stats)
            assert stats.subsolves <= 2 * n - 1
            assert stats.max_binaries <= 2 * n


class TestRad:
    def test_stall_limit_zero_is_identity(self, tiny3):
        dmg = DamageScenario((1, 2, 3))
        initial = util_order(tiny3, dmg)
        cfg = RadConfig(stall_limit=0)
        plan = rad(tiny3, dmg, AlgoBudget(time_limit=5), config=cfg,
                   initial=initial)
        assert plan == initial

    def test_two_lines_matches_top_split_objective(self, tiny3):
        dmg = DamageScenario((1, 2))
        plan = rad(tiny3, dmg, AlgoBudget(time_limit=20, rel_gap=0.0),
                   config=RadConfig(stall_limit=2))
        art = build_rop(tiny3, dmg, build_schedule(2, 2))
        sol = solve_mip(art.program, SolveOptions(time_limit=20, rel_gap=0.0))
        assert plan_energy(tiny3, dmg, plan) == pytest.approx(
            sol.objective_value, abs=1e-6)

    def test_never_degrades(self):
        for seed in range(5):
            net, dmg = random_scenario(seed)
            initial = util_order(net, dmg)
            before = plan_energy(net, dmg, initial)
            plan = rad(net, dmg, AlgoBudget(time_limit=2, seed=seed),
                       config=RadConfig(stall_limit=2), initial=initial)
            plan.validate_against(dmg)
            assert plan_energy(net, dmg, plan) >= before - 1e-9

    def test_time_doubling_adaptation(self):
        def failing(net, dmg, sched, opts):
            art = build_rop(net, dmg, sched)
            return art, MipSolution(status="failure")

        net, dmg = random_scenario(2)
        stats = RadStats()
        rad(net, dmg, AlgoBudget(time_limit=5), config=RadConfig(stall_limit=3),
            rop_solver=failing, stats=stats)
        assert stats.time_doublings >= 1

    def test_partition_size_growth_adaptation(self):
        def identity(net, dmg, sched, opts):
            # optimal-status answer that never changes the block order
            art = build_rop(net, dmg, sched)
            plan = RestorationPlan.from_lists(
                [[lid] for lid in sorted(dmg.damaged_lines)])
            assign = plan_to_assignment(art, plan)
            return art, MipSolution(status="optimal_within_gap",
                                    objective_value=0.0, assignment=assign)

        net, dmg = random_scenario(2)
        initial = RestorationPlan.from_lists(
            [[lid] for lid in sorted(dmg.damaged_lines)])
        stats = RadStats()
        rad(net, dmg, AlgoBudget(time_limit=5), config=RadConfig(stall_limit=3),
            initial=initial, rop_solver=identity, stats=stats)
        assert stats.size_growths >= 1


class TestBruteForce:
    def test_single_line(self, tiny3):
        dmg = DamageScenario((1,))
        plan, energy = brute_force_optimal(tiny3, dmg, build_schedule(1, 1))
        assert plan.periods == (frozenset({1}),)
        assert energy == pytest.approx(
            plan_energy(tiny3, dmg, RestorationPlan.from_lists([[1]])))

    def test_empty_damage(self, tiny3):
        plan, energy = brute_force_optimal(tiny3, DamageScenario(()),
                                           build_schedule(0, 1))
        assert energy == pytest.approx(1.4)

    def test_size_guard(self, tiny3):
        big = DamageScenario(tuple(range(1, 9)))
        with pytest.raises(ValueError, match="limited to 7"):
            brute_force_optimal(tiny3, big, build_schedule(8, 8))

    def test_beats_or_ties_every_order(self, tiny3):
        dmg = DamageScenario((1, 2))
        _, best = brute_force_optimal(tiny3, dmg, build_schedule(2, 2))
        for order in ([[1], [2]], [[2], [1]]):
            assert best >= plan_energy(tiny3, dmg,
                                       RestorationPlan.from_lists(order)) - 1e-9

    @pytest.mark.parametrize("n_periods", [None, 2])
    def test_memo_solves_each_topology_once(self, meshed_scenarios, monkeypatch,
                                            n_periods):
        net, dmg = meshed_scenarios[2]
        n = len(dmg.damaged_lines)
        sched = build_schedule(n, n_periods or n)
        plans = []
        for perm in itertools.permutations(dmg.damaged_lines):
            cuts = (0,) + sched.repair_budget
            plans.append(RestorationPlan.from_lists(
                [perm[a:b] for a, b in zip(cuts, cuts[1:])]))
        topologies = {energized_lines(net, dmg, p, k) for p in plans
                      for k in range(1, sched.n_periods + 1)}
        real_solve = gridrestore.lp.solve_lp
        calls = []

        def counting(lp, *args, **kwargs):
            calls.append(lp)
            return real_solve(lp, *args, **kwargs)

        monkeypatch.setattr(gridrestore.lp, "solve_lp", counting)
        plan, energy = brute_force_optimal(net, dmg, sched)
        assert len(calls) == len(topologies)

        def no_memo(*args, memo=None):
            return evaluate_plan(*args)

        monkeypatch.setattr(gridrestore.heuristics, "evaluate_plan", no_memo)
        calls.clear()
        ref_plan, ref_energy = brute_force_optimal(net, dmg, sched)
        assert len(calls) > len(topologies)
        assert plan.periods == ref_plan.periods
        assert energy == ref_energy

    def test_symmetric_parallel_lines(self):
        net = Network(buses=(Bus(1), Bus(2)),
                      lines=(Line(1, 1, 2, -5.0, 0.4), Line(2, 1, 2, -5.0, 0.4)),
                      generators=(Generator(1, 1, 1.0),),
                      loads=(Load(1, 2, 0.8),))
        dmg = DamageScenario((1, 2))
        e1 = plan_energy(net, dmg, RestorationPlan.from_lists([[1], [2]]))
        e2 = plan_energy(net, dmg, RestorationPlan.from_lists([[2], [1]]))
        assert e1 == pytest.approx(e2)
