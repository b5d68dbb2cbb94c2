import gc
import itertools
import os
import random
import weakref
from types import SimpleNamespace

import pytest

import gridrestore.heuristics
import gridrestore.lp
import gridrestore.models
from gridrestore.heuristics import (MAX_PARTITION, brute_force_optimal,
                                    rad, rrr, util_order)
from gridrestore.milp import MipSolution, SolveOptions, solve_mip
from gridrestore.models import (PlanEvaluationError, PowerServedSeries, build_rop,
                                energized_lines, evaluate_plan, extract_plan,
                                plan_to_assignment)
from gridrestore.network import (Bus, DamageScenario, Generator, Line, Load,
                                 Network, PeriodSchedule, RestorationPlan, build_schedule,
                                 parse_case, random_damage)
from gridrestore.postprocess import monotonize, total_energy
import oracles
from conftest import (CASES_DIR, meshed_network, random_network, random_scenario,
                      tiny3_network)


def plan_energy(net, dmg, plan):
    sched = build_schedule(len(dmg.damaged_lines), plan.n_periods)
    series = evaluate_plan(net, dmg, plan, sched)
    mono, _ = monotonize(series, plan)
    return total_energy(mono)


def real_solver(art, opts):
    return solve_mip(art.program, opts)


def failing_solver(art, opts):
    return MipSolution(status="failure")


def delaying_solver(art, opts):
    """Every line in the last period: the first half of a split is empty."""
    assign = {art.z[(lid, 1)]: 0 for lid in art.damage.damaged_lines}
    return MipSolution(status="optimal_within_gap", objective_value=0.0, assignment=assign)


def identity_solver(art, opts):
    """Optimal-status answer that orders the lines by id."""
    plan = RestorationPlan.from_lists([[lid] for lid in sorted(art.damage.damaged_lines)])
    return MipSolution(status="optimal_within_gap", objective_value=0.0,
                       assignment=plan_to_assignment(art, plan))


def swapping_solver(art, opts):
    """Optimal-status answer that orders the lines by id, the first two swapped."""
    order = sorted(art.damage.damaged_lines)
    order[:2] = order[1::-1]
    plan = RestorationPlan.from_lists([[lid] for lid in order])
    return MipSolution(status="optimal_within_gap", objective_value=0.0,
                       assignment=plan_to_assignment(art, plan))


def recorded(solver):
    """A ``rop_solver`` running ``solver`` and the list of its sub-solves.

    Each sub-solve appends its (artifacts, solution, options).
    """
    calls = []

    def seam(art, opts):
        sol = solver(art, opts)
        calls.append((art, sol, opts))
        return sol

    return seam, calls


def sorted_plan(dmg):
    return RestorationPlan.from_lists([[lid] for lid in sorted(dmg.damaged_lines)])


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
        plan = rrr(tiny3, DamageScenario((3,)), SolveOptions(time_limit=5))
        assert plan.periods == (frozenset({3}),)

    def test_finds_better_order_than_capacity(self, tiny3):
        dmg = DamageScenario((1, 2))
        plan = rrr(tiny3, dmg, SolveOptions(time_limit=20, rel_gap=0.0))
        assert plan.ordered_lines() == [1, 2]  # enumeration optimum

    def test_zero_budget_equals_util(self):
        for seed in range(5):
            net, dmg = random_scenario(seed)
            plan = rrr(net, dmg, SolveOptions(time_limit=1e-9))
            assert plan == util_order(net, dmg)

    def test_failing_solver_still_partitions(self):
        for seed in range(5):
            net, dmg = random_scenario(seed)
            seam, calls = recorded(failing_solver)
            plan = rrr(net, dmg, SolveOptions(time_limit=5), rop_solver=seam)
            plan.validate_against(dmg)
            # every split falls back to halving its capacity order: n - 1
            # splits, whose halves recurse to the capacity order itself
            assert len(calls) == len(dmg.damaged_lines) - 1
            assert plan == util_order(net, dmg)

    def test_empty_first_split_returns_capacity_order(self):
        net, dmg = random_scenario(3)
        seam, calls = recorded(delaying_solver)
        plan = rrr(net, dmg, SolveOptions(time_limit=5), rop_solver=seam)
        assert len(calls) == 1  # no recursion below an empty first half
        assert plan == util_order(net, dmg)

    def test_subsolve_instrumentation_bounds(self):
        for seed in range(5):
            net, dmg = random_scenario(seed)
            n = len(dmg.damaged_lines)
            seam, calls = recorded(real_solver)
            rrr(net, dmg, SolveOptions(time_limit=30, rel_gap=0.0), rop_solver=seam)
            assert 1 <= len(calls) <= 2 * n - 1
            assert max(len(art.program.binary_vars) for art, _, _ in calls) <= 2 * n
            # a split's second period has no binaries: one per line of the split
            assert all(len(art.program.binary_vars) == len(art.damage.damaged_lines)
                       for art, _, _ in calls)

    def test_capacity_order_only_on_fallback(self, monkeypatch):
        util_calls = []

        def counting(net, dmg):
            util_calls.append(dmg)
            return util_order(net, dmg)

        monkeypatch.setattr(gridrestore.heuristics, "util_order", counting)
        # every split has an incumbent with a nonempty first half
        net, dmg = random_scenario(6)
        seam, calls = recorded(real_solver)
        rrr(net, dmg, SolveOptions(time_limit=30, rel_gap=0.0), rop_solver=seam)
        assert len(calls) == 2
        assert all(extract_plan(art, sol).periods[0] for art, sol, _ in calls)
        assert util_calls == []
        # one empty first half at the top
        seam, calls = recorded(delaying_solver)
        rrr(net, dmg, SolveOptions(time_limit=5), rop_solver=seam)
        assert len(util_calls) == len(calls) == 1
        # one fallback per split
        for seed in range(5):
            net, dmg = random_scenario(seed)
            util_calls.clear()
            seam, calls = recorded(failing_solver)
            rrr(net, dmg, SolveOptions(time_limit=5), rop_solver=seam)
            assert len(util_calls) == len(calls) == len(dmg.damaged_lines) - 1


    def test_splits_run_without_the_later_lines(self):
        # every split puts the lower half of its sorted lines first, so the
        # recursion is known: each split is solved on the grid without the
        # lines ordered after its set
        net = random_network(7, n_buses=8, n_lines=12)
        dmg = DamageScenario(tuple(l.id for l in net.lines[:8]))

        def halving(art, opts):
            ids = sorted(art.damage.damaged_lines)
            half = len(ids) // 2
            plan = RestorationPlan.from_lists([ids[:half], ids[half:]])
            return MipSolution(status="optimal_within_gap", objective_value=0.0,
                               assignment=plan_to_assignment(art, plan))

        seam, calls = recorded(halving)
        plan = rrr(net, dmg, SolveOptions(time_limit=30), rop_solver=seam)
        assert plan == sorted_plan(dmg)
        seen = {frozenset(art.damage.damaged_lines): art.out for art, _, _ in calls}
        a, b, c, d, e, f, g, h = sorted(dmg.damaged_lines)
        assert seen == {
            frozenset({a, b, c, d, e, f, g, h}): frozenset(),
            frozenset({a, b, c, d}): frozenset({e, f, g, h}),
            frozenset({a, b}): frozenset({c, d, e, f, g, h}),
            frozenset({c, d}): frozenset({e, f, g, h}),
            frozenset({e, f, g, h}): frozenset(),
            frozenset({e, f}): frozenset({g, h}),
            frozenset({g, h}): frozenset(),
        }
        # one network for every split: the later lines are out, not copied away
        assert all(art.network is net for art, _, _ in calls)

    def test_real_splits_take_the_later_lines_out(self):
        # half the lines damaged, so that both halves of a split recurse
        checked = [0, 0]
        for seed in (3, 5):
            net = meshed_network(seed, 12)
            dmg = random_damage(net, 0.5, seed)
            seam, calls = recorded(real_solver)
            rrr(net, dmg, SolveOptions(time_limit=60, rel_gap=0.0), rop_solver=seam)
            # the top split has no line out
            assert calls[0][0].out == frozenset()
            outs = {frozenset(art.damage.damaged_lines): art.out for art, _, _ in calls}
            for art, sol, _ in calls:
                first, second = (frozenset(p) for p in extract_plan(art, sol).periods)
                parent = outs[frozenset(art.damage.damaged_lines)]
                if len(first) > 1:
                    # the first half has its later lines out as well
                    assert outs[first] == parent | second
                    checked[0] += 1
                if first and len(second) > 1:
                    # the second half keeps the first half's lines in
                    assert outs[second] == parent
                    checked[1] += 1
        assert min(checked) > 0

    def test_one_period_lp_per_call(self, meshed_scenarios, monkeypatch):
        # every split's final period and base are topologies of one shared
        # period LP, built once per call; none solves cold
        real_solve = gridrestore.lp.solve_lp
        real_standard_form = gridrestore.models.standard_form
        lps, forms = [], []

        def counting(lp, *args, **kwargs):
            form = kwargs["form"]
            lps.append((lp, kwargs.get("start"), (form.lower.tobytes(), form.upper.tobytes())))
            return real_solve(lp, *args, **kwargs)

        def counting_forms(lp):
            forms.append(lp)
            return real_standard_form(lp)

        monkeypatch.setattr(gridrestore.lp, "solve_lp", counting)
        monkeypatch.setattr(gridrestore.models, "standard_form", counting_forms)
        for net, dmg in meshed_scenarios:
            lps.clear()
            forms.clear()
            seam, calls = recorded(real_solver)
            rrr(net, dmg, SolveOptions(time_limit=60, rel_gap=0.0), rop_solver=seam)
            assert len(forms) == 1 and calls
            assert {id(lp) for lp, _, _ in lps} == {id(forms[0])}
            # at most a base per split and a final period per set of lines
            # out, and no topology twice
            finals = {art.out for art, _, _ in calls}
            assert len(lps) <= len(calls) + len(finals)
            assert len({bounds for _, _, bounds in lps}) == len(lps)
            assert all(start is not None for _, start, _ in lps)

    @pytest.mark.parametrize("algo", [rrr, rad])
    def test_memo_is_freed_without_a_cycle_collection(self, meshed_scenarios, algo):
        # the memo holds every topology's basis and inverse: once the caller
        # drops it, reference counting alone must free it
        net, dmg = meshed_scenarios[1]
        memo = {}
        gc.collect()
        gc.disable()
        try:
            algo(net, dmg, SolveOptions(time_limit=60, rel_gap=0.0), memo=memo)
            periods = weakref.ref(memo["periods"])
            del memo
            assert periods() is None
        finally:
            gc.enable()


def stall_limit(monkeypatch, rounds):
    monkeypatch.setattr(gridrestore.heuristics, "STALL_LIMIT", rounds)


class TestBudget:
    """``rrr`` and ``rad`` take their budget as a ``SolveOptions``."""

    @pytest.mark.parametrize("field, value", [
        ("time_limit", 0.0), ("time_limit", -1.0), ("time_limit", float("nan")),
        ("rel_gap", 1.0), ("rel_gap", 1.5), ("rel_gap", -0.5), ("rel_gap", float("nan"))])
    def test_rejects_bad_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolveOptions(**{field: value})

    def test_accepts_the_range_ends(self, tiny3, monkeypatch):
        opts = SolveOptions(time_limit=float("inf"), rel_gap=0.0)
        dmg = DamageScenario((1, 2))
        assert rrr(tiny3, dmg, opts).ordered_lines() == [1, 2]  # enumeration optimum
        stall_limit(monkeypatch, 2)
        rad(tiny3, dmg, opts).validate_against(dmg)


class TestRad:
    def test_stall_limit_zero_is_identity(self, tiny3, monkeypatch):
        dmg = DamageScenario((1, 2, 3))
        initial = util_order(tiny3, dmg)
        stall_limit(monkeypatch, 0)
        plan = rad(tiny3, dmg, SolveOptions(time_limit=5), initial=initial)
        assert plan == initial

    def test_two_lines_matches_top_split_objective(self, tiny3, monkeypatch):
        dmg = DamageScenario((1, 2))
        stall_limit(monkeypatch, 2)
        plan = rad(tiny3, dmg, SolveOptions(time_limit=20, rel_gap=0.0))
        art = build_rop(tiny3, dmg, build_schedule(2, 2))
        sol = solve_mip(art.program, SolveOptions(time_limit=20, rel_gap=0.0))
        assert plan_energy(tiny3, dmg, plan) == pytest.approx(
            sol.objective_value, abs=1e-6)

    def test_never_degrades(self, monkeypatch):
        stall_limit(monkeypatch, 2)
        for seed in range(5):
            net, dmg = random_scenario(seed)
            initial = util_order(net, dmg)
            before = plan_energy(net, dmg, initial)
            plan = rad(net, dmg, SolveOptions(time_limit=2), initial=initial, seed=seed)
            plan.validate_against(dmg)
            assert plan_energy(net, dmg, plan) >= before - 1e-9

    # raw power served by each ordering of tiny3's lines, one per period
    RAW = {(1, 2, 3): (4.0, 0.0, 5.0), (2, 1, 3): (1.0, 4.0, 5.0)}

    def fake_evaluations(self, monkeypatch, fail=lambda seen: False):
        """Replace rad's evaluation by ``RAW``; an evaluation raises when
        ``fail`` holds for the orderings evaluated so far, this one last.
        Returns the orderings evaluated."""
        seen = []

        def evaluate(network, damage, plan, schedule, memo=None):
            seen.append(tuple(plan.ordered_lines()))
            if fail(seen):
                raise PlanEvaluationError(1, "numerical_failure")
            return PowerServedSeries(self.RAW[seen[-1]], tuple(schedule.delta))

        monkeypatch.setattr(gridrestore.heuristics, "evaluate_plan", evaluate)
        return seen

    def test_safeguard_returns_the_initial_plan(self, tiny3, monkeypatch):
        # swapping lines 1 and 2 raises the first block's raw energy (4 -> 5
        # over two periods, or 9 -> 10 over three), so the search takes the
        # swap, but the monotonized total falls from 4 + 4 + 5 = 13 to
        # 1 + 4 + 5 = 10
        dmg = DamageScenario((1, 2, 3))
        seen = self.fake_evaluations(monkeypatch)
        stall_limit(monkeypatch, 2)
        initial = sorted_plan(dmg)
        plan = rad(tiny3, dmg, SolveOptions(time_limit=60), initial=initial,
                   rop_solver=swapping_solver)
        assert seen[-2:] == [(1, 2, 3), (2, 1, 3)]  # the initial plan, the search's
        assert plan == initial

    def test_safeguard_scores_a_lumped_initial_by_its_ordering(self, tiny3, monkeypatch):
        # the lumped initial plan is scored as its ordering over the
        # search's one-line periods: 4 + 4 + 5 = 13 beats the search's 10
        dmg = DamageScenario((1, 2, 3))
        seen = self.fake_evaluations(monkeypatch)
        stall_limit(monkeypatch, 2)
        initial = RestorationPlan.from_lists([[1, 2], [3]])
        plan = rad(tiny3, dmg, SolveOptions(time_limit=60), initial=initial,
                   rop_solver=swapping_solver)
        assert seen[-2:] == [(1, 2, 3), (2, 1, 3)]
        assert plan == initial

    def test_safeguard_that_cannot_evaluate_keeps_the_search_result(self, tiny3,
                                                                    monkeypatch):
        # the search evaluates the initial ordering (1, 2, 3) once, before it
        # takes the swap; the safeguard's second evaluation of it raises, so
        # the comparison, which the initial plan would win, is skipped and
        # the search's ordering stands
        dmg = DamageScenario((1, 2, 3))
        self.fake_evaluations(monkeypatch, fail=lambda seen: seen.count((1, 2, 3)) == 2)
        stall_limit(monkeypatch, 2)
        plan = rad(tiny3, dmg, SolveOptions(time_limit=60),
                   initial=RestorationPlan.from_lists([[1, 2], [3]]),
                   rop_solver=swapping_solver)
        assert plan == RestorationPlan.from_lists([[2], [1], [3]])

    def test_one_memo_per_call(self, meshed_scenarios, monkeypatch):
        net, dmg = meshed_scenarios[3]
        real_solve = gridrestore.lp.solve_lp
        real_standard_form = gridrestore.models.standard_form
        real_solve_mip = gridrestore.heuristics.solve_mip
        calls, forms, mips = [], [], []

        def counting(lp, *args, **kwargs):
            calls.append(kwargs.get("start"))
            return real_solve(lp, *args, **kwargs)

        def counting_forms(lp):
            forms.append(lp)
            return real_standard_form(lp)

        def counting_mips(mip, opts):
            mips.append(mip)
            return real_solve_mip(mip, opts)

        def run():
            calls.clear()
            forms.clear()
            mips.clear()
            return rad(net, dmg, SolveOptions(time_limit=300), seed=3)

        topologies = set()

        def recording(network, damage, plan, schedule, memo=None):
            # every evaluation is of the full network and damage
            assert network is net and damage == dmg
            topologies.update(energized_lines(network, damage, plan, k)
                              for k in range(1, schedule.n_periods + 1))
            return evaluate_plan(network, damage, plan, schedule, memo=memo)

        stall_limit(monkeypatch, 3)
        monkeypatch.setattr(gridrestore.lp, "solve_lp", counting)
        monkeypatch.setattr(gridrestore.models, "standard_form", counting_forms)
        monkeypatch.setattr(gridrestore.heuristics, "evaluate_plan", recording)
        monkeypatch.setattr(gridrestore.heuristics, "solve_mip", counting_mips)
        plan = run()
        # one shared LP and one base, the undamaged lines alone, which no
        # period has and which solves from its crash basis; every other LP
        # solves one topology from that base.
        # A sub-solve's final period is a period the evaluation of the
        # current ordering has solved, so its ordering MILP adds no LP.
        base = frozenset(ln.id for ln in net.lines) - set(dmg.damaged_lines)
        assert base not in topologies
        assert len(forms) == 1
        assert mips
        assert None not in calls
        assert len(calls) == len(topologies) + 1

        def no_memo(*args, memo=None):
            return evaluate_plan(*args)

        monkeypatch.setattr(gridrestore.heuristics, "evaluate_plan", no_memo)
        ref_plan = run()
        assert plan == ref_plan
        assert len(forms) > 1 and len(calls) > len(topologies) + 1

    def test_time_doubling_adaptation(self, monkeypatch):
        net, dmg = random_scenario(2)
        seam, calls = recorded(failing_solver)
        stall_limit(monkeypatch, 3)
        rad(net, dmg, SolveOptions(time_limit=5), rop_solver=seam)
        limits = [opts.time_limit for _, _, opts in calls]
        assert max(limits[1:]) >= 2 * limits[0]

    def test_limits_stay_within_the_budget(self, monkeypatch):
        # every sub-MILP fails, so the limit doubles each round; it must
        # still never exceed the time left. The clock advances 10 ms a read.
        with open(os.path.join(CASES_DIR, "mesh12.m")) as f:
            net = parse_case(f.read())
        dmg = random_damage(net, 0.5, 0)
        reads = [1000.0]

        def clock():
            reads.append(reads[-1] + 0.01)
            return reads[-1]

        monkeypatch.setattr(gridrestore.heuristics, "time", SimpleNamespace(monotonic=clock))
        seen = []

        def seam(art, opts):
            seen.append((opts.time_limit, reads[-1]))
            return failing_solver(art, opts)

        rad(net, dmg, SolveOptions(time_limit=2), rop_solver=seam)
        deadline = reads[1] + 2  # rad's first read plus its budget
        assert len(seen) > 10
        assert max(limit for limit, _ in seen) > 0.1  # the limit has doubled
        for limit, now in seen:
            assert 0 < limit <= deadline - now

    def test_partition_size_growth_adaptation(self, monkeypatch):
        # 12 lines, so the block-size cap can grow past 5 up to n // 2 = 6;
        # the identity answer never improves a block, so every round adapts
        net = random_network(7, n_buses=8, n_lines=12)
        dmg = DamageScenario(tuple(l.id for l in net.lines))
        stall_limit(monkeypatch, 6)
        seam, calls = recorded(identity_solver)
        rad(net, dmg, SolveOptions(time_limit=60), initial=sorted_plan(dmg), rop_solver=seam)
        sizes = [len(art.damage.damaged_lines) for art, _, _ in calls]
        assert max(sizes) > MAX_PARTITION

    def test_growth_never_shrinks_the_block_size_cap(self, monkeypatch):
        # n = 4 < 2 * max_partition: a growth step must keep the cap at 5,
        # not cut it to n // 2 = 2
        net, dmg = random_scenario(2)
        assert len(dmg.damaged_lines) == 4
        initial = sorted_plan(dmg)
        seam, calls = recorded(identity_solver)
        stall_limit(monkeypatch, 6)
        rad(net, dmg, SolveOptions(time_limit=60), initial=initial, rop_solver=seam)
        # each round's first block holds the first line, and every round
        # adapts: the identity answer never improves a block
        first = initial.ordered_lines()[0]
        starts = [i for i, (art, _, _) in enumerate(calls)
                  if first in art.damage.damaged_lines]
        assert len(starts) == 6
        assert max(len(art.damage.damaged_lines) for art, _, _ in calls[starts[1]:]) > 2


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

    def test_schedule_must_restore_every_line(self, tiny3):
        with pytest.raises(ValueError, match="final repair budget"):
            brute_force_optimal(tiny3, DamageScenario((1, 2)), build_schedule(3, 3))

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
        # one LP per topology and one for the base, the undamaged lines alone,
        # which is no period here
        assert energized_lines(net, dmg, plans[0], 0) not in topologies
        assert len(calls) == len(topologies) + 1

        def no_memo(*args, memo=None):
            return evaluate_plan(*args)

        # the oracle walks its plans through the memo itself: the reference
        # enumeration, memo-less, evaluates every plan from the base
        monkeypatch.setattr(oracles, "evaluate_plan", no_memo)
        calls.clear()
        ref_plan, ref_energy = oracles.brute_force_reference(net, dmg, sched)
        assert len(calls) > len(topologies)
        assert plan.periods == ref_plan.periods
        assert energy == ref_energy

    @staticmethod
    def _assert_matches_reference(monkeypatch, net, dmg, sched):
        """The oracle and ``oracles.brute_force_reference`` pick the same
        plan with the same energy (``==``) through the same sequence of
        period LP solves: bounds, start and objective. Returns the plan."""
        real_solve = gridrestore.lp.solve_lp
        runs = []
        for oracle in (brute_force_optimal, oracles.brute_force_reference):
            calls = []

            def recording(lp, *args, form, start, **kwargs):
                sol = real_solve(lp, *args, form=form, start=start, **kwargs)
                calls.append((form.lower.tobytes(), form.upper.tobytes(),
                              None if start is None else start.status.tobytes(),
                              sol.objective_value))
                return sol

            monkeypatch.setattr(gridrestore.lp, "solve_lp", recording)
            runs.append((*oracle(net, dmg, sched), calls))
        (plan, energy, calls), (ref_plan, ref_energy, ref_calls) = runs
        assert plan.periods == ref_plan.periods
        assert energy == ref_energy
        assert calls == ref_calls
        return plan

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_reference_enumeration(self, monkeypatch, seed):
        # meshed grids of 10-20 buses with 0-7 damaged lines, under the full
        # schedule, one period, and a random schedule, which may lump lines
        # or leave periods empty
        rng = random.Random(seed)
        net = meshed_network(seed, rng.randint(10, 20))
        n = seed % 8
        dmg = DamageScenario(tuple(sorted(rng.sample([l.id for l in net.lines], n))))
        for n_periods in sorted({max(n, 1), 1, rng.randint(1, n + 2)}):
            self._assert_matches_reference(monkeypatch, net, dmg,
                                           build_schedule(n, n_periods))

    @pytest.mark.parametrize("n_periods", [7, 3, 1])
    def test_matches_reference_at_the_cap(self, monkeypatch, n_periods):
        # 40% of mesh12.m's lines is 7, the most the oracle enumerates
        with open(os.path.join(CASES_DIR, "mesh12.m")) as f:
            net = parse_case(f.read())
        dmg = random_damage(net, 0.4, 1)
        assert len(dmg.damaged_lines) == 7
        plan = self._assert_matches_reference(monkeypatch, net, dmg,
                                              build_schedule(7, n_periods))
        assert plan.n_periods == n_periods

    @pytest.mark.parametrize("n_periods", [1, 3])
    def test_matches_reference_without_damage(self, monkeypatch, n_periods):
        # every period is the base topology
        plan = self._assert_matches_reference(monkeypatch, meshed_network(1, 12),
                                              DamageScenario(()),
                                              build_schedule(0, n_periods))
        assert plan.periods == (frozenset(),) * n_periods

    def test_matches_reference_with_empty_periods(self, monkeypatch):
        # periods 1 and 3 restore nothing, the first leaving the base
        # topology in place, and the periods last unequal times
        net = meshed_network(3, 12)
        dmg = random_damage(net, 0.25, 3)
        assert len(dmg.damaged_lines) == 4
        sched = PeriodSchedule(5, (0.5, 1.0, 2.0, 1.5, 1.0), (0, 2, 2, 3, 4))
        self._assert_matches_reference(monkeypatch, net, dmg, sched)

    def test_matches_reference_when_every_plan_ties(self, monkeypatch):
        # line 1 alone feeds the load in full. Lines 3 and 5 are each a dead
        # end alone, but together they close a stiff loop on which the tight
        # line 5 caps the flow, with line 4 in or out. Every plan serves the
        # full load in its first period, so the post-processed energies all
        # tie; a plan that restores 3 and 5 before 4 dips and defers its
        # later lines, and the key picks the second ordering, 3-5-4, over
        # the first, 3-4-5
        net = Network(buses=(Bus(1), Bus(2), Bus(3)),
                      lines=(Line(1, 1, 2, -10.0, 2.0), Line(3, 1, 3, -100.0, 2.0),
                             Line(4, 1, 2, -10.0, 2.0), Line(5, 3, 2, -100.0, 0.05)),
                      generators=(Generator(1, 1, 2.0),), loads=(Load(1, 2, 1.0),))
        dmg = DamageScenario((3, 4, 5))
        sched = build_schedule(3, 3)
        energies = {plan_energy(net, dmg, RestorationPlan.from_lists([[a], [b], [c]]))
                    for a, b, c in itertools.permutations((3, 4, 5))}
        assert max(energies) - min(energies) <= 1e-9
        plan = self._assert_matches_reference(monkeypatch, net, dmg, sched)
        assert plan.periods == (frozenset({3}), frozenset(), frozenset({4, 5}))

    def test_symmetric_parallel_lines(self):
        net = Network(buses=(Bus(1), Bus(2)),
                      lines=(Line(1, 1, 2, -5.0, 0.4), Line(2, 1, 2, -5.0, 0.4)),
                      generators=(Generator(1, 1, 1.0),),
                      loads=(Load(1, 2, 0.8),))
        dmg = DamageScenario((1, 2))
        e1 = plan_energy(net, dmg, RestorationPlan.from_lists([[1], [2]]))
        e2 = plan_energy(net, dmg, RestorationPlan.from_lists([[2], [1]]))
        assert e1 == pytest.approx(e2)
