import dataclasses
import itertools
import random

import numpy as np
import pytest

import gridrestore.lp
import gridrestore.models
from gridrestore.lp import (_AT_LOWER, _AT_UPPER, _BASIC, _FREE, LinearProgram, LpSolution,
                            _dense_columns, _times, basis_inverse, solve_lp, standard_form)
from gridrestore.heuristics import util_order
from gridrestore.milp import SolveOptions, _with_fixes, solve_mip
from gridrestore.models import (PlanEvaluationError, PlanExtractionError, _period_dcopf,
                                _Periods, _reference_buses, build_rip, build_rop,
                                energized_lines, evaluate_plan, extract_plan,
                                plan_to_assignment, scored_warm_start)
from gridrestore.milp import MipSolution
from gridrestore.network import (Bus, DamageScenario, Generator, Line, Load,
                                 Network, PeriodSchedule, RestorationPlan, build_schedule,
                                 random_damage)
from gridrestore.postprocess import total_energy
from conftest import (energizes_every_line, meshed_network, random_network, random_scenario,
                      tiny3_network)
from oracles import fix_plan_in_rop, subnetwork_without


def highs_milp(mip, relax=False):
    """Optimum of the MILP, or with ``relax`` of its LP relaxation, by
    SciPy's HiGHS ``milp``."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    lp = mip.base
    n = len(lp.variables)
    sign = -1.0 if lp.objective_sense == "maximize" else 1.0
    c = np.zeros(n)
    for j, coef in lp.objective_terms:
        c[j] += sign * coef
    A = np.zeros((len(lp.constraints), n))
    lo = np.full(len(lp.constraints), -np.inf)
    hi = np.full(len(lp.constraints), np.inf)
    for i, con in enumerate(lp.constraints):
        for j, coef in con.terms:
            A[i, j] += coef
        if con.relation != "<=":
            lo[i] = con.rhs
        if con.relation != ">=":
            hi[i] = con.rhs
    integrality = np.zeros(n)
    integrality[sorted(mip.binary_vars)] = 0 if relax else 1
    res = milp(c, constraints=[LinearConstraint(A, lo, hi)] if len(A) else None,
               integrality=integrality,
               bounds=Bounds([v.lower for v in lp.variables], [v.upper for v in lp.variables]),
               options={"mip_rel_gap": 0.0})
    assert res.status == 0, res.message
    return sign * res.fun


def tiny3_damage12():
    return tiny3_network(), DamageScenario((1, 2))


def cold_period(network, live):
    """Optimum of the period LP over the lines ``live`` alone, solved cold."""
    lp = LinearProgram()
    _period_dcopf(lp, network, live, _reference_buses(network))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    return sol.objective_value


def order_plans(damage):
    """One line per period in order and reversed, and the order after an
    empty first period, which is the base topology."""
    order = list(damage.damaged_lines)
    n = len(order)
    return [(RestorationPlan.from_lists([[lid] for lid in order]), build_schedule(n, n)),
            (RestorationPlan.from_lists([[lid] for lid in reversed(order)]),
             build_schedule(n, n)),
            (RestorationPlan.from_lists([[]] + [[lid] for lid in order]),
             build_schedule(n, n + 1))]


class TestRip:
    def test_variable_count(self):
        net, dmg = tiny3_damage12()
        plan = RestorationPlan.from_lists([[1], [2]])
        sched = build_schedule(2, 2)
        lp = build_rip(net, dmg, plan, sched)
        # per period: gens + energized lines + loads + buses
        expected = (1 + 2 + 2 + 3) + (1 + 3 + 2 + 3)
        assert len(lp.variables) == expected

    def test_energized_sets(self):
        net, dmg = tiny3_damage12()
        plan = RestorationPlan.from_lists([[2], [1]])
        assert energized_lines(net, dmg, plan, 0) == {3}
        assert energized_lines(net, dmg, plan, 1) == {2, 3}
        assert energized_lines(net, dmg, plan, 2) == {1, 2, 3}

    def test_order_changes_energy(self):
        net, dmg = tiny3_damage12()
        sched = build_schedule(2, 2)
        first = evaluate_plan(net, dmg, RestorationPlan.from_lists([[1], [2]]), sched)
        second = evaluate_plan(net, dmg, RestorationPlan.from_lists([[2], [1]]), sched)
        e1 = sum(d * t for d, t in zip(first.delivered, first.durations))
        e2 = sum(d * t for d, t in zip(second.delivered, second.durations))
        assert e1 == pytest.approx(2.8)
        assert e2 == pytest.approx(2.4)
        assert e1 > e2

    def test_final_period_serves_all(self):
        net, dmg = tiny3_damage12()
        series = evaluate_plan(net, dmg, RestorationPlan.from_lists([[2], [1]]),
                               build_schedule(2, 2))
        assert series.delivered[-1] == pytest.approx(net.total_demand)

    def test_delivered_bounded_by_generation(self):
        for seed in range(5):
            net, dmg = random_scenario(seed)
            n = len(dmg.damaged_lines)
            plan = RestorationPlan.from_lists([[lid] for lid in dmg.damaged_lines])
            series = evaluate_plan(net, dmg, plan, build_schedule(n, n))
            cap = sum(g.p_max for g in net.generators)
            for d in series.delivered:
                assert d <= cap + 1e-7
                assert d <= net.total_demand + 1e-7

    def test_isolated_buses_serve_colocated(self):
        # gen+load on bus 1, load alone on bus 2, every line damaged
        net = Network(buses=(Bus(1), Bus(2)),
                      lines=(Line(1, 1, 2, -5.0, 1.0),),
                      generators=(Generator(1, 1, 0.4),),
                      loads=(Load(1, 1, 0.7), Load(2, 2, 0.5)))
        dmg = DamageScenario((1,))
        series = evaluate_plan(net, dmg, RestorationPlan.from_lists([[], [1]]),
                               build_schedule(1, 2))
        assert series.delivered[0] == pytest.approx(min(0.4, 0.7))

    def test_periods_sum_to_monolith_on_meshed_grids(self, meshed_scenarios):
        for net, dmg in meshed_scenarios:
            n = len(dmg.damaged_lines)
            order = list(dmg.damaged_lines)
            plans = [([[lid] for lid in order], build_schedule(n, n)),
                     ([[lid] for lid in reversed(order)], build_schedule(n, n)),
                     ([order[:2], order[2:]], build_schedule(n, 2))]
            for periods, sched in plans:
                plan = RestorationPlan.from_lists(periods)
                series = evaluate_plan(net, dmg, plan, sched)
                energy = sum(d * t for d, t in zip(series.delivered, series.durations))
                mono = solve_lp(build_rip(net, dmg, plan, sched))
                assert mono.status == "optimal"
                assert energy == pytest.approx(mono.objective_value, rel=1e-9)

    def test_memo_reuses_topologies(self, meshed_scenarios, monkeypatch):
        net, dmg = meshed_scenarios[1]
        n = len(dmg.damaged_lines)
        sched = build_schedule(n, n)
        plans = [RestorationPlan.from_lists([[lid] for lid in perm])
                 for perm in itertools.permutations(dmg.damaged_lines)]
        lps = []

        def counting(lp, *args, **kwargs):
            lps.append(lp)
            return solve_lp(lp, *args, **kwargs)

        monkeypatch.setattr(gridrestore.lp, "solve_lp", counting)
        memo: dict = {}
        for plan in plans:
            with_memo = evaluate_plan(net, dmg, plan, sched, memo=memo)
            fresh = evaluate_plan(net, dmg, plan, sched)
            # a memoized topology was solved from the period before it in
            # the first plan that reached it: equal up to the last bits
            assert with_memo.delivered == pytest.approx(fresh.delivered, rel=1e-12, abs=1e-12)
            assert with_memo.durations == fresh.durations
        topologies = {energized_lines(net, dmg, p, k) for p in plans
                      for k in range(1, n + 1)}
        # the base topology, the undamaged lines alone, is no period here
        base = energized_lines(net, dmg, plans[0], 0)
        assert base not in topologies
        assert set(memo["periods"].served) == topologies | {base}
        # one LP per topology and one for the base; each call without a memo
        # solves its n periods and a base of its own
        assert len(lps) == len(topologies) + 1 + (n + 1) * len(plans)
        # the same plans into another fresh memo: the same bits
        again: dict = {}
        for plan in plans:
            assert (evaluate_plan(net, dmg, plan, sched, memo=again)
                    == evaluate_plan(net, dmg, plan, sched, memo=memo))
        assert again["periods"].served == memo["periods"].served

    def test_non_optimal_period_names_period(self, monkeypatch):
        net, dmg = tiny3_damage12()
        plan = RestorationPlan.from_lists([[1], [2]])
        period_2 = energized_lines(net, dmg, plan, 2)
        failed = []

        def fail_period_2(lp, *args, **kwargs):
            # the lines of the solved topology are those whose flow is not fixed at 0
            col = {v.name: j for j, v in enumerate(lp.variables)}
            live = {ln.id for ln in net.lines if kwargs["form"].upper[col[f"PL{ln.id}"]] > 0}
            if live == period_2:
                failed.append(lp)
                return LpSolution("numerical_failure", float("nan"), None)
            return solve_lp(lp, *args, **kwargs)

        monkeypatch.setattr(gridrestore.lp, "solve_lp", fail_period_2)
        with pytest.raises(PlanEvaluationError, match="period 2") as err:
            evaluate_plan(net, dmg, plan, build_schedule(2, 2))
        assert err.value.status == "numerical_failure"
        assert len(failed) == 1

    def test_shared_form_matches_cold_period_lps(self, meshed_scenarios):
        # tree grids with parallel duplicates, where a line out can island a
        # subtree; tiny3 with every line out, where every bus is an island;
        # and meshed grids
        scenarios = [random_scenario(seed) for seed in range(8)]
        scenarios += [tiny3_damage12(), (tiny3_network(), DamageScenario((1, 2, 3)))]
        for net, dmg in scenarios + meshed_scenarios:
            memo: dict = {}
            for plan, sched in order_plans(dmg):
                series = evaluate_plan(net, dmg, plan, sched, memo=memo)
                for k, delivered in enumerate(series.delivered, start=1):
                    live = energized_lines(net, dmg, plan, k)
                    assert delivered == pytest.approx(cold_period(net, live),
                                                      rel=1e-9, abs=1e-9)

    def test_each_miss_starts_from_the_period_before(self, meshed_scenarios, monkeypatch):
        net, dmg = meshed_scenarios[1]
        calls, inverses = [], []
        real_inverse = gridrestore.lp.basis_inverse

        def recording(lp, *args, **kwargs):
            sol = solve_lp(lp, *args, **kwargs)
            calls.append((kwargs.get("start"), sol))
            return sol

        def counting(form, columns):
            inverses.append(columns)
            return real_inverse(form, columns)

        monkeypatch.setattr(gridrestore.lp, "solve_lp", recording)
        monkeypatch.setattr(gridrestore.lp, "basis_inverse", counting)
        memo: dict = {}
        solved = {}  # topology -> (start, solution) of its one solve
        firsts = laters = 0
        for plan, sched in order_plans(dmg):
            done = len(calls)
            evaluate_plan(net, dmg, plan, sched, memo=memo)
            # the base, then each period, in order; a topology solved once
            chain = [energized_lines(net, dmg, plan, k) for k in range(plan.n_periods + 1)]
            new = [live for live in dict.fromkeys(chain) if live not in solved]
            assert len(calls) - done == len(new)
            solved.update(zip(new, calls[done:]))
            for k, (prev, live) in enumerate(zip(chain, chain[1:]), start=1):
                if live in new:
                    # a miss copies the optimal basis of the period before,
                    # the base's for period 1, with the inverse it carries
                    assert solved[live][0] is solved[prev][1].basis
                    firsts, laters = firsts + (k == 1), laters + (k > 1)
        assert firsts == 2 and laters == 2 * len(dmg.damaged_lines) - 3
        undamaged = frozenset(ln.id for ln in net.lines) - set(dmg.damaged_lines)
        base_start, base = solved.pop(undamaged)
        assert calls[0][0] is base_start and calls[0][1] is base
        # the base solves from its crash basis, which inverts itself once
        crash = memo["periods"].crash(undamaged)
        np.testing.assert_array_equal(base_start.columns, crash.columns)
        np.testing.assert_array_equal(base_start.status, crash.status)
        assert base.status == "optimal"
        assert len(inverses) == 1
        np.testing.assert_array_equal(inverses[0], crash.columns)
        assert len(solved) == 2 * len(dmg.damaged_lines) - 1
        # every start carries the inverse of the solve that ended at it for
        # the shared matrix: no miss inverts a basis
        for start, sol in solved.values():
            assert sol.status == "optimal"
            start.inverse(memo["periods"].form)
        assert len(inverses) == 1
        # the base solve is memoized as the base topology's result
        assert memo["periods"].served[undamaged] == pytest.approx(base.objective_value, rel=1e-12)

    def test_one_form_per_line_set_and_memo(self, meshed_scenarios, monkeypatch):
        net, dmg = meshed_scenarios[2]
        built, forms = [], []
        real_standard_form = gridrestore.models.standard_form

        def counting(lp):
            built.append(lp)
            return real_standard_form(lp)

        def recording(lp, *args, **kwargs):
            forms.append((lp, kwargs["form"]))
            return solve_lp(lp, *args, **kwargs)

        monkeypatch.setattr(gridrestore.models, "standard_form", counting)
        monkeypatch.setattr(gridrestore.lp, "solve_lp", recording)
        memo: dict = {}
        for plan, sched in order_plans(dmg):
            evaluate_plan(net, dmg, plan, sched, memo=memo)
        assert len(built) == 1
        matrix = forms[0][1]
        assert all(lp is built[0] and form.nz_val is matrix.nz_val
                   and form.col_ptr is matrix.col_ptr for lp, form in forms)
        # an equal copy of the network shares the memo
        twin = Network(buses=net.buses, lines=net.lines, generators=net.generators,
                       loads=net.loads, base_mva=net.base_mva)
        evaluate_plan(twin, dmg, *order_plans(dmg)[1], memo=memo)
        assert len(built) == 1
        # a copy that drops the last damaged line is another network
        last = dmg.damaged_lines[-1]
        sub = Network(buses=net.buses, lines=tuple(l for l in net.lines if l.id != last),
                      generators=net.generators, loads=net.loads, base_mva=net.base_mva)
        sub_dmg = DamageScenario(dmg.damaged_lines[:-1])
        solved = len(forms)
        with pytest.raises(ValueError, match="another network"):
            evaluate_plan(sub, sub_dmg, *order_plans(sub_dmg)[0], memo=memo)
        assert (len(built), len(forms)) == (1, solved)
        # and a fresh memo builds afresh
        evaluate_plan(net, dmg, *order_plans(dmg)[0])
        assert len(built) == 2

    def test_plan_mismatch_rejected(self):
        net, dmg = tiny3_damage12()
        for build in (build_rip, evaluate_plan):
            with pytest.raises(ValueError):
                build(net, dmg, RestorationPlan.from_lists([[1], [3]]),
                      build_schedule(2, 2))
            with pytest.raises(ValueError, match="length"):
                build(net, dmg, RestorationPlan.from_lists([[1], [2]]),
                      build_schedule(2, 3))


def topologies(network, damage):
    """Every topology of a damage scenario: the undamaged lines with each
    subset of the damaged ones back."""
    damaged = damage.damaged_lines
    undamaged = frozenset(ln.id for ln in network.lines) - set(damaged)
    return [undamaged | set(back) for r in range(len(damaged) + 1)
            for back in itertools.combinations(damaged, r)]


class TestCrash:
    @pytest.fixture
    def grids(self, meshed_scenarios):
        # tree grids, meshed grids, and tiny3 at damage 1.0, where the
        # topology with no line makes every bus an island
        return ([random_scenario(seed) for seed in range(6)] + meshed_scenarios
                + [(tiny3_network(), DamageScenario((1, 2, 3)))])

    def test_nonsingular_and_primal_feasible(self, grids):
        for net, dmg in grids:
            shared = _Periods(net)
            for live in topologies(net, dmg):
                form = shared.bounds(live)
                crash = shared.crash(live)
                m = form.b.size
                assert len(set(crash.columns.tolist())) == len(crash.columns) == m
                assert (crash.status[crash.columns] == _BASIC).all()
                assert (crash.status == _BASIC).sum() == m
                B = _dense_columns(form, crash.columns)
                Binv = basis_inverse(form, crash.columns)
                np.testing.assert_allclose(Binv @ B, np.eye(m), atol=1e-9)
                # nonbasic columns at the bound their state names, free ones at 0
                x = np.zeros(form.c.size)
                x[crash.status == _AT_LOWER] = form.lower[crash.status == _AT_LOWER]
                assert not (crash.status == _AT_UPPER).any()
                assert np.isinf(form.lower[crash.status == _FREE]).all()
                x[crash.columns] = 0.0
                x[crash.columns] = Binv @ (form.b - _times(form, x))
                assert np.isfinite(x).all()
                assert (form.lower - 1e-12 <= x).all() and (x <= form.upper + 1e-12).all()
                assert np.abs(_times(form, x) - form.b).max() <= 1e-12

    def test_optimum_is_the_cold_optimum(self, grids, monkeypatch):
        real_slack = gridrestore.lp._Simplex.slack_basis
        colds = []

        def cold(self):
            colds.append(None)
            return real_slack(self)

        monkeypatch.setattr(gridrestore.lp._Simplex, "slack_basis", cold)
        for net, dmg in grids:
            shared = _Periods(net)
            for live in topologies(net, dmg):
                form = shared.bounds(live)
                sol = solve_lp(shared.lp, form=form, start=shared.crash(live))
                assert (sol.status, colds) == ("optimal", [])
                reference = solve_lp(shared.lp, form=form)
                assert reference.status == "optimal"
                assert sol.objective_value == pytest.approx(reference.objective_value,
                                                            rel=0, abs=1e-9)
                assert sol.objective_value == pytest.approx(cold_period(net, live),
                                                            rel=0, abs=1e-9)
                colds.clear()


def lumped_schedule(n):
    """Four periods: nothing in the first, two lines in the second, none
    in the third and the rest in the last."""
    return PeriodSchedule(4, (1.0,) * 4, (0, 2, 2, n))


def schedules(n):
    """One period, two, one per line, and a lumped schedule."""
    return [build_schedule(n, 1), build_schedule(n, 2), build_schedule(n, n),
            lumped_schedule(n)]


def bucketed(order, schedule):
    """The plan restoring ``order`` by the schedule's repair budget."""
    budget = (0,) + schedule.repair_budget
    return RestorationPlan.from_lists([order[budget[k]:budget[k + 1]]
                                       for k in range(schedule.n_periods)])


def assert_primal_feasible_start(art):
    """The ordering MILP's start has one basic column per row, and at its
    point every row and bound holds: nonbasic columns at the bound their
    state names (a free one at 0), basic ones solved from the rows, every
    binary at 0."""
    start, lp = art.program.start, art.program.base
    form = standard_form(lp)
    m, nt = form.b.size, form.c.size
    assert start.columns.shape == (m,) and len(set(start.columns)) == m
    assert (np.flatnonzero(start.status == 0) == np.sort(start.columns)).all()
    A = gridrestore.lp._dense_columns(form, np.arange(nt))
    x = np.zeros(nt)
    nonbasic = start.status != 0
    up = nonbasic & np.isfinite(form.upper) & ((start.status == 2) | ~np.isfinite(form.lower))
    lo = nonbasic & ~up & np.isfinite(form.lower)
    x[lo], x[up] = form.lower[lo], form.upper[up]
    x[start.columns] = np.linalg.solve(A[:, start.columns], form.b - A @ x)
    tol = 1e-6 * (1 + np.abs(x))
    assert (x >= form.lower - tol).all() and (x <= form.upper + tol).all()
    assert x[sorted(art.program.binary_vars)].max(initial=0.0) == 0.0


class TestRop:
    def test_binary_count(self):
        # the final period, where every line is back, has no binaries
        net, dmg = random_scenario(3)
        n = len(dmg.damaged_lines)
        for sched in schedules(n):
            N = sched.n_periods
            art = build_rop(net, dmg, sched)
            assert set(art.z) == {(lid, k) for lid in dmg.damaged_lines
                                  for k in range(1, N)}
            assert art.program.binary_vars == frozenset(art.z.values())
            assert len(art.program.binary_vars) == n * (N - 1)
            assert not [v.name for v in art.program.base.variables
                        if v.name.startswith("Z") and v.name.endswith(f"_{N}")]

    def test_big_m_arithmetic(self):
        net = Network(buses=(Bus(1), Bus(2), Bus(3)),
                      lines=(Line(1, 1, 2, -5.0, 1.0, 0.5236),
                             Line(2, 2, 3, -5.0, 1.0, 0.5236),
                             Line(3, 1, 3, -5.0, 1.0, 0.7)),
                      generators=(Generator(1, 1, 1.0),),
                      loads=(Load(1, 3, 0.5),))
        # bus 2 has no live line, so M falls back to |b| times the sum of
        # the present lines' angle limits: a line that stays out does not
        # count
        for out, M in ((frozenset(), 8.736), (frozenset({3}), 5.236)):
            art = build_rop(net, DamageScenario((1, 2)), build_schedule(2, 2), out)
            lp = art.program.base
            rows = {c.name: c for c in lp.constraints}
            for lid in (1, 2):
                row = rows[f"flowu{lid}_1"]
                assert dict(row.terms)[art.z[(lid, 1)]] == pytest.approx(M)
                assert row.rhs == pytest.approx(M)

    def test_big_m_per_line(self):
        # line 3 parallels live line 4 and closes the live path 1-2-3; lines
        # 5 and 6 are the only links to bus 4, so no live path joins their
        # ends and M falls back to |b| times the present lines' angle limits
        lines = (Line(1, 1, 2, -5.0, 1.0, 0.5), Line(2, 2, 3, -5.0, 1.0, 0.4),
                 Line(3, 1, 3, -10.0, 1.0, 0.7), Line(4, 1, 3, -2.0, 1.0, 0.3),
                 Line(5, 3, 4, -4.0, 1.0, 0.6), Line(6, 3, 4, -1.0, 1.0, 0.2))
        net = Network(buses=tuple(Bus(i) for i in range(1, 5)), lines=lines,
                      generators=(Generator(1, 1, 1.0),), loads=(Load(1, 4, 0.5),))
        dmg = DamageScenario((3, 5, 6))
        cases = {frozenset(): {3: 10 * 0.3, 5: 4 * 2.7, 6: 1 * 2.7},   # the parallel line
                 frozenset({4}): {3: 10 * 0.9, 5: 4 * 2.4, 6: 1 * 2.4},  # the path 1-2-3
                 frozenset({1, 4}): {3: 10 * 1.9, 5: 4 * 1.9, 6: 1 * 1.9}}  # bus 1 cut off
        for out, big_m in cases.items():
            art = build_rop(net, dmg, build_schedule(3, 2), out)
            rows = {c.name: c for c in art.program.base.constraints}
            for lid, M in big_m.items():
                for name, sign in ((f"flowu{lid}_1", 1.0), (f"flowl{lid}_1", -1.0)):
                    row = rows[name]
                    assert dict(row.terms)[art.z[(lid, 1)]] == pytest.approx(sign * M)
                    assert row.rhs == pytest.approx(sign * M)
            assert art.program.start is not None

    def test_degenerate_big_m_rejected(self):
        net = Network(buses=(Bus(1), Bus(2)),
                      lines=(Line(1, 1, 2, -5.0, 1.0), Line(2, 1, 2, 0.0, 1.0)),
                      generators=(Generator(1, 1, 1.0),),
                      loads=(Load(1, 2, 0.5),))
        with pytest.raises(ValueError, match="degenerate big-M for line 2"):
            build_rop(net, DamageScenario((2,)), build_schedule(1, 1))

    def test_one_period_matches_evaluation_on_meshed_grids(self, meshed_scenarios):
        # two periods, the second a constant: the one modeled period with
        # the plan fixed has lines both in (Z = 1) and out (Z = 0), so its
        # switchable rows must describe the same physics as the evaluation
        for net, dmg in meshed_scenarios:
            n = len(dmg.damaged_lines)
            sched = build_schedule(n, 2)
            art = build_rop(net, dmg, sched)
            order = list(dmg.damaged_lines)
            plan = RestorationPlan.from_lists([order[:sched.repair_budget[0]],
                                               order[sched.repair_budget[0]:]])
            assert all(plan.periods)
            sol = solve_lp(fix_plan_in_rop(art, plan).base)
            assert sol.status == "optimal"
            series = evaluate_plan(net, dmg, plan, sched)
            energy = sum(d * t for d, t in zip(series.delivered, series.durations))
            assert sol.objective_value == pytest.approx(energy, rel=0, abs=1e-9)

    @pytest.mark.parametrize("full", [False, True])
    def test_final_period_is_not_modeled(self, meshed_scenarios, full):
        # no column or row carries the final period's tag; its energy is
        # one constant column in no row
        for net, dmg in meshed_scenarios:
            n = len(dmg.damaged_lines)
            N = n if full else 2
            lp = build_rop(net, dmg, build_schedule(n, N)).program.base
            assert not [v.name for v in lp.variables if v.name.endswith(f"_{N}")]
            assert not [c.name for c in lp.constraints if c.name.endswith(f"_{N}")]
            in_rows = {j for c in lp.constraints for j, _ in c.terms}
            (const,) = [j for j, v in enumerate(lp.variables) if v.name == "final_energy"]
            assert lp.variables[const].lower == lp.variables[const].upper == 1.0
            assert const not in in_rows

    def test_constant_is_the_final_period_energy(self, meshed_scenarios):
        for net, dmg in meshed_scenarios:
            n = len(dmg.damaged_lines)
            for N in (1, 2, n):
                budget = build_schedule(n, N).repair_budget
                sched = PeriodSchedule(N, tuple(0.5 + k for k in range(N)), budget)
                lp = build_rop(net, dmg, sched).program.base
                (const,) = [j for j, v in enumerate(lp.variables) if v.name == "final_energy"]
                coef = sum(c for j, c in lp.objective_terms if j == const)
                plan = RestorationPlan.from_lists(
                    [[]] * (N - 1) + [list(dmg.damaged_lines)])
                series = evaluate_plan(net, dmg, plan, sched)
                assert coef == pytest.approx(series.delivered[-1] * sched.delta[-1],
                                             rel=0, abs=1e-9)

    def test_out_lines_match_the_network_without_them(self, meshed_scenarios):
        # build_rop with lines out is build_rop on a copy of the network
        # without them, but for the reference angles, which follow all the
        # network's lines: the same rows and binaries, columns that differ
        # only in angles pinned in the copy, the same LP optimum (HiGHS),
        # and the final constant, the power served with every line but
        # those in
        checked = 0
        for net, dmg in meshed_scenarios:
            ids = sorted(dmg.damaged_lines)
            undamaged = sorted(l.id for l in net.lines if l.id not in dmg.damaged_lines)
            half = len(ids) // 2
            for out in (frozenset(), frozenset(ids[half:]), frozenset(ids[1::2]),
                        frozenset(ids[half:] + undamaged[:2])):
                sub = [lid for lid in ids if lid not in out]
                sub_dmg = DamageScenario(tuple(sub))
                copy = subnetwork_without(net, out)
                for N in (1, 2, len(sub)):
                    sched = build_schedule(len(sub), N)
                    art = build_rop(net, sub_dmg, sched, out)
                    ref = build_rop(copy, sub_dmg, sched)
                    assert art.out == out and art.z == ref.z
                    lp, ref_lp = art.program.base, ref.program.base
                    assert lp.constraints == ref_lp.constraints
                    assert art.program.binary_vars == ref.program.binary_vars
                    assert [v.name for v in lp.variables] == [v.name for v in ref_lp.variables]
                    assert all(v == w or v.name.startswith("TH") and (w.lower, w.upper) == (0, 0)
                               for v, w in zip(lp.variables, ref_lp.variables))
                    (const,) = [j for j, v in enumerate(lp.variables)
                                if v.name == "final_energy"]
                    terms = [t for t in lp.objective_terms if t[0] != const]
                    assert terms == [t for t in ref_lp.objective_terms if t[0] != const]
                    # period 1 of this plan has every line but those out
                    plan = RestorationPlan.from_lists([sub, sorted(out)])
                    served = evaluate_plan(net, DamageScenario(tuple(sub) + tuple(out)), plan,
                                           PeriodSchedule(2, (1.0, 1.0),
                                                          (len(sub), len(sub) + len(out))))
                    coef = sum(c for j, c in lp.objective_terms if j == const)
                    assert coef == pytest.approx(served.delivered[0] * sched.delta[-1],
                                                 rel=0, abs=1e-9)
                    if N > 1:
                        assert highs_milp(art.program, relax=True) == pytest.approx(
                            highs_milp(ref.program, relax=True), rel=1e-9, abs=1e-9)
                    checked += 1
        assert checked == 4 * 4 * 3

    def test_start_is_a_primal_feasible_basis(self, meshed_scenarios):
        checked = 0
        for net, dmg in meshed_scenarios:
            ids = sorted(dmg.damaged_lines)
            undamaged = sorted(l.id for l in net.lines if l.id not in dmg.damaged_lines)
            half = len(ids) // 2
            memo: dict = {}
            for out in (frozenset(), frozenset(ids[half:]), frozenset(ids[half:] + undamaged[:2]),
                        frozenset(undamaged[-3:])):
                sub = [lid for lid in ids if lid not in out]
                for N in sorted({2, max(len(sub), 2)}):  # N = 1 has no period to start
                    assert_primal_feasible_start(build_rop(
                        net, DamageScenario(tuple(sub)), build_schedule(len(sub), N), out, memo))
                    checked += 1
        assert checked >= 24

    def test_start_holds_where_lines_out_cut_the_grid(self):
        # undamaged lines out can leave a part of the grid without the
        # reference bus of its component: the tree grids' first lines are
        # tree edges. Angles stay pinned per component of all the lines, as
        # in the base, or the base's angles there break the new pins
        for seed in range(20):
            for net, dmg in (random_scenario(seed),
                             (meshed_network(seed, 10),
                              random_damage(meshed_network(seed, 10), 0.3, seed))):
                ids = sorted(dmg.damaged_lines)
                undamaged = [l.id for l in net.lines if l.id not in ids]
                for out in (undamaged[:1], undamaged[:2], undamaged[-2:]):
                    assert_primal_feasible_start(build_rop(
                        net, dmg, build_schedule(len(ids), 2), frozenset(out)))

    def test_out_must_not_hold_a_damaged_line(self):
        net, dmg = tiny3_damage12()
        with pytest.raises(ValueError, match="damaged line cannot stay out"):
            build_rop(net, dmg, build_schedule(2, 2), frozenset({2}))

    @pytest.mark.parametrize("full", [False, True])
    def test_optimum_matches_highs_milp(self, meshed_scenarios, full):
        for net, dmg in meshed_scenarios:
            n = len(dmg.damaged_lines)
            art = build_rop(net, dmg, build_schedule(n, n if full else 2))
            sol = solve_mip(art.program, SolveOptions(time_limit=60, rel_gap=0.0))
            assert sol.status == "optimal_within_gap"
            assert sol.objective_value == pytest.approx(highs_milp(art.program),
                                                        rel=1e-9, abs=1e-7)

    def test_final_period_failure_raises(self, monkeypatch):
        # the final period's LP is the one with every line in
        def failing_final(lp, *args, **kwargs):
            if energizes_every_line(lp, kwargs.get("form")):
                return LpSolution("numerical_failure", float("nan"),
                                  np.zeros(len(lp.variables)))
            return solve_lp(lp, *args, **kwargs)

        monkeypatch.setattr(gridrestore.lp, "solve_lp", failing_final)
        net, dmg = tiny3_damage12()
        with pytest.raises(PlanEvaluationError, match="period 2 .*numerical_failure") as err:
            build_rop(net, dmg, build_schedule(2, 2))
        assert err.value.status == "numerical_failure"

    def test_fixed_plan_recovers_evaluation(self):
        net, dmg = tiny3_damage12()
        sched = build_schedule(2, 2)
        art = build_rop(net, dmg, sched)
        plan = RestorationPlan.from_lists([[1], [2]])
        fixed = fix_plan_in_rop(art, plan)
        sol = solve_lp(fixed.base)
        assert sol.status == "optimal"
        series = evaluate_plan(net, dmg, plan, sched)
        energy = sum(d * t for d, t in zip(series.delivered, series.durations))
        assert sol.objective_value == pytest.approx(energy, abs=1e-6)

    def test_angle_limit_binds_in_both_models(self):
        # two parallel lines 1-2 with b = -1 and a 30 degree angle limit:
        # |b| * angle_diff_max = 0.5236 lies far below the thermal limit 5,
        # so one line carries 0.5236 and two carry 1.0472
        net = Network(buses=(Bus(1), Bus(2)),
                      lines=(Line(1, 1, 2, -1.0, 5.0), Line(2, 1, 2, -1.0, 5.0)),
                      generators=(Generator(1, 1, 5.0),), loads=(Load(1, 2, 5.0),))
        dmg = DamageScenario((1, 2))
        plan = RestorationPlan.from_lists([[1], [2]])
        sched = build_schedule(2, 2)
        series = evaluate_plan(net, dmg, plan, sched)
        assert series.delivered == pytest.approx((0.5236, 1.0472), abs=1e-12)
        sol = solve_lp(fix_plan_in_rop(build_rop(net, dmg, sched), plan).base)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.5708, abs=1e-9)
        assert solve_lp(build_rip(net, dmg, plan, sched)).objective_value == \
            pytest.approx(1.5708, abs=1e-9)

    @pytest.mark.parametrize("seed", range(40))
    def test_fixed_plan_matches_evaluation_under_tight_angle_limits(self, seed):
        # thermal limits, generators and loads x10 and angle limits in
        # [0.05, 0.3] rad, so that angle limits bind; the meshed fixtures
        # keep |b| * angle_diff_max above every thermal limit
        rng = random.Random(seed)
        grid = meshed_network(seed, (6, 8, 10)[seed % 3])
        net = Network(
            buses=grid.buses,
            lines=tuple(dataclasses.replace(ln, thermal_limit=10 * ln.thermal_limit,
                                            angle_diff_max=rng.uniform(0.05, 0.3))
                        for ln in grid.lines),
            generators=tuple(dataclasses.replace(g, p_max=10 * g.p_max)
                             for g in grid.generators),
            loads=tuple(dataclasses.replace(d, p_demand=10 * d.p_demand) for d in grid.loads))
        dmg = random_damage(net, 0.3, seed)
        order = list(dmg.damaged_lines)
        rng.shuffle(order)
        plan = RestorationPlan.from_lists([[lid] for lid in order])
        sched = build_schedule(len(order), len(order))
        sol = solve_lp(fix_plan_in_rop(build_rop(net, dmg, sched), plan).base)
        assert sol.status == "optimal"
        assert total_energy(evaluate_plan(net, dmg, plan, sched)) == \
            pytest.approx(sol.objective_value, rel=0, abs=1e-6)

    def test_optimum_dominates_any_plan(self):
        net, dmg = tiny3_damage12()
        sched = build_schedule(2, 2)
        art = build_rop(net, dmg, sched)
        sol = solve_mip(art.program, SolveOptions(time_limit=30, rel_gap=0.0))
        assert sol.status == "optimal_within_gap"
        for order in ([[1], [2]], [[2], [1]]):
            series = evaluate_plan(net, dmg, RestorationPlan.from_lists(order), sched)
            energy = sum(d * t for d, t in zip(series.delivered, series.durations))
            assert sol.objective_value >= energy - 1e-6

    def test_budget_requires_completion(self):
        net, dmg = tiny3_damage12()
        with pytest.raises(ValueError, match="final repair budget"):
            build_rop(net, dmg, build_schedule(3, 2))


def scored_cases():
    """(network, damage, schedule, plan) on meshed grids: util's plan and two
    random orderings, over one period per line, the lumped schedule and two
    periods."""
    for seed in range(1, 7):
        net = meshed_network(seed, 10 + 2 * (seed % 2))
        dmg = random_damage(net, 0.3, seed)
        n = len(dmg.damaged_lines)
        rng = random.Random(seed)
        plans = [util_order(net, dmg)]
        for _ in range(2):
            order = list(dmg.damaged_lines)
            rng.shuffle(order)
            plans.append(RestorationPlan.from_lists([[lid] for lid in order]))
        for sched in (build_schedule(n, n), lumped_schedule(n), build_schedule(n, 2)):
            for plan in plans:
                yield net, dmg, sched, plan


class TestScoredWarmStart:
    def test_objective_is_the_fixed_binary_lp(self):
        # with every binary fixed the ordering MILP splits into the plan's
        # period LPs: their energy is the LP's optimum
        cases = 0
        for net, dmg, sched, plan in scored_cases():
            memo = {}
            art = build_rop(net, dmg, sched, memo=memo)
            assign, objective = scored_warm_start(art, plan, memo)
            assert assign == plan_to_assignment(art, plan)
            lp = art.program.base
            fixed = _with_fixes(standard_form(lp), {j: float(v) for j, v in assign.items()})
            sol = solve_lp(lp, form=fixed, start=art.program.start)
            assert sol.status == "optimal"
            assert objective == pytest.approx(sol.objective_value, rel=1e-9, abs=0)
            cases += 1
        assert cases == 54

    @pytest.mark.parametrize("rel_gap", [0.0, 0.01])
    def test_search_from_the_scored_start_saves_one_lp(self, rel_gap):
        # the same search as from the unscored start, less its warm-start LP
        opts = SolveOptions(time_limit=60, rel_gap=rel_gap)
        for net, dmg, sched, plan in scored_cases():
            memo = {}
            art = build_rop(net, dmg, sched, memo=memo)
            assign, objective = scored_warm_start(art, plan, memo)
            mip = art.program
            unscored = solve_mip(dataclasses.replace(mip, warm_start=assign), opts)
            scored = solve_mip(dataclasses.replace(mip, warm_start=assign,
                                                   warm_start_objective=objective), opts)
            assert scored.status == unscored.status == "optimal_within_gap"
            assert scored.assignment == unscored.assignment
            assert scored.best_bound == pytest.approx(unscored.best_bound, rel=1e-9, abs=0)
            assert scored.objective_value == pytest.approx(unscored.objective_value,
                                                           rel=1e-9, abs=0)
            assert scored.nodes == unscored.nodes - 1

    def test_failed_evaluation_drops_the_start(self, monkeypatch):
        net, dmg, sched, plan = next(scored_cases())

        def failing(*args, **kwargs):
            raise PlanEvaluationError(1, "numerical_failure")

        art = build_rop(net, dmg, sched)
        monkeypatch.setattr(gridrestore.models, "evaluate_plan", failing)
        assert scored_warm_start(art, plan) is None

    def test_no_line_may_be_out(self):
        net, dmg, sched, plan = next(scored_cases())
        kept = DamageScenario(dmg.damaged_lines[1:])
        art = build_rop(net, kept, build_schedule(len(kept.damaged_lines), 2),
                        out=frozenset(dmg.damaged_lines[:1]))
        with pytest.raises(ValueError, match="out"):
            scored_warm_start(art, RestorationPlan.from_lists([kept.damaged_lines]))


class TestPlanExtraction:
    def test_transition_example(self):
        net, dmg = tiny3_damage12()
        art = build_rop(net, dmg, build_schedule(2, 2))
        assign = {art.z[(1, 1)]: 0, art.z[(2, 1)]: 1}
        sol = MipSolution(status="optimal_within_gap", objective_value=0.0,
                          assignment=assign)
        plan = extract_plan(art, sol)
        assert plan.periods == (frozenset({2}), frozenset({1}))

    def test_all_first_period(self):
        net, dmg = tiny3_damage12()
        art = build_rop(net, dmg, build_schedule(2, 2))
        assign = {art.z[(lid, 1)]: 1 for lid in (1, 2)}
        sol = MipSolution(status="optimal_within_gap", objective_value=0.0,
                          assignment=assign)
        plan = extract_plan(art, sol)
        assert plan.periods == (frozenset({1, 2}), frozenset())

    def test_monotonicity_violation_raises(self):
        net, dmg = tiny3_damage12()
        art = build_rop(net, dmg, build_schedule(2, 3))
        assign = {art.z[(1, 1)]: 1, art.z[(1, 2)]: 0,
                  art.z[(2, 1)]: 1, art.z[(2, 2)]: 1}
        sol = MipSolution(status="optimal_within_gap", objective_value=0.0,
                          assignment=assign)
        with pytest.raises(PlanExtractionError, match="line 1"):
            extract_plan(art, sol)

    def test_no_incumbent_rejected(self):
        net, dmg = tiny3_damage12()
        art = build_rop(net, dmg, build_schedule(2, 2))
        with pytest.raises(ValueError, match="incumbent"):
            extract_plan(art, MipSolution(status="failure"))

    def test_assignment_keeps_the_budget(self):
        # a plan of the schedule's length that restores more lines by some
        # period than its budget allows is bucketed by the budget instead
        net = random_network(7, n_buses=8, n_lines=12)
        dmg = DamageScenario(tuple(l.id for l in net.lines[:4]))
        order = list(dmg.damaged_lines)
        ordered = RestorationPlan.from_lists([[lid] for lid in order])
        for sched in (lumped_schedule(4), build_schedule(4, 4), build_schedule(4, 2)):
            art = build_rop(net, dmg, sched)
            for plan in (ordered, bucketed(order, sched)):
                assign = plan_to_assignment(art, plan)
                for k in range(1, sched.n_periods):
                    restored = sum(assign[art.z[(lid, k)]] for lid in order)
                    assert restored <= sched.repair_budget[k - 1]
            sol = MipSolution(status="optimal_within_gap", objective_value=0.0,
                              assignment=plan_to_assignment(art, ordered))
            assert extract_plan(art, sol).periods == bucketed(order, sched).periods
        # the warm start is kept: the first incumbent is the bucketed plan
        art = build_rop(net, dmg, lumped_schedule(4))
        warm = art.program.warm_start = plan_to_assignment(art, ordered)
        sol = solve_mip(art.program, SolveOptions(time_limit=30, rel_gap=0.99))
        assert sol.has_incumbent and sol.assignment == warm

    @pytest.mark.parametrize("seed", range(10))
    def test_fix_then_extract_round_trip(self, seed):
        net, dmg = random_scenario(seed)
        n = len(dmg.damaged_lines)
        order = list(dmg.damaged_lines)
        random.Random(seed).shuffle(order)
        ordered = RestorationPlan.from_lists([[lid] for lid in order])
        for sched in schedules(n):
            art = build_rop(net, dmg, sched)
            plan = bucketed(order, sched)
            assign = plan_to_assignment(art, plan)
            assert set(assign) == set(art.program.binary_vars)
            sol = MipSolution(status="optimal_within_gap", objective_value=0.0,
                              assignment=assign)
            assert extract_plan(art, sol).periods == plan.periods
            if n != sched.n_periods:
                # a plan of one line per period and another length is
                # bucketed by the repair budget
                sol.assignment = plan_to_assignment(art, ordered)
                assert extract_plan(art, sol).periods == plan.periods
