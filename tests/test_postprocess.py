import itertools

import pytest
from hypothesis import given, strategies as st

from gridrestore.graph import line_components
from gridrestore.models import PowerServedSeries, energized_lines, evaluate_plan
from gridrestore.network import (Bus, DamageScenario, Generator, Line, Load,
                                 Network, RestorationPlan, build_schedule)
from gridrestore.postprocess import (DIP_TOL, build_report, island_metrics, monotonize,
                                     served_energy, total_energy)
from conftest import meshed_network, random_scenario, tiny3_network


def series_of(values, dt=1.0):
    return PowerServedSeries(tuple(values), (dt,) * len(values))


def plan_of(n):
    return RestorationPlan.from_lists([[i + 1] for i in range(n)])


class TestMonotonize:
    def test_running_max(self):
        s, _ = monotonize(series_of([0, 5, 3, 4, 7]), plan_of(5))
        assert s.delivered == (0, 5, 5, 5, 7)

    def test_dip_rebucketing(self):
        raw = series_of([5, 3, 4, 7])
        plan = RestorationPlan.from_lists([["a"], ["b"], ["c"], ["d"]])
        _, p = monotonize(raw, plan)
        assert p.periods == (frozenset({"a"}), frozenset(), frozenset(),
                             frozenset({"b", "c", "d"}))

    def test_nondecreasing_identity(self):
        raw = series_of([1, 2, 2, 5])
        plan = plan_of(4)
        s, p = monotonize(raw, plan)
        assert s.delivered == raw.delivered
        assert p == plan

    def test_trailing_dip_folds_into_final(self):
        raw = series_of([5, 3, 2])
        plan = plan_of(3)
        s, p = monotonize(raw, plan)
        assert s.delivered == (5, 5, 5)
        assert p.periods == (frozenset({1}), frozenset(), frozenset({2, 3}))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            monotonize(series_of([1, 2]), plan_of(3))

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=12))
    def test_equals_independent_running_max(self, values):
        n = len(values)
        s, p = monotonize(series_of(values), plan_of(n))
        expected = tuple(itertools.accumulate(values, max))
        assert s.delivered == expected
        # re-bucketed plan is still a partition of the same lines
        seen = [lid for period in p.periods for lid in period]
        assert sorted(seen) == list(range(1, n + 1))


class TestIslandMetrics:
    def test_nothing_restored(self, tiny3):
        dmg = DamageScenario((1, 2, 3))
        plan = RestorationPlan.from_lists([[], [1, 2, 3]])
        m = island_metrics(tiny3, dmg, plan)
        assert m[0] == (3, 1)
        assert m[1] == (1, 3)

    def test_path_graph_middle_edge_last(self):
        net = Network(buses=(Bus(1), Bus(2), Bus(3), Bus(4)),
                      lines=(Line(1, 1, 2, -5.0, 1.0), Line(2, 2, 3, -5.0, 1.0),
                             Line(3, 3, 4, -5.0, 1.0)),
                      generators=(Generator(1, 1, 1.0),),
                      loads=(Load(1, 4, 0.5),))
        dmg = DamageScenario((1, 2, 3))
        plan = RestorationPlan.from_lists([[1], [3], [2]])
        counts = [c for c, _ in island_metrics(net, dmg, plan)]
        assert counts == [3, 2, 1]

    def test_restoring_lines_never_splits_islands(self):
        for seed in range(5):
            net, dmg = random_scenario(seed)
            n = len(dmg.damaged_lines)
            plan = RestorationPlan.from_lists(
                [[lid] for lid in dmg.damaged_lines])
            counts = [c for c, _ in island_metrics(net, dmg, plan)]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_empty_period_leaves_islands_unchanged(self, tiny3):
        dmg = DamageScenario((1, 2, 3))
        plan = RestorationPlan.from_lists([[1], [], [2, 3]])
        m = island_metrics(tiny3, dmg, plan)
        assert m[0] == m[1]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_period_components(self, seed):
        # a tree grid with parallel duplicates and a meshed grid; one line
        # per period in order and reversed, all at once after an empty
        # period, and monotonized with every other period a dip, whose
        # restorations are deferred and leave it empty
        meshed = meshed_network(seed, 8 + seed)
        for net, dmg in (random_scenario(seed),
                         (meshed, DamageScenario(tuple(ln.id for ln in meshed.lines[::3])))):
            order = list(dmg.damaged_lines)
            n = len(order)
            one_each = RestorationPlan.from_lists([[lid] for lid in order])
            _, deferred = monotonize(series_of([1 - k % 2 for k in range(n)]), one_each)
            assert frozenset() in deferred.periods
            for plan in (one_each, RestorationPlan.from_lists([[lid] for lid in reversed(order)]),
                         RestorationPlan.from_lists([[], order]), deferred):
                expected = []
                for k in range(1, plan.n_periods + 1):
                    comps = line_components(net, energized_lines(net, dmg, plan, k))
                    expected.append((len(comps), max(len(c) for c in comps)))
                assert island_metrics(net, dmg, plan) == expected


class TestTotalEnergy:
    def test_simple_sum(self):
        assert total_energy(series_of([1, 2])) == pytest.approx(3.0)

    def test_duration_scaling(self):
        assert total_energy(series_of([1, 2], dt=0.5)) == pytest.approx(1.5)
        base = total_energy(series_of([3, 1, 4]))
        assert total_energy(series_of([3, 1, 4], dt=2.0)) == pytest.approx(2 * base)


@st.composite
def raw_powers(draw, n):
    """n raw powers that often equal the running maximum before them or
    sit at most 2 * DIP_TOL below it, so dips and ties within DIP_TOL
    both occur."""
    values = [draw(st.floats(0, 100))]
    for _ in range(n - 1):
        top = max(values)
        values.append(draw(st.one_of(st.floats(0, 100), st.just(top),
                                     st.floats(0, 2 * DIP_TOL).map(lambda d: top - d))))
    return tuple(values)


def durations_of(n):
    return st.lists(st.floats(0.01, 10), min_size=n, max_size=n).map(tuple)


class TestServedEnergy:
    """``served_energy`` is the reported energy, ``total_energy`` of the
    ``monotonize``d series, bit for bit: compared with ``==``."""

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(raw_powers(n), durations_of(n))))
    def test_equals_the_monotonized_total(self, drawn):
        s = PowerServedSeries(*drawn)
        mono, _ = monotonize(s, plan_of(s.n_periods))
        left_to_right = 0.0
        for power, hours in zip(mono.delivered, mono.durations):
            left_to_right += power * hours
        assert served_energy(s.delivered, s.durations) == total_energy(mono) == left_to_right

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.lists(raw_powers(n), min_size=1, max_size=6), durations_of(n))))
    def test_each_row_of_a_table_scores_as_one_series(self, drawn):
        rows, durations = drawn
        scores = served_energy(rows, durations)
        assert scores == [served_energy(row, durations) for row in rows]
        assert scores == [total_energy(monotonize(PowerServedSeries(row, durations),
                                                  plan_of(len(row)))[0]) for row in rows]

    def test_a_trailing_dip_is_reported_at_the_running_maximum(self):
        assert served_energy((5.0, 3.0, 2.0), (1.0, 0.5, 2.0)) == 5.0 + 2.5 + 10.0


class TestReport:
    def test_csv_layout(self, tiny3):
        dmg = DamageScenario((1, 2))
        plan = RestorationPlan.from_lists([[2], [1]])
        series = evaluate_plan(tiny3, dmg, plan, build_schedule(2, 2))
        report = build_report(tiny3, dmg, plan, series)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == ("period,delivered_pu,cumulative_energy_pu,"
                            "island_count,largest_island,restored_line_ids")
        assert len(lines) == 3
        assert lines[1].startswith("1,")

    def test_series_nondecreasing(self):
        for seed in range(3):
            net, dmg = random_scenario(seed)
            n = len(dmg.damaged_lines)
            plan = RestorationPlan.from_lists([[lid] for lid in dmg.damaged_lines])
            series = evaluate_plan(net, dmg, plan, build_schedule(n, n))
            report = build_report(net, dmg, plan, series)
            d = report.series.delivered
            assert all(a <= b + 1e-12 for a, b in zip(d, d[1:]))
            assert report.total_energy == pytest.approx(total_energy(report.series))

    def test_rebucketed_plan_achieves_monotone_series(self):
        # delayed restorations must still deliver the smoothed power levels
        for seed in range(5):
            net, dmg = random_scenario(seed)
            n = len(dmg.damaged_lines)
            sched = build_schedule(n, n)
            plan = RestorationPlan.from_lists([[lid] for lid in dmg.damaged_lines])
            series = evaluate_plan(net, dmg, plan, sched)
            mono, replan = monotonize(series, plan)
            redo = evaluate_plan(net, dmg, replan, sched)
            for a, b in zip(redo.delivered, mono.delivered):
                assert a >= b - 1e-6
