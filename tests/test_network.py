import math
import os

import pytest
from hypothesis import given, strategies as st

from gridrestore.network import (Bus, CaseParseError, DamageScenario, Generator,
                                 Line, Load, Network, PeriodSchedule,
                                 RestorationPlan, build_schedule, parse_case,
                                 random_damage, round_half_up,
                                 DEFAULT_ANGLE_DIFF_MAX)
from conftest import CASES_DIR, random_network, tiny3_network


def read_case(name):
    with open(os.path.join(CASES_DIR, name)) as f:
        return parse_case(f.read())


class TestRounding:
    def test_half_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(7.5) == 8
        assert round_half_up(3.8) == 4
        assert round_half_up(3.2) == 3
        assert round_half_up(0.0) == 0


class TestGoldenCases:
    def test_tiny3_exact(self):
        net = read_case("tiny3.m")
        assert net.base_mva == 100.0
        assert [b.id for b in net.buses] == [1, 2, 3]
        expect = [(1, 1, 2, -10.0, 1.5), (2, 1, 3, -5.0, 1.0), (3, 2, 3, -8.0, 1.2)]
        got = [(l.id, l.from_bus, l.to_bus, l.susceptance_b, l.thermal_limit)
               for l in net.lines]
        assert got == expect
        for l in net.lines:
            assert l.angle_diff_max == pytest.approx(30 * math.pi / 180)
        assert [(g.bus, g.p_max) for g in net.generators] == [(1, 2.0)]
        assert [(d.bus, d.p_demand) for d in net.loads] == [(2, 0.8), (3, 0.6)]

    def test_status0_branch_dropped(self):
        net = read_case("status0.m")
        got = [(l.id, l.from_bus, l.to_bus, l.susceptance_b, l.thermal_limit)
               for l in net.lines]
        assert got == [(1, 1, 2, -4.0, 2.5), (2, 3, 4, -2.5, 0.9),
                       (3, 1, 4, -5.0, 1.1)]
        assert net.lines[0].angle_diff_max == pytest.approx(20 * math.pi / 180)
        assert net.lines[1].angle_diff_max == pytest.approx(45 * math.pi / 180)
        assert [(g.bus, g.p_max) for g in net.generators] == [(1, 1.2), (3, 0.8)]
        assert [(d.bus, d.p_demand) for d in net.loads] == [(2, 0.5), (4, 0.3)]

    def test_default_angle_and_unlimited_rating(self):
        net = read_case("defaultangle.m")
        assert net.base_mva == 50.0
        l1, l2 = net.lines
        assert (l1.susceptance_b, l2.susceptance_b) == (-2.0, -4.0)
        # rateA <= 0 falls back to a cap that can never bind (total gen)
        assert l1.thermal_limit == pytest.approx(max(0.8, 1.0))
        assert l2.thermal_limit == pytest.approx(0.6)
        # angmin/angmax of 0/0 and +-360 both mean "unspecified"
        assert l1.angle_diff_max == DEFAULT_ANGLE_DIFF_MAX
        assert l2.angle_diff_max == DEFAULT_ANGLE_DIFF_MAX

    def test_rate_per_unit_conversion(self):
        net = read_case("status0.m")
        assert net.lines_by_id[1].thermal_limit == 250 / 100

    def test_unknown_bus_reports_location(self):
        text = ("mpc.baseMVA = 100;\n"
                "mpc.bus = [\n 1 3 0 0 0 0 1 1 0 230 1 1.1 0.9;\n];\n"
                "mpc.gen = [\n 1 0 0 0 0 1 100 1 50 0;\n];\n"
                "mpc.branch = [\n 1 99 0 0.1 0 50 0 0 0 0 1;\n];\n")
        with pytest.raises(CaseParseError, match="unknown bus 99"):
            parse_case(text)

    def test_zero_reactance_rejected(self):
        text = ("mpc.baseMVA = 100;\n"
                "mpc.bus = [\n 1 3 0 0 0 0 1 1 0 230 1 1.1 0.9;\n"
                " 2 1 10 0 0 0 1 1 0 230 1 1.1 0.9;\n];\n"
                "mpc.gen = [\n 1 0 0 0 0 1 100 1 50 0;\n];\n"
                "mpc.branch = [\n 1 2 0 0.0 0 50 0 0 0 0 1;\n];\n")
        with pytest.raises(CaseParseError, match="zero reactance"):
            parse_case(text)

    # (field, line of tiny3.m, index of the number on that line, value)
    NON_FINITE = [("baseMVA", 4, 2, "NaN;"), ("bus id", 8, 0, "Inf"), ("Pd", 9, 2, "NaN"), ("Pmax", 15, 8, "NaN"),
                  ("x", 20, 3, "NaN"), ("rateA", 20, 5, "NaN"), ("status", 20, 10, "NaN"),
                  ("angmin", 20, 11, "-Inf"), ("angmax", 20, 12, "Inf")]

    @pytest.mark.parametrize("field, line_no, k, value", NON_FINITE)
    def test_non_finite_number_rejected(self, field, line_no, k, value):
        # unchecked, a NaN baseMVA was read as the default 100, an infinite
        # bus id overflowed int(), a NaN reactance reached the LP, a NaN Pd
        # dropped its load and a NaN rateA made the line unlimited
        with open(os.path.join(CASES_DIR, "tiny3.m")) as f:
            lines = f.read().splitlines()
        tokens = lines[line_no - 1].split()
        tokens[k] = value
        lines[line_no - 1] = " ".join(tokens)
        with pytest.raises(CaseParseError, match="not finite") as err:
            parse_case("\n".join(lines))
        assert (err.value.line_no, err.value.field) == (line_no, field)

    def test_missing_bus_table(self):
        with pytest.raises(CaseParseError, match="bus"):
            parse_case("mpc.baseMVA = 100;\nmpc.branch = [\n];\n")


class TestNetworkValidation:
    def test_duplicate_bus(self):
        with pytest.raises(ValueError, match="duplicate bus"):
            Network(buses=(Bus(1), Bus(1)), lines=(), generators=(), loads=())

    def test_self_loop(self):
        with pytest.raises(ValueError, match="from_bus == to_bus"):
            Network(buses=(Bus(1),), lines=(Line(1, 1, 1, -1.0, 1.0),),
                    generators=(), loads=())

    def test_line_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown bus"):
            Network(buses=(Bus(1),), lines=(Line(1, 1, 2, -1.0, 1.0),),
                    generators=(), loads=())

    def test_incidence_indices(self):
        net = tiny3_network()
        assert net.lines_at[1] == (1, 2)
        assert net.gens_at[1] == (1,)
        assert net.loads_at[2] == (1,)
        assert net.total_demand == pytest.approx(1.4)


class TestSchedule:
    def test_fully_ordered(self):
        assert build_schedule(5, 5).repair_budget == (1, 2, 3, 4, 5)

    def test_lumped(self):
        assert build_schedule(10, 4).repair_budget == (3, 5, 8, 10)

    def test_empty_damage(self):
        assert build_schedule(0, 3).repair_budget == (0, 0, 0)

    @given(st.integers(0, 60), st.integers(1, 20), st.floats(0.1, 10.0))
    def test_budget_properties(self, n, periods, hours):
        sched = build_schedule(n, periods, hours)
        assert sched.repair_budget[-1] == n
        assert all(a <= b for a, b in
                   zip(sched.repair_budget, sched.repair_budget[1:]))
        assert sched.delta == (hours,) * periods

    def test_nonincreasing_budget_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            PeriodSchedule(2, (1.0, 1.0), (2, 1))


class TestRandomDamage:
    def test_full_fraction_damages_all(self, tiny3):
        dmg = random_damage(tiny3, 1.0, seed=3)
        assert set(dmg.damaged_lines) == {1, 2, 3}

    def test_deterministic(self, tiny3):
        a = random_damage(tiny3, 0.5, seed=11)
        b = random_damage(tiny3, 0.5, seed=11)
        assert a == b

    def test_38_line_fraction_counts(self):
        # 38-line chain network; counts follow the half-up rounding rule
        buses = tuple(Bus(i) for i in range(1, 40))
        lines = tuple(Line(i, i, i + 1, -5.0, 1.0) for i in range(1, 39))
        net = Network(buses=buses, lines=lines, generators=(), loads=())
        counts = [len(random_damage(net, f / 10, seed=0).damaged_lines)
                  for f in range(1, 11)]
        assert counts == [4, 8, 11, 15, 19, 23, 27, 30, 34, 38]

    def test_coverage_over_seeds(self):
        net = random_network(99, n_buses=6, n_lines=8)
        hit = set()
        for seed in range(1000):
            hit.update(random_damage(net, 0.25, seed).damaged_lines)
        assert hit == {l.id for l in net.lines}

    def test_fraction_out_of_range(self, tiny3):
        with pytest.raises(ValueError):
            random_damage(tiny3, 0.0, 1)
        with pytest.raises(ValueError):
            random_damage(tiny3, 1.5, 1)


class TestRestorationPlan:
    def test_partition_validation(self):
        dmg = DamageScenario((1, 2, 3))
        RestorationPlan.from_lists([[1], [2, 3]]).validate_against(dmg)
        with pytest.raises(ValueError, match="more than one period"):
            RestorationPlan.from_lists([[1], [1, 2], [3]]).validate_against(dmg)
        with pytest.raises(ValueError, match="cover"):
            RestorationPlan.from_lists([[1], [2]]).validate_against(dmg)

    def test_cumulative(self):
        plan = RestorationPlan.from_lists([[2], [5], [1]])
        assert plan.cumulative(0) == frozenset()
        assert plan.cumulative(2) == {2, 5}
        assert plan.ordered_lines() == [2, 5, 1]
