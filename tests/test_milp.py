import os
import random
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import gridrestore.milp
from gridrestore.lp import (INF, LinearProgram, LpSolution, mps_column_name, solve_lp,
                            standard_form)
from gridrestore.milp import (ExternalBackendConfig, MixedIntegerProgram,
                              SolveOptions, enumerate_binaries,
                              parse_solution_file, solve_external, solve_mip)
from gridrestore.models import build_rop
from gridrestore.network import build_schedule, random_damage
from conftest import meshed_network


def random_mip(seed, max_binaries=12):
    """Random MILP: knapsack-like rows over binaries plus continuous vars."""
    rng = random.Random(seed)
    nb = rng.randint(2, max_binaries)
    nc = rng.randint(0, 3)
    lp = LinearProgram()
    for j in range(nb):
        lp.add_variable(f"z{j}", 0.0, 1.0)
    for j in range(nc):
        lp.add_variable(f"y{j}", 0.0, rng.uniform(1, 5))
    n = nb + nc
    for i in range(rng.randint(1, 4)):
        terms = [(j, rng.uniform(-2, 4)) for j in
                 rng.sample(range(n), rng.randint(1, min(n, 4)))]
        lp.add_constraint(f"c{i}", terms, rng.choice(["<=", "<=", ">="]),
                          rng.uniform(0, 6))
    lp.set_objective("maximize", [(j, rng.uniform(-1, 3)) for j in range(n)])
    return MixedIntegerProgram(base=lp, binary_vars=frozenset(range(nb)))


def knapsack():
    """3-item knapsack; root relaxation 2.0 + 0.5 * 2.0 = 3.0, optimum 2.0."""
    lp = LinearProgram()
    for j in range(3):
        lp.add_variable(f"z{j}", 0.0, 1.0)
    lp.add_constraint("cap", [(0, 1.0), (1, 2.0), (2, 2.0)], "<=", 2.0)
    lp.set_objective("maximize", [(0, 2.0), (1, 2.0), (2, 1.5)])
    return MixedIntegerProgram(base=lp, binary_vars=frozenset(range(3)))


def solve_with_highs(mip):
    """Optimum of ``mip`` from SciPy's HiGHS MILP, in the MIP's own sense."""
    lp = mip.base
    n = len(lp.variables)
    sense = -1.0 if lp.objective_sense == "maximize" else 1.0
    c = np.zeros(n)
    for j, coef in lp.objective_terms:
        c[j] += sense * coef
    rows = np.zeros((len(lp.constraints), n))
    lb = np.full(len(lp.constraints), -np.inf)
    ub = np.full(len(lp.constraints), np.inf)
    for i, con in enumerate(lp.constraints):
        for j, coef in con.terms:
            rows[i, j] += coef
        if con.relation in ("<=", "="):
            ub[i] = con.rhs
        if con.relation in (">=", "="):
            lb[i] = con.rhs
    integrality = np.zeros(n)
    integrality[sorted(mip.binary_vars)] = 1
    res = milp(c, constraints=LinearConstraint(rows, lb, ub), integrality=integrality,
               bounds=Bounds([v.lower for v in lp.variables], [v.upper for v in lp.variables]),
               options={"mip_rel_gap": 0.0})
    assert res.status == 0
    return sense * res.fun


class TestBranchAndBound:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_enumeration(self, seed):
        mip = random_mip(seed)
        best, _ = enumerate_binaries(mip)
        sol = solve_mip(mip, SolveOptions(time_limit=60, rel_gap=0.0))
        if best is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal_within_gap"
            assert sol.objective_value == pytest.approx(best, abs=1e-6, rel=1e-6)
            assert mip.base.constraint_violation(sol.primal) <= 1e-6
            for j in mip.binary_vars:
                assert abs(sol.primal[j] - round(sol.primal[j])) <= 1e-6

    def test_enumeration_respects_binary_bounds(self):
        # the ROP fixes its final-period binaries at 1; an enumeration that
        # set them to 0 would score plans outside the MILP (3.977 here)
        net = meshed_network(100, 8)
        mip = build_rop(net, random_damage(net, 0.25, 0), build_schedule(3, 2)).program
        assert any(mip.base.variables[j].lower == 1.0 for j in mip.binary_vars)
        best, assign = enumerate_binaries(mip)
        for j, v in assign.items():
            assert mip.base.variables[j].lower <= v <= mip.base.variables[j].upper
        sol = solve_mip(mip, SolveOptions(time_limit=60, rel_gap=0.0))
        assert sol.status == "optimal_within_gap"
        assert best == pytest.approx(sol.objective_value, abs=1e-9, rel=1e-9)
        assert best == pytest.approx(solve_with_highs(mip), abs=1e-6, rel=1e-6)

    def test_all_binaries_fixed_is_lp(self):
        lp = LinearProgram()
        lp.add_variable("z", 1.0, 1.0)
        lp.add_variable("y", 0.0, 5.0)
        lp.add_constraint("c", [(0, 2.0), (1, 1.0)], "<=", 4.0)
        lp.set_objective("maximize", [(1, 1.0)])
        mip = MixedIntegerProgram(base=lp, binary_vars=frozenset({0}))
        sol = solve_mip(mip, SolveOptions(time_limit=10, rel_gap=0.0))
        assert sol.status == "optimal_within_gap"
        assert sol.objective_value == pytest.approx(2.0)

    def test_gap_invariant(self):
        for seed in range(10):
            mip = random_mip(seed + 300)
            sol = solve_mip(mip, SolveOptions(time_limit=30, rel_gap=0.01))
            if sol.status == "optimal_within_gap":
                assert sol.gap <= 0.01 + 1e-12

    @staticmethod
    def _feasible_seed(start):
        for seed in range(start, start + 50):
            mip = random_mip(seed)
            best, assign = enumerate_binaries(mip)
            if best is not None:
                return mip, best, assign
        raise AssertionError("no feasible instance found")

    def test_warm_start_feasible(self):
        mip, best, assign = self._feasible_seed(4)
        sol = solve_mip(mip, SolveOptions(time_limit=30, rel_gap=0.0,
                                          warm_start=assign))
        assert sol.status == "optimal_within_gap"
        assert sol.objective_value == pytest.approx(best, abs=1e-6, rel=1e-6)

    def test_infeasible_warm_start_discarded(self):
        lp = LinearProgram()
        lp.add_variable("z0", 0.0, 1.0)
        lp.add_variable("z1", 0.0, 1.0)
        lp.add_constraint("c", [(0, 1.0), (1, 1.0)], "=", 1.0)
        lp.set_objective("maximize", [(0, 2.0), (1, 1.0)])
        mip = MixedIntegerProgram(base=lp, binary_vars=frozenset({0, 1}))
        sol = solve_mip(mip, SolveOptions(time_limit=10, rel_gap=0.0,
                                          warm_start={0: 1, 1: 1}))
        assert sol.status == "optimal_within_gap"
        assert sol.objective_value == pytest.approx(2.0)
        assert sol.assignment == {0: 1, 1: 0}

    def test_infeasible_instance(self):
        lp = LinearProgram()
        lp.add_variable("z", 0.0, 1.0)
        lp.add_constraint("c", [(0, 1.0)], ">=", 2.0)
        lp.set_objective("maximize", [(0, 1.0)])
        mip = MixedIntegerProgram(base=lp, binary_vars=frozenset({0}))
        sol = solve_mip(mip, SolveOptions(time_limit=10))
        assert sol.status == "infeasible"
        assert not sol.has_incumbent

    def test_binary_bound_validation(self):
        lp = LinearProgram()
        lp.add_variable("z", 0.0, 2.0)
        with pytest.raises(ValueError, match="bounds outside"):
            MixedIntegerProgram(base=lp, binary_vars=frozenset({0}))

    @pytest.mark.parametrize("failing_calls, status", [({2}, "feasible_time_limit"),
                                                       (None, "failure")])
    def test_unresolved_child_keeps_parent_bound(self, monkeypatch, failing_calls,
                                                 status):
        mip = knapsack()
        assert solve_mip(mip, SolveOptions(time_limit=10, rel_gap=0.0)).status == \
            "optimal_within_gap"
        calls = []

        def flaky(lp, *args, **kwargs):
            calls.append(lp)
            n = len(calls)
            if n > 1 and (failing_calls is None or n in failing_calls):
                return LpSolution("iteration_limit", float("nan"),
                                  np.zeros(len(lp.variables)))
            return solve_lp(lp, *args, **kwargs)

        monkeypatch.setattr(gridrestore.milp, "solve_lp", flaky)
        sol = solve_mip(mip, SolveOptions(time_limit=10, rel_gap=0.0))
        assert sol.status == status
        if status == "feasible_time_limit":
            assert sol.best_bound == pytest.approx(3.0)  # the root's bound
            assert sol.objective_value <= sol.best_bound

    def test_failed_root_leaves_the_bound_unknown(self, monkeypatch):
        mip = knapsack()
        calls = []

        def root_fails(lp, *args, **kwargs):
            calls.append(kwargs.get("start"))
            if len(calls) == 1:  # the root LP comes first
                return LpSolution("numerical_failure", float("nan"),
                                  np.zeros(len(lp.variables)))
            return solve_lp(lp, *args, **kwargs)

        monkeypatch.setattr(gridrestore.milp, "solve_lp", root_fails)
        sol = solve_mip(mip, SolveOptions(time_limit=10, rel_gap=0.0,
                                          warm_start={0: 0, 1: 0, 2: 1}))
        # with no root basis the warm-start LP is solved cold, and nothing else
        assert calls == [None, None]
        assert sol.nodes == 2
        assert sol.status == "feasible_time_limit"
        assert sol.objective_value == pytest.approx(1.5)
        assert sol.best_bound == INF
        assert sol.gap == INF

    @pytest.mark.parametrize("seed", range(6))
    def test_every_node_is_one_lp_call(self, monkeypatch, seed):
        mip, _, assign = self._feasible_seed(20 + 10 * seed)
        calls = []
        results = []

        def counting(lp, *args, **kwargs):
            calls.append((lp, kwargs.get("start")))
            results.append(solve_lp(lp, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(gridrestore.milp, "solve_lp", counting)
        sol = solve_mip(mip, SolveOptions(time_limit=30, rel_gap=0.0, warm_start=assign))
        assert sol.nodes == len(calls)
        assert all(lp is mip.base for lp, _ in calls)
        # the root is cold; the warm-start LP and every child start warm
        assert calls[0][1] is None
        assert all(start is not None for _, start in calls[1:])
        # the warm-start LP starts from the root's basis and inverts it itself
        assert calls[1][1] is results[0].basis
        assert calls[1][1].inverse is None
        # siblings share one start carrying the parent's inverse
        children = [start for _, start in calls[2:]]
        assert len(children) % 2 == 0
        for first, second in zip(children[::2], children[1::2]):
            assert first is second
            assert first.inverse is not None
        # no solution, and so no heap entry, holds an inverse
        assert all(r.basis is None or r.basis.inverse is None for r in results)

    def test_rop_node_bounds_warm_matches_cold(self, meshed_scenarios):
        for net, dmg in meshed_scenarios:
            n = len(dmg.damaged_lines)
            mip = build_rop(net, dmg, build_schedule(n, n)).program
            form = standard_form(mip.base)
            root = solve_lp(mip.base, form=form)
            assert root.status == "optimal"
            fractional = [j for j in sorted(mip.binary_vars)
                          if 1e-6 < root.primal[j] < 1 - 1e-6][:3]
            for j in fractional:
                for value in (0.0, 1.0):
                    lower, upper = form.lower.copy(), form.upper.copy()
                    lower[j] = upper[j] = value
                    child = replace(form, lower=lower, upper=upper)
                    warm = solve_lp(mip.base, form=child, start=root.basis)
                    cold = solve_lp(mip.base, form=child)
                    assert warm.status == cold.status
                    if cold.status == "optimal":
                        assert warm.objective_value == pytest.approx(
                            cold.objective_value, rel=1e-9, abs=1e-9)

    def test_determinism(self):
        mip, _, _ = self._feasible_seed(11)
        opts = SolveOptions(time_limit=30, rel_gap=0.0)
        a = solve_mip(mip, opts)
        b = solve_mip(mip, opts)
        assert a.assignment == b.assignment
        assert a.nodes == b.nodes
        assert a.objective_value == b.objective_value


class TestSolutionFileParsing:
    def test_basic(self):
        obj, vals = parse_solution_file(
            "# comment\nobjective 4.5\nX0000001 1\nX0000002 0.25\n")
        assert obj == 4.5
        assert vals == {"X0000001": 1.0, "X0000002": 0.25}

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_solution_file("X0000001 1 extra\n")


@pytest.fixture
def simple_binary_mip():
    lp = LinearProgram()
    lp.add_variable("z0", 0.0, 1.0)
    lp.add_variable("z1", 0.0, 1.0)
    lp.add_constraint("c", [(0, 1.0), (1, 1.0)], "<=", 1.0)
    lp.set_objective("maximize", [(0, 3.0), (1, 2.0)])
    return MixedIntegerProgram(base=lp, binary_vars=frozenset({0, 1}))


class TestExternalBackend:
    def test_echo_fixture(self, simple_binary_mip, tmp_path):
        prepared = tmp_path / "ready.sol"
        prepared.write_text(f"objective 3\n{mps_column_name(0)} 1\n"
                            f"{mps_column_name(1)} 0\n")
        backend = ExternalBackendConfig(command_template=f"cp {prepared} {{solfile}}")
        sol = solve_external(simple_binary_mip, SolveOptions(time_limit=10), backend)
        assert sol.status == "optimal_within_gap"
        assert sol.assignment == {0: 1, 1: 0}
        assert sol.objective_value == pytest.approx(3.0)

    def test_nonzero_exit(self, simple_binary_mip):
        backend = ExternalBackendConfig(command_template="false {mps} {solfile}")
        sol = solve_external(simple_binary_mip, SolveOptions(time_limit=10), backend)
        assert sol.status == "failure"

    def test_missing_solution_file(self, simple_binary_mip):
        backend = ExternalBackendConfig(command_template="true {mps} {solfile}")
        sol = solve_external(simple_binary_mip, SolveOptions(time_limit=10), backend)
        assert sol.status == "failure"

    def test_unparseable_solution(self, simple_binary_mip, tmp_path):
        prepared = tmp_path / "junk.sol"
        prepared.write_text("garbage line with words\n")
        backend = ExternalBackendConfig(command_template=f"cp {prepared} {{solfile}}")
        sol = solve_external(simple_binary_mip, SolveOptions(time_limit=10), backend)
        assert sol.status == "failure"

    def test_infeasible_solution_rejected(self, simple_binary_mip, tmp_path):
        prepared = tmp_path / "bad.sol"
        prepared.write_text(f"{mps_column_name(0)} 1\n{mps_column_name(1)} 1\n")
        backend = ExternalBackendConfig(command_template=f"cp {prepared} {{solfile}}")
        sol = solve_external(simple_binary_mip, SolveOptions(time_limit=10), backend)
        assert sol.status == "failure"

    def test_fractional_binary_rejected(self, simple_binary_mip, tmp_path):
        prepared = tmp_path / "frac.sol"
        prepared.write_text(f"{mps_column_name(0)} 0.4\n")
        backend = ExternalBackendConfig(command_template=f"cp {prepared} {{solfile}}")
        sol = solve_external(simple_binary_mip, SolveOptions(time_limit=10), backend)
        assert sol.status == "failure"
