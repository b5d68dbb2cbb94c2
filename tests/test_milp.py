import heapq
import os
import random
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import gridrestore.lp
import gridrestore.milp
from gridrestore.lp import (INF, Basis, LinearProgram, LpSolution, mps_column_name, solve_lp,
                            standard_form)
from gridrestore.milp import (ExternalBackendConfig, MixedIntegerProgram,
                              SolveOptions, parse_solution_file, solve_external,
                              solve_mip)
from gridrestore.models import build_rop
from gridrestore.network import build_schedule, random_damage
from conftest import meshed_network, start_inversions
from oracles import enumerate_binaries


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


def slack_start(mip):
    """The slack basis of ``mip``'s relaxation, every other column at its
    lower bound: a root start built by hand."""
    form = standard_form(mip.base)
    m, nt = form.b.size, form.c.size
    status = np.full(nt, 1, dtype=np.int8)
    status[nt - m:] = 0
    return Basis(np.arange(nt - m, nt), status)


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
        # z0 is a binary bounded [1, 1]: an enumeration that set it to 0
        # would score z1 = z2 = 1 (3.0), outside the MILP, whose optimum
        # is z0 = z1 = 1 (1.0)
        lp = LinearProgram()
        lp.add_variable("z0", 1.0, 1.0)
        lp.add_variable("z1", 0.0, 1.0)
        lp.add_variable("z2", 0.0, 1.0)
        lp.add_constraint("cap", [(0, 1.0), (1, 1.0), (2, 1.0)], "<=", 2.0)
        lp.set_objective("maximize", [(0, -1.0), (1, 2.0), (2, 1.0)])
        mip = MixedIntegerProgram(base=lp, binary_vars=frozenset(range(3)))
        best, assign = enumerate_binaries(mip)
        assert assign == {0: 1, 1: 1, 2: 0}
        assert best == pytest.approx(1.0, abs=1e-12)
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

    # instances whose root branches under their optimal warm start
    BRANCHING_STARTS = (100, 180, 40, 50, 60, 70)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_node_is_one_lp_call(self, monkeypatch, seed):
        mip, _, assign = self._feasible_seed(self.BRANCHING_STARTS[seed])
        calls, carried = [], []

        def recording(lp, *args, **kwargs):
            sol = solve_lp(lp, *args, **kwargs)
            calls.append((lp, kwargs.get("start"), sol))
            if sol.status == "optimal":
                # the inverse the solve ended with, which its basis carries
                inverse = sol.basis.inverse(kwargs["form"])
                carried.append((inverse, inverse.copy()))
            return sol

        made = start_inversions(monkeypatch)
        monkeypatch.setattr(gridrestore.milp, "solve_lp", recording)
        sol = solve_mip(mip, SolveOptions(time_limit=30, rel_gap=0.0, warm_start=assign))
        assert sol.nodes == len(calls)
        assert all(lp is mip.base for lp, _, _ in calls)
        # the root is cold; the warm-start LP and every child start warm
        root, incumbent = calls[0], calls[1]
        assert root[1] is None
        assert all(start is not None for _, start, _ in calls[1:])
        # the warm-start LP starts from the root's basis
        assert incumbent[1] is root[2].basis
        children = calls[2:]
        assert len(children) % 2 == 0
        assert children, "the root must branch for the checks below to bite"
        for i in range(2, len(calls), 2):
            first, second = calls[i], calls[i + 1]
            # siblings start from their parent's basis, which a solved
            # node's solution holds
            assert first[1] is second[1]
            assert any(first[1] is c[2].basis for c in calls[:i])
        # every start is a solve's optimal basis, carrying the inverse that
        # solve ended with: no LP inverts a start, the root's included (a
        # solve may still invert its own basis afresh to check a result)
        assert made == []
        # no solve changed an inverse it copied
        for inverse, copy in carried:
            np.testing.assert_array_equal(inverse, copy)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_inverse_per_branching(self, monkeypatch, seed):
        # branching inverts no start: without a start the search inverts
        # none, and with a root start built by hand it inverts that one
        # once, however many branchings follow
        mip, _, assign = self._feasible_seed(20 + 10 * seed)
        inverses = start_inversions(monkeypatch)
        opts = SolveOptions(time_limit=30, rel_gap=0.0, warm_start=assign)
        sol = solve_mip(mip, opts)
        # the root, the warm-start LP, then two children per branching
        branchings = (sol.nodes - 2) // 2
        assert sol.nodes == 2 + 2 * branchings
        assert inverses == []
        started = solve_mip(replace(mip, start=slack_start(mip)), opts)
        assert len(inverses) == 1
        assert started.status == sol.status == "optimal_within_gap"
        assert started.objective_value == pytest.approx(sol.objective_value,
                                                        rel=1e-9, abs=1e-9)

    def test_heap_holds_a_bounded_number_of_inverses(self, monkeypatch):
        # with room for k inverses, at most k nodes waiting on the heap hold
        # one; the rest wait with their basis alone, which their branching
        # inverts once. With room for none, every branching but the root's
        # (whose children copy the inverse of the root's solve) inverts once.
        inverses, held = [], []
        real_inverse = gridrestore.lp.basis_inverse
        real_push = gridrestore.milp.heapq.heappush

        def counting(form, columns):
            inverses.append(None)
            return real_inverse(form, columns)

        def push(heap, item):
            real_push(heap, item)
            held.append(sum(bool(entry[3].basis._kept) for entry in heap))

        monkeypatch.setattr(gridrestore.lp, "basis_inverse", counting)
        monkeypatch.setattr(gridrestore.milp, "heapq",
                            SimpleNamespace(heappush=push, heappop=heapq.heappop))
        # a full ROP of a meshed 14-bus grid whose search takes 57 nodes
        net = meshed_network(4, 14)
        dmg = random_damage(net, 0.3, 4)
        n = len(dmg.damaged_lines)
        mip = build_rop(net, dmg, build_schedule(n, n)).program
        m = len(mip.base.constraints)
        opts = SolveOptions(time_limit=30, rel_gap=0.0)
        expected = solve_mip(mip, opts)
        assert expected.nodes > 20
        for k in (0, 1, 5, 10 ** 6):
            monkeypatch.setattr(gridrestore.milp, "HEAP_INVERSE_BYTES", k * 8 * m * m)
            del inverses[:], held[:]
            sol = solve_mip(mip, opts)
            assert sol.status == expected.status == "optimal_within_gap"
            assert sol.objective_value == pytest.approx(expected.objective_value,
                                                        rel=1e-9, abs=1e-9)
            # node counts differ between budgets: a fresh inverse and a
            # carried one differ by rounding, which moves picks among nodes
            # of equal bound
            assert max(held) <= k
            # the model's start, built by hand, inverts once for the root,
            # whose children copy the inverse of the root's solve
            if k == 0:
                # every later branching inverts its node's basis once
                assert len(inverses) == (sol.nodes - 1) // 2
            elif k == 10 ** 6:
                assert len(inverses) == 1
            else:
                assert max(held) == k  # the budget binds

    def test_long_child_lp_keeps_the_deadline(self, monkeypatch):
        # the LP core's clock jumps past the deadline as each child LP starts,
        # as if the child ran long: it ends iteration_limit, and the search
        # returns at once with its incumbent and the root's bound
        mip = knapsack()
        now = [time.monotonic()]
        monkeypatch.setattr(gridrestore.lp, "time", SimpleNamespace(monotonic=lambda: now[0]))
        deadlines, results = [], []

        def long_children(lp, *args, **kwargs):
            deadlines.append(kwargs["deadline"])
            if len(deadlines) > 2:  # after the root and the warm-start LP
                now[0] = kwargs["deadline"] + 1.0
            results.append(solve_lp(lp, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(gridrestore.milp, "solve_lp", long_children)
        began = time.monotonic()
        sol = solve_mip(mip, SolveOptions(time_limit=30, rel_gap=0.0,
                                          warm_start={0: 1, 1: 0, 2: 0}))
        ended = time.monotonic()
        assert ended - began < 30
        # every LP's deadline is the MILP's start plus its time limit
        assert began + 30 <= deadlines[0] <= ended + 30
        assert len(set(deadlines)) == 1
        assert [r.status for r in results[:2]] == ["optimal", "optimal"]
        assert [(r.status, r.iterations) for r in results[2:]] == \
            [("iteration_limit", 0)] * 2
        assert sol.status == "feasible_time_limit"
        assert sol.objective_value == pytest.approx(2.0)
        assert sol.best_bound == pytest.approx(3.0)  # the root's bound

    def test_singular_parent_leaves_children_to_invert(self, monkeypatch,
                                                       meshed_scenarios):
        net, dmg = meshed_scenarios[1]
        n = len(dmg.damaged_lines)
        mip = build_rop(net, dmg, build_schedule(n, n)).program
        opts = SolveOptions(time_limit=30, rel_gap=0.0)
        expected = solve_mip(mip, opts)
        starts, cold = [], []
        real_slack = gridrestore.lp._Simplex.slack_basis

        def singular(form, columns):
            raise np.linalg.LinAlgError("Singular matrix")

        def counting_cold(self):
            cold.append(None)
            return real_slack(self)

        def recording(lp, *args, **kwargs):
            starts.append(kwargs.get("start"))
            return solve_lp(lp, *args, **kwargs)

        inverses = start_inversions(monkeypatch, singular)
        monkeypatch.setattr(gridrestore.lp._Simplex, "slack_basis", counting_cold)
        monkeypatch.setattr(gridrestore.milp, "solve_lp", recording)
        sol = solve_mip(mip, opts)
        # only the model's start, built by hand, has an inverse to make: the
        # root tries it once and solves cold in the same LP call, and the
        # cold root's basis carries the inverse that solve ended with, so
        # its children, and theirs, start warm and invert nothing
        assert len(starts) == sol.nodes > 1
        assert starts[0] is mip.start
        assert all(start is not None for start in starts)
        assert len(inverses) == 1
        np.testing.assert_array_equal(inverses[0], mip.start.columns)
        assert len(cold) == 1
        # a cold root may reach another optimal vertex, and so another
        # optimal assignment, but the optimum is the same
        assert sol.status == expected.status == "optimal_within_gap"
        assert sol.objective_value == pytest.approx(expected.objective_value,
                                                    rel=1e-9)
        assert sol.gap == 0.0

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
