import importlib.util
import math
import os
import random
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

import gridrestore.lp as lp_module
from gridrestore.lp import (INF, Basis, LinearProgram, Variable, basis_inverse,
                            mps_column_name, mps_row_name, solve_lp, standard_form,
                            write_mps)
import gridrestore.milp as milp_module
from gridrestore.milp import MixedIntegerProgram, SolveOptions, solve_mip
from gridrestore.heuristics import util_order
from gridrestore.models import build_rip, build_rop, plan_to_assignment
from gridrestore.network import (DamageScenario, RestorationPlan,
                                 build_schedule, parse_case, random_damage)
from conftest import meshed_network, start_inversions, tiny3_network


def simple_lp(sense, obj, variables, constraints):
    lp = LinearProgram()
    for name, lo, hi in variables:
        lp.add_variable(name, lo, hi)
    for i, (terms, rel, rhs) in enumerate(constraints):
        lp.add_constraint(f"c{i}", terms, rel, rhs)
    lp.set_objective(sense, obj)
    return lp


def random_lp(seed, max_vars=30):
    """Random LP with mixed relations, free variables and infinite bounds."""
    rng = random.Random(seed)
    n = rng.randint(2, max_vars)
    m = rng.randint(1, n + 5)
    lp = LinearProgram()
    for j in range(n):
        kind = rng.random()
        if kind < 0.6:
            lo, hi = 0.0, rng.uniform(1, 10)
        elif kind < 0.75:
            lo, hi = -rng.uniform(1, 5), rng.uniform(1, 5)
        elif kind < 0.9:
            lo, hi = 0.0, INF
        else:
            lo, hi = -INF, INF
        lp.add_variable(f"x{j}", lo, hi)
    for i in range(m):
        terms = [(j, rng.uniform(-3, 3)) for j in
                 rng.sample(range(n), rng.randint(1, min(n, 4)))]
        rel = rng.choice(["<=", "<=", ">=", "="])
        lp.add_constraint(f"c{i}", terms, rel, rng.uniform(-5, 5))
    lp.set_objective(rng.choice(["maximize", "minimize"]),
                     [(j, rng.uniform(-2, 2)) for j in range(n)])
    return lp


def feasible_lp(seed, max_vars=30):
    """Random feasible, bounded LP: boxed variables, rows satisfied by a known point.

    Each rhs is a.x0 for a point x0 inside the boxes, moved by a nonnegative
    slack in the direction of its relation (zero for half the
    inequalities, so some rows are tight at x0).
    """
    rng = random.Random(seed)
    n = rng.randint(2, max_vars)
    m = rng.randint(1, n + 5)
    lp = LinearProgram()
    x0 = []
    for j in range(n):
        lo = 0.0 if rng.random() < 0.6 else -rng.uniform(1, 5)
        hi = lo + rng.uniform(1, 10)
        lp.add_variable(f"x{j}", lo, hi)
        x0.append(rng.uniform(lo, hi))
    for i in range(m):
        terms = [(j, rng.uniform(-3, 3)) for j in
                 rng.sample(range(n), rng.randint(1, min(n, 4)))]
        rel = rng.choice(["<=", "<=", ">=", "="])
        slack = 0.0 if rel == "=" else rng.choice([0.0, rng.uniform(0, 3)])
        ax0 = sum(a * x0[j] for j, a in terms)
        lp.add_constraint(f"c{i}", terms, rel, ax0 + slack if rel == "<=" else ax0 - slack)
    lp.set_objective(rng.choice(["maximize", "minimize"]),
                     [(j, rng.uniform(-2, 2)) for j in range(n)])
    return lp


def solve_with_scipy(lp):
    n = len(lp.variables)
    c = np.zeros(n)
    sense = -1.0 if lp.objective_sense == "maximize" else 1.0
    for j, coef in lp.objective_terms:
        c[j] += sense * coef
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in lp.constraints:
        row = np.zeros(n)
        for j, coef in con.terms:
            row[j] += coef
        if con.relation == "<=":
            a_ub.append(row); b_ub.append(con.rhs)
        elif con.relation == ">=":
            a_ub.append(-row); b_ub.append(-con.rhs)
        else:
            a_eq.append(row); b_eq.append(con.rhs)
    bounds = [(v.lower if np.isfinite(v.lower) else None,
               v.upper if np.isfinite(v.upper) else None)
              for v in lp.variables]
    return linprog(c, A_ub=np.array(a_ub) if a_ub else None,
                   b_ub=b_ub or None, A_eq=np.array(a_eq) if a_eq else None,
                   b_eq=b_eq or None, bounds=bounds, method="highs")


def dense_matrix(lp):
    """The standard form's matrix, built densely from the LP's own terms:
    each term added into its cell, then one unit slack column per row."""
    n, m = len(lp.variables), len(lp.constraints)
    A = np.zeros((m, n + m))
    for i, con in enumerate(lp.constraints):
        for idx, coef in con.terms:
            A[i, idx] += coef
    A[:, n:] = np.eye(m)
    return A


class TestBasics:
    def test_single_constraint(self):
        lp = simple_lp("maximize", [(0, 1.0)], [("x", 0.0, 10.0)],
                       [([(0, 1.0)], "<=", 3.0)])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(3.0)

    def test_degenerate_optimum(self):
        lp = simple_lp("maximize", [(0, 1.0), (1, 1.0)],
                       [("x", 0.0, INF), ("y", 0.0, INF)],
                       [([(0, 1.0), (1, 1.0)], "<=", 1.0)])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0)

    def test_rip_no_damage_serves_all(self):
        net = tiny3_network()
        lp = build_rip(net, DamageScenario(()), RestorationPlan.from_lists([[]]),
                       build_schedule(0, 1))
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.4)

    def test_infeasible_certified(self):
        lp = simple_lp("maximize", [(0, 1.0)], [("x", 0.0, 1.0)],
                       [([(0, 1.0)], ">=", 5.0)])
        assert solve_lp(lp).status == "infeasible"

    def test_infeasible_equalities(self):
        lp = simple_lp("minimize", [(0, 1.0)], [("x", -INF, INF)],
                       [([(0, 1.0)], "=", 1.0), ([(0, 1.0)], "=", 2.0)])
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded_certified(self):
        lp = simple_lp("maximize", [(0, 1.0)], [("x", 0.0, INF)],
                       [([(0, -1.0)], "<=", 1.0)])
        assert solve_lp(lp).status == "unbounded"

    def test_iteration_limit_status(self, monkeypatch):
        lp = random_lp(7)
        full = solve_lp(lp)
        monkeypatch.setattr(lp_module, "ITERATION_LIMIT", 1)
        sol = solve_lp(lp)
        assert sol.status in ("iteration_limit", "optimal", "infeasible")
        if full.iterations > 1:
            assert sol.status == "iteration_limit"

    def test_singular_basis_is_a_status(self, monkeypatch):
        # every fresh inversion finds the basis singular: the one after a
        # run's final check finds its optimum inaccurate, and the one
        # between phase 1 and phase 2
        raised_at, checks = [], []
        real_accurate = lp_module._Simplex._accurate

        def singular(self):
            raised_at.append(self.iterations)
            raise np.linalg.LinAlgError("Singular matrix")

        def final_check_fails(self):
            # the checks alternate: a start, then an optimum (a run whose
            # phase 1 pivots raises before its final check)
            checks.append(None)
            return len(checks) % 2 == 1 and real_accurate(self)

        # x >= 0 starts at 0, where the row holds: phase 1 does nothing
        lp = LinearProgram()
        lp.add_variable("x", 0.0, INF)
        lp.add_constraint("c", [(0, 1.0)], "<=", 3.0)
        lp.set_objective("maximize", [(0, 1.0)])
        pivots = solve_lp(lp).iterations
        # max x s.t. x + y <= 1, y >= 0.6; the child x <= 0.2 takes a dual pivot
        lp2 = simple_lp("maximize", [(0, 1.0)], [("x", 0.0, 1.0), ("y", 0.0, 1.0)],
                        [([(0, 1.0), (1, 1.0)], "<=", 1.0), ([(1, 1.0)], ">=", 0.6)])
        form = standard_form(lp2)
        parent = solve_lp(lp2, form=form)
        monkeypatch.setattr(lp_module._Simplex, "_refactorize", singular)
        monkeypatch.setattr(lp_module._Simplex, "_accurate", final_check_fails)
        sol = solve_lp(lp)
        assert sol.status == "numerical_failure"
        assert sol.primal.shape == (1,)
        assert pivots > 0
        assert raised_at == [pivots]
        assert sol.iterations == pivots

        # the warm run's singular basis sends it back to the slack basis,
        # where y >= 0.6 breaks at y = 0, and the inversion after phase 1
        # raises; both runs' pivots count
        raised_at.clear()
        sol = solve_lp(lp2, form=tightened(form, 0, 0.0, 0.2), start=parent.basis)
        assert sol.status == "numerical_failure"
        assert len(raised_at) == 2
        assert raised_at[1] > raised_at[0] > 0
        assert sol.iterations == raised_at[1]

    def test_crossed_bounds_infeasible(self):
        lp = simple_lp("maximize", [(0, 1.0)], [("x", 2.0, 1.0)], [])
        assert solve_lp(lp).status == "infeasible"

    def test_validate_rejects_bad_index(self):
        lp = simple_lp("maximize", [(3, 1.0)], [("x", 0.0, 1.0)], [])
        with pytest.raises(ValueError, match="out of range"):
            solve_lp(lp)

    def test_validate_rejects_duplicate_names(self):
        lp = simple_lp("maximize", [], [("x", 0.0, 1.0), ("x", 0.0, 1.0)], [])
        with pytest.raises(ValueError, match="unique"):
            solve_lp(lp)


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(100))
    def test_random_lps(self, seed):
        # random_lp covers every status; feasible_lp's optima are compared
        lp = random_lp(seed) if seed < 60 else feasible_lp(seed)
        ours = solve_lp(lp)
        ref = solve_with_scipy(lp)
        if ref.status == 2:
            assert ours.status == "infeasible"
        elif ref.status == 3:
            assert ours.status == "unbounded"
        else:
            assert ref.status == 0
            assert ours.status == "optimal"
            sense = -1.0 if lp.objective_sense == "maximize" else 1.0
            assert sense * ours.objective_value == pytest.approx(
                ref.fun, abs=1e-6, rel=1e-6)
            assert lp.constraint_violation(ours.primal) <= 1e-7
            for v, val in zip(lp.variables, ours.primal):
                assert v.lower - 1e-9 <= val <= v.upper + 1e-9


class TestInvariants:
    def test_resubstituted_objective(self):
        for seed in range(20):
            lp = random_lp(seed + 500)
            sol = solve_lp(lp)
            if sol.status == "optimal":
                assert lp.objective_value(sol.primal) == pytest.approx(
                    sol.objective_value, abs=1e-9)

    def test_determinism(self):
        lp = random_lp(42)
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.status == b.status
        assert a.iterations == b.iterations
        assert np.array_equal(a.primal, b.primal)


def tightened(form, j, lower, upper):
    """``form`` with column j's bounds replaced."""
    lo, up = form.lower.copy(), form.upper.copy()
    lo[j], up[j] = lower, upper
    return replace(form, lower=lo, upper=up)


def assert_same_result(warm, cold):
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.objective_value == pytest.approx(cold.objective_value,
                                                     rel=1e-9, abs=1e-9)


def rop_forms(meshed_scenarios):
    """(MILP, standard form) of the full ROP of each meshed scenario."""
    for net, dmg in meshed_scenarios:
        n = len(dmg.damaged_lines)
        mip = build_rop(net, dmg, build_schedule(n, n)).program
        yield mip, standard_form(mip.base)


def branching(mip, sol, count=3):
    """The ``count`` binaries nearest 0.5 in ``sol``, lowest index first on
    ties; a root from the model's start can be integral."""
    return sorted(sorted(mip.binary_vars), key=lambda j: abs(sol.primal[j] - 0.5))[:count]


def sums_and_cancels():
    """min x1 over one row whose terms on x0 cancel and on x1 sum to 5."""
    return simple_lp("minimize", [(1, 1.0)], [("x0", 0.0, 1.0), ("x1", 0.0, 1.0)],
                     [([(0, 1.0), (0, -1.0), (1, 2.0), (1, 3.0)], "<=", 4.0)])


class TestWarmStart:
    @pytest.mark.parametrize("seed", range(40))
    def test_bound_change_matches_cold(self, seed):
        lp = feasible_lp(seed)
        form = standard_form(lp)
        parent = solve_lp(lp, form=form)
        assert parent.status == "optimal"
        rng = random.Random(seed)
        for _ in range(4):
            j = rng.randrange(len(lp.variables))
            lo, up = form.lower[j], form.upper[j]
            v = parent.primal[j]
            cut = min(max(v + rng.choice([-1.0, -0.5, 0.5, 1.0]), lo), up)
            child = tightened(form, j, *((lo, cut) if cut < v else (cut, up)))
            assert_same_result(solve_lp(lp, form=child, start=parent.basis),
                               solve_lp(lp, form=child))

    def test_lp_without_rows(self):
        lp = simple_lp("maximize", [(0, 1.0), (1, -1.0)],
                       [("x", 0.0, 3.0), ("y", -1.0, 2.0)], [])
        form = standard_form(lp)
        parent = solve_lp(lp, form=form)
        assert parent.objective_value == pytest.approx(4.0)
        child = solve_lp(lp, form=tightened(form, 0, 0.0, 1.0), start=parent.basis)
        assert child.status == "optimal"
        assert child.objective_value == pytest.approx(2.0)

    def test_infeasible_child_from_the_dual_simplex(self, monkeypatch):
        # max x s.t. x + y <= 1, y >= 0.6: optimum x = 0.4
        lp = simple_lp("maximize", [(0, 1.0)], [("x", 0.0, 1.0), ("y", 0.0, 1.0)],
                       [([(0, 1.0), (1, 1.0)], "<=", 1.0), ([(1, 1.0)], ">=", 0.6)])
        form = standard_form(lp)
        parent = solve_lp(lp, form=form)
        assert parent.objective_value == pytest.approx(0.4)

        def no_cold_solve(self):
            raise AssertionError("warm start fell back to the slack basis")

        monkeypatch.setattr(lp_module._Simplex, "slack_basis", no_cold_solve)
        child = solve_lp(lp, form=tightened(form, 0, 0.5, 1.0), start=parent.basis)
        assert child.status == "infeasible"
        assert child.basis is None

    def test_false_infeasibility_proof_solves_cold(self, monkeypatch):
        # the child of test_infeasible_child_from_the_dual_simplex with
        # x <= 0.3, which is feasible. A zero first pivot row, as a drifted
        # inverse could give, lets the first proof claim infeasibility; the
        # fresh inverse's row refutes it and the solve runs from the slack
        # basis
        lp = simple_lp("maximize", [(0, 1.0)], [("x", 0.0, 1.0), ("y", 0.0, 1.0)],
                       [([(0, 1.0), (1, 1.0)], "<=", 1.0), ([(1, 1.0)], ">=", 0.6)])
        form = standard_form(lp)
        parent = solve_lp(lp, form=form)
        simplex = lp_module._Simplex
        real_row, real_proof = simplex._pivot_row, simplex._row_infeasible
        rows, proofs = [], []

        def drifted_row(self, r):
            alpha = real_row(self, r)
            rows.append(r)
            return np.zeros_like(alpha) if len(rows) == 1 else alpha

        def proof(self, gain, shortfall):
            proofs.append(real_proof(self, gain, shortfall))
            return proofs[-1]

        colds = slack_runs(monkeypatch)
        monkeypatch.setattr(simplex, "_pivot_row", drifted_row)
        monkeypatch.setattr(simplex, "_row_infeasible", proof)
        child = solve_lp(lp, form=tightened(form, 0, 0.0, 0.3), start=parent.basis)
        assert proofs == [True, False] and len(colds) == 1
        assert child.status == "optimal"
        assert child.objective_value == pytest.approx(0.3)

    def test_noise_gain_does_not_refute_a_proof(self, monkeypatch):
        # an infeasible child of a generated LP. The leaving row's pivot row
        # holds gains of about 1e-17 on nonbasic columns with an infinite
        # range; counted, they would let that row's values move without
        # limit and refute the proof, sending the solve to the slack basis
        lp = feasible_lp(0)
        form = standard_form(lp)
        parent = solve_lp(lp, form=form)
        child = tightened(form, 17, form.lower[17], parent.primal[17] - 0.5)
        real_proof = lp_module._Simplex._row_infeasible
        noise = []

        def proof(self, gain, shortfall):
            tiny = (self.stat != lp_module._BASIC) & (gain != 0.0) & \
                (np.abs(gain) <= lp_module.PIVOT_TOL)
            noise.append(bool(np.isinf(self.up[tiny] - self.lo[tiny]).any()))
            return real_proof(self, gain, shortfall)

        colds = slack_runs(monkeypatch)
        monkeypatch.setattr(lp_module._Simplex, "_row_infeasible", proof)
        sol = solve_lp(lp, form=child, start=parent.basis)
        assert (sol.status, colds) == ("infeasible", [])
        assert noise[0]
        fixed = [Variable(v.name, lo, hi) for v, lo, hi in zip(lp.variables, child.lower, child.upper)]
        assert solve_with_scipy(replace(lp, variables=fixed)).status == 2

    def test_singular_start_falls_back_to_cold(self):
        # x and y have identical columns, so a basis holding both is singular
        lp = simple_lp("maximize", [(0, 1.0), (1, 2.0)],
                       [("x", 0.0, 5.0), ("y", 0.0, 1.0)],
                       [([(0, 1.0), (1, 1.0)], "<=", 3.0),
                        ([(0, 2.0), (1, 2.0)], "<=", 8.0)])
        form = standard_form(lp)
        status = np.full(4, 1, dtype=np.int8)
        status[:2] = 0
        singular = Basis(np.array([0, 1]), status)
        sol = solve_lp(lp, form=form, start=singular)
        assert sol.status == "optimal"
        assert_same_result(sol, solve_lp(lp))
        assert sol.objective_value == pytest.approx(4.0)

    def test_artificial_basis_maps_to_slacks(self):
        # the >= and = rows break their slacks' bounds at the slack basis, so
        # the cold solve starts in phase 1; its optimal basis is a basis of
        # the form, with no column beyond it
        lp = simple_lp("minimize", [(0, 1.0), (1, 1.0)],
                       [("x", 0.0, 10.0), ("y", 0.0, 10.0)],
                       [([(0, 1.0), (1, 1.0)], ">=", 2.0),
                        ([(0, 1.0), (1, -1.0)], "=", 1.0)])
        form = standard_form(lp)
        parent = solve_lp(lp, form=form)
        assert parent.status == "optimal"
        assert parent.basis.columns.max() < dense_matrix(lp).shape[1]
        assert len(set(parent.basis.columns)) == len(lp.constraints)
        child = tightened(form, 0, 0.0, 1.0)
        assert_same_result(solve_lp(lp, form=child, start=parent.basis),
                           solve_lp(lp, form=child))

    def test_siblings_share_one_parent_inverse(self, meshed_scenarios, monkeypatch):
        made = []
        real_inverse = lp_module.basis_inverse

        def counting(form, columns):
            made.append(real_inverse(form, columns))
            return made[-1]

        monkeypatch.setattr(lp_module, "basis_inverse", counting)
        pivoted = 0
        for mip, form in rop_forms(meshed_scenarios):
            # the root as solve_mip solves it, from the model's start, which
            # is built by hand and so inverts itself once
            del made[:]
            parent = solve_lp(mip.base, form=form, start=mip.start)
            assert parent.status == "optimal"
            assert len(made) == 1
            carried = parent.basis.inverse(form)
            before = carried.copy()
            branched = branching(mip, parent)
            del made[:]
            for j in branched:
                for value in (0.0, 1.0):
                    child = tightened(form, j, value, value)
                    ours = solve_lp(mip.base, form=child, start=parent.basis)
                    # the parent's basis carries its solve's inverse: no
                    # child inverts it
                    assert made == []
                    own_basis = Basis(parent.basis.columns, parent.basis.status)
                    own = solve_lp(mip.base, form=child, start=own_basis)
                    # the same basis built by hand inverts itself once
                    assert len(made) == 1
                    del made[:]
                    assert ours.status == own.status
                    assert ours.iterations == own.iterations
                    pivoted += own.iterations > 0
                    if own.status == "optimal":
                        # the carried inverse and the fresh one differ by
                        # rounding: the same pivots reach the same vertex
                        assert ours.objective_value == pytest.approx(
                            own.objective_value, rel=1e-12, abs=1e-12)
                        np.testing.assert_array_equal(ours.basis.columns,
                                                      own.basis.columns)
                        np.testing.assert_array_equal(ours.basis.status,
                                                      own.basis.status)
            # kept for the matrix every child shares, and never changed
            assert parent.basis.inverse(form) is carried
            np.testing.assert_array_equal(carried, before)
            assert made == []
        assert pivoted >= 6

    def test_basis_on_another_matrix_is_inverted_afresh(self):
        # one shape, two matrices: the second row's coefficient on y differs
        def lp_with(coef):
            return simple_lp("maximize", [(0, 1.0), (1, 1.0)],
                             [("x", 0.0, 4.0), ("y", 0.0, 4.0)],
                             [([(0, 1.0), (1, 1.0)], "<=", 3.0),
                              ([(0, 1.0), (1, coef)], "<=", 2.0)])
        lp1, lp2 = lp_with(-1.0), lp_with(-2.0)
        form1, form2 = standard_form(lp1), standard_form(lp2)
        basis = solve_lp(lp1, form=form1).basis
        first = basis.inverse(form1)
        assert basis.inverse(tightened(form1, 0, 0.0, 1.0)) is first
        second = basis.inverse(form2)
        assert second is not first
        np.testing.assert_array_equal(second, basis_inverse(form2, basis.columns))
        assert not np.array_equal(first, second)
        child = tightened(form2, 0, 0.0, 1.0)
        warm = solve_lp(lp2, form=child, start=basis)
        assert_same_result(warm, solve_lp(lp2, form=child))
        assert warm.objective_value == pytest.approx(3.0)

    @pytest.mark.parametrize("failures", [1, 2])
    def test_inaccurate_updated_inverse(self, monkeypatch, failures):
        # max x s.t. x + y <= 1, y >= 0.6; the child x <= 0.2 takes a dual pivot
        lp = simple_lp("maximize", [(0, 1.0)], [("x", 0.0, 1.0), ("y", 0.0, 1.0)],
                       [([(0, 1.0), (1, 1.0)], "<=", 1.0), ([(1, 1.0)], ">=", 0.6)])
        form = standard_form(lp)
        parent = solve_lp(lp, form=form)
        child = tightened(form, 0, 0.0, 0.2)
        real_accurate = lp_module._Simplex._accurate
        real_refactorize = lp_module._Simplex._refactorize
        checks, refactorized = [], []

        def accurate(self):
            # check 1 accepts the start, check 2 the updated inverse's
            # optimum, check 3 the refactorized one
            checks.append(None)
            if 2 <= len(checks) <= 1 + failures:
                return False
            return real_accurate(self)

        def refactorize(self):
            refactorized.append(None)
            real_refactorize(self)

        cold = slack_runs(monkeypatch)
        monkeypatch.setattr(lp_module._Simplex, "_accurate", accurate)
        monkeypatch.setattr(lp_module._Simplex, "_refactorize", refactorize)
        sol = solve_lp(lp, form=child, start=parent.basis)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(0.2)
        if failures == 1:
            assert (len(checks), len(refactorized), len(cold)) == (3, 1, 0)
        else:
            # the run from the slack basis checks its start and its optimum,
            # which passes; it inverts afresh once, between its phases
            assert (len(checks), len(refactorized), len(cold)) == (5, 2, 1)


def slack_runs(monkeypatch) -> list:
    """One entry per run from the slack basis, that is, per cold solve."""
    runs = []
    real_slack = lp_module._Simplex.slack_basis

    def slack(self):
        runs.append(None)
        return real_slack(self)

    monkeypatch.setattr(lp_module._Simplex, "slack_basis", slack)
    return runs


@pytest.fixture
def warm_paths(monkeypatch):
    """The path each run from a caller's start takes ("dual", "primal" or
    None) and the number of runs from the slack basis, recorded on every
    ``_Simplex``."""
    paths = []
    real_warm = lp_module._Simplex._warm_start

    def warm(self, start, dual):
        if dual:  # a run from the slack basis never takes the dual path
            paths.append(real_warm(self, start, dual))
            return paths[-1]
        return real_warm(self, start, dual)

    monkeypatch.setattr(lp_module._Simplex, "_warm_start", warm)
    return paths, slack_runs(monkeypatch)


def slack_basis(form):
    """Every slack basic and every other column at its lower bound."""
    m, nt = form.b.size, form.c.size
    status = np.full(nt, 1, dtype=np.int8)
    status[nt - m:] = 0
    return Basis(np.arange(nt - m, nt), status)


def assert_feasible(lp, form, x):
    """``x`` satisfies the rows of ``lp`` and the bounds of ``form`` within 1e-6."""
    fixed = [Variable(v.name, lo, hi) for v, lo, hi in zip(lp.variables, form.lower, form.upper)]
    assert max(violations(replace(lp, variables=fixed), x)) <= 1e-6


class TestPrimalStart:
    def test_generated_lps_from_the_other_optimum(self, warm_paths):
        # the optimum under the negated objective is primal feasible, and
        # dual infeasible wherever a nonbasic slack prices the wrong way
        paths, colds = warm_paths
        primal = 0
        for seed in range(40):
            lp = feasible_lp(seed)
            form = standard_form(lp)
            cold = solve_lp(lp, form=form)
            other = solve_lp(lp, form=replace(form, c=-form.c))
            assert cold.status == other.status == "optimal"
            del paths[:], colds[:]
            sol = solve_lp(lp, form=form, start=other.basis)
            if paths != ["primal"]:
                continue
            primal += 1
            assert not colds
            assert sol.status == "optimal"
            assert sol.objective_value == pytest.approx(cold.objective_value, rel=0, abs=1e-9)
            assert_feasible(lp, form, sol.primal)
        assert primal >= 10

    def test_rop_roots_from_the_model_start(self, warm_paths):
        # the start is primal feasible; where it is dual feasible too, it
        # is the root's optimum and the dual path stops at once
        paths, colds = warm_paths
        taken = []
        for n_buses in (6, 8, 10, 12, 14, 16):
            for seed in (1, 2):
                mip = full_rop_root(seed, n_buses, 0.25)
                form = standard_form(mip.base)
                cold = solve_lp(mip.base, form=form)
                assert cold.status == "optimal"
                del paths[:], colds[:]
                sol = solve_lp(mip.base, form=form, start=mip.start)
                assert paths in (["primal"], ["dual"]) and not colds
                taken += paths
                assert sol.status == "optimal"
                assert sol.objective_value == pytest.approx(cold.objective_value,
                                                            rel=0, abs=1e-9)
                assert_feasible(mip.base, form, sol.primal)
                assert sol.iterations < cold.iterations
        assert taken.count("primal") >= 6

    def test_neither_feasible_start_runs_phase_1(self, monkeypatch):
        # max x + y, x - y >= 1, x + y <= 4: at the slack basis x = y = 0
        # breaks the first row, and x prices up from its lower bound. Phase 1
        # runs from the start itself, as from the slack basis of a cold solve
        starts = []
        real_warm = lp_module._Simplex._warm_start

        def warm(self, start, dual):
            path = real_warm(self, start, dual)
            if dual:  # a caller's start: its path, and whether it is primal feasible
                starts.append((path, path is not None and self._within_bounds()))
            return path

        monkeypatch.setattr(lp_module._Simplex, "_warm_start", warm)
        colds = slack_runs(monkeypatch)
        lp = simple_lp("maximize", [(0, 1.0), (1, 1.0)], [("x", 0.0, INF), ("y", 0.0, INF)],
                       [([(0, 1.0), (1, -1.0)], ">=", 1.0), ([(0, 1.0), (1, 1.0)], "<=", 4.0)])
        form = standard_form(lp)
        sol = solve_lp(lp, form=form, start=slack_basis(form))
        assert (starts, colds) == ([("primal", False)], [])
        assert sol.status == "optimal" and sol.objective_value == pytest.approx(4.0)
        from_start = 0
        for seed in range(40):
            lp = random_lp(seed)
            form = standard_form(lp)
            cold = solve_lp(lp, form=form)
            del starts[:], colds[:]
            sol = solve_lp(lp, form=form, start=slack_basis(form))
            if starts != [("primal", False)]:
                continue
            from_start += 1
            assert sol.status == cold.status
            if cold.status == "optimal":
                # the run from the start is the cold solve's run
                assert colds == [] and sol.iterations == cold.iterations
                np.testing.assert_array_equal(sol.primal, cold.primal)
                assert sol.objective_value == cold.objective_value
            else:
                # infeasibility and unboundedness are the slack basis's to report
                assert len(colds) == 1
        assert from_start >= 10


def assert_carries_fresh_inverse(form, sol):
    """``sol``'s basis carries its solve's inverse for ``form``'s matrix,
    equal to a fresh ``basis_inverse`` of its columns within 1e-9 relative."""
    kept = sol.basis._kept
    assert kept and kept[0] is form.nz_val and kept[2]
    fresh = basis_inverse(form, sol.basis.columns)
    assert np.abs(kept[1] - fresh).max() <= 1e-9 * np.abs(fresh).max()


@pytest.fixture
def made_inverses(monkeypatch):
    """The columns of every start basis ``basis_inverse`` inverts."""
    return start_inversions(monkeypatch)


class TestCarriedInverse:
    def test_generated_lps_carry_their_inverse(self):
        # cold optima, whose inverse is the identity updated by every pivot
        # of both phases, and the warm optima of bound changes
        warm = 0
        for seed in range(40):
            lp = feasible_lp(seed)
            form = standard_form(lp)
            parent = solve_lp(lp, form=form)
            assert_carries_fresh_inverse(form, parent)
            rng = random.Random(seed)
            for _ in range(4):
                j = rng.randrange(len(lp.variables))
                v = parent.primal[j]
                child = tightened(form, j, *((form.lower[j], v - 0.5) if rng.random() < 0.5
                                             else (v + 0.5, form.upper[j])))
                sol = solve_lp(lp, form=child, start=parent.basis)
                if sol.status == "optimal":
                    assert_carries_fresh_inverse(form, sol)
                    warm += sol.iterations > 0
        assert warm >= 20

    def test_rop_node_lps_carry_their_inverse(self, meshed_scenarios, monkeypatch):
        nodes = []

        def recording(lp, *args, **kwargs):
            sol = solve_lp(lp, *args, **kwargs)
            if sol.status == "optimal":
                assert_carries_fresh_inverse(kwargs["form"], sol)
                nodes.append(sol)
            return sol

        monkeypatch.setattr(milp_module, "solve_lp", recording)
        for mip, _ in rop_forms(meshed_scenarios):
            assert solve_mip(mip, SolveOptions(time_limit=30, rel_gap=0.0)).has_incumbent
        assert len(nodes) >= 10

    @pytest.mark.parametrize("seed", range(10))
    def test_drifted_carried_inverse_is_inverted_afresh(self, made_inverses, warm_paths,
                                                        seed):
        # a carried inverse that fails the start's residual check is
        # replaced once by a fresh one, and the solve stays warm
        paths, colds = warm_paths
        lp = feasible_lp(seed)
        form = standard_form(lp)
        parent = solve_lp(lp, form=form)
        drifted = parent.basis.inverse(form)
        drifted += np.random.default_rng(seed).uniform(0.01, 0.02, drifted.shape)
        child = tightened(form, 0, form.lower[0], form.lower[0])
        del paths[:], colds[:]
        sol = solve_lp(lp, form=child, start=parent.basis)
        assert paths != [None] and colds == []
        assert len(made_inverses) == 1
        np.testing.assert_array_equal(made_inverses[0], parent.basis.columns)
        assert_same_result(sol, solve_lp(lp, form=child))
        # the fresh inverse is kept: a sibling copies it
        assert parent.basis.inverse(form) is not drifted
        sibling = tightened(form, 0, form.upper[0], form.upper[0])
        assert_same_result(solve_lp(lp, form=sibling, start=parent.basis),
                           solve_lp(lp, form=sibling))
        assert len(made_inverses) == 1

    def test_drifted_made_inverse_solves_cold(self, made_inverses, warm_paths):
        # an inverse made for a basis built by hand is not made twice
        paths, colds = warm_paths
        lp = feasible_lp(3)
        form = standard_form(lp)
        parent = solve_lp(lp, form=form)
        start = Basis(parent.basis.columns, parent.basis.status)
        start.inverse(form)[:] += 0.01
        assert len(made_inverses) == 1
        del paths[:], colds[:]
        child = tightened(form, 0, form.lower[0], form.lower[0])
        sol = solve_lp(lp, form=child, start=start)
        assert (paths, len(colds), len(made_inverses)) == ([None], 1, 1)
        assert_same_result(sol, solve_lp(lp, form=child))

    def test_dual_reduced_costs_follow_the_pivots(self, meshed_scenarios, monkeypatch):
        # before each dual pivot and when the dual phase ends, the reduced
        # costs it updated equal freshly priced ones
        real_pivot = lp_module._Simplex._pivot
        real_dual = lp_module._Simplex._dual_phase
        in_dual, pivots = [False], []

        def check(simplex):
            fresh = simplex._reduced_costs(simplex.c)
            np.testing.assert_allclose(simplex.d, fresh, rtol=0,
                                       atol=1e-9 * (1.0 + np.abs(fresh).max()))

        def pivot(self, *args):
            if in_dual[0]:
                check(self)
                pivots.append(None)
            real_pivot(self, *args)

        def dual(self):
            in_dual[0] = True
            try:
                return real_dual(self)
            finally:
                in_dual[0] = False
                check(self)

        monkeypatch.setattr(lp_module._Simplex, "_pivot", pivot)
        monkeypatch.setattr(lp_module._Simplex, "_dual_phase", dual)
        for mip, _ in rop_forms(meshed_scenarios):
            # the child LPs start on the dual phase
            assert solve_mip(mip, SolveOptions(time_limit=30, rel_gap=0.0)).has_incumbent
        for seed in range(40):
            lp = feasible_lp(seed)
            form = standard_form(lp)
            parent = solve_lp(lp, form=form)
            for j in range(min(4, len(lp.variables))):
                v = parent.primal[j]
                solve_lp(lp, form=tightened(form, j, form.lower[j], v - 0.5),
                         start=parent.basis)
        assert len(pivots) >= 50


class TestDeadline:
    @pytest.mark.parametrize("seed", range(10))
    def test_past_deadline_stops_a_cold_solve(self, seed):
        lp = feasible_lp(seed)
        sol = solve_lp(lp, deadline=time.monotonic() - 1.0)
        assert (sol.status, sol.iterations) == ("iteration_limit", 0)

    def test_past_deadline_stops_the_dual_simplex(self):
        # max x s.t. x + y <= 1, y >= 0.6; the child x <= 0.2 takes a dual pivot
        lp = simple_lp("maximize", [(0, 1.0)], [("x", 0.0, 1.0), ("y", 0.0, 1.0)],
                       [([(0, 1.0), (1, 1.0)], "<=", 1.0), ([(1, 1.0)], ">=", 0.6)])
        form = standard_form(lp)
        parent = solve_lp(lp, form=form)
        child = tightened(form, 0, 0.0, 0.2)
        late = solve_lp(lp, form=child, start=parent.basis, deadline=time.monotonic() - 1.0)
        assert (late.status, late.iterations) == ("iteration_limit", 0)
        on_time = solve_lp(lp, form=child, start=parent.basis,
                           deadline=time.monotonic() + 60.0)
        assert on_time.status == "optimal"
        assert on_time.objective_value == pytest.approx(0.2)

    @pytest.mark.parametrize("seed", range(10))
    def test_later_deadline_changes_nothing(self, seed):
        lp = feasible_lp(seed)
        free = solve_lp(lp)
        timed = solve_lp(lp, deadline=time.monotonic() + 3600.0)
        assert (timed.status, timed.iterations) == (free.status, free.iterations)
        np.testing.assert_array_equal(timed.primal, free.primal)


class TestResidualCheck:
    @pytest.mark.parametrize("seed", range(10))
    def test_sparse_residual_matches_dense(self, seed):
        # the check sums A x over the nonzeros; the dense product is the reference
        lp = feasible_lp(seed)
        form = standard_form(lp)
        sol = solve_lp(lp, form=form)
        assert sol.status == "optimal"
        A = dense_matrix(lp)
        x = np.concatenate([sol.primal, form.b - A[:, :len(sol.primal)] @ sol.primal])
        simplex = lp_module._Simplex(lp, form, 100)
        rng = np.random.default_rng(seed)
        scale = lp_module.RESID_TOL * (1.0 + np.abs(form.b).max())
        for size in (0.0, 0.1 * scale, 10.0 * scale):
            simplex.x = x + size * rng.standard_normal(x.size)
            dense = np.abs(A @ simplex.x - form.b).max()
            assert simplex._accurate() == bool(dense <= scale)
        simplex.x = np.full(x.size, np.nan)
        assert not simplex._accurate()


class TestWarmInfeasible:
    @pytest.mark.parametrize("seed, n_buses, fraction",
                             [(1, 6, 0.4), (2, 8, 0.4), (3, 10, 0.4), (4, 12, 0.4),
                              (5, 14, 0.25), (6, 16, 0.25)])
    def test_warm_infeasible_is_infeasible_for_highs(self, seed, n_buses, fraction):
        # the full-ROP root from the model's start, then children that fix
        # up to half the binaries at 0 or 1, each solved from the
        # root's basis as branch and bound solves its nodes: an infeasible
        # child is infeasible for HiGHS too, and an optimal one is feasible
        mip = full_rop_root(seed, n_buses, fraction)
        form = standard_form(mip.base)
        root = solve_lp(mip.base, form=form, start=mip.start)
        assert root.status == "optimal"
        rng = random.Random(seed)
        binaries = sorted(mip.binary_vars)
        statuses = []
        for _ in range(12):
            lo, up = form.lower.copy(), form.upper.copy()
            for j in rng.sample(binaries, rng.randint(2, len(binaries) // 2)):
                lo[j] = up[j] = rng.choice((0.0, 1.0))
            sol = solve_lp(mip.base, form=replace(form, lower=lo, upper=up), start=root.basis)
            fixed = [Variable(v.name, a, b) for v, a, b in zip(mip.base.variables, lo, up)]
            highs = solve_with_scipy(replace(mip.base, variables=fixed))
            statuses.append((sol.status, highs.status))
        assert set(statuses) == {("optimal", 0), ("infeasible", 2)}

    def test_rop_incumbent_lp_of_meshed_30_bus_seed_1(self):
        # rop's warm-start incumbent LP on the benchmark generator's meshed
        # 30-bus grid, seed 1: util's plan fixed, solved from the root's
        # basis. A drifted carried inverse once proved it infeasible
        net = parse_case(bench_module("meshgen").meshed_case(30, 1))
        dmg = random_damage(net, 0.25, 1)
        n = len(dmg.damaged_lines)
        art = build_rop(net, dmg, build_schedule(n, n), memo={})
        mip = art.program
        form = standard_form(mip.base)
        root = solve_lp(mip.base, form=form, start=mip.start)
        assert root.status == "optimal"
        lo, up = form.lower.copy(), form.upper.copy()
        for j, v in plan_to_assignment(art, util_order(net, dmg)).items():
            lo[j] = up[j] = v
        sol = solve_lp(mip.base, form=replace(form, lower=lo, upper=up), start=root.basis)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(78.3251, rel=0, abs=5e-5)
        fixed = [Variable(v.name, a, b) for v, a, b in zip(mip.base.variables, lo, up)]
        assert sol.objective_value == pytest.approx(
            -solve_with_scipy(replace(mip.base, variables=fixed)).fun, rel=0, abs=1e-6)


def bench_module(name):
    """A module of the repository's ``bench`` directory, loaded by path."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def violations(lp, x):
    """Largest row violation and largest bound violation of ``x``."""
    bounds = max((max(v.lower - xj, xj - v.upper) for v, xj in zip(lp.variables, x)),
                 default=0.0)
    return lp.constraint_violation(x), max(bounds, 0.0)


def full_rop_root(seed, n_buses, fraction):
    """The ordering MILP with one period per damaged line; its base is the
    full-ROP root LP."""
    net = meshed_network(seed, n_buses)
    dmg = random_damage(net, fraction, seed)
    n = len(dmg.damaged_lines)
    return build_rop(net, dmg, build_schedule(n, n)).program


class TestFinalCheck:
    @pytest.mark.parametrize("seed", range(1, 13))
    def test_meshed_16_bus_root_is_highs(self, seed):
        # cold full-ROP roots at 40% damage, each a phase 1 of a few hundred
        # pivots from the slack basis. Without the final check, an earlier
        # solver ended seed 4 "optimal" 0.76 above HiGHS, at a point that
        # broke a row by 8.0 and a bound by 2.4
        lp = full_rop_root(seed, 16, 0.4).base
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-solve_with_scipy(lp).fun,
                                                    rel=0, abs=1e-6)
        assert max(violations(lp, sol.primal)) <= 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_every_optimum_is_feasible_on_meshed_rop_roots(self, seed):
        # the cold root, and both children of its most fractional binary
        # solved warm from the root's basis. On the generated LPs,
        # TestAgainstScipy checks the same of every optimum
        mip = full_rop_root(seed, (6, 8, 10, 12)[seed % 4], (0.25, 0.4)[seed % 2])
        form = standard_form(mip.base)
        root = solve_lp(mip.base, form=form)
        solves = [(form, root)]
        if root.status == "optimal":
            j = max(sorted(mip.binary_vars),
                    key=lambda j: min(abs(root.primal[j] - round(root.primal[j])), 0.5))
            for v in (0.0, 1.0):
                child = tightened(form, j, v, v)
                solves.append((child, solve_lp(mip.base, form=child, start=root.basis)))
        for child, sol in solves:
            if sol.status == "optimal":
                lp = mip.base
                fixed = [Variable(var.name, lo, hi) for var, lo, hi
                         in zip(lp.variables, child.lower, child.upper)]
                assert max(violations(replace(lp, variables=fixed), sol.primal)) <= 1e-6

    def test_cold_optimum_out_of_bounds_is_a_numerical_failure(self, monkeypatch):
        lp = feasible_lp(3)
        pivots = solve_lp(lp).iterations
        monkeypatch.setattr(lp_module._Simplex, "_within_bounds", lambda self: False)
        sol = solve_lp(lp)
        assert (sol.status, sol.iterations, sol.basis) == ("numerical_failure", pivots, None)

    def test_warm_optimum_out_of_bounds_solves_cold(self, monkeypatch):
        # max x s.t. x + y <= 1, y >= 0.6; the child x <= 0.2 takes a dual pivot
        lp = simple_lp("maximize", [(0, 1.0)], [("x", 0.0, 1.0), ("y", 0.0, 1.0)],
                       [([(0, 1.0), (1, 1.0)], "<=", 1.0), ([(1, 1.0)], ">=", 0.6)])
        form = standard_form(lp)
        parent = solve_lp(lp, form=form)
        child = tightened(form, 0, 0.0, 0.2)
        real_check = lp_module._Simplex._within_bounds
        checks = []

        def first_fails(self):
            checks.append(None)
            return len(checks) > 1 and real_check(self)

        cold = slack_runs(monkeypatch)
        monkeypatch.setattr(lp_module._Simplex, "_within_bounds", first_fails)
        sol = solve_lp(lp, form=child, start=parent.basis)
        assert (sol.status, len(checks), len(cold)) == ("optimal", 2, 1)
        assert sol.objective_value == pytest.approx(0.2)


def dense_update(Binv, pos, w):
    """Product-form update of ``Binv`` after column ``w = Binv a`` enters at ``pos``."""
    out = Binv.copy()
    out[pos, :] /= w[pos]
    wq = w.copy()
    wq[pos] = 0.0
    out -= np.outer(wq, out[pos, :])
    return out


class TestInverseUpdate:
    @pytest.mark.parametrize("seed", range(20))
    def test_sparse_update_matches_dense(self, seed):
        # a block-diagonal basis and a column inside one block: w = Binv a is
        # zero on every row of the other block. Large inverses with a small
        # block take the row-wise update, the others the dense one.
        rng = np.random.default_rng(seed)
        if seed % 2:
            k, m = int(rng.integers(1, 6)), int(rng.integers(7, 14))
        else:
            k, m = int(rng.integers(1, 30)), int(rng.integers(130, 200))
        B = np.zeros((m, m))
        B[:k, :k] = rng.uniform(-1, 1, (k, k)) + 4 * np.eye(k)
        B[k:, k:] = rng.uniform(-1, 1, (m - k, m - k)) + 4 * np.eye(m - k)
        Binv = np.linalg.inv(B)
        a = np.zeros(m)
        a[:k] = rng.uniform(-2, 2, k)
        w = Binv @ a
        assert (w == 0.0).sum() >= m - k
        pos = int(np.argmax(np.abs(w)))
        simplex = lp_module._Simplex.__new__(lp_module._Simplex)
        simplex.m = m
        simplex.Binv = Binv.copy()
        simplex._update_inverse(pos, w)
        np.testing.assert_array_equal(simplex.Binv, dense_update(Binv, pos, w))
        B[:, pos] = a
        np.testing.assert_allclose(simplex.Binv @ B, np.eye(m), atol=1e-12)


    @pytest.mark.parametrize("seed", range(10))
    def test_outer_is_np_outer(self, seed):
        # zeros of both signs, both signs, and magnitudes from subnormal
        # products to overflow; a zero may come out with the other sign
        rng = np.random.default_rng(seed)
        u = rng.choice([-1.0, 1.0], 40) * 10.0 ** rng.uniform(-160, 160, 40)
        v = rng.choice([-1.0, 1.0], 30) * 10.0 ** rng.uniform(-160, 160, 30)
        u[::7], v[::5] = 0.0, -0.0
        u[1::7] = -0.0
        u[2:4], v[2:4] = (1e-160, 1e160), (-1e-160, 1e160)  # subnormal, inf
        with np.errstate(over="ignore"):
            expected, got = np.outer(u, v), lp_module._outer(u, v)
        assert np.isinf(expected).any() and (expected == 0.0).any()
        assert ((expected != 0.0) & (np.abs(expected) < np.finfo(float).tiny)).any()
        nonzero = expected != 0.0
        np.testing.assert_array_equal(got.view(np.uint64)[nonzero],
                                      expected.view(np.uint64)[nonzero])
        assert (got[~nonzero] == 0.0).all()


def check_compressed(lp, form):
    """The compressed-column arrays of ``form`` list exactly the nonzeros of
    the LP's matrix, column by column with rows ascending."""
    A = dense_matrix(lp)
    m, nt = A.shape
    assert (form.b.size, form.c.size) == (m, nt)
    scattered = np.zeros((m, nt))
    scattered[form.nz_row, form.nz_col] = form.nz_val
    np.testing.assert_array_equal(scattered, A)
    assert form.nz_val.size == np.count_nonzero(A)
    assert form.col_ptr[0] == 0 and form.col_ptr[-1] == form.nz_val.size
    np.testing.assert_array_equal(form.nz_col, np.repeat(np.arange(nt), np.diff(form.col_ptr)))
    assert (np.lexsort((form.nz_row, form.nz_col)) == np.arange(form.nz_val.size)).all()
    for arr in (form.nz_val, form.nz_row, form.nz_col, form.col_ptr):
        assert not arr.flags.writeable
    shared = tightened(form, 0, 0.0, 0.0)
    assert shared.nz_val is form.nz_val and shared.col_ptr is form.col_ptr


def loop_cold_start(lp):
    """The slack start of a cold solve, variable by variable and row by row
    over the dense matrix: (x, status, basis). Every structural column sits
    at its lower bound, else its upper bound, else free at 0; if moving
    each boxed one to the bound its cost prefers makes the basis dual
    feasible, it moves. Every slack is basic, at the value its row leaves
    it, inside its bounds or not."""
    A, form = dense_matrix(lp), standard_form(lp)
    n, m = len(lp.variables), len(lp.constraints)
    lo, up, c, tol = form.lower, form.upper, form.c, lp_module.OPT_TOL
    x = np.zeros(n + m)
    stat = np.zeros(n + m, dtype=np.int8)
    for j in range(n):
        if np.isfinite(lo[j]):
            x[j], stat[j] = lo[j], lp_module._AT_LOWER
        elif np.isfinite(up[j]):
            x[j], stat[j] = up[j], lp_module._AT_UPPER
        else:
            stat[j] = lp_module._FREE
    # every slack costs 0, so at the slack basis each reduced cost is c_j
    flipped, dual = stat.copy(), True
    for j in range(n):
        if np.isfinite(lo[j]) and np.isfinite(up[j]) and abs(c[j]) > tol:
            flipped[j] = lp_module._AT_UPPER if c[j] < 0 else lp_module._AT_LOWER
        elif stat[j] == lp_module._AT_LOWER and c[j] < -tol or \
                stat[j] == lp_module._AT_UPPER and c[j] > tol or \
                stat[j] == lp_module._FREE and abs(c[j]) > tol:
            dual = False
    if dual:
        for j in range(n):
            if flipped[j] != stat[j]:
                stat[j] = flipped[j]
                x[j] = lo[j] if stat[j] == lp_module._AT_LOWER else up[j]
    resid = form.b - A @ x
    basis = []
    for i in range(m):
        x[n + i], stat[n + i] = resid[i], lp_module._BASIC
        basis.append(n + i)
    return x, stat, basis


def rop_node_bases(mip, form):
    """The optimal basis of the root, solved from the model's start, and
    those of its children on the 3 binaries nearest 0.5."""
    root = solve_lp(mip.base, form=form, start=mip.start)
    assert root.status == "optimal"
    bases = [root.basis]
    for j in branching(mip, root):
        for value in (0.0, 1.0):
            child = solve_lp(mip.base, form=tightened(form, j, value, value),
                             start=root.basis)
            if child.status == "optimal":
                bases.append(child.basis)
    return bases


def dense_lp(seed, m):
    """LP of m dense rows over m + 2 variables, for bases of any mix of
    structural and slack columns."""
    rng = np.random.default_rng(seed)
    return simple_lp("minimize", [], [(f"x{j}", 0.0, 1.0) for j in range(m + 2)],
                     [([(j, float(a)) for j, a in enumerate(rng.uniform(-1, 1, m + 2))],
                       "<=", 1.0) for _ in range(m)])


def assert_inverts(form, A, cols):
    B = A[:, cols]
    inverse = basis_inverse(form, cols)
    np.testing.assert_allclose(inverse, np.linalg.inv(B), rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(inverse @ B, np.eye(len(cols)), rtol=0, atol=1e-9)


class TestSparseKernels:
    @pytest.mark.parametrize("seed", range(20))
    def test_compressed_columns_scatter_back(self, seed):
        lp = feasible_lp(seed)
        check_compressed(lp, standard_form(lp))

    def test_rop_compressed_columns_scatter_back(self, meshed_scenarios):
        for mip, form in rop_forms(meshed_scenarios):
            check_compressed(mip.base, form)

    def test_duplicate_terms_sum_and_cancelling_ones_drop(self):
        lp = sums_and_cancels()
        form = standard_form(lp)
        check_compressed(lp, form)
        # x0's terms cancel: no entry; x1's sum to 5; then the slack's 1
        np.testing.assert_array_equal(form.col_ptr, [0, 0, 1, 2])
        np.testing.assert_array_equal(form.nz_row, [0, 0])
        np.testing.assert_array_equal(form.nz_val, [5.0, 1.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_price_and_ftran_match_dense(self, seed):
        # after the cold start, with a dense stand-in for the inverse
        lp = feasible_lp(seed)
        form = standard_form(lp)
        simplex = lp_module._Simplex(lp, form, 100)
        simplex._warm_start(simplex.slack_basis(), dual=False)
        full = dense_matrix(lp)
        m = full.shape[0]
        rng = np.random.default_rng(seed)
        y = rng.uniform(-5, 5, m)
        expected = y @ full
        np.testing.assert_allclose(simplex._price(y), expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())
        simplex.Binv = rng.uniform(-1, 1, (m, m))
        for q in range(full.shape[1]):
            expected = simplex.Binv @ full[:, q]
            np.testing.assert_allclose(simplex._ftran(q), expected, rtol=0,
                                       atol=1e-12 * max(np.abs(expected).max(), 1.0))

    @pytest.mark.parametrize("seed", range(20))
    def test_cold_start_matches_loop_reference(self, seed):
        # random_lp has free and half-bounded columns, feasible_lp boxed ones
        lp = random_lp(seed) if seed % 2 else feasible_lp(seed)
        simplex = lp_module._Simplex(lp, standard_form(lp), 100)
        assert simplex._warm_start(simplex.slack_basis(), dual=False) == "primal"
        x, stat, basis = loop_cold_start(lp)
        np.testing.assert_array_equal(simplex.stat, stat)
        np.testing.assert_array_equal(simplex.basis, basis)
        np.testing.assert_allclose(simplex.x, x, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(simplex.Binv, np.eye(len(basis)))

    def test_basis_inverse_on_rop_node_bases(self, meshed_scenarios):
        for mip, form in rop_forms(meshed_scenarios):
            A = dense_matrix(mip.base)
            m, nt = A.shape
            bases = rop_node_bases(mip, form)
            assert len(bases) >= 3
            for basis in bases:
                slacks = (basis.columns >= nt - m).sum()
                assert 0 < slacks < m
                assert_inverts(form, A, basis.columns)
            assert_inverts(form, A, np.arange(nt - m, nt))  # the all-slack basis

    @pytest.mark.parametrize("seed", range(10))
    def test_basis_inverse_on_any_mix_of_slacks(self, seed):
        m = 4 + seed
        lp = dense_lp(seed, m)
        form = standard_form(lp)
        A = dense_matrix(lp)
        rng = np.random.default_rng(seed)
        for n_slack in range(m + 1):  # no basic slack up to all slacks
            slacks = rng.choice(m, n_slack, replace=False)
            struct = rng.choice(m + 2, m - n_slack, replace=False)
            cols = rng.permutation(np.concatenate([struct, m + 2 + slacks]))
            assert_inverts(form, A, cols)

    def test_two_unit_columns_on_one_row_are_singular(self):
        # x appears in row 0 alone with coefficient 1: the column of slack 0
        lp = simple_lp("maximize", [(0, 1.0), (1, 1.0)],
                       [("x", 0.0, 1.0), ("y", 0.0, 1.0)],
                       [([(0, 1.0)], "<=", 1.0), ([(1, 2.0)], "<=", 1.0)])
        form = standard_form(lp)
        for cols in ([0, 2], [2, 0], [2, 2]):
            with pytest.raises(np.linalg.LinAlgError):
                basis_inverse(form, np.array(cols))


# -- minimal MPS reader used only to verify the writer ----------------------

def read_mps(text):
    rows = {}
    order = []
    lp = LinearProgram()
    col_idx = {}
    section = None
    rhs = {}
    bounds = {}
    for raw in text.splitlines():
        if not raw.strip() or raw.startswith("*"):
            continue
        if not raw[0].isspace():
            section = raw.split()[0]
            continue
        parts = raw.split()
        if section == "ROWS":
            rows[parts[1]] = parts[0]
            order.append(parts[1])
        elif section == "COLUMNS":
            if len(parts) >= 3 and parts[1] == "'MARKER'":
                continue
            name = parts[0]
            if name not in col_idx:
                col_idx[name] = lp.add_variable(name, 0.0, INF)
            for a in range(1, len(parts), 2):
                rows.setdefault(parts[a], None)
                lp.constraints.append((col_idx[name], parts[a], float(parts[a + 1])))
        elif section == "RHS":
            for a in range(1, len(parts), 2):
                rhs[parts[a]] = float(parts[a + 1])
        elif section == "BOUNDS":
            kind, _, name = parts[0], parts[1], parts[2]
            val = float(parts[3]) if len(parts) > 3 else None
            j = col_idx[name]
            lo, hi = bounds.get(j, (0.0, INF))
            if kind == "LO":
                lo = val
            elif kind == "UP":
                hi = val
            elif kind == "FX":
                lo = hi = val
            elif kind == "FR":
                lo, hi = -INF, INF
            elif kind == "MI":
                lo = -INF
            bounds[j] = (lo, hi)
    entries = lp.constraints
    lp.constraints = []
    for j, (lo, hi) in bounds.items():
        lp.variables[j] = Variable(lp.variables[j].name, lo, hi)
    obj = []
    by_row = {}
    for j, row, coef in entries:
        if row == "OBJ":
            obj.append((j, coef))
        else:
            by_row.setdefault(row, []).append((j, coef))
    rel = {"L": "<=", "G": ">=", "E": "="}
    for name in order:
        if rows[name] == "N":
            continue
        lp.add_constraint(name, by_row.get(name, []), rel[rows[name]],
                          rhs.get(name, 0.0))
    lp.set_objective("minimize", obj)
    return lp


class TestMps:
    def test_single_column(self):
        lp = simple_lp("minimize", [], [("x", 0.0, 1.0)], [])
        text = write_mps(lp)
        assert "COLUMNS" in text
        assert mps_column_name(0) in text
        assert text.endswith("ENDATA\n")

    def test_binary_marker(self):
        lp = simple_lp("maximize", [(0, 1.0)], [("z", 0.0, 1.0)], [])
        mip = MixedIntegerProgram(base=lp, binary_vars=frozenset({0}))
        text = write_mps(mip)
        assert "'INTORG'" in text and "'INTEND'" in text

    def test_byte_identical(self):
        lp = random_lp(9)
        assert write_mps(lp) == write_mps(lp)

    def test_duplicate_terms_merge(self):
        # x0's terms cancel, so its column keeps only the OBJ placeholder;
        # x1's sum to one entry of 5
        text = write_mps(sums_and_cancels())
        columns = text[text.index("COLUMNS\n"):text.index("RHS\n")].splitlines()[1:]
        assert [line.split() for line in columns] == [
            [mps_column_name(0), "OBJ", "0"],
            [mps_column_name(1), "OBJ", "1", mps_row_name(0), "5"]]

    # the first 10 seeds whose random LP has a bounded optimum
    SOLVABLE = [s for s in range(200)
                if solve_lp(random_lp(s + 100, max_vars=10)).status == "optimal"][:10]

    @pytest.mark.parametrize("seed", SOLVABLE)
    def test_round_trip_objective(self, seed):
        lp = random_lp(seed + 100, max_vars=10)
        ours = solve_lp(lp)
        assert ours.status == "optimal"
        back = read_mps(write_mps(lp))
        sol = solve_lp(back)
        assert sol.status == "optimal"
        # writer negates a maximization objective, so compare magnitudes
        sense = -1.0 if lp.objective_sense == "maximize" else 1.0
        assert sol.objective_value == pytest.approx(
            sense * ours.objective_value, abs=1e-6, rel=1e-6)
