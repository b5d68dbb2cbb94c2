import math
import random
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

import gridrestore.lp as lp_module
from gridrestore.lp import (INF, Basis, LinearProgram, Variable, mps_column_name,
                            mps_row_name, solve_lp, standard_form, write_mps)
from gridrestore.milp import MixedIntegerProgram
from gridrestore.models import build_rip, build_rop
from gridrestore.network import (DamageScenario, RestorationPlan,
                                 build_schedule)
from conftest import tiny3_network


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

    def test_iteration_limit_status(self):
        lp = random_lp(7)
        sol = solve_lp(lp, iteration_limit=1)
        assert sol.status in ("iteration_limit", "optimal", "infeasible")
        full = solve_lp(lp)
        if full.iterations > 1:
            assert sol.status == "iteration_limit"

    def test_singular_basis_is_a_status(self, monkeypatch):
        def singular(self):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(lp_module._Simplex, "_refactorize", singular)
        lp = LinearProgram()
        lp.add_variable("x", 0.0, 4.0)
        lp.add_constraint("c", [(0, 1.0)], "<=", 3.0)
        lp.set_objective("maximize", [(0, 1.0)])
        sol = solve_lp(lp)
        assert sol.status == "numerical_failure"
        assert sol.primal.shape == (1,)

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
    @pytest.mark.parametrize("seed", range(60))
    def test_random_lps(self, seed):
        lp = random_lp(seed)
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


class TestWarmStart:
    @pytest.mark.parametrize("seed", range(40))
    def test_bound_change_matches_cold(self, seed):
        lp = random_lp(seed)
        form = standard_form(lp)
        parent = solve_lp(lp, form=form)
        if parent.status != "optimal":
            return
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
            raise AssertionError("warm start fell back to a cold solve")

        monkeypatch.setattr(lp_module._Simplex, "solve", no_cold_solve)
        child = solve_lp(lp, form=tightened(form, 0, 0.5, 1.0), start=parent.basis)
        assert child.status == "infeasible"
        assert child.basis is None

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
        # the >= and = rows start on artificials; the optimal basis names slacks
        lp = simple_lp("minimize", [(0, 1.0), (1, 1.0)],
                       [("x", 0.0, 10.0), ("y", 0.0, 10.0)],
                       [([(0, 1.0), (1, 1.0)], ">=", 2.0),
                        ([(0, 1.0), (1, -1.0)], "=", 1.0)])
        form = standard_form(lp)
        parent = solve_lp(lp, form=form)
        assert parent.status == "optimal"
        assert parent.basis.columns.max() < form.A.shape[1]
        assert len(set(parent.basis.columns)) == len(lp.constraints)
        child = tightened(form, 0, 0.0, 1.0)
        assert_same_result(solve_lp(lp, form=child, start=parent.basis),
                           solve_lp(lp, form=child))

    def test_siblings_share_one_parent_inverse(self, meshed_scenarios):
        pivoted = 0
        for net, dmg in meshed_scenarios:
            n = len(dmg.damaged_lines)
            mip = build_rop(net, dmg, build_schedule(n, n)).program
            form = standard_form(mip.base)
            parent = solve_lp(mip.base, form=form)
            assert parent.status == "optimal"
            shared = replace(parent.basis,
                             inverse=np.linalg.inv(form.A[:, parent.basis.columns]))
            before = shared.inverse.copy()
            fractional = [j for j in sorted(mip.binary_vars)
                          if 1e-6 < parent.primal[j] < 1 - 1e-6][:3]
            for j in fractional:
                for value in (0.0, 1.0):
                    child = tightened(form, j, value, value)
                    ours = solve_lp(mip.base, form=child, start=shared)
                    own = solve_lp(mip.base, form=child, start=parent.basis)
                    assert ours.status == own.status
                    assert ours.iterations == own.iterations
                    pivoted += own.iterations > 0
                    if own.status == "optimal":
                        assert ours.objective_value == own.objective_value
                        np.testing.assert_array_equal(ours.basis.columns,
                                                      own.basis.columns)
                        np.testing.assert_array_equal(ours.basis.status,
                                                      own.basis.status)
                        assert ours.basis.inverse is None
            np.testing.assert_array_equal(shared.inverse, before)
        assert pivoted >= 6

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
        real_solve = lp_module._Simplex.solve
        checks, refactorized, cold = [], [], []

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

        def solve(self):
            cold.append(None)
            return real_solve(self)

        monkeypatch.setattr(lp_module._Simplex, "_accurate", accurate)
        monkeypatch.setattr(lp_module._Simplex, "_refactorize", refactorize)
        monkeypatch.setattr(lp_module._Simplex, "solve", solve)
        sol = solve_lp(lp, form=child, start=parent.basis)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(0.2)
        assert len(checks) == 3
        if failures == 1:
            assert (len(refactorized), len(cold)) == (1, 0)
        else:
            assert len(cold) == 1  # the cold solve refactorizes too
            assert len(refactorized) >= 2


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
