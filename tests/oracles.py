"""Reference oracles that the tests check the solvers against."""
import itertools

import numpy as np

from gridrestore.lp import (_SLACK_BOUNDS, LinearProgram, StandardForm, Variable, solve_lp,
                            standard_form)
from gridrestore.milp import INT_TOL, MixedIntegerProgram, _with_fixes
from gridrestore.models import RopArtifacts, evaluate_plan, plan_to_assignment
from gridrestore.network import DamageScenario, Network, PeriodSchedule, RestorationPlan
from gridrestore.postprocess import DIP_TOL, monotonize, total_energy


def enumerate_binaries(mip: MixedIntegerProgram):
    """Exhaustive oracle: best objective over all full binary assignments.

    Assignments that put a binary outside its own bounds (a binary fixed
    at 1 by the model, say) are skipped. Returns (objective, assignment)
    or (None, None) if infeasible. Only usable for small binary counts.
    """
    binaries = sorted(mip.binary_vars)
    if len(binaries) > 20:
        raise ValueError("too many binaries to enumerate")
    mip.base.validate()
    form = standard_form(mip.base)
    sense_max = mip.base.objective_sense == "maximize"
    best = None
    best_assign = None
    for mask in range(1 << len(binaries)):
        fixes = {j: float((mask >> i) & 1) for i, j in enumerate(binaries)}
        if any(not form.lower[j] - INT_TOL <= v <= form.upper[j] + INT_TOL
               for j, v in fixes.items()):
            continue
        sol = solve_lp(mip.base, form=_with_fixes(form, fixes))
        if sol.status != "optimal":
            continue
        if best is None or (sol.objective_value > best if sense_max else sol.objective_value < best):
            best = sol.objective_value
            best_assign = {j: int(fixes[j]) for j in binaries}
    return best, best_assign


def fix_plan_in_rop(artifacts: RopArtifacts, plan: RestorationPlan) -> MixedIntegerProgram:
    """Copy of the ordering MILP with all binaries fixed to the given plan."""
    assign = plan_to_assignment(artifacts, plan)
    lp = artifacts.program.base
    fixed = LinearProgram(variables=list(lp.variables), constraints=lp.constraints,
                          objective_sense=lp.objective_sense,
                          objective_terms=lp.objective_terms)
    for j, v in assign.items():
        var = lp.variables[j]
        fixed.variables[j] = Variable(var.name, float(v), float(v))
    return MixedIntegerProgram(base=fixed, binary_vars=artifacts.program.binary_vars)


def subnetwork_without(network: Network, removed) -> Network:
    """A copy of the network without the lines ``removed``.

    The reference for ``build_rop(..., out=removed)``, which keeps those
    lines out of one network instead of copying it.
    """
    return Network(buses=network.buses,
                   lines=tuple(l for l in network.lines if l.id not in removed),
                   generators=network.generators, loads=network.loads,
                   base_mva=network.base_mva)


def dict_standard_form(lp: LinearProgram) -> StandardForm:
    """Reference for ``standard_form``: the terms merged through a dict
    keyed ``(column, row)``, each entry summed from 0.0 in term order, zero
    sums dropped, entries ordered by column then row."""
    n, m = len(lp.variables), len(lp.constraints)
    b = np.zeros(m)
    c = np.zeros(n + m)
    lower = np.empty(n + m)
    upper = np.empty(n + m)
    for j, v in enumerate(lp.variables):
        lower[j], upper[j] = v.lower, v.upper
    entries: dict[tuple[int, int], float] = {}  # (column, row) -> coefficient
    for i, con in enumerate(lp.constraints):
        for idx, coef in con.terms:
            entries[idx, i] = entries.get((idx, i), 0.0) + coef
        entries[n + i, i] = 1.0
        b[i] = con.rhs
        lower[n + i], upper[n + i] = _SLACK_BOUNDS[con.relation]
    sense = 1.0 if lp.objective_sense == "minimize" else -1.0
    for idx, coef in lp.objective_terms:
        c[idx] += sense * coef
    keys = sorted(key for key, v in entries.items() if v != 0.0)
    nz_col = np.array([col for col, _ in keys], dtype=np.intp)
    nz_row = np.array([row for _, row in keys], dtype=np.intp)
    nz_val = np.array([entries[key] for key in keys], dtype=float)
    col_ptr = np.zeros(n + m + 1, dtype=np.intp)
    np.cumsum(np.bincount(nz_col, minlength=n + m), out=col_ptr[1:])
    return StandardForm(b, c, lower, upper, nz_val, nz_row, nz_col, col_ptr)


def brute_force_reference(network: Network, damage: DamageScenario,
                          schedule: PeriodSchedule) -> tuple[RestorationPlan, float]:
    """Reference for ``brute_force_optimal``: every distinct plan, in
    permutation order, evaluated through one memo of its own
    (``evaluate_plan``), post-processed and scored by total energy; ties
    within ``DIP_TOL`` break on the post-processed plan."""
    if len(damage.damaged_lines) > 7:
        raise ValueError("brute force limited to 7 damaged lines")
    best_energy = best_plan = best_key = None
    seen: set = set()
    memo: dict = {}
    for perm in itertools.permutations(sorted(damage.damaged_lines)):
        plan = schedule.bucket(perm)
        if plan in seen:
            continue
        seen.add(plan)
        series = evaluate_plan(network, damage, plan, schedule, memo=memo)
        mono_series, mono_plan = monotonize(series, plan)
        energy = total_energy(mono_series)
        key = tuple(tuple(sorted(p)) for p in mono_plan.periods)
        if best_energy is None or energy > best_energy + DIP_TOL or (
                abs(energy - best_energy) <= DIP_TOL and key < best_key):
            best_energy, best_plan, best_key = energy, mono_plan, key
    return best_plan, best_energy
