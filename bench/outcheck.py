"""Output-correctness checks of one ``gridrestore solve``, run untimed.

``check_outputs`` checks one solve's files: the plan covers exactly the
damaged lines, and ``report.csv`` and ``summary.json`` are byte-identical to
the instance's first solve. ``highs_energy`` recomputes the served energy
of a returned plan with SciPy's HiGHS, an out-of-band yardstick that is
imported only here and only after the timed passes.
"""
from __future__ import annotations

import json
import os

from gridrestore.models import build_rip
from gridrestore.network import (RestorationPlan, build_schedule, parse_case,
                                 random_damage)

ENERGY_RTOL = 1e-6


def read_outputs(out_dir: str) -> tuple[bytes, bytes]:
    with open(os.path.join(out_dir, "report.csv"), "rb") as f:
        report = f.read()
    with open(os.path.join(out_dir, "summary.json"), "rb") as f:
        summary = f.read()
    return report, summary


def check_outputs(case_path: str, fraction: float, seed: int,
                  outputs: tuple[bytes, bytes],
                  first: tuple[bytes, bytes] | None) -> list[str]:
    """Problems with one solve's outputs; empty when they are correct."""
    problems = []
    if first is not None and outputs != first:
        problems.append("report.csv or summary.json differs from the first pass")
    summary = json.loads(outputs[1])
    with open(case_path) as f:
        net = parse_case(f.read())
    damaged = sorted(random_damage(net, fraction, seed).damaged_lines)
    if summary["damaged_lines"] != damaged:
        problems.append(f"damaged lines {summary['damaged_lines']} != {damaged}")
    planned = sorted(lid for period in summary["plan"] for lid in period)
    if planned != damaged:
        problems.append(f"plan restores {planned}, damaged lines are {damaged}")
    return problems


def highs_energy(case_path: str, fraction: float, seed: int, plan_periods) -> float:
    """Running maximum of HiGHS per-period optima of the plan's RIP, summed."""
    import numpy as np
    from scipy.optimize import linprog

    with open(case_path) as f:
        net = parse_case(f.read())
    damage = random_damage(net, fraction, seed)
    plan = RestorationPlan.from_lists(plan_periods)
    schedule = build_schedule(len(damage.damaged_lines), plan.n_periods)
    lp = build_rip(net, damage, plan, schedule)
    n = len(lp.variables)
    sign = -1.0 if lp.objective_sense == "maximize" else 1.0
    c = np.zeros(n)
    for j, coef in lp.objective_terms:
        c[j] += sign * coef
    rows = {"=": ([], []), "<=": ([], []), ">=": ([], [])}
    for con in lp.constraints:
        row = np.zeros(n)
        for j, coef in con.terms:
            row[j] += coef
        rows[con.relation][0].append(row)
        rows[con.relation][1].append(con.rhs)
    a_ub = rows["<="][0] + [-r for r in rows[">="][0]]
    b_ub = rows["<="][1] + [-b for b in rows[">="][1]]
    res = linprog(c, A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(rows["="][0]) if rows["="][0] else None,
                  b_eq=np.array(rows["="][1]) if rows["="][1] else None,
                  bounds=[(v.lower, v.upper) for v in lp.variables], method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the RIP: {res.message}")
    index = {v.name: j for j, v in enumerate(lp.variables)}
    energy = 0.0
    best = float("-inf")
    for k in range(1, schedule.n_periods + 1):
        served = sum(d.p_demand * res.x[index[f"XD{d.id}_{k}"]] for d in net.loads)
        best = max(best, served)
        energy += best * schedule.delta[k - 1]
    return energy
