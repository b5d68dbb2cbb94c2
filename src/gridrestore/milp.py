"""Branch-and-bound MILP solver over the internal LP core.

Node selection is best bound, branching is most-fractional with lowest
variable index as the tie-break, so the search is fully deterministic.
The search runs in one sense: like the standard form, it minimizes
``sign * objective``, with ``sign = -1`` for a maximization. The MILP's
standard form is built once; a node is its binary fixes. A program
holds both of its starts: ``start``, a basis for the root LP, and
``warm_start``, a binary assignment for a first incumbent, with its
objective when the caller has scored it (``warm_start_objective``). The
root LP starts from ``start`` when the program has one (an ordering MILP
carries a primal feasible basis made from a period LP's optimum), and
cold, from the LP core's slack basis, otherwise. ``SolveOptions`` is
only the search's budget: its time limit and relative gap. A scored
warm start becomes the incumbent as it is, with no LP (an ordering
MILP's is scored from its plan's period LPs, ``models.scored_warm_start``);
an unscored one is checked by an LP with its binaries fixed, from the
root's optimal basis. Every other LP is warm: each child LP is re-solved
under its fixes from its parent's optimal basis by the LP core's dual
simplex. An optimal basis carries the inverse its solve ended with, and
every solve from it copies that inverse: a branching's two children
share their parent's, and an unscored warm start's LP and the root's
children share the root's. So the search inverts no start basis, except
the program's ``start``, which is built by hand and inverts itself once
for the root, and the bases of nodes that wait on the heap beyond its
budget of inverses (``HEAP_INVERSE_BYTES``): such a node waits with its
basis alone, and its branching inverts it once. (An LP may still invert
its own basis afresh to check a result.)
``solve_external`` drives a command-line solver instead, through MPS and
a simple solution-file format.
"""
from __future__ import annotations

import heapq
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .lp import (INF, Basis, LinearProgram, LpSolution, StandardForm, mps_column_name,
                 solve_lp, standard_form, write_mps)

INT_TOL = 1e-6
# bytes of carried inverses that the nodes waiting on the heap may hold
HEAP_INVERSE_BYTES = 16 << 20


@dataclass
class MixedIntegerProgram:
    base: LinearProgram
    binary_vars: frozenset[int] = frozenset()
    # a basis of the relaxation's standard form to start the root LP from
    start: Basis | None = None
    # a full binary assignment to try as the first incumbent
    warm_start: dict[int, int] | None = None
    # the program's optimum with the binaries fixed at warm_start, when the
    # caller knows it; None has solve_mip solve that LP
    warm_start_objective: float | None = None

    def __post_init__(self):
        self.binary_vars = frozenset(self.binary_vars)
        for j in self.binary_vars:
            v = self.base.variables[j]
            if v.lower < -INT_TOL or v.upper > 1 + INT_TOL:
                raise ValueError(f"binary variable {v.name} has bounds outside [0, 1]")


@dataclass
class SolveOptions:
    """A solve's budget: wall-clock seconds and the relative gap at which
    a search may stop."""

    time_limit: float = 60.0
    rel_gap: float = 0.01

    def __post_init__(self):
        if not self.time_limit > 0:
            raise ValueError("time_limit must be positive")
        if not 0 <= self.rel_gap < 1:
            raise ValueError("rel_gap must be in [0, 1)")


@dataclass
class MipSolution:
    status: str  # 'optimal_within_gap', 'feasible_time_limit', 'infeasible', 'failure'
    objective_value: float = float("nan")
    best_bound: float = float("nan")
    gap: float = float("nan")
    assignment: dict[int, int] = field(default_factory=dict)
    primal: np.ndarray | None = None  # None when the incumbent is a scored warm start
    nodes: int = 0  # LPs solved

    @property
    def has_incumbent(self) -> bool:
        return self.status in ("optimal_within_gap", "feasible_time_limit")


def _relative_gap(incumbent: float, bound: float) -> float:
    return abs(bound - incumbent) / max(abs(incumbent), 1e-10)


def _with_fixes(form: StandardForm, fixes: dict[int, float]) -> StandardForm:
    """``form`` with column j fixed at ``fixes[j]``; the matrix is shared."""
    lower, upper = form.lower.copy(), form.upper.copy()
    for j, v in fixes.items():
        lower[j] = upper[j] = v
    return replace(form, lower=lower, upper=upper)


def solve_mip(mip: MixedIntegerProgram, opts: SolveOptions) -> MipSolution:
    """Best-bound branch and bound with LP relaxations per node.

    The root LP starts from ``mip.start`` when the program has one. The
    program's ``warm_start``, if feasible, becomes the initial incumbent:
    at ``warm_start_objective`` when the program carries one, with no LP
    solved, else at the optimum of the LP with its binaries fixed, solved
    from the root's optimal basis. ``nodes`` counts the LPs solved.
    The search stops when the best waiting node cannot improve the
    incumbent by more than ``rel_gap``; that node stays in the reported
    bound, so the gap reported is the one proven. The time limit is
    checked between node solves and is every LP's deadline, so an
    LP that runs past it ends 'iteration_limit'. A time limit with no
    incumbent yields 'failure'. A node whose LP ends neither optimal nor
    infeasible (iteration limit, deadline, numerical failure) stays open
    at its parent's bound, a root at an infinite one; the search then
    proves nothing and ends 'feasible_time_limit', or 'failure' with no
    incumbent. Both report the bound proven so far as ``best_bound``.
    Without a warm start ``rel_gap`` never binds: an integral node becomes
    the incumbent only when it is popped, when no waiting node bounds
    better, so a search that leaves no node unresolved ends there
    'optimal_within_gap' with a gap of exactly 0.0. The sub-MILPs of
    ``rrr`` and ``rad`` have no warm start.
    """
    form = standard_form(mip.base)
    deadline = time.monotonic() + opts.time_limit
    # the search minimizes key = sign * objective, as the standard form does
    sign = -1.0 if mip.base.objective_sense == "maximize" else 1.0
    binaries = sorted(mip.binary_vars)
    # heap of (key, nodes solved at the push, fixes, node LP solution). The
    # solution's basis is where the node's children start. A fixes dict,
    # not full bound arrays, keeps large heaps small. A node pushed while
    # the heap holds fewer than max_held nodes keeps the m x m inverse its
    # basis carries, so at most HEAP_INVERSE_BYTES of them wait at once; a
    # node pushed later waits with its basis alone, which its branching
    # inverts once.
    heap: list = []
    max_held = HEAP_INVERSE_BYTES // (8 * form.b.size ** 2 or 1)
    unresolved: list[float] = []  # keys of the nodes left unsolved
    incumbent = None  # (objective, assignment, primal) of the best integral point

    def bound_key() -> float:
        keys = [h[0] for h in heap] + unresolved
        if incumbent is not None:
            keys.append(sign * incumbent[0])
        return min(keys, default=INF)

    def result(proven: bool) -> MipSolution:
        return _solution(mip, nodes, proven and not unresolved, incumbent,
                         sign * bound_key())

    root = solve_lp(mip.base, form=form, start=mip.start, deadline=deadline)
    nodes = 1
    if root.status in ("infeasible", "unbounded"):
        return _solution(mip, nodes, root.status == "infeasible")
    if root.status == "optimal":
        heap.append((sign * root.objective_value, nodes, {}, root))
    else:
        unresolved.append(-INF)  # left open with no bound proven

    if mip.warm_start is not None:
        fixes = {j: float(v) for j, v in mip.warm_start.items() if j in mip.binary_vars}
        complete = len(fixes) == len(binaries)
        if complete and mip.warm_start_objective is not None:
            # scored by the caller: taken as it is, with no LP and no node
            incumbent = (mip.warm_start_objective,
                         {j: int(fixes[j]) for j in binaries}, None)
        elif complete:
            # from the root's basis; cold when the root LP is not optimal
            sol = solve_lp(mip.base, form=_with_fixes(form, fixes), start=root.basis,
                           deadline=deadline)
            nodes += 1
            if sol.status == "optimal":
                incumbent = _point(mip, sol)
        # an infeasible or partial warm start is silently discarded
    del root  # the root's inverse goes with its node once that is branched

    while heap:
        if time.monotonic() > deadline:
            return result(False)
        if incumbent is not None:
            best = sign * incumbent[0]
            if heap[0][0] >= best - max(opts.rel_gap * abs(best), 1e-9):
                # no waiting node can improve enough; the best one stays in the bound
                return result(True)
        key, _, fixes, relax = heapq.heappop(heap)
        # choose the most fractional binary
        frac_j = -1
        frac_best = -1.0
        for j in binaries:
            v = relax.primal[j]
            f = min(abs(v - round(v)), 0.5)
            if f > INT_TOL and f > frac_best + 1e-12:
                frac_best = f
                frac_j = j
        if frac_j < 0:
            # integral: candidate incumbent
            if incumbent is None or key < sign * incumbent[0]:
                incumbent = _point(mip, relax)
            continue
        for branch_val in (0.0, 1.0):
            child_fixes = {**fixes, frac_j: branch_val}
            child = solve_lp(mip.base, form=_with_fixes(form, child_fixes),
                             start=relax.basis, deadline=deadline)
            nodes += 1
            if child.status == "infeasible":
                continue
            if child.status != "optimal":
                unresolved.append(key)
                continue
            if len(heap) >= max_held:
                child.basis = Basis(child.basis.columns, child.basis.status)
            heapq.heappush(heap, (sign * child.objective_value, nodes, child_fixes, child))
    return result(True)


def _point(mip: MixedIntegerProgram, sol: LpSolution) -> tuple:
    """An integral LP solution as an incumbent: (objective, binary
    assignment, primal)."""
    x = sol.primal
    return sol.objective_value, {j: int(round(x[j])) for j in sorted(mip.binary_vars)}, x


def _solution(mip: MixedIntegerProgram, nodes: int, proven: bool,
              incumbent: tuple | None = None,
              bound: float = float("nan")) -> MipSolution:
    """A result of ``nodes`` LP solves: ``incumbent``, the best integral
    point found, if any, as (objective, assignment, primal or None), and
    ``bound`` on the optimum (nan when unknown); ``proven`` when nothing
    better than ``incumbent`` (or no solution at all) remains. An
    infeasible result has no bound."""
    if incumbent is None:
        if proven:
            return MipSolution("infeasible", nodes=nodes)
        return MipSolution("failure", best_bound=bound, nodes=nodes)
    obj, assignment, x = incumbent
    return MipSolution("optimal_within_gap" if proven else "feasible_time_limit",
                       objective_value=obj, best_bound=bound,
                       gap=_relative_gap(obj, bound), assignment=assignment,
                       primal=x, nodes=nodes)


# ---------------------------------------------------------------------------
# External solver backend
# ---------------------------------------------------------------------------

def parse_solution_file(text: str) -> tuple[float | None, dict[str, float]]:
    objective = None
    values: dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed solution line: {raw!r}")
        name, val = parts
        if name.lower() == "objective":
            objective = float(val)
        else:
            values[name] = float(val)
    return objective, values


def solve_external(mip: MixedIntegerProgram, opts: SolveOptions,
                   command_template: str) -> MipSolution:
    """Solve via an external command; any failure maps to status 'failure'.

    ``command_template`` is a command line with ``{mps}``, ``{timelimit}``,
    ``{gap}`` and ``{solfile}`` placeholders. The command reads the MILP
    from the MPS file (``write_mps``) and writes the solution file: one
    ``name value`` pair per line using the generated MPS column names
    (X0000001, ...), plus a line ``objective <value>``. Lines starting
    with ``#`` are ignored. The command is stopped 30 s after the time
    limit, never under an infinite one; a limit the OS's wait cannot take
    ends the solve 'failure'.
    """
    # imported here: solves on the internal solver never load them
    import shlex
    import subprocess
    import tempfile

    failure = _solution(mip, 0, False)
    mps_text = write_mps(mip)  # validates the program
    with tempfile.TemporaryDirectory(prefix="gridrestore_") as tmp:
        mps_path = os.path.join(tmp, "model.mps")
        sol_path = os.path.join(tmp, "model.sol")
        with open(mps_path, "w") as f:
            f.write(mps_text)
        cmd = command_template.format(mps=mps_path, timelimit=opts.time_limit,
                                      gap=opts.rel_gap, solfile=sol_path)
        timeout = opts.time_limit + 30 if opts.time_limit < INF else None
        try:
            proc = subprocess.run(shlex.split(cmd), capture_output=True, timeout=timeout)
        except (OSError, OverflowError, subprocess.TimeoutExpired, ValueError):
            return failure
        if proc.returncode != 0 or not os.path.exists(sol_path):
            return failure
        try:
            with open(sol_path) as f:
                _, values = parse_solution_file(f.read())
        except (OSError, ValueError):
            return failure
    x = np.array([values.get(mps_column_name(j), 0.0)
                  for j in range(len(mip.base.variables))])
    if not np.isfinite(x).all() or mip.base.constraint_violation(x) > 1e-5 or \
            any(abs(x[j] - round(x[j])) > INT_TOL for j in mip.binary_vars):
        return failure
    obj = mip.base.objective_value(x)
    return _solution(mip, 0, True, _point(mip, LpSolution("optimal", obj, x)), obj)
