"""Branch-and-bound MILP solver over the internal LP core.

Node selection is best bound, branching is most-fractional with lowest
variable index as the tie-break, so the search is fully deterministic.
The MILP's standard form is built once; a node is its binary fixes. The
root LP starts from the program's ``start`` basis when it has one (an
ordering MILP carries a primal feasible basis made from a period LP's
optimum), and cold otherwise. Every other LP is warm: the warm-start
incumbent LP starts from the root's optimal basis, and each child LP is
re-solved under its fixes from its parent's optimal basis by the LP
core's dual simplex. An optimal basis carries the inverse its solve
ended with, and every solve from it copies that inverse: a branching's
two children share their parent's, and the warm-start incumbent LP and
the root's children share the root's. So the search inverts no basis,
except the program's ``start``, which is built by hand and inverts
itself once for the root, and the bases of nodes that wait on the heap
beyond its budget of inverses (``HEAP_INVERSE_BYTES``): such a node
waits with its basis alone, and its branching inverts it once.
An optional external backend drives a command-line solver through MPS
and a simple solution-file format.
"""
from __future__ import annotations

import heapq
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .lp import (INF, Basis, LinearProgram, StandardForm, mps_column_name, solve_lp,
                 standard_form, write_mps)

INT_TOL = 1e-6
# bytes of carried inverses that the nodes waiting on the heap may hold
HEAP_INVERSE_BYTES = 16 << 20


@dataclass
class MixedIntegerProgram:
    base: LinearProgram
    binary_vars: frozenset[int] = frozenset()
    # a basis of the relaxation's standard form to start the root LP from
    start: Basis | None = None

    def __post_init__(self):
        self.binary_vars = frozenset(self.binary_vars)
        for j in self.binary_vars:
            v = self.base.variables[j]
            if v.lower < -INT_TOL or v.upper > 1 + INT_TOL:
                raise ValueError(f"binary variable {v.name} has bounds outside [0, 1]")


@dataclass
class SolveOptions:
    time_limit: float = 60.0
    rel_gap: float = 0.01
    warm_start: dict[int, int] | None = None  # full binary assignment

    def __post_init__(self):
        if self.time_limit <= 0:
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
    primal: np.ndarray | None = None
    elapsed: float = 0.0
    nodes: int = 0

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
    warm start, if feasible, becomes the initial incumbent. The time
    limit is checked between node solves and is every LP's deadline, so an
    LP that runs past it ends 'iteration_limit'. A time limit with no
    incumbent yields 'failure'. A child whose LP ends neither optimal nor
    infeasible (iteration limit, deadline, numerical failure) stays open
    at its parent's bound; the search then proves nothing and ends
    'feasible_time_limit', or 'failure' with no incumbent.
    """
    mip.base.validate()
    form = standard_form(mip.base)
    start = time.monotonic()
    deadline = start + opts.time_limit
    sense_max = mip.base.objective_sense == "maximize"
    better = (lambda a, b: a > b) if sense_max else (lambda a, b: a < b)
    binaries = sorted(mip.binary_vars)

    incumbent_obj = None
    incumbent_x = None
    unresolved: list[float] = []  # parent bounds of children left unsolved

    root = solve_lp(mip.base, form=form, start=mip.start, deadline=deadline)
    nodes_solved = 1
    if root.status == "infeasible":
        return MipSolution(status="infeasible", elapsed=time.monotonic() - start,
                           nodes=nodes_solved)
    if root.status == "unbounded":
        return MipSolution(status="failure", elapsed=time.monotonic() - start,
                           nodes=nodes_solved)

    if opts.warm_start is not None:
        fixes = {j: float(v) for j, v in opts.warm_start.items() if j in mip.binary_vars}
        if len(fixes) == len(binaries):
            # from the root's basis; cold when the root LP is not optimal
            sol = solve_lp(mip.base, form=_with_fixes(form, fixes), start=root.basis,
                           deadline=deadline)
            nodes_solved += 1
            if sol.status == "optimal":
                incumbent_obj = sol.objective_value
                incumbent_x = sol.primal
        # an infeasible or partial warm start is silently discarded

    if root.status != "optimal":
        return _timeout_result(mip, incumbent_obj, incumbent_x, None, start, nodes_solved)

    # heap of (priority, tiebreak, fixes, node LP solution); priority = -bound
    # for max. The solution's basis is where the node's children start. A
    # fixes dict, not full bound arrays, keeps large heaps small. A node
    # pushed while the heap holds fewer than max_held nodes keeps the
    # m x m inverse its basis carries, so at most HEAP_INVERSE_BYTES of
    # them wait at once; a node pushed later waits with its basis alone,
    # which its branching inverts once.
    heap = [((-root.objective_value if sense_max else root.objective_value), 0, {}, root)]
    max_held = HEAP_INVERSE_BYTES // (8 * form.b.size ** 2 or 1)
    counter = 1
    del root  # the root's inverse goes with its node once that is branched

    def current_bound():
        vals = [(-h[0] if sense_max else h[0]) for h in heap] + unresolved
        if incumbent_obj is not None:
            vals.append(incumbent_obj)
        if sense_max:
            return max(vals) if vals else float("-inf")
        return min(vals) if vals else float("inf")

    abs_tol = 1e-9

    while heap:
        if time.monotonic() > deadline:
            return _timeout_result(mip, incumbent_obj, incumbent_x, current_bound(),
                                   start, nodes_solved)
        _, _, fixes, relax = heapq.heappop(heap)
        bound = relax.objective_value
        if incumbent_obj is not None:
            slack = max(opts.rel_gap * abs(incumbent_obj), abs_tol)
            if (sense_max and bound <= incumbent_obj + slack) or \
               (not sense_max and bound >= incumbent_obj - slack):
                continue  # cannot improve enough
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
            if incumbent_obj is None or better(bound, incumbent_obj):
                incumbent_obj = bound
                incumbent_x = relax.primal
            continue
        for branch_val in (0.0, 1.0):
            child_fixes = {**fixes, frac_j: branch_val}
            child = solve_lp(mip.base, form=_with_fixes(form, child_fixes),
                             start=relax.basis, deadline=deadline)
            nodes_solved += 1
            if child.status == "infeasible":
                continue
            if child.status != "optimal":
                unresolved.append(bound)
                continue
            if len(heap) >= max_held:
                child.basis = Basis(child.basis.columns, child.basis.status)
            heapq.heappush(heap, ((-child.objective_value if sense_max else child.objective_value),
                                  counter, child_fixes, child))
            counter += 1
        if incumbent_obj is not None:
            bnd = current_bound()
            if _relative_gap(incumbent_obj, bnd) <= opts.rel_gap:
                status = "feasible_time_limit" if unresolved else "optimal_within_gap"
                return _final_result(mip, incumbent_obj, incumbent_x, bnd, start,
                                     nodes_solved, status)

    if unresolved:
        return _timeout_result(mip, incumbent_obj, incumbent_x, current_bound(),
                               start, nodes_solved)
    if incumbent_obj is None:
        return MipSolution(status="infeasible", elapsed=time.monotonic() - start,
                           nodes=nodes_solved)
    return _final_result(mip, incumbent_obj, incumbent_x, incumbent_obj, start,
                         nodes_solved, "optimal_within_gap")


def _assignment_from(mip: MixedIntegerProgram, x: np.ndarray) -> dict[int, int]:
    return {j: int(round(x[j])) for j in sorted(mip.binary_vars)}


def _final_result(mip, obj, x, bound, start, nodes, status) -> MipSolution:
    return MipSolution(status=status, objective_value=obj, best_bound=bound,
                       gap=_relative_gap(obj, bound), assignment=_assignment_from(mip, x),
                       primal=x, elapsed=time.monotonic() - start, nodes=nodes)


def _timeout_result(mip, obj, x, bound, start, nodes) -> MipSolution:
    """Incumbent without proof; ``bound`` None means none was proven (the
    root LP did not solve), reported as an infinite bound and gap."""
    if obj is None:
        return MipSolution(status="failure", elapsed=time.monotonic() - start, nodes=nodes)
    if bound is None:
        bound = INF if mip.base.objective_sense == "maximize" else -INF
    return _final_result(mip, obj, x, bound, start, nodes, "feasible_time_limit")


# ---------------------------------------------------------------------------
# External solver backend
# ---------------------------------------------------------------------------

@dataclass
class ExternalBackendConfig:
    """Command template with {mps}, {timelimit}, {gap}, {solfile} placeholders.

    The solution file must contain one ``name value`` pair per line using
    the generated MPS column names (X0000001, ...), plus a line
    ``objective <value>``. Lines starting with ``#`` are ignored.
    """

    command_template: str


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
                   backend: ExternalBackendConfig) -> MipSolution:
    """Solve via an external command; any failure maps to status 'failure'."""
    # imported here: solves on the internal solver never load them
    import shlex
    import subprocess
    import tempfile

    mip.base.validate()
    start = time.monotonic()
    mps_text = write_mps(mip)
    with tempfile.TemporaryDirectory(prefix="gridrestore_") as tmp:
        mps_path = os.path.join(tmp, "model.mps")
        sol_path = os.path.join(tmp, "model.sol")
        with open(mps_path, "w") as f:
            f.write(mps_text)
        cmd = backend.command_template.format(mps=mps_path, timelimit=opts.time_limit,
                                              gap=opts.rel_gap, solfile=sol_path)
        try:
            proc = subprocess.run(shlex.split(cmd), capture_output=True,
                                  timeout=opts.time_limit + 30)
        except (OSError, subprocess.TimeoutExpired, ValueError):
            return MipSolution(status="failure", elapsed=time.monotonic() - start)
        if proc.returncode != 0 or not os.path.exists(sol_path):
            return MipSolution(status="failure", elapsed=time.monotonic() - start)
        try:
            with open(sol_path) as f:
                _, values = parse_solution_file(f.read())
        except (OSError, ValueError):
            return MipSolution(status="failure", elapsed=time.monotonic() - start)
    n = len(mip.base.variables)
    x = np.zeros(n)
    for j in range(n):
        name = mps_column_name(j)
        if name in values:
            x[j] = values[name]
    for j in mip.binary_vars:
        if abs(x[j] - round(x[j])) > INT_TOL:
            return MipSolution(status="failure", elapsed=time.monotonic() - start)
    if mip.base.constraint_violation(x) > 1e-5:
        return MipSolution(status="failure", elapsed=time.monotonic() - start)
    obj = mip.base.objective_value(x)
    return MipSolution(status="optimal_within_gap", objective_value=obj, best_bound=obj,
                       gap=0.0, assignment=_assignment_from(mip, x), primal=x,
                       elapsed=time.monotonic() - start)
