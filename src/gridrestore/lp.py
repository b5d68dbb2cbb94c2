"""Solver-agnostic LP representation, a bounded-variable simplex, MPS output.

The solver is a dense two-phase simplex over general bounds, with Bland's
anti-cycling rule engaged after a run of degenerate pivots. It is meant for
desk-scale problems (a few thousand variables at most) where exactness and
determinism matter more than speed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

FEAS_TOL = 1e-7      # constraint feasibility
OPT_TOL = 1e-7       # reduced cost optimality
PIVOT_TOL = 1e-10    # zero-pivot threshold
DEGEN_THRESHOLD = 40  # consecutive degenerate pivots before Bland's rule

# nonbasic variable states
_BASIC, _AT_LOWER, _AT_UPPER, _FREE = 0, 1, 2, 3


@dataclass(frozen=True)
class Variable:
    name: str
    lower: float = -INF
    upper: float = INF


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[int, float], ...]
    relation: str  # '<=', '=', '>='
    rhs: float


@dataclass
class LinearProgram:
    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective_sense: str = "maximize"
    objective_terms: list[tuple[int, float]] = field(default_factory=list)

    def add_variable(self, name: str, lower: float = -INF, upper: float = INF) -> int:
        self.variables.append(Variable(name, lower, upper))
        return len(self.variables) - 1

    def add_constraint(self, name: str, terms, relation: str, rhs: float) -> int:
        self.constraints.append(Constraint(name, tuple(terms), relation, float(rhs)))
        return len(self.constraints) - 1

    def set_objective(self, sense: str, terms) -> None:
        if sense not in ("maximize", "minimize"):
            raise ValueError(f"unknown objective sense {sense!r}")
        self.objective_sense = sense
        self.objective_terms = list(terms)

    def validate(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        n = len(self.variables)
        for v in self.variables:
            if np.isnan(v.lower) or np.isnan(v.upper):
                raise ValueError(f"variable {v.name}: NaN bound")
        for c in self.constraints:
            if c.relation not in ("<=", "=", ">="):
                raise ValueError(f"constraint {c.name}: bad relation {c.relation!r}")
            if np.isnan(c.rhs):
                raise ValueError(f"constraint {c.name}: NaN rhs")
            for idx, coef in c.terms:
                if not 0 <= idx < n:
                    raise ValueError(f"constraint {c.name}: variable index {idx} out of range")
                if np.isnan(coef):
                    raise ValueError(f"constraint {c.name}: NaN coefficient")
        for idx, coef in self.objective_terms:
            if not 0 <= idx < n:
                raise ValueError(f"objective: variable index {idx} out of range")
            if np.isnan(coef):
                raise ValueError("objective: NaN coefficient")

    def objective_value(self, x) -> float:
        return float(sum(coef * x[idx] for idx, coef in self.objective_terms))

    def constraint_violation(self, x) -> float:
        """Largest absolute violation of any constraint under x."""
        worst = 0.0
        for c in self.constraints:
            lhs = sum(coef * x[idx] for idx, coef in c.terms)
            if c.relation == "<=":
                worst = max(worst, lhs - c.rhs)
            elif c.relation == ">=":
                worst = max(worst, c.rhs - lhs)
            else:
                worst = max(worst, abs(lhs - c.rhs))
        return worst


@dataclass
class LpSolution:
    # 'optimal', 'infeasible', 'unbounded', 'iteration_limit', 'numerical_failure'
    status: str
    objective_value: float
    primal: np.ndarray
    iterations: int = 0

    def value(self, idx: int) -> float:
        return float(self.primal[idx])


class _Simplex:
    """Two-phase dense simplex over variables with general bounds.

    Internally minimizes. Every row gets a slack column (<=: [0, inf],
    >=: [-inf, 0], =: fixed at 0) plus, where the initial slack basis is
    infeasible, an artificial column driven out in phase 1.
    """

    def __init__(self, lp: LinearProgram, iteration_limit: int):
        self.lp = lp
        self.iteration_limit = iteration_limit
        self.iterations = 0
        n = len(lp.variables)
        m = len(lp.constraints)
        self.n_struct = n
        self.m = m
        nt = n + m  # structural + slacks; artificials appended below
        A = np.zeros((m, nt))
        b = np.zeros(m)
        lo = np.empty(nt)
        up = np.empty(nt)
        for j, v in enumerate(lp.variables):
            lo[j], up[j] = v.lower, v.upper
        for i, c in enumerate(lp.constraints):
            for idx, coef in c.terms:
                A[i, idx] += coef
            b[i] = c.rhs
            s = n + i
            A[i, s] = 1.0
            if c.relation == "<=":
                lo[s], up[s] = 0.0, INF
            elif c.relation == ">=":
                lo[s], up[s] = -INF, 0.0
            else:
                lo[s], up[s] = 0.0, 0.0
        # initial nonbasic values for structural columns
        x = np.zeros(nt)
        stat = np.full(nt, _AT_LOWER, dtype=np.int8)
        for j in range(n):
            if np.isfinite(lo[j]):
                x[j] = lo[j]
                stat[j] = _AT_LOWER
            elif np.isfinite(up[j]):
                x[j] = up[j]
                stat[j] = _AT_UPPER
            else:
                x[j] = 0.0
                stat[j] = _FREE
        # slack basis with artificials where the slack bound is violated
        basis = []
        art_cols = []
        resid = b - A[:, :n] @ x[:n]
        extra = []
        for i in range(m):
            s = n + i
            r = resid[i]
            if lo[s] - FEAS_TOL <= r <= up[s] + FEAS_TOL:
                x[s] = r
                stat[s] = _BASIC
                basis.append(s)
            else:
                # park the slack at its nearest bound, cover the gap
                x[s] = min(max(r, lo[s]), up[s]) if np.isfinite(lo[s]) or np.isfinite(up[s]) else 0.0
                if not np.isfinite(x[s]):
                    x[s] = 0.0
                stat[s] = _AT_LOWER if x[s] == lo[s] else _AT_UPPER
                gap = r - x[s]
                col = np.zeros(m)
                col[i] = 1.0 if gap >= 0 else -1.0
                extra.append(col)
                a = nt + len(extra) - 1
                art_cols.append(a)
                basis.append(a)
        if extra:
            A = np.hstack([A, np.column_stack(extra)])
            lo = np.concatenate([lo, np.zeros(len(extra))])
            up = np.concatenate([up, np.full(len(extra), INF)])
            x = np.concatenate([x, np.zeros(len(extra))])
            stat = np.concatenate([stat, np.zeros(len(extra), dtype=np.int8)])
        self.A = A
        self.b = b
        self.lo = lo
        self.up = up
        self.x = x
        self.stat = stat
        self.basis = basis
        self.art_cols = art_cols
        self.nt = A.shape[1]
        if art_cols:
            # artificial values make Ax = b hold exactly at the start
            resid2 = b - A @ x
            for pos, bv in enumerate(basis):
                if bv in art_cols:
                    x[bv] = resid2[pos] / A[pos, bv]
        # the slack/artificial basis consists of +-1 identity-like columns
        self.Binv = np.linalg.inv(A[:, basis]) if m else np.zeros((0, 0))

    # -- core pivoting -----------------------------------------------------

    def _solve_phase(self, c: np.ndarray) -> str:
        """Minimize c over the current basis; returns 'optimal'/'unbounded'/'limit'."""
        m, nt = self.m, self.nt
        A, lo, up, x, stat = self.A, self.lo, self.up, self.x, self.stat
        degen_run = 0
        fixed = (up - lo) <= 0  # cannot move; never eligible to enter
        while True:
            if self.iterations >= self.iteration_limit:
                return "limit"
            self.iterations += 1
            cB = c[self.basis]
            y = cB @ self.Binv if m else np.zeros(0)
            d = c - (y @ A if m else 0.0)
            d[self.basis] = 0.0
            up_ok = (stat == _AT_UPPER) | (stat == _FREE)
            lo_ok = (stat == _AT_LOWER) | (stat == _FREE)
            improving = (~fixed) & (((d < -OPT_TOL) & lo_ok) | ((d > OPT_TOL) & up_ok))
            if not improving.any():
                return "optimal"
            cand = np.flatnonzero(improving)
            if degen_run >= DEGEN_THRESHOLD:
                q = int(cand[0])  # Bland: lowest index
            else:
                q = int(cand[np.argmax(np.abs(d[cand]))])
            sigma = 1.0 if d[q] < 0 else -1.0
            w = self.Binv @ A[:, q] if m else np.zeros(0)
            # ratio test; ties go to the lowest leaving variable index
            gap = up[q] - lo[q] if np.isfinite(up[q]) and np.isfinite(lo[q]) else INF
            if m:
                bvs = np.array(self.basis)
                delta = -sigma * w
                lo_b, up_b, x_b = lo[bvs], up[bvs], x[bvs]
                t_arr = np.full(m, INF)
                dec = (delta < -PIVOT_TOL) & np.isfinite(lo_b)
                inc = (delta > PIVOT_TOL) & np.isfinite(up_b)
                t_arr[dec] = (x_b[dec] - lo_b[dec]) / (-delta[dec])
                t_arr[inc] = (up_b[inc] - x_b[inc]) / delta[inc]
                np.maximum(t_arr, 0.0, out=t_arr)
                tmin = float(t_arr.min())
            else:
                tmin = INF
            if not np.isfinite(tmin) and not np.isfinite(gap):
                return "unbounded"
            if tmin <= gap + PIVOT_TOL and np.isfinite(tmin):
                # pivot: among tied rows pick the lowest variable index
                tied = np.flatnonzero(t_arr <= tmin + PIVOT_TOL)
                leave_pos = int(tied[np.argmin(bvs[tied])])
                t = tmin
            else:
                # bound flip: q jumps to its opposite bound, no basis change
                t = gap
                degen_run = degen_run + 1 if t <= PIVOT_TOL else 0
                x[q] = up[q] if sigma > 0 else lo[q]
                stat[q] = _AT_UPPER if sigma > 0 else _AT_LOWER
                if m:
                    x[bvs] = x_b - sigma * t * w
                continue
            degen_run = degen_run + 1 if t <= PIVOT_TOL else 0
            # apply the step
            x[q] += sigma * t
            x[bvs] = x_b - sigma * t * w
            bv = self.basis[leave_pos]
            x[bv] = lo[bv] if delta[leave_pos] < 0 else up[bv]
            stat[bv] = _AT_LOWER if delta[leave_pos] < 0 else _AT_UPPER
            stat[q] = _BASIC
            self.basis[leave_pos] = q
            # update Binv: pivot on row leave_pos, column q; the ratio test
            # only selects rows with |w_i| > PIVOT_TOL
            piv = w[leave_pos]
            self.Binv[leave_pos, :] /= piv
            wq = w.copy()
            wq[leave_pos] = 0.0
            self.Binv -= np.outer(wq, self.Binv[leave_pos, :])

    def _refactorize(self) -> None:
        B = self.A[:, self.basis]
        self.Binv = np.linalg.inv(B)
        # recompute basic values to clear accumulated drift
        nb = np.ones(self.nt, dtype=bool)
        nb[self.basis] = False
        rhs = self.b - self.A[:, nb] @ self.x[nb]
        self.x[self.basis] = self.Binv @ rhs

    def solve(self) -> LpSolution:
        c2 = np.zeros(self.nt)
        sense = 1.0 if self.lp.objective_sense == "minimize" else -1.0
        for idx, coef in self.lp.objective_terms:
            c2[idx] += sense * coef
        if self.art_cols:
            c1 = np.zeros(self.nt)
            c1[self.art_cols] = 1.0
            res = self._solve_phase(c1)
            if res == "limit":
                return self._finish("iteration_limit")
            if res == "unbounded" or float(c1 @ self.x) > 1e-6:
                return self._finish("infeasible")
            # pin artificials at zero for phase 2
            for a in self.art_cols:
                self.lo[a] = 0.0
                self.up[a] = 0.0
                self.x[a] = 0.0
            self._refactorize()
        res = self._solve_phase(c2)
        if res == "limit":
            return self._finish("iteration_limit")
        if res == "unbounded":
            return self._finish("unbounded")
        self._refactorize()
        return self._finish("optimal")

    def _finish(self, status: str) -> LpSolution:
        primal = np.array(self.x[: self.n_struct])
        obj = self.lp.objective_value(primal) if status in ("optimal", "iteration_limit") else float("nan")
        return LpSolution(status=status, objective_value=obj, primal=primal,
                          iterations=self.iterations)


def solve_lp(lp: LinearProgram, iteration_limit: int = 50000) -> LpSolution:
    """Solve an LP with the internal bounded-variable simplex.

    Returns a proven status; deterministic for identical input. On
    iteration limit exhaustion the best point found is returned with
    status 'iteration_limit'. A singular basis ends the solve with status
    'numerical_failure'.
    """
    lp.validate()
    for v in lp.variables:
        if v.lower > v.upper:
            return LpSolution("infeasible", float("nan"), np.zeros(len(lp.variables)))
    try:
        return _Simplex(lp, iteration_limit).solve()
    except np.linalg.LinAlgError:
        return LpSolution("numerical_failure", float("nan"), np.zeros(len(lp.variables)))


# ---------------------------------------------------------------------------
# MPS writer
# ---------------------------------------------------------------------------

def _mps_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e14:
        return str(int(v))
    return f"{v:.10G}"


def mps_column_name(idx: int) -> str:
    """Generated MPS column name for variable index idx."""
    return f"X{idx + 1:07d}"


def mps_row_name(idx: int) -> str:
    return f"C{idx + 1:07d}"


def write_mps(prog) -> str:
    """Serialize a LinearProgram or MixedIntegerProgram to fixed-format MPS.

    Columns are named X0000001.. in variable order and rows C0000001..;
    the objective row is OBJ. A maximization objective is written negated
    (MPS has no sense marker) so external solvers minimize the same
    problem; solution values are unaffected. Binary variables appear
    inside MARKER INTORG/INTEND blocks with bounds [0, 1]. Output is
    byte-identical for identical input.
    """
    binary: set[int] = set()
    lp = prog
    if hasattr(prog, "base"):
        lp = prog.base
        binary = set(prog.binary_vars)
    lp.validate()
    sense = -1.0 if lp.objective_sense == "maximize" else 1.0
    obj = {}
    for idx, coef in lp.objective_terms:
        obj[idx] = obj.get(idx, 0.0) + sense * coef

    out = []
    out.append("NAME          GRIDRESTORE")
    out.append("ROWS")
    out.append(" N  OBJ")
    rel_tag = {"<=": "L", ">=": "G", "=": "E"}
    for i, c in enumerate(lp.constraints):
        out.append(f" {rel_tag[c.relation]}  {mps_row_name(i)}")
    out.append("COLUMNS")
    col_entries: list[list[tuple[str, float]]] = [[] for _ in lp.variables]
    for j, coef in obj.items():
        if coef != 0.0:
            col_entries[j].append(("OBJ", coef))
    for i, c in enumerate(lp.constraints):
        merged: dict[int, float] = {}
        for idx, coef in c.terms:
            merged[idx] = merged.get(idx, 0.0) + coef
        for idx in sorted(merged):
            if merged[idx] != 0.0:
                col_entries[idx].append((mps_row_name(i), merged[idx]))
    marker = 0
    in_int = False
    for j in range(len(lp.variables)):
        want_int = j in binary
        if want_int and not in_int:
            out.append(f"    MARKER{marker:04d}            'MARKER'                 'INTORG'")
            marker += 1
            in_int = True
        elif not want_int and in_int:
            out.append(f"    MARKER{marker:04d}            'MARKER'                 'INTEND'")
            marker += 1
            in_int = False
        name = mps_column_name(j)
        entries = col_entries[j]
        if not entries:
            entries = [("OBJ", 0.0)]  # keep every column present
        for a in range(0, len(entries), 2):
            pair = entries[a:a + 2]
            line = f"    {name:<8}  {pair[0][0]:<8}  {_mps_num(pair[0][1]):<12}"
            if len(pair) == 2:
                line += f"   {pair[1][0]:<8}  {_mps_num(pair[1][1]):<12}"
            out.append(line.rstrip())
    if in_int:
        out.append(f"    MARKER{marker:04d}            'MARKER'                 'INTEND'")
    out.append("RHS")
    for i, c in enumerate(lp.constraints):
        if c.rhs != 0.0:
            out.append(f"    RHS       {mps_row_name(i):<8}  {_mps_num(c.rhs):<12}".rstrip())
    out.append("RANGES")
    out.append("BOUNDS")
    for j, v in enumerate(lp.variables):
        name = mps_column_name(j)
        if j in binary:
            lo = max(v.lower, 0.0)
            hi = min(v.upper, 1.0)
            out.append(f" LO BND       {name:<8}  {_mps_num(lo):<12}".rstrip())
            out.append(f" UP BND       {name:<8}  {_mps_num(hi):<12}".rstrip())
            continue
        if v.lower == v.upper:
            out.append(f" FX BND       {name:<8}  {_mps_num(v.lower):<12}".rstrip())
            continue
        if not np.isfinite(v.lower) and not np.isfinite(v.upper):
            out.append(f" FR BND       {name:<8}")
            continue
        if np.isfinite(v.lower):
            if v.lower != 0.0:
                out.append(f" LO BND       {name:<8}  {_mps_num(v.lower):<12}".rstrip())
        else:
            out.append(f" MI BND       {name:<8}")
        if np.isfinite(v.upper):
            out.append(f" UP BND       {name:<8}  {_mps_num(v.upper):<12}".rstrip())
    out.append("ENDATA")
    return "\n".join(out) + "\n"
