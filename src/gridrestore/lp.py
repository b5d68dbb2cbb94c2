"""Solver-agnostic LP representation, a bounded-variable simplex, MPS output.

The solver is a dense simplex over general bounds, meant for desk-scale
problems (a few thousand variables at most) where exactness and
determinism matter more than speed. A cold solve is two-phase primal
simplex from a slack basis, with Bland's anti-cycling rule engaged after
a run of degenerate pivots, and ends by inverting its final basis afresh.
A warm solve starts from the optimal basis of an earlier solve of the same
standard form under other bounds, as a branch-and-bound child does from
its parent: a bound change keeps that basis dual feasible, so a bounded
dual simplex restores primal feasibility and the primal simplex then
finishes. The start may carry the inverse of its basis, which the solve
copies instead of inverting; at the end the product-updated inverse is
kept when the basic values it gives pass the residual check, and the
basis is inverted afresh only when they do not. A warm basis that is
singular, inaccurate or not dual feasible falls back to a cold solve in
the same call.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

FEAS_TOL = 1e-7      # constraint feasibility
OPT_TOL = 1e-7       # reduced cost optimality
PIVOT_TOL = 1e-10    # zero-pivot threshold
DEGEN_THRESHOLD = 40  # consecutive degenerate pivots before Bland's rule
INFEAS_TOL = 1e-6    # phase-1 residual above which an LP is infeasible
RESID_TOL = 1e-6     # warm basis: largest |Ax - b| relative to 1 + max|b|

# nonbasic variable states
_BASIC, _AT_LOWER, _AT_UPPER, _FREE = 0, 1, 2, 3

# slack bounds per constraint relation
_SLACK_BOUNDS = {"<=": (0.0, INF), ">=": (-INF, 0.0), "=": (0.0, 0.0)}


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


@dataclass(frozen=True)
class StandardForm:
    """Dense minimization form of an LP: min c.x s.t. A x = b, lower <= x <= upper.

    Columns are the LP's variables followed by one slack per row
    (<=: [0, inf], >=: [-inf, 0], =: fixed at 0). ``c`` is the objective,
    negated for maximization. The arrays are read-only, so solves that
    differ only in their bounds share one form through
    ``dataclasses.replace(form, lower=..., upper=...)``.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def standard_form(lp: LinearProgram) -> StandardForm:
    """Build the standard form of a validated LP."""
    n, m = len(lp.variables), len(lp.constraints)
    A = np.zeros((m, n + m))
    b = np.zeros(m)
    c = np.zeros(n + m)
    lower = np.empty(n + m)
    upper = np.empty(n + m)
    for j, v in enumerate(lp.variables):
        lower[j], upper[j] = v.lower, v.upper
    for i, con in enumerate(lp.constraints):
        for idx, coef in con.terms:
            A[i, idx] += coef
        b[i] = con.rhs
        A[i, n + i] = 1.0
        lower[n + i], upper[n + i] = _SLACK_BOUNDS[con.relation]
    sense = 1.0 if lp.objective_sense == "minimize" else -1.0
    for idx, coef in lp.objective_terms:
        c[idx] += sense * coef
    for arr in (A, b, c, lower, upper):
        arr.flags.writeable = False
    return StandardForm(A, b, c, lower, upper)


@dataclass(frozen=True)
class Basis:
    """A basis of a standard form, to warm-start a later solve from.

    ``columns`` holds the basic column of each row; ``status`` the state of
    every column (basic, at lower, at upper, free). ``inverse``, if given,
    is the inverse of the form's ``A[:, columns]``; a solve from this basis
    copies it instead of inverting. Only a short-lived start shared by
    sibling solves carries one, so stored bases stay small.
    """

    columns: np.ndarray
    status: np.ndarray
    inverse: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass
class LpSolution:
    # 'optimal', 'infeasible', 'unbounded', 'iteration_limit', 'numerical_failure'
    status: str
    objective_value: float
    primal: np.ndarray
    iterations: int = 0
    basis: Basis | None = None  # the optimal basis, for an optimal solve

    def value(self, idx: int) -> float:
        return float(self.primal[idx])


class _Simplex:
    """Dense simplex over a standard form with general bounds.

    Internally minimizes. ``solve`` is the cold two-phase primal simplex:
    the slack basis plus, where a slack's bound is violated, an artificial
    column driven out in phase 1. ``solve_from`` is the warm dual-then-
    primal simplex from a given basis.

    Artificial column k is ``art_sign[k]`` times the unit vector of row
    ``art_rows[k]``, numbered after the form's columns. It is never stored
    in ``A``, which stays the form's shared read-only matrix.
    """

    def __init__(self, lp: LinearProgram, form: StandardForm, iteration_limit: int):
        self.lp = lp
        self.iteration_limit = iteration_limit
        self.iterations = 0
        self.m, self.nt = form.A.shape
        self.n_struct = self.nt - self.m
        self.A, self.b, self.c = form.A, form.b, form.c
        self.lo, self.up = form.lower, form.upper
        self.art_rows = np.zeros(0, dtype=int)
        self.art_sign = np.zeros(0)

    def _cold_start(self) -> None:
        n, m, nt = self.n_struct, self.m, self.nt
        A, b, lo, up = self.A, self.b, self.lo, self.up
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
        art_rows = []
        art_sign = []
        resid = b - A[:, :n] @ x[:n]
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
                basis.append(nt + len(art_rows))
                art_rows.append(i)
                art_sign.append(1.0 if gap >= 0 else -1.0)
        k = len(art_rows)
        self.art_rows = np.array(art_rows, dtype=int)
        self.art_sign = np.array(art_sign)
        if k:
            self.lo = np.concatenate([lo, np.zeros(k)])
            self.up = np.concatenate([up, np.full(k, INF)])
            self.c = np.concatenate([self.c, np.zeros(k)])
            stat = np.concatenate([stat, np.zeros(k, dtype=np.int8)])
            # artificial values make Ax = b hold exactly at the start
            x = np.concatenate([x, (b - A @ x)[self.art_rows] / self.art_sign])
        self.x = x
        self.stat = stat
        self.basis = basis
        self.nt = nt + k
        # every basic column is +-e_pos, so the inverse is that same diagonal
        diag = np.ones(m)
        diag[self.art_rows] = self.art_sign
        self.Binv = np.diag(diag)

    def _warm_start(self, start: Basis) -> bool:
        """Install ``start``; False when it does not fit, is inaccurate or
        is not dual feasible.

        Nonbasic columns go to the bound their state names, or the bound
        they have. A column with both bounds finite goes to the one its
        reduced cost prefers, which makes the basis dual feasible whatever
        the new bounds are; any other dual infeasibility rejects the basis.
        Raises ``numpy.linalg.LinAlgError`` when the basis is singular and
        ``start`` carries no inverse.
        """
        m, nt, lo, up = self.m, self.nt, self.lo, self.up
        cols = np.asarray(start.columns)
        if (cols.shape != (m,) or start.status.shape != (nt,)
                or len(set(cols.tolist())) != m):
            return False
        fin_lo, fin_up = np.isfinite(lo), np.isfinite(up)
        stat = np.full(nt, _FREE, dtype=np.int8)
        stat[fin_up] = _AT_UPPER
        stat[fin_lo & ~(fin_up & (start.status == _AT_UPPER))] = _AT_LOWER
        stat[cols] = _BASIC
        self.stat = stat
        self.basis = [int(j) for j in cols]
        self.x = np.zeros(nt)
        if start.inverse is None:
            self.Binv = np.linalg.inv(self.A[:, cols])
        elif start.inverse.shape == (m, m):
            self.Binv = start.inverse.copy()
        else:
            return False
        d = self._reduced_costs(self.c)
        boxed = fin_lo & fin_up & (stat != _BASIC)
        stat[boxed & (d < -OPT_TOL)] = _AT_UPPER
        stat[boxed & (d > OPT_TOL)] = _AT_LOWER
        at_lo, at_up = stat == _AT_LOWER, stat == _AT_UPPER
        if ((at_lo & (d < -OPT_TOL)) | (at_up & (d > OPT_TOL))
                | ((stat == _FREE) & (np.abs(d) > OPT_TOL))).any():
            return False
        x = self.x
        x[at_lo] = lo[at_lo]
        x[at_up] = up[at_up]
        self._basic_values()
        return self._accurate()

    # -- core pivoting -----------------------------------------------------

    def _price(self, y: np.ndarray) -> np.ndarray:
        """``y`` times every column, artificial ones included."""
        yA = y @ self.A
        if self.art_rows.size:
            yA = np.concatenate([yA, y[self.art_rows] * self.art_sign])
        return yA

    def _column(self, q: int) -> np.ndarray:
        if q < self.A.shape[1]:
            return self.A[:, q]
        col = np.zeros(self.m)
        k = q - self.A.shape[1]
        col[self.art_rows[k]] = self.art_sign[k]
        return col

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        y = c[self.basis] @ self.Binv
        d = c - self._price(y)
        d[self.basis] = 0.0
        return d

    def _update_inverse(self, pos: int, w: np.ndarray) -> None:
        """Column ``w = Binv a_q`` replaced the basic column of row ``pos``.

        Only the rows where ``w`` is nonzero change. Updating just those
        rows gathers and scatters them, which costs more than the dense
        update unless they are few and the inverse is large; both give
        the same values.
        """
        Binv = self.Binv
        Binv[pos, :] /= w[pos]
        if 2 * np.count_nonzero(w) + 64 < self.m:
            rows = np.flatnonzero(w)
            rows = rows[rows != pos]
            Binv[rows] -= np.outer(w[rows], Binv[pos, :])
        else:
            wq = w.copy()
            wq[pos] = 0.0
            Binv -= np.outer(wq, Binv[pos, :])

    def _solve_phase(self, c: np.ndarray) -> str:
        """Minimize c over the current basis; returns 'optimal'/'unbounded'/'limit'."""
        m = self.m
        lo, up, x, stat = self.lo, self.up, self.x, self.stat
        degen_run = 0
        fixed = (up - lo) <= 0  # cannot move; never eligible to enter
        while True:
            if self.iterations >= self.iteration_limit:
                return "limit"
            self.iterations += 1
            d = self._reduced_costs(c)
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
            w = self.Binv @ self._column(q)
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
            # the ratio test only selects rows with |w_i| > PIVOT_TOL
            self._update_inverse(leave_pos, w)

    def _dual_phase(self) -> str:
        """Bounded dual simplex from a dual-feasible basis.

        Returns 'optimal' once every basic value is within its bounds,
        'infeasible' when the leaving row proves no point is, 'unsure' when
        that row can neither pivot nor prove it, and 'limit'. The leaving
        row has the largest bound violation and the entering column the
        smallest |d_j / alpha_rj|; among tied columns the largest |alpha_rj|
        wins, which keeps the primal step short and most dual-degenerate
        re-solves to a few pivots. After a run of degenerate pivots
        Bland's rule takes over: the lowest basic variable index leaves,
        the lowest tied column index enters.
        """
        lo, up, x, stat = self.lo, self.up, self.x, self.stat
        fixed = (up - lo) <= 0
        degen_run = 0
        while True:
            bvs = np.array(self.basis, dtype=int)
            x_b = x[bvs]
            viol = np.maximum(lo[bvs] - x_b, x_b - up[bvs])
            rows = np.flatnonzero(viol > FEAS_TOL)
            if not rows.size:
                return "optimal"
            if self.iterations >= self.iteration_limit:
                return "limit"
            self.iterations += 1
            if degen_run >= DEGEN_THRESHOLD:
                r = int(rows[np.argmin(bvs[rows])])
            else:
                r = int(rows[np.argmax(viol[rows])])
            to_lower = x_b[r] < lo[bvs[r]]
            alpha = self._price(self.Binv[r])
            # gain: how much x_B[r] moves toward its bound per unit rise of x_j
            gain = -alpha if to_lower else alpha
            can_rise = (stat == _AT_LOWER) | (stat == _FREE)
            can_fall = (stat == _AT_UPPER) | (stat == _FREE)
            eligible = ~fixed & ((can_rise & (gain > PIVOT_TOL)) | (can_fall & (gain < -PIVOT_TOL)))
            if not eligible.any():
                return "infeasible" if self._row_infeasible(gain, viol[r]) else "unsure"
            cand = np.flatnonzero(eligible)
            d = self._reduced_costs(self.c)
            ratio = np.abs(d[cand]) / np.abs(alpha[cand])
            tmin = float(ratio.min())
            tied = cand[ratio <= tmin + PIVOT_TOL]
            if degen_run >= DEGEN_THRESHOLD:
                q = int(tied[0])
            else:
                q = int(tied[np.argmax(np.abs(alpha[tied]))])
            degen_run = degen_run + 1 if tmin <= PIVOT_TOL else 0
            w = self.Binv @ self._column(q)
            leaving = int(bvs[r])
            bound = lo[leaving] if to_lower else up[leaving]
            step = (x_b[r] - bound) / w[r]
            x[q] += step
            x[bvs] = x_b - step * w
            x[leaving] = bound
            stat[leaving] = _AT_LOWER if to_lower else _AT_UPPER
            stat[q] = _BASIC
            self.basis[r] = q
            self._update_inverse(r, w)

    def _row_infeasible(self, gain: np.ndarray, shortfall: float) -> bool:
        """Whether moving every nonbasic column within its bounds, each the
        way that helps, still leaves the row's basic value INFEAS_TOL short."""
        x, lo, up = self.x, self.lo, self.up
        nonbasic = self.stat != _BASIC
        rise = nonbasic & (gain > 0)
        fall = nonbasic & (gain < 0)
        most = (gain[rise] * (up[rise] - x[rise])).sum() + \
            (gain[fall] * (lo[fall] - x[fall])).sum()
        return bool(most < shortfall - INFEAS_TOL)

    def _accurate(self) -> bool:
        x = self.x
        if not np.isfinite(x).all():
            return False
        resid = np.abs(self.A @ x - self.b).max(initial=0.0)
        return bool(resid <= RESID_TOL * (1.0 + np.abs(self.b).max(initial=0.0)))

    def _basic_values(self) -> None:
        """Recompute the basic values from the nonbasic ones with the current
        inverse. Runs only while the artificial columns are pinned at zero
        (or absent), so only the form's nonbasic columns contribute."""
        nf = self.A.shape[1]
        cols = np.array(self.basis, dtype=int)
        nb = np.ones(nf, dtype=bool)
        nb[cols[cols < nf]] = False
        self.x[self.basis] = self.Binv @ (self.b - self.A[:, nb] @ self.x[:nf][nb])

    def _refactorize(self) -> None:
        """Invert the basis afresh and recompute the basic values, clearing
        accumulated drift."""
        nf = self.A.shape[1]
        cols = np.array(self.basis, dtype=int)
        art = cols >= nf
        B = np.zeros((self.m, self.m))
        B[:, ~art] = self.A[:, cols[~art]]
        B[self.art_rows[cols[art] - nf], np.flatnonzero(art)] = self.art_sign[cols[art] - nf]
        self.Binv = np.linalg.inv(B)
        self._basic_values()

    def solve(self) -> LpSolution:
        """Cold two-phase primal simplex from the slack basis."""
        self._cold_start()
        if self.art_rows.size:
            nf = self.A.shape[1]
            c1 = np.zeros(self.nt)
            c1[nf:] = 1.0
            res = self._solve_phase(c1)
            if res == "limit":
                return self._finish("iteration_limit")
            if res == "unbounded" or float(c1 @ self.x) > INFEAS_TOL:
                return self._finish("infeasible")
            # pin artificials at zero for phase 2
            self.lo[nf:] = 0.0
            self.up[nf:] = 0.0
            self.x[nf:] = 0.0
            self._refactorize()
        res = self._solve_phase(self.c)
        if res == "limit":
            return self._finish("iteration_limit")
        if res == "unbounded":
            return self._finish("unbounded")
        self._refactorize()
        return self._finish("optimal")

    def solve_from(self, start: Basis) -> LpSolution | None:
        """Warm dual-then-primal simplex from ``start``.

        The optimum keeps the product-updated inverse when the basic values
        it gives pass the residual check; otherwise the basis is inverted
        afresh and checked again. None when the basis cannot be used, the
        dual simplex cannot settle infeasibility or the optimum stays
        inaccurate; the caller then solves cold.
        """
        if not self._warm_start(start):
            return None
        res = self._dual_phase()
        if res == "unsure":
            return None
        if res != "optimal":
            return self._finish("iteration_limit" if res == "limit" else "infeasible")
        res = self._solve_phase(self.c)
        if res == "limit":
            return self._finish("iteration_limit")
        if res == "unbounded":
            return None
        self._basic_values()
        if not self._accurate():
            self._refactorize()
            if not self._accurate():
                return None
        return self._finish("optimal")

    def _basis(self) -> Basis:
        """The current basis over the standard form, each artificial column
        replaced by its row's slack (the same column up to sign)."""
        nt = self.n_struct + self.m
        cols = np.array(self.basis, dtype=np.int32)
        art = cols >= nt
        cols[art] = self.n_struct + self.art_rows[cols[art] - nt]
        stat = self.stat[:nt].copy()
        stat[cols] = _BASIC
        return Basis(cols, stat)

    def _finish(self, status: str) -> LpSolution:
        primal = np.array(self.x[: self.n_struct])
        obj = self.lp.objective_value(primal) if status in ("optimal", "iteration_limit") else float("nan")
        return LpSolution(status=status, objective_value=obj, primal=primal,
                          iterations=self.iterations,
                          basis=self._basis() if status == "optimal" else None)


def solve_lp(lp: LinearProgram, iteration_limit: int = 50000, *,
             form: StandardForm | None = None, start: Basis | None = None) -> LpSolution:
    """Solve an LP with the internal bounded-variable simplex.

    Returns a proven status; deterministic for identical input. On
    iteration limit exhaustion the best point found is returned with
    status 'iteration_limit'. A singular basis ends the solve with status
    'numerical_failure'.

    ``form`` is ``standard_form(lp)``, possibly with other bounds; the LP
    is then neither validated nor rebuilt, and its variables' bounds are
    ignored. ``start`` is the basis of an earlier optimal solve of the
    same form under any bounds: the solve begins from it, and starts cold
    instead, within the same iteration limit, when that basis is singular,
    inaccurate or not dual feasible. An inverse carried by ``start`` is
    copied, never changed, so sibling solves can share it.
    """
    if form is None:
        lp.validate()
        form = standard_form(lp)
    if (form.lower > form.upper).any():
        return LpSolution("infeasible", float("nan"), np.zeros(len(lp.variables)))
    try:
        used = 0
        if start is not None:
            warm = _Simplex(lp, form, iteration_limit)
            try:
                sol = warm.solve_from(start)
            except np.linalg.LinAlgError:
                sol = None
            if sol is not None:
                return sol
            used = warm.iterations
        cold = _Simplex(lp, form, iteration_limit)
        cold.iterations = used
        return cold.solve()
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
