"""Solver-agnostic LP representation, a bounded-variable simplex, MPS output.

The solver is a simplex over general bounds with a dense basis inverse,
meant for desk-scale problems (a few thousand variables at most) where
exactness and determinism matter more than speed. The constraint matrix
is held only compressed by column, built once by ``standard_form``:
pricing (the reduced costs and the dual simplex's pivot row) and every
product ``A x`` sum over its nonzeros, the entering column's image under
the inverse reads only the inverse's columns on that column's rows, an
inversion scatters just the basic columns into a dense block, and a
pivot updates the inverse by one BLAS rank-1 product. Every solve is a
run from a basis of the standard form. A dual feasible start, such as
the optimal basis of an earlier solve under other bounds, as a
branch-and-bound child starts from its parent, runs a bounded dual
simplex, which prices its reduced costs once and updates them from each
pivot row; a row that proves the LP infeasible proves it again under an
inverse made afresh. Then the primal simplex runs: phase 1 minimizes the
basic values' bound violations and does nothing from a primal feasible
point, such as an ordering MILP's root start, and phase 2 minimizes the
objective, from an inverse made afresh when phase 1 pivoted. Bland's
anti-cycling rule engages after a run of degenerate pivots. A cold solve
is the same run from the slack basis, which carries the identity as its
inverse and never takes the dual path. No solve reports "optimal" unless
every basic value then lies within its bounds. An optimal basis carries
the inverse its solve ended with (``Basis.inverse``): the
product-updated inverse when the basic values it gives pass the residual
check, the fresh one otherwise. A basis made by hand inverts itself once
per matrix, by ``basis_inverse``, which peels the basic slack columns
off and inverts only the block left. Every solve from a basis copies its
inverse, so sibling solves share one, and a carried inverse that fails
the start's residual check is replaced once by a fresh one. A run from a
caller's start that is singular or inaccurate, ends unbounded, or can
settle infeasibility neither way is run again from the slack basis in
the same call.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

FEAS_TOL = 1e-7      # constraint feasibility
OPT_TOL = 1e-7       # reduced cost optimality
PIVOT_TOL = 1e-10    # zero-pivot threshold
DEGEN_THRESHOLD = 40  # consecutive degenerate pivots before Bland's rule
INFEAS_TOL = 1e-6    # phase-1 residual above which an LP is infeasible
RESID_TOL = 1e-6     # warm basis: largest |Ax - b| relative to 1 + max|b|
ITERATION_LIMIT = 50000  # pivots per solve_lp call, warm and cold together

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
            if math.isnan(v.lower) or math.isnan(v.upper):
                raise ValueError(f"variable {v.name}: NaN bound")
        for c in self.constraints:
            if c.relation not in ("<=", "=", ">="):
                raise ValueError(f"constraint {c.name}: bad relation {c.relation!r}")
            if math.isnan(c.rhs):
                raise ValueError(f"constraint {c.name}: NaN rhs")
            for idx, coef in c.terms:
                if not 0 <= idx < n:
                    raise ValueError(f"constraint {c.name}: variable index {idx} out of range")
                if math.isnan(coef):
                    raise ValueError(f"constraint {c.name}: NaN coefficient")
        for idx, coef in self.objective_terms:
            if not 0 <= idx < n:
                raise ValueError(f"objective: variable index {idx} out of range")
            if math.isnan(coef):
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
    """Minimization form of an LP: min c.x s.t. A x = b, lower <= x <= upper.

    Columns are the LP's variables followed by one slack per row
    (<=: [0, inf], >=: [-inf, 0], =: fixed at 0). ``c`` is the objective,
    negated for maximization. ``A`` is held only compressed by column: the
    nonzeros of column j are ``nz_val[k]`` in rows ``nz_row[k]`` for k in
    ``col_ptr[j]:col_ptr[j + 1]``, rows ascending, and ``nz_col[k]`` is j.
    The arrays are read-only, so solves that differ only in their bounds
    share one form, the matrix included, through
    ``dataclasses.replace(form, lower=..., upper=...)``.
    """

    b: np.ndarray
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    nz_val: np.ndarray
    nz_row: np.ndarray
    nz_col: np.ndarray
    col_ptr: np.ndarray


def standard_form(lp: LinearProgram) -> StandardForm:
    """Build the standard form of a validated LP.

    The one place an LP's terms become a matrix: the terms of one column
    in one row are summed in term order and a zero sum is dropped.
    """
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
    arrays = (b, c, lower, upper, nz_val, nz_row, nz_col, col_ptr)
    for arr in arrays:
        arr.flags.writeable = False
    return StandardForm(*arrays)


def _times(form: StandardForm, x: np.ndarray) -> np.ndarray:
    """``A x``, summed over the nonzeros of ``A`` in column order."""
    return np.bincount(form.nz_row, weights=form.nz_val * x[form.nz_col],
                       minlength=form.b.size)


def _dense_columns(form: StandardForm, columns: np.ndarray) -> np.ndarray:
    """``A[:, columns]`` as a dense array, scattered from the nonzeros."""
    count = form.col_ptr[columns + 1] - form.col_ptr[columns]
    first = form.col_ptr[columns] - np.cumsum(count) + count
    k = np.arange(count.sum()) + np.repeat(first, count)
    out = np.zeros((form.b.size, len(columns)))
    out[form.nz_row[k], np.repeat(np.arange(len(columns)), count)] = form.nz_val[k]
    return out


def basis_inverse(form: StandardForm, columns: np.ndarray) -> np.ndarray:
    """The inverse of ``A[:, columns]``, with the basic slacks peeled off.

    A basic slack is the unit column of its row. Order the rows whose slack
    is not basic first and the basic structural columns J first; the basis
    is then ``[[A_NJ, 0], [A_SJ, I]]`` and its inverse
    ``[[X, 0], [-A_SJ X, I]]`` with ``X = inv(A_NJ)``, so only that block is
    inverted. Row k of the result belongs to basis position k, as in
    ``np.linalg.inv(A[:, columns])``, which it equals up to rounding.
    Raises ``numpy.linalg.LinAlgError`` when the basis is singular; two
    basic columns that are the unit column of one row make ``A_NJ``
    singular or not square.
    """
    m, nt = form.b.size, form.c.size
    cols = np.asarray(columns)
    slack = cols >= nt - m
    struct = _dense_columns(form, cols[~slack])
    slack_rows = cols[slack] - nt + m
    free = np.ones(m, dtype=bool)
    free[slack_rows] = False
    X = np.linalg.inv(struct[free])
    pos_struct = np.flatnonzero(~slack)
    pos_slack = np.flatnonzero(slack)
    rows_free = np.flatnonzero(free)
    inverse = np.zeros((m, m))
    inverse[np.ix_(pos_struct, rows_free)] = X
    inverse[np.ix_(pos_slack, rows_free)] = -struct[slack_rows] @ X
    inverse[pos_slack, slack_rows] = 1.0
    return inverse


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.outer(u, v)`` as one BLAS product ``[u 0] @ [v; 0]``.

    The zero column and row add exact zeros, so every value is the product
    ``np.outer`` forms (a zero may differ in sign). At a few hundred rows
    it is about 3x faster than ``np.outer``, and faster still than a
    matmul with an inner dimension of 1.
    """
    U = np.zeros((u.size, 2))
    U[:, 0] = u
    V = np.zeros((2, v.size))
    V[0] = v
    return U @ V


@dataclass(frozen=True)
class Basis:
    """A basis of a standard form, to warm-start a later solve from.

    ``columns`` holds the basic column of each row; ``status`` the state of
    every column (basic, at lower, at upper, free). ``inverse`` gives the
    basis's inverse for one matrix and keeps it, so every solve from this
    basis on forms that share the matrix (a branching's children, the
    period LPs of an evaluation) copies one inverse. The optimal basis of a
    solve carries the inverse that solve ended with; a basis made by hand
    inverts itself on first use, and one that no solve starts from is never
    inverted.
    """

    columns: np.ndarray
    status: np.ndarray
    # [matrix (form.nz_val), inverse, whether a solve carried it]
    _kept: list = field(default_factory=list, init=False, repr=False, compare=False)

    def inverse(self, form: StandardForm, fresh: bool = False) -> np.ndarray:
        """The inverse of ``form``'s ``A[:, columns]``: the one kept for that
        matrix (``form.nz_val``), else one made by ``basis_inverse`` and
        kept. ``fresh`` replaces a carried inverse by a made one. The caller
        must not change it. Raises ``numpy.linalg.LinAlgError`` when the
        basis is singular."""
        kept = self._kept
        if not kept or kept[0] is not form.nz_val or (fresh and kept[2]):
            kept[:] = form.nz_val, basis_inverse(form, self.columns), False
        return kept[1]


@dataclass
class LpSolution:
    # 'optimal', 'infeasible', 'unbounded', 'iteration_limit', 'numerical_failure'
    status: str
    objective_value: float
    primal: np.ndarray
    iterations: int = 0
    basis: Basis | None = None  # the optimal basis, for an optimal solve


# the status a slack-basis run ends with, per outcome that retries a start
_SLACK_STATUS = {"unsure": "infeasible", "unbounded": "unbounded",
                 "inaccurate": "numerical_failure"}


class _Simplex:
    """Simplex over a standard form with general bounds and a dense inverse.

    Internally minimizes. ``solve_from`` runs from a basis: the dual simplex
    when the basis is dual feasible, then the primal simplex, whose phase 1
    minimizes the basic values' bound violations and whose phase 2 the
    objective. A cold solve is a run from ``slack_basis``, which never
    takes the dual path. ``basis`` holds the basic column of each row and is
    updated in place. ``d`` holds a dual start's reduced costs, which the
    dual simplex updates.
    """

    def __init__(self, lp: LinearProgram, form: StandardForm, deadline: float | None = None):
        self.lp = lp
        self.form = form
        self.deadline = deadline
        self.iterations = 0
        self.m, self.nt = form.b.size, form.c.size
        self.n_struct = self.nt - self.m
        self.b, self.c = form.b, form.c
        self.lo, self.up = form.lower, form.upper

    def slack_basis(self) -> Basis:
        """Every slack basic and every structural column at its lower bound,
        else its upper bound, else free at 0; it carries the identity as its
        inverse."""
        m, nt = self.m, self.nt
        status = np.full(nt, _AT_LOWER, dtype=np.int8)
        status[nt - m:] = _BASIC
        basis = Basis(np.arange(nt - m, nt), status)
        basis._kept[:] = self.form.nz_val, np.eye(m), False
        return basis

    def _warm_start(self, start: Basis, dual: bool) -> str | None:
        """Install ``start`` and name the phase to run first: "dual" when
        ``dual`` allows it and the start is dual feasible, else "primal";
        None when it does not fit or is inaccurate. A carried inverse that
        leaves the start inaccurate is replaced once by a fresh one
        (``Basis.inverse``) before the start is given up. Raises
        ``numpy.linalg.LinAlgError`` when the basis is singular.
        """
        m, nt = self.m, self.nt
        cols = np.asarray(start.columns)
        if (cols.shape != (m,) or start.status.shape != (nt,)
                or len(set(cols.tolist())) != m):
            return None
        self.basis = cols.astype(np.intp)
        feasible = self._enter(start, start.inverse(self.form))
        accurate = self._accurate()
        if not accurate and start._kept[2]:
            feasible = self._enter(start, start.inverse(self.form, fresh=True))
            accurate = self._accurate()
        if not accurate:
            return None
        return "dual" if dual and feasible else "primal"

    def _enter(self, start: Basis, inverse: np.ndarray) -> bool:
        """Place the nonbasic columns of ``start`` and the basic values under
        a copy of ``inverse``, price the reduced costs ``d``, and tell
        whether the basis is dual feasible.

        Nonbasic columns go to the bound their state names, or the bound
        they have. A column with both bounds finite then goes to the one
        its reduced cost prefers, which makes the basis dual feasible
        whatever the new bounds are, unless another dual infeasibility
        remains; then every state stays as given.
        """
        nt, lo, up = self.nt, self.lo, self.up
        fin_lo, fin_up = np.isfinite(lo), np.isfinite(up)
        stat = np.full(nt, _FREE, dtype=np.int8)
        stat[fin_up] = _AT_UPPER
        stat[fin_lo & ~(fin_up & (start.status == _AT_UPPER))] = _AT_LOWER
        stat[self.basis] = _BASIC
        self.x = np.zeros(nt)
        self.Binv = inverse.copy()
        self.d = d = self._reduced_costs(self.c)
        flipped = stat.copy()
        boxed = fin_lo & fin_up & (stat != _BASIC)
        flipped[boxed & (d < -OPT_TOL)] = _AT_UPPER
        flipped[boxed & (d > OPT_TOL)] = _AT_LOWER
        dual = not ((flipped == _AT_LOWER) & (d < -OPT_TOL)
                    | (flipped == _AT_UPPER) & (d > OPT_TOL)
                    | (flipped == _FREE) & (np.abs(d) > OPT_TOL)).any()
        self.stat = stat = flipped if dual else stat
        at_lo, at_up = stat == _AT_LOWER, stat == _AT_UPPER
        x = self.x
        x[at_lo] = lo[at_lo]
        x[at_up] = up[at_up]
        self._basic_values()
        return dual

    # -- core pivoting -----------------------------------------------------

    def _price(self, y: np.ndarray) -> np.ndarray:
        """``y`` times every column, summed over the nonzeros of ``A`` only."""
        f = self.form
        return np.bincount(f.nz_col, weights=y[f.nz_row] * f.nz_val, minlength=self.nt)

    def _ftran(self, q: int) -> np.ndarray:
        """``Binv`` times column q, read from the columns of ``Binv`` on the
        rows where column q is nonzero."""
        f = self.form
        k = slice(f.col_ptr[q], f.col_ptr[q + 1])
        return self.Binv[:, f.nz_row[k]] @ f.nz_val[k]

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
            Binv[rows] -= _outer(w[rows], Binv[pos, :])
        else:
            wq = w.copy()
            wq[pos] = 0.0
            Binv -= _outer(wq, Binv[pos, :])

    def _pivot(self, pos: int, q: int, step: float, w: np.ndarray, to_lower: bool) -> None:
        """Column q enters the basis at row ``pos`` after a step of ``step``
        along it, ``w = Binv a_q``; the leaving column goes to its lower
        bound if ``to_lower``, else to its upper bound."""
        x, bvs = self.x, self.basis
        leaving = int(bvs[pos])
        x[q] += step
        x[bvs] -= step * w
        x[leaving] = self.lo[leaving] if to_lower else self.up[leaving]
        self.stat[leaving] = _AT_LOWER if to_lower else _AT_UPPER
        self.stat[q] = _BASIC
        bvs[pos] = q
        self._update_inverse(pos, w)

    def _out_of_pivots(self) -> bool:
        """The iteration limit is used up or the deadline has passed."""
        return self.iterations >= ITERATION_LIMIT or (
            self.deadline is not None and time.monotonic() > self.deadline)

    def _solve_phase(self, feasibility: bool = False) -> str:
        """Primal simplex from the current basis.

        Phase 2 minimizes ``c`` from a primal feasible basis and returns
        'optimal', 'unbounded' or 'limit'. Phase 1 (``feasibility``) costs
        -1 on each basic value below its bounds and +1 on each above them,
        re-priced every pivot, so it minimizes their total violation; in its
        ratio test a violated value blocks only at the bound it moves back
        to, where it leaves. It returns 'optimal' once no value is violated
        (at once, with no pivot, from a primal feasible basis) or no column
        reduces a total violation of at most INFEAS_TOL, 'infeasible' when
        no column reduces a larger one, and 'limit'.
        """
        m = self.m
        lo, up, x, stat = self.lo, self.up, self.x, self.stat
        c = self.c
        degen_run = 0
        fixed = (up - lo) <= 0  # cannot move; never eligible to enter
        while True:
            if feasibility:
                below, above = self._violated()
                if not (below.any() or above.any()):
                    return "optimal"
                bvs = self.basis
                c = np.zeros(self.nt)
                c[bvs[below]] = -1.0
                c[bvs[above]] = 1.0
            if self._out_of_pivots():
                return "limit"
            self.iterations += 1
            d = self._reduced_costs(c)
            up_ok = (stat == _AT_UPPER) | (stat == _FREE)
            lo_ok = (stat == _AT_LOWER) | (stat == _FREE)
            improving = (~fixed) & (((d < -OPT_TOL) & lo_ok) | ((d > OPT_TOL) & up_ok))
            if not improving.any():
                if feasibility and ((lo - x)[bvs[below]].sum()
                                    + (x - up)[bvs[above]].sum() > INFEAS_TOL):
                    return "infeasible"
                return "optimal"
            cand = np.flatnonzero(improving)
            if degen_run >= DEGEN_THRESHOLD:
                q = int(cand[0])  # Bland: lowest index
            else:
                q = int(cand[np.argmax(np.abs(d[cand]))])
            sigma = 1.0 if d[q] < 0 else -1.0
            w = self._ftran(q)
            # ratio test; ties go to the lowest leaving variable index
            gap = up[q] - lo[q] if np.isfinite(up[q]) and np.isfinite(lo[q]) else INF
            if m:
                bvs = self.basis
                delta = -sigma * w
                lo_b, up_b, x_b = lo[bvs], up[bvs], x[bvs]
                if feasibility:
                    lo_b, up_b = (np.where(above, up_b, np.where(below, -INF, lo_b)),
                                  np.where(below, lo_b, np.where(above, INF, up_b)))
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
                # phase 1 has no unbounded ray: a violated value always blocks
                return "infeasible" if feasibility else "unbounded"
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
            to_lower = bool(delta[leave_pos] < 0)
            if feasibility and (below[leave_pos] or above[leave_pos]):
                to_lower = bool(below[leave_pos])  # back at the bound it broke
            # the ratio test only selects rows with |w_i| > PIVOT_TOL
            self._pivot(leave_pos, q, sigma * t, w, to_lower)

    def _dual_phase(self) -> str:
        """Bounded dual simplex from a dual-feasible basis.

        Returns 'optimal' once every basic value is within its bounds,
        'infeasible' when the leaving row proves no point is, under the
        current inverse and again under a fresh one (``_still_infeasible``),
        'unsure' when that row can neither pivot nor prove it, and 'limit'
        when the iteration limit or the deadline leaves no pivot. The leaving
        row has the largest bound violation and the entering column the
        smallest |d_j / alpha_rj|; among tied columns the largest |alpha_rj|
        wins, which keeps the primal step short and most dual-degenerate
        re-solves to a few pivots. After a run of degenerate pivots
        Bland's rule takes over: the lowest basic variable index leaves,
        the lowest tied column index enters. The reduced costs ``d`` are
        the start's; each pivot updates them from its priced pivot row
        ``alpha``, the entering column's ``d_q / alpha_q`` times that row.
        """
        lo, up, x, stat, d = self.lo, self.up, self.x, self.stat, self.d
        fixed = (up - lo) <= 0
        degen_run = 0
        while True:
            bvs = self.basis
            x_b = x[bvs]
            viol = np.maximum(lo[bvs] - x_b, x_b - up[bvs])
            rows = np.flatnonzero(viol > FEAS_TOL)
            if not rows.size:
                return "optimal"
            if self._out_of_pivots():
                return "limit"
            self.iterations += 1
            if degen_run >= DEGEN_THRESHOLD:
                r = int(rows[np.argmin(bvs[rows])])
            else:
                r = int(rows[np.argmax(viol[rows])])
            to_lower = x_b[r] < lo[bvs[r]]
            alpha = self._pivot_row(r)
            # gain: how much x_B[r] moves toward its bound per unit rise of x_j
            gain = -alpha if to_lower else alpha
            can_rise = (stat == _AT_LOWER) | (stat == _FREE)
            can_fall = (stat == _AT_UPPER) | (stat == _FREE)
            eligible = ~fixed & ((can_rise & (gain > PIVOT_TOL)) | (can_fall & (gain < -PIVOT_TOL)))
            if not eligible.any():
                if not self._row_infeasible(gain, viol[r]):
                    return "unsure"
                return "infeasible" if self._still_infeasible(r) else "unsure"
            cand = np.flatnonzero(eligible)
            ratio = np.abs(d[cand]) / np.abs(alpha[cand])
            tmin = float(ratio.min())
            tied = cand[ratio <= tmin + PIVOT_TOL]
            if degen_run >= DEGEN_THRESHOLD:
                q = int(tied[0])
            else:
                q = int(tied[np.argmax(np.abs(alpha[tied]))])
            degen_run = degen_run + 1 if tmin <= PIVOT_TOL else 0
            w = self._ftran(q)
            bound = lo[bvs[r]] if to_lower else up[bvs[r]]
            self._pivot(r, q, (x_b[r] - bound) / w[r], w, to_lower)
            d -= d[q] / alpha[q] * alpha
            d[bvs] = 0.0

    def _pivot_row(self, r: int) -> np.ndarray:
        """Row ``r`` of ``Binv A``, over every column."""
        return self._price(self.Binv[r])

    def _still_infeasible(self, r: int) -> bool:
        """Whether row ``r`` proves the LP infeasible again once the basis is
        inverted afresh: a proof made with an inverse that product updates
        have drifted can be false, so it stands only if the basic value and
        pivot row under a fresh inverse make it too."""
        self._refactorize()
        j = self.basis[r]
        x, lo, up = self.x[j], self.lo[j], self.up[j]
        alpha = self._pivot_row(r)
        return self._row_infeasible(-alpha if x < lo else alpha, max(lo - x, x - up))

    def _row_infeasible(self, gain: np.ndarray, shortfall: float) -> bool:
        """Whether moving every nonbasic column within its bounds, each the
        way that helps, still leaves the row's basic value INFEAS_TOL short.
        A gain within PIVOT_TOL of zero is noise, as in the dual ratio test,
        and counts for nothing: on a column with an infinite range it would
        otherwise refute every proof."""
        x, lo, up = self.x, self.lo, self.up
        nonbasic = self.stat != _BASIC
        rise = nonbasic & (gain > PIVOT_TOL)
        fall = nonbasic & (gain < -PIVOT_TOL)
        most = (gain[rise] * (up[rise] - x[rise])).sum() + \
            (gain[fall] * (lo[fall] - x[fall])).sum()
        return bool(most < shortfall - INFEAS_TOL)

    def _violated(self) -> tuple[np.ndarray, np.ndarray]:
        """Which basic values lie below their bounds and which above them,
        by more than FEAS_TOL scaled by ``1 + |bound|``."""
        bvs = self.basis
        x, lo, up = self.x[bvs], self.lo[bvs], self.up[bvs]
        return (lo - x > FEAS_TOL * (1.0 + np.abs(lo)),
                x - up > FEAS_TOL * (1.0 + np.abs(up)))

    def _within_bounds(self) -> bool:
        """Whether every basic value is finite and none is violated. A basic
        slack outside its bounds is a broken row."""
        if not np.isfinite(self.x[self.basis]).all():
            return False
        below, above = self._violated()
        return not (below.any() or above.any())

    def _accurate(self) -> bool:
        """Whether ``x`` is finite and ``|Ax - b|`` passes the residual check."""
        if not np.isfinite(self.x).all():
            return False
        resid = np.abs(_times(self.form, self.x) - self.b).max(initial=0.0)
        return bool(resid <= RESID_TOL * (1.0 + np.abs(self.b).max(initial=0.0)))

    def _basic_values(self) -> None:
        """Recompute the basic values from the nonbasic ones with the current
        inverse."""
        x_n = self.x.copy()
        x_n[self.basis] = 0.0
        self.x[self.basis] = self.Binv @ (self.b - _times(self.form, x_n))

    def _refactorize(self) -> None:
        """Invert the basis afresh (``basis_inverse``) and recompute the
        basic values, clearing accumulated drift."""
        self.Binv = basis_inverse(self.form, self.basis)
        self._basic_values()

    def solve_from(self, start: Basis, dual: bool = True) -> LpSolution | str:
        """Simplex from ``start``: the dual simplex when ``dual`` allows it
        and the start is dual feasible, then phase 1, which does nothing
        from a primal feasible point, then phase 2, from a fresh inverse
        when phase 1 pivoted.

        The optimum keeps the product-updated inverse when the basic values
        it gives pass the residual check; otherwise the basis is inverted
        afresh and checked again. Returns the solution, or why the run
        settles nothing: 'unsure' when the dual simplex can neither pivot
        nor prove infeasibility, or phase 1 stops short of a feasible point;
        'unbounded' when phase 2 finds no bound; 'inaccurate' when the basis
        does not fit or is singular, or leaves the start or the optimum
        inaccurate or outside its bounds.
        """
        try:
            phase = self._warm_start(start, dual)
            if phase is None:
                return "inaccurate"
            if phase == "dual":
                res = self._dual_phase()
                if res == "unsure":
                    return res
                if res != "optimal":
                    return self._finish("iteration_limit" if res == "limit" else "infeasible")
            pivots = self.iterations
            res = self._solve_phase(feasibility=True)
            if res == "infeasible":
                return "unsure"
            if res == "optimal":
                if self.iterations > pivots:
                    # without it, phase 1's drift leaves some cold 16-bus
                    # full-ROP roots on inaccurate, singular bases
                    self._refactorize()
                res = self._solve_phase()
            if res == "limit":
                return self._finish("iteration_limit")
            if res == "unbounded":
                return res
            self._basic_values()
            if not self._accurate():
                self._refactorize()
                if not self._accurate():
                    return "inaccurate"
            return self._finish("optimal") if self._within_bounds() else "inaccurate"
        except np.linalg.LinAlgError:
            return "inaccurate"

    def _basis(self) -> Basis:
        """The current basis, carrying the current inverse. Ends the solve's
        use of the inverse."""
        basis = Basis(self.basis.astype(np.int32), self.stat.copy())
        basis._kept[:] = self.form.nz_val, self.Binv, True
        return basis

    def _finish(self, status: str) -> LpSolution:
        primal = np.array(self.x[: self.n_struct])
        obj = self.lp.objective_value(primal) if status in ("optimal", "iteration_limit") else float("nan")
        return LpSolution(status=status, objective_value=obj, primal=primal,
                          iterations=self.iterations,
                          basis=self._basis() if status == "optimal" else None)


def solve_lp(lp: LinearProgram, *, form: StandardForm | None = None,
             start: Basis | None = None, deadline: float | None = None) -> LpSolution:
    """Solve an LP with the internal bounded-variable simplex.

    Returns a proven status; deterministic for identical input. Once
    ``ITERATION_LIMIT`` pivots are made the best point found is returned
    with status 'iteration_limit'. ``deadline``, a ``time.monotonic()``
    value, ends the solve the same way once it has passed; without one
    only the iteration limit bounds the solve. A singular basis, or an
    optimum that stays inaccurate or puts a basic value outside its
    bounds, ends a cold solve with status 'numerical_failure', which
    reports the pivots made up to then.

    ``form`` is ``standard_form(lp)``, possibly with other bounds; the LP
    is then neither validated nor rebuilt, and its variables' bounds are
    ignored. ``start`` is a basis of the same form: the optimal basis of
    an earlier solve under any bounds, which the dual simplex starts from,
    or any other basis, which the primal simplex starts from, with phase 1
    when its point is not primal feasible. Without one the solve is cold:
    the same run from the slack basis. A run from ``start`` that is
    singular, inaccurate, unbounded or unsure of infeasibility is run again
    from the slack basis within the same iteration limit. The solve copies
    the start's inverse and never changes it, so sibling solves can share
    it; an optimal solution's basis carries the inverse the solve ended
    with, so a solve from it inverts nothing.
    """
    if form is None:
        lp.validate()
        form = standard_form(lp)
    if (form.lower > form.upper).any():
        return LpSolution("infeasible", float("nan"), np.zeros(len(lp.variables)))
    simplex = _Simplex(lp, form, deadline)
    sol = simplex.solve_from(start) if start is not None else None
    if not isinstance(sol, LpSolution):
        sol = simplex.solve_from(simplex.slack_basis(), dual=False)
    return sol if isinstance(sol, LpSolution) else simplex._finish(_SLACK_STATUS[sol])


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
    form = standard_form(lp)

    out = []
    out.append("NAME          GRIDRESTORE")
    out.append("ROWS")
    out.append(" N  OBJ")
    rel_tag = {"<=": "L", ">=": "G", "=": "E"}
    for i, c in enumerate(lp.constraints):
        out.append(f" {rel_tag[c.relation]}  {mps_row_name(i)}")
    out.append("COLUMNS")
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
        # the objective (negated for maximization, like the form's) leads
        # the column's nonzeros, rows ascending
        k = slice(form.col_ptr[j], form.col_ptr[j + 1])
        entries = [("OBJ", float(form.c[j]))] if form.c[j] != 0.0 else []
        entries += [(mps_row_name(int(i)), float(v))
                    for i, v in zip(form.nz_row[k], form.nz_val[k])]
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
