"""Solver-agnostic LP representation, a bounded-variable simplex, MPS output.

The solver is a simplex over general bounds with a dense basis inverse,
meant for desk-scale problems (a few thousand variables at most) where
exactness and determinism matter more than speed. The constraint matrix
is held only compressed by column, built once by ``standard_form`` with
array operations: pricing (the reduced costs and the dual simplex's
pivot row) and every product ``A x`` sum over its nonzeros, the entering
column's image under the inverse reads only the inverse's columns on
that column's rows, an inversion scatters just the basic columns into a
dense block, and a pivot updates the inverse by one BLAS rank-1 product
into buffers the run keeps. A run keeps its working state from pivot to
pivot: the bounds of the basic columns in basis order, and which
nonbasic columns may rise and which may fall, built once and updated for
the columns each pivot or bound flip moves.

Every solve is a run from a basis of the standard form. A dual feasible
start, such as the optimal basis of an earlier solve under other bounds,
as a branch-and-bound child starts from its parent, runs a bounded dual
simplex, which prices its reduced costs once and updates them from each
pivot row; a row that proves the LP infeasible proves it again under an
inverse made afresh. Then the primal simplex runs: phase 1 minimizes the
basic values' bound violations and does nothing from a primal feasible
point, such as an ordering MILP's root start, and phase 2 minimizes the
objective, from an inverse made afresh when phase 1 pivoted. A dual
optimum skips phase 1: its basic values lie within FEAS_TOL of their
bounds, inside phase 1's tolerance. Bland's anti-cycling rule engages
after a run of degenerate pivots. A cold solve is the same run from the
slack basis, which carries the identity as its inverse and never takes
the dual path. No solve reports "optimal" unless every basic value then
lies within its bounds.

An optimal basis carries the inverse its solve ended with
(``Basis.inverse``): the product-updated inverse when the basic values it
gives pass the residual check, the fresh one otherwise. Beside it, the
basis carries the reduced costs of the closing pricing, the one that
proved it optimal under that inverse; a solve from it that copies that
inverse under the same cost vector takes them instead of pricing. A
basis made by hand inverts itself once per matrix, by ``basis_inverse``,
which peels the basic slack columns off and inverts only the block left.
Every solve from a basis copies its inverse, so sibling solves share one,
and a carried inverse that fails the start's residual check is replaced
once by a fresh one. A run from a caller's start that is singular or
inaccurate, ends unbounded, or can settle infeasibility neither way is
run again from the slack basis in the same call.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

INF = float("inf")

FEAS_TOL = 1e-7      # constraint feasibility
OPT_TOL = 1e-7       # reduced cost optimality
PIVOT_TOL = 1e-10    # zero-pivot threshold
DEGEN_THRESHOLD = 40  # consecutive degenerate pivots before Bland's rule
INFEAS_TOL = 1e-6    # phase-1 residual above which an LP is infeasible
RESID_TOL = 1e-6     # warm basis: largest |Ax - b| relative to 1 + max|b|
ITERATION_LIMIT = 50000  # pivots and flips per solve_lp call, warm and cold together

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
    """Build the standard form of an LP, checked first by
    ``LinearProgram.validate``, whose ``ValueError`` it raises.

    The one place an LP's terms become a matrix: the terms of one column
    in one row are summed in term order and a zero sum is dropped. The
    terms, flattened row by row with each row's slack after them, are
    sorted stably by (column, row), so the terms of one entry stay in
    their order, and each run of equal keys is summed from its first
    term on, one term at a time.
    """
    lp.validate()
    n, m = len(lp.variables), len(lp.constraints)
    cons = lp.constraints
    b = np.array([con.rhs for con in cons], dtype=float)
    lower = np.empty(n + m)
    upper = np.empty(n + m)
    lower[:n] = [v.lower for v in lp.variables]
    upper[:n] = [v.upper for v in lp.variables]
    lower[n:] = [_SLACK_BOUNDS[con.relation][0] for con in cons]
    upper[n:] = [_SLACK_BOUNDS[con.relation][1] for con in cons]
    c = np.zeros(n + m)
    if lp.objective_terms:
        idx, coef = np.array(lp.objective_terms, dtype=float).T
        sense = 1.0 if lp.objective_sense == "minimize" else -1.0
        np.add.at(c, idx.astype(np.intp), sense * coef)  # in term order
    counts = np.array([len(con.terms) for con in cons], dtype=np.intp)
    terms = np.fromiter(chain.from_iterable(chain.from_iterable(con.terms for con in cons)),
                        dtype=float).reshape(-1, 2)  # (column, coefficient) rows
    row_ids = np.arange(m)
    cols = np.concatenate((terms[:, 0].astype(np.intp), n + row_ids))
    rows = np.concatenate((np.repeat(row_ids, counts), row_ids))
    vals = np.concatenate((terms[:, 1], np.ones(m)))
    order = np.lexsort((rows, cols))
    cols, rows, vals = cols[order], rows[order], vals[order]
    first = np.ones(cols.size, dtype=bool)
    first[1:] = (cols[1:] != cols[:-1]) | (rows[1:] != rows[:-1])
    starts = np.flatnonzero(first)
    run = np.diff(starts, append=cols.size)
    sums = vals[starts]
    for k in range(1, run.max(initial=1)):
        more = run > k
        sums[more] += vals[starts[more] + k]
    keep = sums != 0.0
    nz_col, nz_row, nz_val = cols[starts][keep], rows[starts][keep], sums[keep]
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


@dataclass(frozen=True)
class Basis:
    """A basis of a standard form, to warm-start a later solve from.

    ``columns`` holds the basic column of each row; ``status`` the state of
    every column (basic, at lower, at upper, free). ``inverse`` gives the
    basis's inverse for one matrix and keeps it, so every solve from this
    basis on forms that share the matrix (a branching's children, the
    period LPs of an evaluation) copies one inverse. The optimal basis of a
    solve carries the inverse that solve ended with, and the reduced costs
    priced under it when they were; a basis made by hand inverts itself on
    first use, and one that no solve starts from is never inverted.
    """

    columns: np.ndarray
    status: np.ndarray
    # [matrix (form.nz_val), inverse, whether a solve carried it,
    #  (c, reduced costs under c and that inverse) or None]
    _kept: list = field(default_factory=list, init=False, repr=False, compare=False)

    def inverse(self, form: StandardForm, fresh: bool = False) -> np.ndarray:
        """The inverse of ``form``'s ``A[:, columns]``: the one kept for that
        matrix (``form.nz_val``), else one made by ``basis_inverse`` and
        kept. ``fresh`` replaces a carried inverse by a made one. The caller
        must not change it. Raises ``numpy.linalg.LinAlgError`` when the
        basis is singular."""
        kept = self._kept
        if not kept or kept[0] is not form.nz_val or (fresh and kept[2]):
            kept[:] = form.nz_val, basis_inverse(form, self.columns), False, None
        return kept[1]


@dataclass
class LpSolution:
    # 'optimal', 'infeasible', 'unbounded', 'iteration_limit', 'numerical_failure'
    status: str
    objective_value: float
    primal: np.ndarray
    iterations: int = 0  # pivots and bound flips, not pricing passes
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

    A run keeps its working state from pivot to pivot instead of gathering
    it again: ``lo_b`` and ``up_b`` hold the bounds of the basic columns in
    basis order, and ``rise`` and ``fall`` tell which nonbasic columns may
    increase (at lower or free) and which may decrease (at upper or free);
    a fixed column does neither. ``_track`` builds them once per run, and
    ``_pivot`` and ``_flip`` update them for the columns that move.
    ``iterations`` counts pivots and bound flips.
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
        self.fixed = (self.up - self.lo) <= 0  # cannot move; never eligible to enter
        # the inverse the last closing pricing ran under, and its reduced costs
        self.priced: tuple[np.ndarray, np.ndarray] | None = None

    # the rank-1 update's factors [w 0] and [row; 0] and their product,
    # made on a run's first pivot (``_update_inverse``) and reused
    _factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def slack_basis(self) -> Basis:
        """Every slack basic and every structural column at its lower bound,
        else its upper bound, else free at 0; it carries the identity as its
        inverse."""
        m, nt = self.m, self.nt
        status = np.full(nt, _AT_LOWER, dtype=np.int8)
        status[nt - m:] = _BASIC
        basis = Basis(np.arange(nt - m, nt), status)
        basis._kept[:] = self.form.nz_val, np.eye(m), False, None
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

        A basis that a solve ended optimal under this cost vector ``c``
        carries the reduced costs of its closing pricing beside its
        inverse; they are ``d`` when ``inverse`` is that inverse, and are
        not priced again. Nonbasic columns go to the bound their state
        names, or the bound they have. A column with both bounds finite
        then goes to the one its reduced cost prefers, which makes the
        basis dual feasible whatever the new bounds are, unless another
        dual infeasibility remains; then every state stays as given.
        """
        nt, lo, up = self.nt, self.lo, self.up
        fin_lo, fin_up = np.isfinite(lo), np.isfinite(up)
        stat = np.full(nt, _FREE, dtype=np.int8)
        stat[fin_up] = _AT_UPPER
        stat[fin_lo & ~(fin_up & (start.status == _AT_UPPER))] = _AT_LOWER
        stat[self.basis] = _BASIC
        self.x = np.zeros(nt)
        self.Binv = inverse.copy()
        kept = start._kept
        if kept[1] is inverse and kept[3] is not None and kept[3][0] is self.c:
            self.d = d = kept[3][1].copy()
        else:
            self.d = d = self._reduced_costs(self.c)
        neg, pos = d < -OPT_TOL, d > OPT_TOL
        flipped = stat.copy()
        boxed = fin_lo & fin_up & (stat != _BASIC)
        flipped[boxed & neg] = _AT_UPPER
        flipped[boxed & pos] = _AT_LOWER
        dual = not ((flipped == _AT_LOWER) & neg | (flipped == _AT_UPPER) & pos
                    | (flipped == _FREE) & (neg | pos)).any()
        self.stat = stat = flipped if dual else stat
        at_lo, at_up = stat == _AT_LOWER, stat == _AT_UPPER
        x = self.x
        x[at_lo] = lo[at_lo]
        x[at_up] = up[at_up]
        self._basic_values()
        self._track()
        return dual

    def _track(self) -> None:
        """Build the run's kept state from ``basis`` and ``stat``."""
        bvs, stat, movable = self.basis, self.stat, ~self.fixed
        self.lo_b, self.up_b = self.lo[bvs], self.up[bvs]
        free = stat == _FREE
        self.rise = movable & ((stat == _AT_LOWER) | free)
        self.fall = movable & ((stat == _AT_UPPER) | free)

    def _place(self, j: int, state: int) -> None:
        """Give column j the state ``state``, and its rise and fall."""
        self.stat[j] = state
        movable = not self.fixed[j]
        self.rise[j] = movable and state in (_AT_LOWER, _FREE)
        self.fall[j] = movable and state in (_AT_UPPER, _FREE)

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

        Row ``pos`` is divided by the pivot ``w[pos]``, and every other row
        i loses ``w[i]`` times it, by one rank-1 product over the whole
        inverse; a row where ``w`` is zero loses exact zeros. The product is
        one BLAS product ``[w 0] @ [row; 0]`` into a kept buffer: the zero
        column and row add exact zeros, so every value is the one
        ``np.outer`` forms (a zero may differ in sign), and no pivot
        allocates. At a few hundred rows that is several times faster than
        ``np.outer``, or a matmul with an inner dimension of 1, into a new
        array.
        """
        if self._factors is None:
            m = self.m
            self._factors = np.zeros((m, 2)), np.zeros((2, m)), np.empty((m, m))
        U, V, product = self._factors
        Binv = self.Binv
        Binv[pos, :] /= w[pos]
        U[:, 0] = w
        U[pos, 0] = 0.0
        V[0] = Binv[pos, :]
        np.matmul(U, V, out=product)
        Binv -= product

    def _pivot(self, pos: int, q: int, step: float, w: np.ndarray, to_lower: bool) -> None:
        """Column q enters the basis at row ``pos`` after a step of ``step``
        along it, ``w = Binv a_q``; the leaving column goes to its lower
        bound if ``to_lower``, else to its upper bound."""
        x, bvs = self.x, self.basis
        leaving = int(bvs[pos])
        x[q] += step
        x[bvs] -= step * w
        x[leaving] = self.lo[leaving] if to_lower else self.up[leaving]
        self._place(leaving, _AT_LOWER if to_lower else _AT_UPPER)
        self._place(q, _BASIC)
        bvs[pos] = q
        self.lo_b[pos], self.up_b[pos] = self.lo[q], self.up[q]
        self._update_inverse(pos, w)
        self.iterations += 1

    def _flip(self, q: int, to_upper: bool, step: float, w: np.ndarray) -> None:
        """Nonbasic column q moves ``step`` to its other bound, the upper one
        if ``to_upper``, ``w = Binv a_q``; the basis stays."""
        self.x[q] = self.up[q] if to_upper else self.lo[q]
        self._place(q, _AT_UPPER if to_upper else _AT_LOWER)
        self.x[self.basis] -= step * w
        self.iterations += 1

    def _out_of_pivots(self) -> bool:
        """The iteration limit is used up or the deadline has passed."""
        return self.iterations >= ITERATION_LIMIT or (
            self.deadline is not None and time.monotonic() > self.deadline)

    def _solve_phase(self, feasibility: bool = False) -> str:
        """Primal simplex from the current basis.

        Phase 2 minimizes ``c`` from a primal feasible basis and returns
        'optimal', 'unbounded' or 'limit'. Its closing pricing, the one
        that finds no improving column, is kept in ``priced`` with the
        inverse it ran under. Phase 1 (``feasibility``) costs -1 on each
        basic value below its bounds and +1 on each above them, re-priced
        every pivot, so it minimizes their total violation; in its ratio
        test a violated value blocks only at the bound it moves back to,
        where it leaves. It returns 'optimal' once no value is violated (at
        once, with no pivot, from a primal feasible basis) or no column
        reduces a total violation of at most INFEAS_TOL, 'infeasible' when
        no column reduces a larger one, and 'limit'.
        """
        m = self.m
        lo, up, x = self.lo, self.up, self.x
        rise, fall = self.rise, self.fall
        c = self.c
        degen_run = 0
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
            d = self._reduced_costs(c)
            improving = (rise & (d < -OPT_TOL)) | (fall & (d > OPT_TOL))
            if not improving.any():
                if feasibility and ((lo - x)[bvs[below]].sum()
                                    + (x - up)[bvs[above]].sum() > INFEAS_TOL):
                    return "infeasible"
                if not feasibility:
                    self.priced = self.Binv, d
                return "optimal"
            cand = improving.nonzero()[0]
            if degen_run >= DEGEN_THRESHOLD:
                q = int(cand[0])  # Bland: lowest index
            else:
                q = int(cand[np.abs(d[cand]).argmax()])
            sigma = 1.0 if d[q] < 0 else -1.0
            w = self._ftran(q)
            # ratio test; ties go to the lowest leaving variable index
            gap = up[q] - lo[q] if np.isfinite(up[q]) and np.isfinite(lo[q]) else INF
            if m:
                bvs = self.basis
                lo_b, up_b, x_b = self.lo_b, self.up_b, x[bvs]
                if feasibility:
                    lo_b, up_b = (np.where(above, up_b, np.where(below, -INF, lo_b)),
                                  np.where(below, lo_b, np.where(above, INF, up_b)))
                # a basic value falls toward its lower bound where
                # -sigma * w < 0, else rises toward its upper one; an
                # infinite bound leaves infinite room
                room = np.where(w > 0 if sigma > 0 else w < 0, x_b - lo_b, up_b - x_b)
                size = np.abs(w)
                t_arr = np.divide(room, size, out=np.full(m, INF), where=size > PIVOT_TOL)
                np.maximum(t_arr, 0.0, out=t_arr)
                tmin = float(t_arr.min())
            else:
                tmin = INF
            if not np.isfinite(tmin) and not np.isfinite(gap):
                # phase 1 has no unbounded ray: a violated value always blocks
                return "infeasible" if feasibility else "unbounded"
            if tmin <= gap + PIVOT_TOL and np.isfinite(tmin):
                # pivot: among tied rows pick the lowest variable index
                tied = (t_arr <= tmin + PIVOT_TOL).nonzero()[0]
                leave_pos = int(tied[bvs[tied].argmin()])
                t = tmin
            else:
                # bound flip: q jumps to its opposite bound, no basis change
                t = gap
                degen_run = degen_run + 1 if t <= PIVOT_TOL else 0
                self._flip(q, sigma > 0, sigma * t, w)
                continue
            degen_run = degen_run + 1 if t <= PIVOT_TOL else 0
            to_lower = bool(sigma * w[leave_pos] > 0)
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
        row has the largest bound violation (a NaN value never leaves) and
        the entering column the smallest |d_j / alpha_rj|; among tied
        columns the largest |alpha_rj| wins, which keeps the primal step
        short and most dual-degenerate re-solves to a few pivots. After a
        run of degenerate pivots Bland's rule takes over: the lowest basic
        variable index leaves, the lowest tied column index enters. The
        reduced costs ``d`` are the start's; each pivot updates them from
        its priced pivot row ``alpha``, the entering column's
        ``d_q / alpha_q`` times that row.
        """
        x, d, rise, fall = self.x, self.d, self.rise, self.fall
        lo_b, up_b = self.lo_b, self.up_b
        if not self.m:
            return "optimal"
        degen_run = 0
        while True:
            bvs = self.basis
            x_b = x[bvs]
            viol = np.maximum(lo_b - x_b, x_b - up_b)
            r = int(viol.argmax())
            if viol[r] != viol[r]:  # argmax stops at the first NaN
                viol = np.where(np.isnan(viol), -INF, viol)
                r = int(viol.argmax())
            if not viol[r] > FEAS_TOL:
                return "optimal"
            if self._out_of_pivots():
                return "limit"
            if degen_run >= DEGEN_THRESHOLD:
                rows = (viol > FEAS_TOL).nonzero()[0]
                r = int(rows[bvs[rows].argmin()])
            to_lower = x_b[r] < lo_b[r]
            alpha = self._pivot_row(r)
            # eligible: the columns whose move within their bounds takes
            # x_B[r] toward its bound by more than PIVOT_TOL per unit
            if to_lower:
                eligible = (rise & (alpha < -PIVOT_TOL)) | (fall & (alpha > PIVOT_TOL))
            else:
                eligible = (rise & (alpha > PIVOT_TOL)) | (fall & (alpha < -PIVOT_TOL))
            cand = eligible.nonzero()[0]
            if not cand.size:
                # gain: how much x_B[r] moves toward its bound per unit rise of x_j
                gain = -alpha if to_lower else alpha
                if not self._row_infeasible(gain, viol[r]):
                    return "unsure"
                return "infeasible" if self._still_infeasible(r) else "unsure"
            ratio = np.abs(d[cand]) / np.abs(alpha[cand])
            tmin = float(ratio.min())
            tied = cand[ratio <= tmin + PIVOT_TOL]
            if degen_run >= DEGEN_THRESHOLD:
                q = int(tied[0])
            else:
                q = int(tied[np.abs(alpha[tied]).argmax()])
            degen_run = degen_run + 1 if tmin <= PIVOT_TOL else 0
            w = self._ftran(q)
            bound = lo_b[r] if to_lower else up_b[r]
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
        x, lo, up = self.x[self.basis], self.lo_b, self.up_b
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
            else:
                pivots = self.iterations
                res = self._solve_phase(feasibility=True)
                if res == "infeasible":
                    return "unsure"
                if res == "optimal" and self.iterations > pivots:
                    # without it, phase 1's drift leaves some cold 16-bus
                    # full-ROP roots on inaccurate, singular bases
                    self._refactorize()
            # a dual optimum has every basic value within FEAS_TOL of its
            # bounds, inside phase 1's scaled tolerance: phase 1 is moot
            if res == "optimal":
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
        """The current basis, carrying the current inverse, and the closing
        pricing's reduced costs when they were priced under it. Ends the
        solve's use of the inverse."""
        basis = Basis(self.basis.astype(np.int32), self.stat.copy())
        priced = None
        if self.priced is not None and self.priced[0] is self.Binv:
            priced = self.c, self.priced[1]
        basis._kept[:] = self.form.nz_val, self.Binv, True, priced
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
