"""DC power flow restoration models.

One period builder, ``_period_dcopf``, writes the DC optimal power flow
with load shedding of a single period. The fixed-plan evaluation LP (RIP)
is that model over each period's energized lines; the restoration
ordering MILP (ROP) is the same model in every period but the last with
the damaged lines switchable, whose status binaries pick the period in
which each damaged line comes back. Every line is back in the final
period, so the ROP carries that period's energy as a constant.

Both read a period's topology from one shared period LP per network,
built over every line: a topology is a change of bounds that takes the
lines that are out away. ``evaluate_plan`` solves each period of a plan
from the optimal basis of the period before it, copying the inverse that
solve ended with, and its first period from the base topology, the
undamaged lines alone; ``build_rop`` solves its final period from the
base. A topology is solved once, from the optimal basis of the period
before it in the first plan that reaches it: its power served may differ
in the last bits from a solve that starts elsewhere, and repeated runs
stay byte-identical. One object per network, ``_Periods``, owns that LP
and the basis and power served of each topology solved; a caller's memo
holds it, so the memo serves both. A base not yet solved is solved from
the basis that holds its zero dispatch (``_Periods.crash``), which every
topology has, so no period LP is solved cold.

A ROP period is written over the shared period LP's columns and rows,
with the same reference angles, so the base's optimal basis extends to
it column for column: that extension is a primal feasible start for the
ordering MILP's root LP. Each switchable line's big-M is ``|b|`` times
the shortest ``angle_diff_max`` path between its ends through the lines
that are always in, which keeps the root relaxation tight. With its
binaries fixed at a plan, the ordering MILP splits into that plan's
period LPs, so its warm start is scored by the plan's evaluation on the
memo (``scored_warm_start``), not by an LP over the whole MILP.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import adjacency, line_components, shortest_path
from .lp import (_AT_LOWER, _BASIC, _FREE, INF, Basis, LinearProgram, StandardForm,
                 standard_form)
from .milp import MipSolution, MixedIntegerProgram
from .network import DamageScenario, Line, Network, PeriodSchedule, RestorationPlan


class PlanExtractionError(ValueError):
    """Incumbent line-status variables violate restoration monotonicity."""


class PlanEvaluationError(RuntimeError):
    """A period LP of a plan evaluation did not end optimal."""

    def __init__(self, period: int, status: str):
        super().__init__(f"plan evaluation LP of period {period} ended with status {status}")
        self.status = status


@dataclass
class RopArtifacts:
    """Ordering MILP plus the index maps needed to interpret a solution."""

    program: MixedIntegerProgram
    network: Network
    damage: DamageScenario
    schedule: PeriodSchedule
    out: frozenset[int] = frozenset()  # line ids absent from every period
    z: dict = field(default_factory=dict)  # (line id, k) -> var index, k < N


@dataclass
class PowerServedSeries:
    """Per-period delivered power and durations."""

    delivered: tuple[float, ...]
    durations: tuple[float, ...]

    def __post_init__(self):
        if len(self.delivered) != len(self.durations):
            raise ValueError("delivered and durations must have equal length")

    @property
    def n_periods(self) -> int:
        return len(self.delivered)


def total_energy(series: PowerServedSeries) -> float:
    """Each period's power times its duration, summed left to right."""
    return float(np.cumsum(np.r_[0.0, np.multiply(series.delivered, series.durations)])[-1])


def energized_lines(network: Network, damage: DamageScenario, plan: RestorationPlan,
                    k: int) -> frozenset[int]:
    """Line ids energized in period k (1-based): non-damaged plus restored in 1..k."""
    damaged = set(damage.damaged_lines)
    out = {l.id for l in network.lines if l.id not in damaged}
    out |= plan.cumulative(k)
    return frozenset(out)


def _check_plan(network: Network, damage: DamageScenario, plan: RestorationPlan,
                schedule: PeriodSchedule) -> None:
    damage.validate(network)
    plan.validate_against(damage)
    if plan.n_periods != schedule.n_periods:
        raise ValueError("plan length does not match schedule length")


def _reference_buses(network: Network) -> frozenset[int]:
    """The lowest bus of each connected component of all the network's lines."""
    return frozenset(c[0] for c in line_components(network, (ln.id for ln in network.lines)))


def _period_dcopf(lp: LinearProgram, network: Network, live: frozenset[int],
                  refs: frozenset[int], switchable: dict[int, float] | None = None,
                  weight: float = 1.0, tag: str = "") -> tuple[dict, dict]:
    """Append one period's DC dispatch model to ``lp``.

    The present lines are the energized ones, ``live``, and the damaged
    ones whose status a binary picks, the keys of ``switchable``, which
    maps each to the big-M of its flow rows. Variables, named with
    ``tag`` appended: generator outputs PG, line flows PL of the present
    lines, load fractions XD in [0, 1], voltage angles TH with the buses
    ``refs`` pinned at 0 (the lowest bus of each connected component of
    all the network's lines, ``_reference_buses``, as in the shared period
    LP, whatever lines are present), and one status Z in [0, 1] per
    switchable line. A live line's flow limit is
    the smaller of its thermal limit and ``|b| * angle_diff_max``: where
    the flow equality holds, the latter is the line's angle-difference
    limit ``|TH_f - TH_t| <= angle_diff_max``. A switchable line's flow
    is free, bounded only by its rows. Rows: a DC flow equality per live
    line; per switchable line, two big-M rows that enforce the flow
    equality when Z = 1 and two on/off rows that hold the flow within
    ``limit * Z``; then nodal balance. Adds ``p_demand * weight`` per load
    to the objective. Returns the XD indices by load id and the Z indices
    by line id.
    """
    switchable = switchable or {}
    present = live | switchable.keys()
    lines = [ln for ln in network.lines if ln.id in present]
    pg = {g.id: lp.add_variable(f"PG{g.id}{tag}", 0.0, g.p_max) for g in network.generators}
    limit = {ln.id: min(ln.thermal_limit, abs(ln.susceptance_b) * ln.angle_diff_max)
             for ln in lines}
    pl = {ln.id: lp.add_variable(f"PL{ln.id}{tag}", *((-limit[ln.id], limit[ln.id])
                                                       if ln.id in live else (-INF, INF)))
          for ln in lines}
    xd = {d.id: lp.add_variable(f"XD{d.id}{tag}", 0.0, 1.0) for d in network.loads}
    th = {}
    for b in network.buses:
        lo, hi = (0.0, 0.0) if b.id in refs else (-INF, INF)
        th[b.id] = lp.add_variable(f"TH{b.id}{tag}", lo, hi)
    z = {lid: lp.add_variable(f"Z{lid}{tag}", 0.0, 1.0) for lid in sorted(switchable)}

    for ln in lines:
        b = ln.susceptance_b
        flow = [(pl[ln.id], 1.0), (th[ln.from_bus], b), (th[ln.to_bus], -b)]
        if ln.id in live:
            lp.add_constraint(f"flow{ln.id}{tag}", flow, "=", 0.0)
            continue
        M, zj, lim = switchable[ln.id], z[ln.id], limit[ln.id]
        lp.add_constraint(f"flowu{ln.id}{tag}", flow + [(zj, M)], "<=", M)
        lp.add_constraint(f"flowl{ln.id}{tag}", flow + [(zj, -M)], ">=", -M)
        lp.add_constraint(f"onu{ln.id}{tag}", [(pl[ln.id], 1.0), (zj, -lim)], "<=", 0.0)
        lp.add_constraint(f"onl{ln.id}{tag}", [(pl[ln.id], 1.0), (zj, lim)], ">=", 0.0)
    demand = {d.id: d.p_demand for d in network.loads}
    for bus in network.buses:
        terms = [(pg[g], 1.0) for g in network.gens_at[bus.id]]
        terms += [(pl[lid], -1.0 if network.lines_by_id[lid].from_bus == bus.id else 1.0)
                  for lid in network.lines_at[bus.id] if lid in pl]
        terms += [(xd[d], -demand[d]) for d in network.loads_at[bus.id]]
        lp.add_constraint(f"bal{bus.id}{tag}", terms, "=", 0.0)
    lp.objective_terms += [(xd[d.id], d.p_demand * weight) for d in network.loads]
    return xd, z


def build_rip(network: Network, damage: DamageScenario, plan: RestorationPlan,
              schedule: PeriodSchedule) -> LinearProgram:
    """Multi-period DC dispatch LP for a fixed restoration plan.

    The periods are independent: one ``_period_dcopf`` block per period,
    with ``_k`` appended to every name and the demand weighted by the
    period's duration. Objective: total demand-weighted energy served.
    """
    _check_plan(network, damage, plan, schedule)
    lp, refs = LinearProgram(), _reference_buses(network)
    for k in range(1, schedule.n_periods + 1):
        _period_dcopf(lp, network, energized_lines(network, damage, plan, k), refs,
                      weight=schedule.delta[k - 1], tag=f"_{k}")
    return lp


def _big_m(line: Line, adjacent: dict, theta_delta: float) -> float:
    """The big-M of a switchable line's flow rows.

    ``|b|`` times the shortest ``angle_diff_max`` path between the line's
    ends through the live lines, joined in ``adjacent`` (``adjacency``), or
    times ``theta_delta``, the sum of the present lines'
    ``angle_diff_max``, when no such path is shorter.
    Both are valid: every live line keeps ``|TH_f - TH_t| <=
    angle_diff_max`` in every period, so the ends of a path of live lines
    differ by at most its length; and with each island of energized lines
    shifted to put one of its buses at angle 0, the ends of any line differ
    by at most the sum over the lines present.
    """
    path = shortest_path(adjacent, line.from_bus, line.to_bus)
    M = abs(line.susceptance_b) * min(path, theta_delta)
    if not 0 < M < INF:
        raise ValueError(f"degenerate big-M for line {line.id}")
    return M


def build_rop(network: Network, damage: DamageScenario, schedule: PeriodSchedule,
              out: frozenset[int] = frozenset(), memo: dict | None = None) -> RopArtifacts:
    """Restoration ordering MILP over the damaged lines and periods.

    The present lines are every line but ``out``, the lines that stay out
    in every period. Each period but the last is the ``_period_dcopf``
    model over them with the damaged lines switchable, each with its own
    big-M (``_big_m``), led by its repair budget row; the status binaries
    are monotone across periods. Every present line is back in the final
    period, so its model would be the same LP at every branch-and-bound
    node: it is instead that topology of ``evaluate_plan``'s shared period
    LP (``memo`` as there), and its power times the period's duration
    enters the objective as one column fixed at 1. It has no binaries:
    ``z`` maps periods 1..N-1.

    The program carries a primal feasible start for its root LP
    (``_rop_start``), made from the optimal basis of the base topology,
    the present lines that are not damaged, from the same memo. Raises
    ``PlanEvaluationError`` for period N when that LP is not optimal.
    """
    damage.validate(network)
    damaged = frozenset(damage.damaged_lines)
    if schedule.repair_budget[-1] != len(damaged):
        raise ValueError("schedule final repair budget must equal the damage count")
    if damaged & out:
        raise ValueError("a damaged line cannot stay out")
    present = frozenset(l.id for l in network.lines) - out
    live = present - damaged
    theta_delta = sum(l.angle_diff_max for l in network.lines if l.id in present)
    # the live lines that carry flow, joined once for every line's search
    adjacent = adjacency(network, [lid for lid in sorted(live)
                                   if network.lines_by_id[lid].susceptance_b != 0],
                         lambda ln: ln.angle_diff_max)
    # checked even when no period switches a line
    big_m = {lid: _big_m(network.lines_by_id[lid], adjacent, theta_delta)
             for lid in sorted(damaged)}
    periods = _Periods.of(network, memo)

    lp = LinearProgram()
    art = RopArtifacts(program=None, network=network, damage=damage, schedule=schedule, out=out)
    N = schedule.n_periods
    for k in range(1, N):
        first = len(lp.constraints)
        _, z = _period_dcopf(lp, network, live, periods.refs, big_m,
                             weight=schedule.delta[k - 1], tag=f"_{k}")
        # the budget row leads its period: the row order steers the B&B search
        lp.add_constraint(f"budget_{k}", [(j, 1.0) for j in z.values()],
                          "<=", schedule.repair_budget[k - 1])
        lp.constraints.insert(first, lp.constraints.pop())
        art.z.update({(lid, k): j for lid, j in z.items()})
    for lid in sorted(damaged):
        for k in range(1, N - 1):
            lp.add_constraint(f"mono{lid}_{k}",
                              [(art.z[(lid, k)], 1.0), (art.z[(lid, k + 1)], -1.0)],
                              "<=", 0.0)
    final = periods.power(present, live, N)
    lp.objective_terms.append((lp.add_variable("final_energy", 1.0, 1.0),
                               final * schedule.delta[N - 1]))
    start = _rop_start(lp, periods, periods.base(live)) if N > 1 else None
    art.program = MixedIntegerProgram(base=lp, binary_vars=frozenset(art.z.values()),
                                      start=start)
    return art


def _rop_start(lp: LinearProgram, periods: _Periods, base: Basis | None) -> Basis | None:
    """A primal feasible basis of the ordering MILP ``lp``, made from the
    base topology's optimal basis ``base`` on the shared period LP.

    Each period names its columns and rows as the shared period LP does,
    with its tag appended, so a column or row that both have takes the
    base's state: the generator outputs, live flows, load fractions and
    angles, and the slacks of the live lines' flow rows and of the balance
    rows. A switchable line's flow, fixed at 0 in the base, is free and
    nonbasic at 0; Z and the final-energy column sit at their lower
    bounds; the slacks of the switchable, budget and mono rows are basic.
    They stand in for the base's slacks of the flow rows of the lines
    out, which are free and so never leave a basis. Every row then holds
    at the base's point with Z = 0, a big-M row because its M bounds the
    angle difference that the live lines allow (``_big_m``). Not dual
    feasible in general: a switchable flow prices at the difference of
    its ends' balance duals. None without a base.
    """
    if base is None:
        return None
    names = [v.name for v in lp.variables] + [c.name for c in lp.constraints]
    status = np.full(len(names), _AT_LOWER, dtype=np.int8)
    status[len(lp.variables):] = _BASIC
    for j, name in enumerate(names):
        s = periods.index.get(name.rpartition("_")[0])
        if s is not None:
            status[j] = base.status[s]
    return Basis(np.flatnonzero(status == _BASIC).astype(np.int32), status)


def extract_plan(artifacts: RopArtifacts, solution: MipSolution) -> RestorationPlan:
    """Restoration plan from the incumbent's line-status transitions.

    Every line is back in the final period, which has no binaries.
    """
    if not solution.has_incumbent:
        raise ValueError("solution has no incumbent")
    N = artifacts.schedule.n_periods
    periods = [set() for _ in range(N)]
    for lid in sorted(artifacts.damage.damaged_lines):
        prev = 0
        for k in range(1, N + 1):
            v = 1
            if k < N:
                j = artifacts.z[(lid, k)]
                v = solution.assignment[j]
            if v < prev:
                raise PlanExtractionError(
                    f"line {lid}: status drops from period {k - 1} to {k}")
            if v > prev:
                periods[k - 1].add(lid)
            prev = v
    return RestorationPlan.from_lists(periods)


def _schedule_plan(schedule: PeriodSchedule, plan: RestorationPlan) -> RestorationPlan:
    """``plan`` over ``schedule``: as it is when it has the schedule's length
    and its cumulative restoration counts stay within the repair budget,
    else bucketed by the budget (``PeriodSchedule.bucket``) in plan order."""
    counts = itertools.accumulate(len(p) for p in plan.periods)
    if plan.n_periods != schedule.n_periods or any(
            c > r for c, r in zip(counts, schedule.repair_budget)):
        return schedule.bucket(plan.ordered_lines())
    return plan


def plan_to_assignment(artifacts: RopArtifacts, plan: RestorationPlan) -> dict[int, int]:
    """Binary warm-start assignment corresponding to a restoration plan.

    A plan of the schedule's length whose cumulative restoration counts
    stay within the repair budget is taken period by period. Any other
    plan is bucketed by the budget (``PeriodSchedule.bucket``) in plan
    order.
    """
    plan = _schedule_plan(artifacts.schedule, plan)
    restore_period = {lid: k for k, p in enumerate(plan.periods, start=1) for lid in p}
    return {artifacts.z[(lid, k)]: int(k >= restore_period[lid])
            for lid in sorted(artifacts.damage.damaged_lines)
            for k in range(1, artifacts.schedule.n_periods)}


def scored_warm_start(artifacts: RopArtifacts, plan: RestorationPlan,
                      memo: dict | None = None) -> tuple[dict[int, int], float] | None:
    """The ordering MILP's warm start for ``plan`` and its objective.

    The assignment is ``plan_to_assignment``'s. With every binary fixed,
    the MILP splits into the periods of that plan over the schedule, so
    its objective is the plan's raw ``total_energy``, from ``evaluate_plan``
    on ``memo`` (which ``build_rop`` took): no LP over the whole MILP is
    solved. None when an evaluation LP does not end optimal
    (``PlanEvaluationError``), as a warm start whose fixed LP is not
    optimal is dropped. The MILP must have no line out.
    """
    if artifacts.out:
        raise ValueError("a warm start is scored only with no line out")
    plan = _schedule_plan(artifacts.schedule, plan)
    try:
        series = evaluate_plan(artifacts.network, artifacts.damage, plan,
                               artifacts.schedule, memo)
    except PlanEvaluationError:
        return None
    return plan_to_assignment(artifacts, plan), total_energy(series)


class _Periods:
    """One network's period LPs: the shared period LP over every line,
    and the optimal basis and power served of each topology solved.

    Line ``ids[i]`` has its flow in column ``flow_cols[i]`` and the
    slack of its flow row in column ``row_slacks[i]`` of ``form``; bus
    ``buses[i]`` has its angle in column ``angle_cols[i]`` and the slack of
    its balance row in column ``bal_slacks[i]``. ``index`` maps each
    column's and row's name to its column of ``form``, the row's slack for
    a row, and ``xd`` each load id to its load-fraction column. ``refs``
    holds the reference buses (``_reference_buses``) that every period
    model of the network pins. ``bases``
    holds the basis of every topology solved, keyed by the frozenset of its
    energized line ids (None when not optimal), and ``served`` the power
    served of every one that ended optimal. A topology is solved once,
    from the optimal basis of the period before it in the first plan that
    reaches it (``power``): its power served may differ in the last bits
    from a solve that starts elsewhere, and repeated runs stay
    byte-identical.
    """

    def __init__(self, network: Network):
        self.network = network
        self.ids = tuple(ln.id for ln in network.lines)
        self.buses = tuple(b.id for b in network.buses)
        self.refs = _reference_buses(network)
        self.lp = LinearProgram()
        self.xd, _ = _period_dcopf(self.lp, network, frozenset(self.ids), self.refs)
        self.form = standard_form(self.lp)
        names = [v.name for v in self.lp.variables] + [c.name for c in self.lp.constraints]
        self.index = {name: j for j, name in enumerate(names)}

        def cols(fmt, keys):
            return np.array([self.index[fmt.format(key)] for key in keys], dtype=int)

        self.flow_cols, self.row_slacks = cols("PL{}", self.ids), cols("flow{}", self.ids)
        self.angle_cols, self.bal_slacks = cols("TH{}", self.buses), cols("bal{}", self.buses)
        self.bases, self.served = {}, {}

    @classmethod
    def of(cls, network: Network, memo: dict | None) -> _Periods:
        """The network's period LPs, held by ``memo`` (made on first use
        when given). Raises ``ValueError`` when the memo holds another
        network's."""
        if memo is None:
            return cls(network)
        if "periods" not in memo:
            memo["periods"] = cls(network)
        elif memo["periods"].network != network:
            raise ValueError("the memo holds the evaluations of another network")
        return memo["periods"]

    def bounds(self, live: frozenset[int]) -> StandardForm:
        """``form`` with only the lines in ``live`` present.

        A line that is out has its flow fixed at 0 and its flow row's slack
        freed, which drops that row. Reference angles stay pinned per
        component of every line, so an island that the outages create has
        free angles; shifting the angles of a component changes no flow,
        so the optimum is that of the LP over the live lines alone.
        """
        out = np.array([lid not in live for lid in self.ids], dtype=bool)
        lower, upper = self.form.lower.copy(), self.form.upper.copy()
        lower[self.flow_cols[out]] = upper[self.flow_cols[out]] = 0.0
        lower[self.row_slacks[out]], upper[self.row_slacks[out]] = -INF, INF
        return replace(self.form, lower=lower, upper=upper)

    def crash(self, live: frozenset[int]) -> Basis:
        """The basis of the topology ``live`` that holds its zero dispatch.

        Basic: the flow of each live line, the free slack of each flow row of
        a line out, and the angle of every bus but the pinned reference buses
        and the lowest bus of each island, over the live lines with nonzero
        susceptance, that has none; those buses' balance slacks are basic
        instead. With every other column at 0 the basic values are 0 too, and
        the point (no generation, no load, no flow) is feasible in every
        topology. Per island the basis is the weighted Laplacian with one bus
        removed, so it is nonsingular (Bixby, "Implementing the simplex
        method: the initial basis", ORSA J. Computing 1992). No basic column
        has a cost, so each reduced cost is the objective's own: with the
        load fractions moved to their upper bounds the basis is dual feasible
        too, and ``solve_lp`` runs the dual simplex from it.
        """
        network, form = self.network, self.form
        is_live = np.array([lid in live for lid in self.ids], dtype=bool)
        pinned = form.lower[self.angle_cols] == form.upper[self.angle_cols]
        held = pinned.copy()  # buses whose balance slack is basic
        position = {bus: i for i, bus in enumerate(self.buses)}
        for island in line_components(network, (lid for lid in live
                                                if network.lines_by_id[lid].susceptance_b != 0)):
            at = [position[bus] for bus in island]
            if not pinned[at].any():
                held[at[0]] = True
        status = np.full(form.c.size, _AT_LOWER, dtype=np.int8)
        status[self.angle_cols[held & ~pinned]] = _FREE
        for cols in (self.flow_cols[is_live], self.row_slacks[~is_live],
                     self.angle_cols[~held], self.bal_slacks[held]):
            status[cols] = _BASIC
        return Basis(np.flatnonzero(status == _BASIC).astype(np.int32), status)

    def _solve(self, live: frozenset[int], start: Basis | None):
        """Solve the topology ``live`` from ``start`` and keep its basis
        and, when optimal, its power served, load fractions clipped to
        [0, 1]."""
        # looked up per call, so a replaced gridrestore.lp.solve_lp (a test
        # double, a tracing wrapper) sees every period LP, base LPs included
        from .lp import solve_lp

        sol = solve_lp(self.lp, form=self.bounds(live), start=start)
        self.bases[live] = sol.basis
        if sol.status == "optimal":
            self.served[live] = sum(min(max(float(sol.primal[self.xd[d.id]]), 0.0), 1.0)
                                    * d.p_demand for d in self.network.loads)
        return sol

    def base(self, live: frozenset[int]) -> Basis | None:
        """The optimal basis of the topology ``live``, None when its LP is
        not optimal: kept, or solved from its zero-dispatch basis
        (``crash``)."""
        if live not in self.bases:
            self._solve(live, self.crash(live))
        return self.bases[live]

    def power(self, live: frozenset[int], prev: frozenset[int], k: int) -> float:
        """Power served under the topology ``live``, kept or solved.

        A topology not yet solved is solved from the optimal basis of the
        topology ``prev`` (``base``), the period before it or the base
        topology, copying the inverse that basis carries from its solve;
        when ``prev``'s LP is not optimal the topology solves cold. So the
        power served of a topology depends, in its last bits, on the
        ``prev`` it is first reached from. Raises ``PlanEvaluationError``
        for period ``k`` when the topology's LP does not end optimal.
        """
        if live not in self.served:
            start = self.base(prev)
            # the base solve is this topology's when live is prev
            if live not in self.served:
                sol = self._solve(live, start)
                if sol.status != "optimal":
                    raise PlanEvaluationError(k, sol.status)
        return self.served[live]


def evaluate_plan(network: Network, damage: DamageScenario, plan: RestorationPlan,
                  schedule: PeriodSchedule, memo: dict | None = None) -> PowerServedSeries:
    """Maximum power deliverable in each period under a fixed plan.

    Periods are independent, so each one is solved as its own
    single-period LP. All of them are one shared LP over every line of
    the network, the period's topology a change of its bounds. Each
    period is solved from the optimal basis of the period before it,
    which carries its solve's inverse, and the first from the base
    topology, the undamaged lines alone (``_Periods.base``). Restoring
    lines only unfixes flow columns and fixes row slacks, so that basis
    stays dual feasible. A topology is solved once, from the optimal
    basis of the period before it in the first plan that reaches it: its
    power served may differ in the last bits from a solve that starts
    elsewhere, and repeated runs stay byte-identical.

    ``memo``, if given, holds that state across calls on one network:
    one ``_Periods`` object, the shared LP and the basis and power served
    of every topology solved, which the base is one of. It is read before
    and filled after each solve. Raises ``ValueError`` when the memo holds
    another network's.
    """
    _check_plan(network, damage, plan, schedule)
    periods = _Periods.of(network, memo)
    live, delivered = energized_lines(network, damage, plan, 0), []
    for k, restored in enumerate(plan.periods, start=1):
        prev, live = live, live | restored  # energized_lines(network, damage, plan, k)
        delivered.append(periods.power(live, prev, k))
    return PowerServedSeries(tuple(delivered), tuple(schedule.delta))
