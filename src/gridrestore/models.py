"""DC power flow restoration models.

Builds the fixed-plan evaluation LP (multi-period DC optimal power flow
with load shedding) and the restoration ordering MILP whose binaries pick
the period in which each damaged line comes back.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graph import connected_components
from .lp import INF, LinearProgram, Variable
from .milp import MipSolution, MixedIntegerProgram
from .network import DamageScenario, Network, PeriodSchedule, RestorationPlan


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
    pg: dict = field(default_factory=dict)     # (gen id, k) -> var index
    pl: dict = field(default_factory=dict)     # (line id, k) -> var index
    xd: dict = field(default_factory=dict)     # (load id, k) -> var index
    theta: dict = field(default_factory=dict)  # (bus id, k) -> var index
    z: dict = field(default_factory=dict)      # (line id, k) -> var index
    big_m: dict = field(default_factory=dict)  # line id -> theta-delta bound


@dataclass
class PowerServedSeries:
    """Per-period delivered power, durations, and load fractions."""

    delivered: tuple[float, ...]
    durations: tuple[float, ...]
    load_fractions: tuple[dict, ...] = ()

    def __post_init__(self):
        if len(self.delivered) != len(self.durations):
            raise ValueError("delivered and durations must have equal length")

    @property
    def n_periods(self) -> int:
        return len(self.delivered)


def energized_lines(network: Network, damage: DamageScenario, plan: RestorationPlan,
                    k: int) -> frozenset[int]:
    """Line ids energized in period k (1-based): non-damaged plus restored in 1..k."""
    damaged = set(damage.damaged_lines)
    out = {l.id for l in network.lines if l.id not in damaged}
    out |= plan.cumulative(k)
    return frozenset(out)


def _reference_buses(network: Network, line_ids) -> list[int]:
    """Lowest bus of each connected component of the given line subgraph.

    Isolated buses form singleton components and are included.
    """
    edges = [(network.lines_by_id[l].from_bus, network.lines_by_id[l].to_bus)
             for l in sorted(line_ids)]
    comps = connected_components([b.id for b in network.buses], edges)
    return [c[0] for c in comps]


def _check_plan(network: Network, damage: DamageScenario, plan: RestorationPlan,
                schedule: PeriodSchedule) -> None:
    damage.validate(network)
    plan.validate_against(damage)
    if plan.n_periods != schedule.n_periods:
        raise ValueError("plan length does not match schedule length")


def _period_dcopf(network: Network, live: frozenset[int]) -> tuple[LinearProgram, list[int]]:
    """Single-period DC dispatch LP over the energized lines ``live``.

    Nodal balance, DC flow equalities on energized lines, thermal limits
    as flow-variable bounds, generator limits as bounds, and one voltage
    angle pinned to 0 per connected component of the energized topology.
    Objective: demand-weighted power served. Returns the LP and the
    indices of the load-fraction variables, in ``network.loads`` order.
    """
    lp = LinearProgram()
    demand = {d.id: d.p_demand for d in network.loads}
    pg = {g.id: lp.add_variable(f"PG{g.id}", 0.0, g.p_max) for g in network.generators}
    pl = {}
    for lid in sorted(live):
        ln = network.lines_by_id[lid]
        pl[lid] = lp.add_variable(f"PL{lid}", -ln.thermal_limit, ln.thermal_limit)
    xd = {d.id: lp.add_variable(f"XD{d.id}", 0.0, 1.0) for d in network.loads}
    th = {b.id: lp.add_variable(f"TH{b.id}", -INF, INF) for b in network.buses}
    for rb in _reference_buses(network, live):
        lp.variables[th[rb]] = Variable(f"TH{rb}", 0.0, 0.0)

    for lid in sorted(live):
        ln = network.lines_by_id[lid]
        b = ln.susceptance_b
        lp.add_constraint(f"flow{lid}",
                          [(pl[lid], 1.0), (th[ln.from_bus], b), (th[ln.to_bus], -b)],
                          "=", 0.0)
    for bus in network.buses:
        terms = [(pg[g], 1.0) for g in network.gens_at[bus.id]]
        for lid in network.lines_at[bus.id]:
            if lid in live:
                sign = -1.0 if network.lines_by_id[lid].from_bus == bus.id else 1.0
                terms.append((pl[lid], sign))
        terms += [(xd[d], -demand[d]) for d in network.loads_at[bus.id]]
        lp.add_constraint(f"bal{bus.id}", terms, "=", 0.0)
    lp.set_objective("maximize", [(xd[d.id], d.p_demand) for d in network.loads])
    return lp, [xd[d.id] for d in network.loads]


def build_rip(network: Network, damage: DamageScenario, plan: RestorationPlan,
              schedule: PeriodSchedule) -> LinearProgram:
    """Multi-period DC dispatch LP for a fixed restoration plan.

    The periods are independent: the LP stacks one ``_period_dcopf``
    block per period, with ``_k`` appended to every variable and
    constraint name. Objective: total demand-weighted energy served.
    """
    _check_plan(network, damage, plan, schedule)
    lp = LinearProgram()
    obj = []
    for k in range(1, schedule.n_periods + 1):
        block, xd = _period_dcopf(network, energized_lines(network, damage, plan, k))
        off = len(lp.variables)
        lp.variables += [Variable(f"{v.name}_{k}", v.lower, v.upper) for v in block.variables]
        for c in block.constraints:
            lp.add_constraint(f"{c.name}_{k}", [(j + off, a) for j, a in c.terms],
                              c.relation, c.rhs)
        dk = schedule.delta[k - 1]
        obj += [(j + off, d.p_demand * dk) for j, d in zip(xd, network.loads)]
    lp.set_objective("maximize", obj)
    return lp


def angle_diff_big_m(network: Network) -> float:
    """Aggregate angle spread bound: sum of per-line angle limits."""
    return sum(l.angle_diff_max for l in network.lines)


def build_rop(network: Network, damage: DamageScenario,
              schedule: PeriodSchedule) -> RopArtifacts:
    """Restoration ordering MILP over the damaged lines and periods.

    Binaries z[line, k] switch damaged-line flow constraints on via a
    big-M formulation; per-period budgets, monotone status, and final
    period completion constrain the restoration sequence.
    """
    damage.validate(network)
    n_damaged = len(damage.damaged_lines)
    if schedule.repair_budget[-1] != n_damaged:
        raise ValueError("schedule final repair budget must equal the damage count")

    theta_delta = angle_diff_big_m(network)
    damaged = set(damage.damaged_lines)
    demand = {d.id: d.p_demand for d in network.loads}
    lp = LinearProgram()
    art = RopArtifacts(program=None, network=network, damage=damage, schedule=schedule)
    for lid in sorted(damaged):
        bigm = abs(network.lines_by_id[lid].susceptance_b) * theta_delta
        if not (bigm > 0 and bigm < INF):
            raise ValueError(f"degenerate big-M for line {lid}")
        art.big_m[lid] = bigm

    N = schedule.n_periods
    binaries = []
    refs = _reference_buses(network, [l.id for l in network.lines])
    for k in range(1, N + 1):
        for g in network.generators:
            art.pg[(g.id, k)] = lp.add_variable(f"PG{g.id}_{k}", 0.0, g.p_max)
        for ln in network.lines:
            art.pl[(ln.id, k)] = lp.add_variable(f"PL{ln.id}_{k}",
                                                 -ln.thermal_limit, ln.thermal_limit)
        for d in network.loads:
            art.xd[(d.id, k)] = lp.add_variable(f"XD{d.id}_{k}", 0.0, 1.0)
        for b in network.buses:
            lo, hi = (0.0, 0.0) if b.id in refs else (-INF, INF)
            art.theta[(b.id, k)] = lp.add_variable(f"TH{b.id}_{k}", lo, hi)
        for lid in sorted(damaged):
            lo = 1.0 if k == N else 0.0  # final period: all restored
            j = lp.add_variable(f"Z{lid}_{k}", lo, 1.0)
            art.z[(lid, k)] = j
            binaries.append(j)

        lp.add_constraint(f"budget_{k}",
                          [(art.z[(lid, k)], 1.0) for lid in sorted(damaged)],
                          "<=", schedule.repair_budget[k - 1])
        for ln in network.lines:
            b = ln.susceptance_b
            fterms = [(art.pl[(ln.id, k)], 1.0),
                      (art.theta[(ln.from_bus, k)], b),
                      (art.theta[(ln.to_bus, k)], -b)]
            if ln.id not in damaged:
                lp.add_constraint(f"flow{ln.id}_{k}", fterms, "=", 0.0)
            else:
                M = art.big_m[ln.id]
                zj = art.z[(ln.id, k)]
                lp.add_constraint(f"flowu{ln.id}_{k}", fterms + [(zj, M)], "<=", M)
                lp.add_constraint(f"flowl{ln.id}_{k}", fterms + [(zj, -M)], ">=", -M)
                lim = ln.thermal_limit
                lp.add_constraint(f"onu{ln.id}_{k}",
                                  [(art.pl[(ln.id, k)], 1.0), (zj, -lim)], "<=", 0.0)
                lp.add_constraint(f"onl{ln.id}_{k}",
                                  [(art.pl[(ln.id, k)], 1.0), (zj, lim)], ">=", 0.0)
        for bus in network.buses:
            terms = [(art.pg[(g, k)], 1.0) for g in network.gens_at[bus.id]]
            for lid in network.lines_at[bus.id]:
                ln = network.lines_by_id[lid]
                sign = -1.0 if ln.from_bus == bus.id else 1.0
                terms.append((art.pl[(lid, k)], sign))
            terms += [(art.xd[(d, k)], -demand[d]) for d in network.loads_at[bus.id]]
            lp.add_constraint(f"bal{bus.id}_{k}", terms, "=", 0.0)
    for lid in sorted(damaged):
        for k in range(1, N):
            lp.add_constraint(f"mono{lid}_{k}",
                              [(art.z[(lid, k)], 1.0), (art.z[(lid, k + 1)], -1.0)],
                              "<=", 0.0)
    obj = []
    for k in range(1, N + 1):
        dk = schedule.delta[k - 1]
        for d in network.loads:
            obj.append((art.xd[(d.id, k)], d.p_demand * dk))
    lp.set_objective("maximize", obj)
    art.program = MixedIntegerProgram(base=lp, binary_vars=frozenset(binaries))
    return art


def extract_plan(artifacts: RopArtifacts, solution: MipSolution) -> RestorationPlan:
    """Restoration plan from the incumbent's line-status transitions."""
    if not solution.has_incumbent:
        raise ValueError("solution has no incumbent")
    N = artifacts.schedule.n_periods
    damaged = sorted(artifacts.damage.damaged_lines)
    zval = {}
    for lid in damaged:
        prev = 0.0
        for k in range(1, N + 1):
            raw = solution.assignment.get(artifacts.z[(lid, k)])
            if raw is None and solution.primal is not None:
                raw = solution.primal[artifacts.z[(lid, k)]]
            v = 1 if raw >= 0.5 else 0
            if v < prev - 1e-6:
                raise PlanExtractionError(
                    f"line {lid}: status drops from period {k - 1} to {k}")
            zval[(lid, k)] = v
            prev = v
    periods = []
    for k in range(1, N + 1):
        restored = {lid for lid in damaged
                    if zval[(lid, k)] == 1 and (k == 1 or zval[(lid, k - 1)] == 0)}
        periods.append(restored)
    return RestorationPlan.from_lists(periods)


def plan_to_assignment(artifacts: RopArtifacts, plan: RestorationPlan) -> dict[int, int]:
    """Binary warm-start assignment corresponding to a restoration plan.

    A plan longer than the schedule is compressed by the schedule's
    repair budget: line number r (1-based, in plan order) is restored in
    the first period k with R_k >= r.
    """
    order = plan.ordered_lines()
    schedule = artifacts.schedule
    assign: dict[int, int] = {}
    restore_period: dict[int, int] = {}
    if plan.n_periods == schedule.n_periods:
        for k, p in enumerate(plan.periods, start=1):
            for lid in p:
                restore_period[lid] = k
    else:
        for r, lid in enumerate(order, start=1):
            for k in range(1, schedule.n_periods + 1):
                if schedule.repair_budget[k - 1] >= r:
                    restore_period[lid] = k
                    break
    for lid in sorted(artifacts.damage.damaged_lines):
        for k in range(1, schedule.n_periods + 1):
            assign[artifacts.z[(lid, k)]] = 1 if k >= restore_period[lid] else 0
    return assign


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


def evaluate_plan(network: Network, damage: DamageScenario, plan: RestorationPlan,
                  schedule: PeriodSchedule, memo: dict | None = None) -> PowerServedSeries:
    """Maximum power deliverable in each period under a fixed plan.

    Periods are independent, so each one is solved as its own
    single-period LP. ``memo``, if given, maps the frozenset of energized
    line ids of a period to its ``(delivered, load fractions)``; it is
    read before and filled after each solve. A period LP depends only on
    the buses, generators, loads and energized lines, so a memo is valid
    for one network and for copies of it that drop lines (which are then
    never energized): callers create one per network and pass it to every
    evaluation on it and on such copies.
    """
    # looked up per call, so a replaced gridrestore.lp.solve_lp (a test
    # double, a tracing wrapper) sees every period LP
    from .lp import solve_lp

    _check_plan(network, damage, plan, schedule)
    delivered = []
    fractions = []
    for k in range(1, schedule.n_periods + 1):
        live = energized_lines(network, damage, plan, k)
        hit = memo.get(live) if memo is not None else None
        if hit is None:
            lp, xd = _period_dcopf(network, live)
            sol = solve_lp(lp)
            if sol.status != "optimal":
                raise PlanEvaluationError(k, sol.status)
            fr = {d.id: min(max(float(sol.primal[j]), 0.0), 1.0)
                  for j, d in zip(xd, network.loads)}
            hit = (sum(fr[d.id] * d.p_demand for d in network.loads), fr)
            if memo is not None:
                memo[live] = hit
        delivered.append(hit[0])
        fractions.append(dict(hit[1]))
    return PowerServedSeries(tuple(delivered), tuple(schedule.delta), tuple(fractions))
