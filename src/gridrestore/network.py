"""Grid data model, MATPOWER-subset case parsing, and damage scenarios.

All domain objects are immutable values: damage scenarios, schedules and
restoration plans are overlays on a Network, never mutations of it.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field

DEFAULT_ANGLE_DIFF_MAX = 0.5236  # radians, ~30 degrees


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from zero toward +inf."""
    return int(math.floor(x + 0.5))


class CaseParseError(ValueError):
    """Raised when a case file cannot be parsed into a Network."""

    def __init__(self, message: str, line_no: int | None = None, field: str | None = None):
        self.line_no = line_no
        self.field = field
        loc = ""
        if line_no is not None:
            loc += f" (line {line_no}"
            if field:
                loc += f", field '{field}'"
            loc += ")"
        elif field:
            loc += f" (field '{field}')"
        super().__init__(message + loc)


@dataclass(frozen=True)
class Bus:
    id: int


@dataclass(frozen=True)
class Line:
    id: int
    from_bus: int
    to_bus: int
    susceptance_b: float
    thermal_limit: float
    angle_diff_max: float = DEFAULT_ANGLE_DIFF_MAX


@dataclass(frozen=True)
class Generator:
    id: int
    bus: int
    p_max: float


@dataclass(frozen=True)
class Load:
    id: int
    bus: int
    p_demand: float


@dataclass(frozen=True)
class Network:
    """Immutable per-unit grid with per-bus incidence indices."""

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    loads: tuple[Load, ...]
    base_mva: float = 100.0
    # derived indices, filled in __post_init__
    lines_by_id: dict = field(init=False, repr=False, compare=False)
    lines_at: dict = field(init=False, repr=False, compare=False)
    gens_at: dict = field(init=False, repr=False, compare=False)
    loads_at: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.buses:
            raise ValueError("network must contain at least one bus")
        bus_ids = [b.id for b in self.buses]
        if len(set(bus_ids)) != len(bus_ids):
            raise ValueError("duplicate bus ids")
        bus_set = set(bus_ids)
        line_ids = [l.id for l in self.lines]
        if len(set(line_ids)) != len(line_ids):
            raise ValueError("duplicate line ids")
        lines_at = {b: [] for b in bus_ids}
        gens_at = {b: [] for b in bus_ids}
        loads_at = {b: [] for b in bus_ids}
        for ln in self.lines:
            if ln.from_bus == ln.to_bus:
                raise ValueError(f"line {ln.id}: from_bus == to_bus")
            if ln.from_bus not in bus_set or ln.to_bus not in bus_set:
                raise ValueError(f"line {ln.id}: unknown bus")
            if ln.thermal_limit < 0:
                raise ValueError(f"line {ln.id}: thermal_limit < 0")
            if not ln.angle_diff_max > 0:
                raise ValueError(f"line {ln.id}: angle_diff_max must be > 0")
            lines_at[ln.from_bus].append(ln.id)
            lines_at[ln.to_bus].append(ln.id)
        for g in self.generators:
            if g.bus not in bus_set:
                raise ValueError(f"generator {g.id}: unknown bus")
            if g.p_max < 0:
                raise ValueError(f"generator {g.id}: p_max < 0")
            gens_at[g.bus].append(g.id)
        for d in self.loads:
            if d.bus not in bus_set:
                raise ValueError(f"load {d.id}: unknown bus")
            if d.p_demand < 0:
                raise ValueError(f"load {d.id}: p_demand < 0")
            loads_at[d.bus].append(d.id)
        object.__setattr__(self, "lines_by_id", {l.id: l for l in self.lines})
        object.__setattr__(self, "lines_at", {b: tuple(v) for b, v in lines_at.items()})
        object.__setattr__(self, "gens_at", {b: tuple(v) for b, v in gens_at.items()})
        object.__setattr__(self, "loads_at", {b: tuple(v) for b, v in loads_at.items()})

    @property
    def total_demand(self) -> float:
        return sum(d.p_demand for d in self.loads)


@dataclass(frozen=True)
class DamageScenario:
    """A set of damaged lines."""

    damaged_lines: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.damaged_lines)) != len(self.damaged_lines):
            raise ValueError("duplicate damaged line ids")

    def validate(self, network: Network) -> None:
        for lid in self.damaged_lines:
            if lid not in network.lines_by_id:
                raise ValueError(f"damaged line {lid} not in network")


@dataclass(frozen=True)
class PeriodSchedule:
    """Number of periods, per-period durations, and repair budgets R_k."""

    n_periods: int
    delta: tuple[float, ...]
    repair_budget: tuple[int, ...]

    def __post_init__(self):
        if self.n_periods < 1:
            raise ValueError("n_periods must be >= 1")
        if len(self.delta) != self.n_periods or len(self.repair_budget) != self.n_periods:
            raise ValueError("delta and repair_budget lengths must equal n_periods")
        if any(d <= 0 for d in self.delta):
            raise ValueError("period durations must be positive")
        if any(b > a for a, b in zip(self.repair_budget[1:], self.repair_budget)):
            raise ValueError("repair budget must be nondecreasing")

    def bucket(self, order) -> RestorationPlan:
        """The plan that restores the lines of ``order`` at the repair
        budget: line number r (1-based) in the first period k with
        R_k >= r. Raises ``ValueError`` unless R_N is the number of lines.
        """
        order = tuple(order)
        if len(order) != self.repair_budget[-1]:
            raise ValueError("final repair budget must equal the number of lines")
        return RestorationPlan.from_lists(
            order[lo:hi] for lo, hi in zip((0,) + self.repair_budget, self.repair_budget))


@dataclass(frozen=True)
class RestorationPlan:
    """Ordered sequence of restoration periods, each a set of line ids."""

    periods: tuple[frozenset[int], ...]

    @classmethod
    def from_lists(cls, periods) -> "RestorationPlan":
        return cls(tuple(frozenset(p) for p in periods))

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    def ordered_lines(self) -> list[int]:
        """Flatten into a single sequence, period order preserved."""
        out: list[int] = []
        for p in self.periods:
            out.extend(sorted(p))
        return out

    def validate_against(self, damage: DamageScenario) -> None:
        seen: set[int] = set()
        for p in self.periods:
            if p & seen:
                raise ValueError("line restored in more than one period")
            seen |= p
        if seen != set(damage.damaged_lines):
            raise ValueError("plan does not cover the damage set exactly")

    def cumulative(self, k: int) -> frozenset[int]:
        """Lines restored in periods 1..k (1-based, k=0 -> empty)."""
        out: set[int] = set()
        for p in self.periods[:k]:
            out |= p
        return frozenset(out)


def build_schedule(n_damaged: int, n_periods: int, hours_per_period: float = 1.0) -> PeriodSchedule:
    """Repair budget with a consistent number of restorations per period.

    R_k = round-half-up(k * n_damaged / n_periods), so R_k = k when
    n_damaged == n_periods and restorations are fully ordered.
    Raises ``ValueError`` when ``n_periods`` < 1 (``PeriodSchedule``) or
    ``n_damaged`` < 0.
    """
    if n_damaged < 0:
        raise ValueError("n_damaged must be >= 0")
    budget = tuple(round_half_up(k * n_damaged / n_periods) for k in range(1, n_periods + 1))
    return PeriodSchedule(n_periods, (float(hours_per_period),) * n_periods, budget)


def random_damage(network: Network, fraction: float, seed: int) -> DamageScenario:
    """Select round-half-up(fraction * |lines|) distinct lines.

    Selection uses random.Random(seed).sample (Mersenne Twister), so the
    same (network, fraction, seed) always yields the same scenario.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    n = round_half_up(fraction * len(network.lines))
    rng = random.Random(seed)
    ids = sorted(l.id for l in network.lines)
    chosen = sorted(rng.sample(ids, n))
    return DamageScenario(tuple(chosen))


# ---------------------------------------------------------------------------
# MATPOWER-subset case parsing
# ---------------------------------------------------------------------------

# ``mpc.<name> = ...``: a matrix to its ``]`` (an empty ``closer`` if the next
# statement or the text's end comes first), any other value to ``;``, its
# line's end or the next statement
_STATEMENT = re.compile(r"\bmpc\.(\w+)\s*=[ \t]*(?:\s*\[(?P<body>[^\]m]*(?:m(?!pc\.\w+\s*=)[^\]m]*)*)"
                        r"(?P<closer>\]?)|(?P<value>[^;\n]*?)(?=[;\n]|\bmpc\.\w+\s*=|\Z))")


def _parse_row(text: str, line_no: int, table: str) -> list[float]:
    vals = []
    for tok in text.split():
        try:
            vals.append(float(tok))
        except ValueError:
            raise CaseParseError(f"malformed numeric value '{tok}' in {table} table", line_no, table)
    return vals


def _finite(value: float, line_no: int, field: str) -> float:
    """``value``, checked: a number that is not finite is a parse error
    naming its line and field."""
    if not math.isfinite(value):
        raise CaseParseError(f"{field} is not finite ({value})", line_no, field)
    return value


def _bus_id(value: float, line_no: int, field: str) -> int:
    """``value`` as a bus id, checked: a number that is not a finite
    integer is a parse error naming its line and field."""
    if _finite(value, line_no, field) != int(value):
        raise CaseParseError(f"{field} is not an integer ({value})", line_no, field)
    return int(value)


def parse_case(text: str) -> Network:
    """Parse a MATPOWER-format case file (``.m`` subset) into a Network.

    Supported: ``mpc.baseMVA`` plus the ``mpc.bus``, ``mpc.gen`` and
    ``mpc.branch`` matrices with whitespace-separated numeric rows and
    ``%`` comments. AC parameters, areas, gencost etc. are parsed over
    and ignored. Generator and branch rows with status 0 are out of
    service and dropped, so an out-of-service generator's Pmax is not in
    the cap that stands in for an unlimited rateA; reactance is converted
    to susceptance b = -1/x; rateA is converted to per-unit. A branch in
    service that joins a bus to itself is an error. Every number read
    (baseMVA, bus id, Pd, gen status, Pmax, x, rateA, branch status,
    angmin, angmax) must be finite, and every bus id (of a bus, a
    generator's bus, a branch's ends) an integer. Statements may share a
    line: a scalar ends at a ``;``, at the end of its line or at the next
    statement, a matrix at its ``]`` (an error if the next statement or
    the end of the text comes first), a row at a ``;`` or at the end of
    its line, whose number it keeps. A matrix assigned again replaces the
    rows of the one before, as in MATLAB.
    """
    base_mva = 100.0
    tables: dict[str, list[tuple[int, list[float]]]] = {}
    text = "\n".join(line.partition("%")[0] for line in text.splitlines())
    for m in _STATEMENT.finditer(text):
        name, body = m[1], m["body"]
        line_no = text.count("\n", 0, m.start()) + 1
        if body is None:
            if name == "baseMVA":
                values = _parse_row(m["value"], line_no, "baseMVA")
                if len(values) != 1:
                    raise CaseParseError("baseMVA is not one number", line_no, "baseMVA")
                base_mva = _finite(values[0], line_no, "baseMVA")
                if base_mva <= 0:
                    raise CaseParseError("baseMVA must be positive", line_no, "baseMVA")
            continue
        if not m["closer"]:
            raise CaseParseError(f"mpc.{name} matrix has no closing ']'", line_no, name)
        if name not in ("bus", "gen", "branch"):
            continue
        first = text.count("\n", 0, m.start("body")) + 1
        tables[name] = [
            (row_line_no, _parse_row(row, row_line_no, name))
            for row_line_no, line in enumerate(body.split("\n"), start=first)
            for row in line.split(";") if row.strip()]
    if not tables.get("bus"):
        raise CaseParseError("missing or empty bus table", field="bus")
    if "branch" not in tables:
        raise CaseParseError("missing branch table", field="branch")

    buses: list[Bus] = []
    loads: list[Load] = []
    bus_ids: set[int] = set()
    for line_no, row in tables["bus"]:
        if len(row) < 3:
            raise CaseParseError("bus row too short", line_no, "bus")
        bid = _bus_id(row[0], line_no, "bus id")
        if bid in bus_ids:
            raise CaseParseError(f"duplicate bus id {bid}", line_no, "bus")
        bus_ids.add(bid)
        buses.append(Bus(id=bid))
        pd = _finite(row[2], line_no, "Pd")
        if pd > 0:
            loads.append(Load(id=len(loads) + 1, bus=bid, p_demand=pd / base_mva))

    gens: list[Generator] = []
    total_gen_pu = 0.0
    for line_no, row in tables.get("gen", []):
        if len(row) < 9:
            raise CaseParseError("gen row too short", line_no, "gen")
        gbus = _bus_id(row[0], line_no, "bus id")
        if gbus not in bus_ids:
            raise CaseParseError(f"unknown bus {gbus} in gen table", line_no, "gen")
        if _finite(row[7], line_no, "status") == 0:
            continue
        pmax = max(_finite(row[8], line_no, "Pmax"), 0.0) / base_mva
        total_gen_pu += pmax
        gens.append(Generator(id=len(gens) + 1, bus=gbus, p_max=pmax))

    # fallback cap for rateA <= 0 (MATPOWER convention: unlimited)
    unlimited_cap = max(total_gen_pu, 1.0)
    lines: list[Line] = []
    for line_no, row in tables["branch"]:
        if len(row) < 4:
            raise CaseParseError("branch row too short", line_no, "branch")
        fbus = _bus_id(row[0], line_no, "bus id")
        tbus = _bus_id(row[1], line_no, "bus id")
        if fbus not in bus_ids:
            raise CaseParseError(f"unknown bus {fbus} in branch table", line_no, "branch")
        if tbus not in bus_ids:
            raise CaseParseError(f"unknown bus {tbus} in branch table", line_no, "branch")
        status = _finite(row[10], line_no, "status") if len(row) > 10 else 1.0
        if status == 0:
            continue
        if fbus == tbus:
            raise CaseParseError(f"branch joins bus {fbus} to itself", line_no, "branch")
        x = _finite(row[3], line_no, "x")
        if x == 0:
            raise CaseParseError("zero reactance", line_no, "x")
        rate_a = _finite(row[5], line_no, "rateA") if len(row) > 5 else 0.0
        limit = rate_a / base_mva if rate_a > 0 else unlimited_cap
        angmin = _finite(row[11], line_no, "angmin") if len(row) > 11 else 0.0
        angmax = _finite(row[12], line_no, "angmax") if len(row) > 12 else 0.0
        adm = _angle_diff_max(angmin, angmax)
        lines.append(Line(id=len(lines) + 1, from_bus=fbus, to_bus=tbus,
                          susceptance_b=-1.0 / x, thermal_limit=limit,
                          angle_diff_max=adm))

    return Network(buses=tuple(buses), lines=tuple(lines),
                   generators=tuple(gens), loads=tuple(loads), base_mva=base_mva)


def _angle_diff_max(angmin_deg: float, angmax_deg: float) -> float:
    """Angle limit in radians, defaulting when case data is degenerate."""
    if angmin_deg == 0 and angmax_deg == 0:
        return DEFAULT_ANGLE_DIFF_MAX
    if angmin_deg <= -360 or angmax_deg >= 360:
        return DEFAULT_ANGLE_DIFF_MAX
    adm = max(abs(angmin_deg), abs(angmax_deg)) * math.pi / 180.0
    return adm if adm > 0 else DEFAULT_ANGLE_DIFF_MAX
