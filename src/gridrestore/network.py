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
    name: str = ""


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
    """A set of damaged lines plus the metadata that generated it."""

    damaged_lines: tuple[int, ...]
    seed: int = 0
    fraction: float = 0.0

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
    """
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
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
    return DamageScenario(tuple(chosen), seed=seed, fraction=fraction)


# ---------------------------------------------------------------------------
# MATPOWER-subset case parsing
# ---------------------------------------------------------------------------

_ASSIGN_SCALAR = re.compile(r"mpc\.(\w+)\s*=\s*([^;\[\]'\s]+)\s*;")
_ASSIGN_MATRIX = re.compile(r"mpc\.(\w+)\s*=\s*\[")


def _strip_comment(line: str) -> str:
    pos = line.find("%")
    return line if pos < 0 else line[:pos]


def _parse_row(text: str, line_no: int, table: str) -> list[float]:
    vals = []
    for tok in text.replace(";", " ").split():
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


def parse_case(text: str) -> Network:
    """Parse a MATPOWER-format case file (``.m`` subset) into a Network.

    Supported: ``mpc.baseMVA`` plus the ``mpc.bus``, ``mpc.gen`` and
    ``mpc.branch`` matrices with whitespace-separated numeric rows and
    ``%`` comments. AC parameters, areas, gencost etc. are parsed over
    and ignored. Branch rows with status 0 are dropped; reactance is
    converted to susceptance b = -1/x; rateA is converted to per-unit.
    Every number read (baseMVA, bus id, Pd, Pmax, x, rateA, status,
    angmin, angmax) must be finite.
    """
    base_mva = 100.0
    tables: dict[str, list[tuple[int, list[float]]]] = {}
    current: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if current is not None:
            if line.startswith("]"):
                current = None
                continue
            row = line
            closed = False
            if "]" in row:
                row = row.split("]")[0]
                closed = True
            if row.strip():
                tables[current].append((line_no, _parse_row(row, line_no, current)))
            if closed:
                current = None
            continue
        m = _ASSIGN_SCALAR.match(line)
        if m and m.group(1) == "baseMVA":
            value = _parse_row(m.group(2), line_no, "baseMVA")[0]
            base_mva = _finite(value, line_no, "baseMVA")
            if base_mva <= 0:
                raise CaseParseError("baseMVA must be positive", line_no, "baseMVA")
            continue
        m = _ASSIGN_MATRIX.match(line)
        if m:
            name = m.group(1)
            if name in ("bus", "gen", "branch"):
                current = name
                tables.setdefault(name, [])
                rest = line[m.end():]
                if rest.strip() and not rest.strip().startswith("]"):
                    row = rest.split("]")[0]
                    if row.strip():
                        tables[name].append((line_no, _parse_row(row, line_no, name)))
                    if "]" not in rest:
                        continue
                    current = None
                elif "]" in rest:
                    current = None
            continue
    if "bus" not in tables or not tables["bus"]:
        raise CaseParseError("missing or empty bus table", field="bus")
    if "branch" not in tables:
        raise CaseParseError("missing branch table", field="branch")

    buses: list[Bus] = []
    loads: list[Load] = []
    bus_ids: set[int] = set()
    for line_no, row in tables["bus"]:
        if len(row) < 3:
            raise CaseParseError("bus row too short", line_no, "bus")
        bid = int(_finite(row[0], line_no, "bus id"))
        if bid in bus_ids:
            raise CaseParseError(f"duplicate bus id {bid}", line_no, "bus")
        bus_ids.add(bid)
        buses.append(Bus(id=bid, name=f"bus{bid}"))
        pd = _finite(row[2], line_no, "Pd")
        if pd > 0:
            loads.append(Load(id=len(loads) + 1, bus=bid, p_demand=pd / base_mva))

    gens: list[Generator] = []
    total_gen_pu = 0.0
    for line_no, row in tables.get("gen", []):
        if len(row) < 9:
            raise CaseParseError("gen row too short", line_no, "gen")
        gbus = int(_finite(row[0], line_no, "bus id"))
        if gbus not in bus_ids:
            raise CaseParseError(f"unknown bus {gbus} in gen table", line_no, "gen")
        pmax = max(_finite(row[8], line_no, "Pmax"), 0.0) / base_mva
        total_gen_pu += pmax
        gens.append(Generator(id=len(gens) + 1, bus=gbus, p_max=pmax))

    # fallback cap for rateA <= 0 (MATPOWER convention: unlimited)
    unlimited_cap = max(total_gen_pu, 1.0)
    lines: list[Line] = []
    for line_no, row in tables["branch"]:
        if len(row) < 4:
            raise CaseParseError("branch row too short", line_no, "branch")
        fbus = int(_finite(row[0], line_no, "bus id"))
        tbus = int(_finite(row[1], line_no, "bus id"))
        if fbus not in bus_ids:
            raise CaseParseError(f"unknown bus {fbus} in branch table", line_no, "branch")
        if tbus not in bus_ids:
            raise CaseParseError(f"unknown bus {tbus} in branch table", line_no, "branch")
        status = _finite(row[10], line_no, "status") if len(row) > 10 else 1.0
        if status == 0:
            continue
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
