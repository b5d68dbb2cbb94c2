"""Post-processing of restoration runs: monotone smoothing, island metrics,
energy scoring and CSV report emission."""
from __future__ import annotations

import io
import csv
from dataclasses import dataclass

from .graph import Islands
from .models import PowerServedSeries, energized_lines
from .network import DamageScenario, Network, RestorationPlan

DIP_TOL = 1e-9


def monotonize(series: PowerServedSeries,
               plan: RestorationPlan) -> tuple[PowerServedSeries, RestorationPlan]:
    """Make delivered power nondecreasing and re-bucket dip restorations.

    Delivered power in each period becomes the running maximum. Any run
    of periods whose raw value falls below that maximum is a dip: the
    restorations scheduled in those periods are deferred to the first
    following non-dip period, leaving the dip periods empty. A trailing
    dip run folds into the final period.
    """
    if series.n_periods != plan.n_periods:
        raise ValueError("series and plan must have equal length")
    n = series.n_periods
    best = float("-inf")
    delivered = []
    new_periods: list[set[int]] = []
    carry: set[int] = set()
    for k in range(n):
        raw = series.delivered[k]
        if k == 0 or raw >= best - DIP_TOL:
            best = max(best, raw)
            new_periods.append(set(plan.periods[k]) | carry)
            carry = set()
        else:
            # dip: defer this period's restorations
            carry |= set(plan.periods[k])
            new_periods.append(set())
        delivered.append(best)
    if carry:
        new_periods[-1] |= carry
    out_series = PowerServedSeries(tuple(delivered), series.durations)
    return out_series, RestorationPlan.from_lists(new_periods)


def total_energy(series: PowerServedSeries) -> float:
    return sum(d * dt for d, dt in zip(series.delivered, series.durations))


def island_metrics(network: Network, damage: DamageScenario,
                   plan: RestorationPlan) -> list[tuple[int, int]]:
    """Per-period (island count, largest island size) of the energized
    graph: one union-find (``Islands``) over the undamaged lines, extended
    by each period's restored lines."""
    islands = Islands(network).add(energized_lines(network, damage, plan, 0))
    out = []
    for restored in plan.periods:
        islands.add(restored)
        out.append((islands.count, islands.largest))
    return out


@dataclass
class RestorationReport:
    """Per-period restoration trajectory ready for CSV emission."""

    plan: RestorationPlan
    series: PowerServedSeries
    islands: list[tuple[int, int]]
    wall_time: float | None = None

    @property
    def total_energy(self) -> float:
        return total_energy(self.series)

    def rows(self) -> list[dict]:
        out = []
        cum = 0.0
        for k in range(self.plan.n_periods):
            cum += self.series.delivered[k] * self.series.durations[k]
            out.append({
                "period": k + 1,
                "delivered_pu": f"{self.series.delivered[k]:.12f}",
                "cumulative_energy_pu": f"{cum:.12f}",
                "island_count": self.islands[k][0],
                "largest_island": self.islands[k][1],
                "restored_line_ids": ";".join(str(i) for i in sorted(self.plan.periods[k])),
            })
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=[
            "period", "delivered_pu", "cumulative_energy_pu",
            "island_count", "largest_island", "restored_line_ids"])
        writer.writeheader()
        for row in self.rows():
            writer.writerow(row)
        return buf.getvalue()


def build_report(network: Network, damage: DamageScenario, plan: RestorationPlan,
                 series: PowerServedSeries) -> RestorationReport:
    """Monotonized report for a raw evaluation series."""
    mono_series, mono_plan = monotonize(series, plan)
    islands = island_metrics(network, damage, mono_plan)
    return RestorationReport(plan=mono_plan, series=mono_series, islands=islands)
