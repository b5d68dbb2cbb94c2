"""Post-processing of restoration runs: monotone smoothing, island metrics,
energy scoring and CSV report emission."""
from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass

import numpy as np

from .graph import Islands
from .models import PowerServedSeries, energized_lines, total_energy
from .network import DamageScenario, Network, RestorationPlan

DIP_TOL = 1e-9


def monotonize(series: PowerServedSeries,
               plan: RestorationPlan) -> tuple[PowerServedSeries, RestorationPlan]:
    """Make delivered power nondecreasing and re-bucket dip restorations.

    Delivered power in each period becomes the running maximum. A period
    whose raw value falls more than ``DIP_TOL`` below the maximum before
    it is a dip: the restorations scheduled in a run of dips are deferred
    to the first following non-dip period, leaving the dip periods empty.
    A trailing dip run folds into the final period.
    """
    if series.n_periods != plan.n_periods:
        raise ValueError("series and plan must have equal length")
    delivered = tuple(itertools.accumulate(series.delivered, max))
    new_periods: list[set[int]] = []
    carry: set[int] = set()
    for k, restored in enumerate(plan.periods):
        carry |= restored
        if k in (0, plan.n_periods - 1) or series.delivered[k] >= delivered[k - 1] - DIP_TOL:
            new_periods.append(carry)
            carry = set()
        else:
            new_periods.append(set())  # dip: defer this period's restorations
    return (PowerServedSeries(delivered, series.durations),
            RestorationPlan.from_lists(new_periods))


def served_energy(delivered, durations):
    """Reported energy of raw power: the running maximum times the durations,
    summed left to right along the last axis, which is ``total_energy`` of
    the ``monotonize``d series bit for bit. Takes one series (gives a float)
    or a table of them, one per row (gives a list)."""
    held = np.maximum.accumulate(delivered, axis=-1) * durations
    return np.cumsum(held, axis=-1)[..., -1].tolist()


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
