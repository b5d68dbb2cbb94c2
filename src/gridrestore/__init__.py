"""Restoration prioritization toolkit for damaged transmission grids.

Builds DC power flow models of a partially damaged grid, solves them with
an internal LP/MILP engine, and orders line repairs to maximize the energy
served over the restoration horizon.
"""

from .network import (Bus, CaseParseError, DamageScenario, Generator, Line,
                      Load, Network, PeriodSchedule, RestorationPlan,
                      build_schedule, parse_case, random_damage)
from .lp import Constraint, LinearProgram, LpSolution, Variable, solve_lp, write_mps
from .milp import (MipSolution, MixedIntegerProgram, SolveOptions, solve_external,
                   solve_mip)
from .models import (PlanExtractionError, PowerServedSeries, RopArtifacts,
                     build_rop, evaluate_plan, extract_plan, plan_to_assignment)
from .heuristics import brute_force_optimal, rad, rrr, util_order
from .postprocess import (RestorationReport, build_report, island_metrics,
                          monotonize, total_energy)

__version__ = "0.1.0"

__all__ = [
    "Bus", "Line", "Generator", "Load", "Network", "DamageScenario",
    "PeriodSchedule", "RestorationPlan", "CaseParseError", "parse_case",
    "build_schedule", "random_damage", "Variable", "Constraint",
    "LinearProgram", "LpSolution", "solve_lp", "write_mps",
    "MixedIntegerProgram", "SolveOptions", "MipSolution", "solve_mip",
    "solve_external", "PowerServedSeries",
    "RopArtifacts", "PlanExtractionError", "build_rop",
    "evaluate_plan", "extract_plan", "plan_to_assignment", "util_order", "rrr", "rad", "brute_force_optimal", "monotonize",
    "island_metrics", "total_energy", "RestorationReport", "build_report",
]
