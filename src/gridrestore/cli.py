"""Command-line front end: single solves, algorithm comparisons, and sweeps.

A run builds one schedule (``--n-periods``, by default one period per
damaged line) and one budget (``SolveOptions``: ``--time-limit`` and
``--rel-gap``) for every algorithm: ``rop`` and ``oracle`` order the lines
over the schedule, and the orderings of ``util``, ``rrr`` and ``rad`` are
bucketed by it (``PeriodSchedule.bucket``). ``compare`` and ``sweep`` map
each run to one result row the same way.

Exit codes: 0 success, 1 usage or case parse error, 2 infeasible model,
3 solver failure (no plan). A plan evaluation LP, or the final-period LP
of the ``rop`` ordering MILP, that ends ``infeasible`` exits 2; one that ends
otherwise not optimal (iteration limit, numerical failure) exits 3. One
memo per solve serves the ordering MILPs of ``rop``, ``rrr`` and ``rad``,
the scoring of ``rop``'s warm start, the enumeration of ``oracle`` and the
evaluation, so the final evaluation re-solves no topology the algorithm
solved.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

from .heuristics import brute_force_optimal, rad, rrr, util_order
from .milp import SolveOptions, solve_external, solve_mip
from .models import (PlanEvaluationError, build_rop, evaluate_plan, extract_plan,
                     scored_warm_start)
from .network import (CaseParseError, DamageScenario, Network, PeriodSchedule,
                      RestorationPlan, build_schedule, parse_case, random_damage)
from .postprocess import DIP_TOL, RestorationReport, build_report

BACKEND_ENV = "GRIDRESTORE_BACKEND_CMD"
ALGORITHMS = ("util", "rrr", "rad", "rop", "oracle")

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_SOLVER = 3


class CliError(Exception):
    """An error that ends a command with exit code ``code``; ``str(e)`` is the
    message. Both survive pickling, as a sweep worker's error must."""

    def __init__(self, message: str, code: int):
        super().__init__(message, code)
        self.code = code

    def __str__(self) -> str:
        return self.args[0]


@dataclass
class RunConfig:
    case: str
    algorithm: str
    damage_fraction: float | None = None
    damage_lines: tuple[int, ...] | None = None
    seed: int = 0
    time_limit: float = 300.0
    rel_gap: float = 0.01
    n_periods: int | None = None  # default: one period per damaged line
    output_dir: str = "."
    backend_cmd: str | None = None
    record_timing: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if (self.damage_fraction is None) == (self.damage_lines is None):
            raise ValueError("exactly one of damage_fraction or damage_lines required")
        SolveOptions(self.time_limit, self.rel_gap)  # checks the budget
        if self.n_periods is not None and self.n_periods < 1:
            raise ValueError("number of periods must be at least 1")
        # the one place an empty --backend-cmd falls back to the environment
        self.backend_cmd = self.backend_cmd or os.environ.get(BACKEND_ENV)


def _read_case(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as e:
        raise CliError(f"cannot read case file: {e}", EXIT_PARSE)


def _load_network(path: str) -> Network:
    text = _read_case(path)
    try:
        return parse_case(text)
    except CaseParseError as e:
        raise CliError(f"parse error in {path}: {e}", EXIT_PARSE)


def _make_damage(network: Network, config: RunConfig) -> DamageScenario:
    try:
        if config.damage_lines is None:
            return random_damage(network, config.damage_fraction, config.seed)
        dmg = DamageScenario(tuple(sorted(config.damage_lines)))
        dmg.validate(network)
        return dmg
    except ValueError as e:
        raise CliError(str(e), EXIT_PARSE)


def _mip_solver(config: RunConfig):
    if config.backend_cmd:
        return lambda prog, opts: solve_external(prog, opts, config.backend_cmd)
    return solve_mip


def run_algorithm(network: Network, damage: DamageScenario, schedule: PeriodSchedule,
                  config: RunConfig,
                  memo: dict | None = None) -> tuple[RestorationPlan, float | None]:
    """Run the configured algorithm over ``schedule``; returns (plan, gap or None)."""
    opts = SolveOptions(time_limit=config.time_limit, rel_gap=config.rel_gap)
    mip_solver = _mip_solver(config)
    rop_solver = lambda art, opts: mip_solver(art.program, opts)

    if config.algorithm == "oracle":
        try:
            plan, _ = brute_force_optimal(network, damage, schedule, memo)
        except ValueError as e:
            raise CliError(str(e), EXIT_SOLVER)
        return plan, None
    if config.algorithm != "rop":
        if config.algorithm == "util":
            order = util_order(network, damage)
        elif config.algorithm == "rrr":
            order = rrr(network, damage, opts, rop_solver=rop_solver, memo=memo)
        else:
            order = rad(network, damage, opts, rop_solver=rop_solver, memo=memo,
                        seed=config.seed)
        return schedule.bucket(order.ordered_lines()), None
    # rop: the ordering MILP over the schedule, warm-started from util's order,
    # scored from its period LPs on the memo; the external backend takes no
    # warm start
    art = build_rop(network, damage, schedule, memo=memo)
    start = None if config.backend_cmd else scored_warm_start(
        art, util_order(network, damage), memo)
    if start is not None:
        art.program.warm_start, art.program.warm_start_objective = start
    sol = mip_solver(art.program, opts)
    if sol.status == "infeasible":
        raise CliError("restoration ordering model is infeasible", EXIT_INFEASIBLE)
    if not sol.has_incumbent:
        raise CliError("solver failed with no incumbent plan", EXIT_SOLVER)
    try:
        plan = extract_plan(art, sol)
    except ValueError as e:
        raise CliError(f"cannot extract plan: {e}", EXIT_SOLVER)
    # an unproven bound has an infinite gap, reported as unknown (null)
    return plan, sol.gap if math.isfinite(sol.gap) else None


def solve_to_report(config: RunConfig) -> tuple[RestorationReport, float | None, dict]:
    network = _load_network(config.case)
    damage = _make_damage(network, config)
    n = len(damage.damaged_lines)
    schedule = build_schedule(n, config.n_periods or max(n, 1))
    t0 = time.monotonic()
    memo: dict = {}  # period LPs shared by the ordering MILPs and the evaluation
    try:
        plan, gap = run_algorithm(network, damage, schedule, config, memo)
        series = evaluate_plan(network, damage, plan, schedule, memo=memo)
    except PlanEvaluationError as e:
        code = EXIT_INFEASIBLE if e.status == "infeasible" else EXIT_SOLVER
        raise CliError(f"plan evaluation failed: {e}", code)
    wall = time.monotonic() - t0
    report = build_report(network, damage, plan, series)
    report.wall_time = wall if config.record_timing else None
    summary = {
        "algorithm": config.algorithm,
        "case": config.case,
        "seed": config.seed,
        "damaged_lines": sorted(damage.damaged_lines),
        "total_energy_pu": report.total_energy,
        "gap": gap,
        "wall_time_s": report.wall_time,
        "plan": [sorted(p) for p in report.plan.periods],
    }
    return report, gap, summary


def cmd_solve(config: RunConfig) -> int:
    report, _, summary = solve_to_report(config)
    os.makedirs(config.output_dir, exist_ok=True)
    _atomic_write(os.path.join(config.output_dir, "report.csv"), report.to_csv())
    text = json.dumps(summary, indent=2, sort_keys=True)
    _atomic_write(os.path.join(config.output_dir, "summary.json"), text + "\n")
    print(text)
    return EXIT_OK


def _result(config: RunConfig) -> dict:
    """One run's energy, time, gap and status; a usage or parse error
    (``EXIT_PARSE``) ends the command, any other error fails the run."""
    try:
        report, gap, _ = solve_to_report(config)
    except CliError as e:
        if e.code == EXIT_PARSE:
            raise
        return {"energy": None, "time": None, "gap": None, "status": f"failed({e.code})"}
    return {"energy": report.total_energy, "time": report.wall_time, "gap": gap,
            "status": "ok"}


def _write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    """``rows`` as CSV with the columns ``fieldnames``; other keys are left out."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fieldnames, extrasaction="ignore")
    w.writeheader()
    w.writerows(rows)
    _atomic_write(path, buf.getvalue())


def cmd_compare(base: RunConfig, algorithms: list[str]) -> int:
    if len(algorithms) < 2:
        raise CliError("compare needs at least 2 algorithms", EXIT_PARSE)
    rows = [{"algorithm": algo, **_result(replace(base, algorithm=algo))}
            for algo in algorithms]
    best = max((r["energy"] for r in rows if r["energy"] is not None), default=None)
    # two runs may score one plan apart in its last bits (their memos differ)
    tol = DIP_TOL * max(1.0, abs(best or 0.0))
    for r in rows:
        r["best"] = r["energy"] is not None and best is not None and r["energy"] >= best - tol
        r["within_1pct"] = (r["energy"] is not None and best is not None
                            and r["energy"] >= 0.99 * best - tol)
    os.makedirs(base.output_dir, exist_ok=True)
    _write_csv(os.path.join(base.output_dir, "compare.csv"),
               ["algorithm", "energy", "time", "gap", "status", "best", "within_1pct"], rows)
    print(f"{'algorithm':<10} {'energy':>14} {'time':>8} {'flags'}")
    for r in rows:
        e = "-" if r["energy"] is None else f"{r['energy']:.6f}"
        t = "-" if r["time"] is None else f"{r['time']:.2f}"
        flags = ("*" if r["best"] else "") + ("~" if r["within_1pct"] and not r["best"] else "")
        if r["status"] != "ok":
            flags = r["status"]
        print(f"{r['algorithm']:<10} {e:>14} {t:>8} {flags}")
    return EXIT_OK


# RunConfig fields that vary per cell (in the cell name) or never reach a cell
_PER_CELL_FIELDS = ("algorithm", "damage_fraction", "damage_lines", "seed", "output_dir")


def _config_key(base: RunConfig, case_text: str) -> str:
    """Short hash of the case text and every run setting shared by all cells.

    Fields are excluded by name, so a RunConfig field added later keys the
    cache by default.
    """
    import hashlib  # loads OpenSSL: ~3.5 MB of RSS that solve never needs

    shared = {k: v for k, v in base.__dict__.items() if k not in _PER_CELL_FIELDS}
    blob = json.dumps([case_text, shared], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _cell_name(config: RunConfig, key: str) -> str:
    # repr: the shortest text that reads back as the same float
    return (f"cell_f{config.damage_fraction!r}_s{config.seed}_{config.algorithm}"
            f"_{key}.json")


def _run_cell(config: RunConfig) -> dict:
    return {"case": config.case, "fraction": config.damage_fraction, "seed": config.seed,
            "algorithm": config.algorithm, **_result(config)}


def cmd_sweep(base: RunConfig, fractions: list[float], seeds: list[int],
              algorithms: list[str], workers: int | None = None) -> int:
    if not fractions or not seeds or not algorithms:
        raise CliError("sweep needs nonempty fractions, seeds and algorithms",
                       EXIT_PARSE)
    # a parse error or a bad fraction ends the sweep before any cell runs
    network = _load_network(base.case)
    for f in fractions:
        _make_damage(network, replace(base, damage_fraction=f))
    key = _config_key(base, _read_case(base.case))
    cell_dir = os.path.join(base.output_dir, "cells")
    os.makedirs(cell_dir, exist_ok=True)
    grid = [replace(base, algorithm=a, damage_fraction=f, seed=s)
            for f in fractions for s in seeds for a in algorithms]
    paths = [os.path.join(cell_dir, _cell_name(c, key)) for c in grid]
    pending = [c for c, p in zip(grid, paths) if not os.path.exists(p)]
    if pending:
        workers = workers or os.cpu_count() or 1
        if workers > 1 and len(pending) > 1:
            from concurrent.futures import ProcessPoolExecutor  # sweep alone needs it

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_cell, pending))
        else:
            results = [_run_cell(c) for c in pending]
        for config, cell in zip(pending, results):
            _atomic_write(os.path.join(cell_dir, _cell_name(config, key)),
                          json.dumps(cell, sort_keys=True) + "\n")
    rows = []
    for path in paths:
        with open(path) as fh:
            rows.append(json.load(fh))
    _write_csv(os.path.join(base.output_dir, "sweep.csv"),
               ["case", "fraction", "seed", "algorithm", "energy", "time", "gap"], rows)
    print(f"sweep complete: {len(rows)} cells ({len(pending)} computed, "
          f"{len(rows) - len(pending)} cached)")
    return EXIT_OK


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as f:
        f.write(text)
    os.replace(tmp, path)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", required=True, help="MATPOWER-subset case file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-limit", type=float, default=300.0)
    p.add_argument("--rel-gap", type=float, default=0.01)
    p.add_argument("--n-periods", type=int, default=None,
                   help="restoration periods (default: one per damaged line)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--backend-cmd", default=None,
                   help=f"external solver command template (or ${BACKEND_ENV})")
    p.add_argument("--record-timing", action="store_true",
                   help="include wall time in outputs (off by default so "
                        "repeated runs are byte-identical)")


def _add_damage(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--damage-fraction", type=float, default=None)
    g.add_argument("--damage-lines", type=int, nargs="+", default=None)


def _base_config(args, algorithm: str) -> RunConfig:
    try:
        return RunConfig(
            case=args.case, algorithm=algorithm, damage_fraction=args.damage_fraction,
            damage_lines=tuple(args.damage_lines) if args.damage_lines else None,
            seed=args.seed, time_limit=args.time_limit, rel_gap=args.rel_gap,
            n_periods=args.n_periods, output_dir=args.out,
            backend_cmd=args.backend_cmd, record_timing=args.record_timing)
    except ValueError as e:
        raise CliError(str(e), EXIT_PARSE)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit ``EXIT_PARSE``, not
    argparse's 2, which here means an infeasible model."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}", EXIT_PARSE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridrestore",
                     description="Transmission grid restoration prioritization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one algorithm on one scenario")
    _add_common(p)
    _add_damage(p)
    p.add_argument("--algo", required=True, choices=ALGORITHMS)

    p = sub.add_parser("compare", help="run several algorithms on one scenario")
    _add_common(p)
    _add_damage(p)
    p.add_argument("--algos", required=True, nargs="+", choices=ALGORITHMS)

    p = sub.add_parser("sweep", help="full factorial fraction x seed x algorithm")
    _add_common(p)
    p.add_argument("--fractions", required=True, type=float, nargs="+")
    p.add_argument("--seeds", required=True, type=int, nargs="+")
    p.add_argument("--algos", required=True, nargs="+", choices=ALGORITHMS)
    p.add_argument("--workers", type=int, default=None)
    # sweep has no per-run damage flags; cells fill in their own fractions
    p.set_defaults(damage_fraction=1.0, damage_lines=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "solve":
            return cmd_solve(_base_config(args, args.algo))
        if args.command == "compare":
            return cmd_compare(_base_config(args, args.algos[0]), args.algos)
        if args.command == "sweep":
            base = _base_config(args, args.algos[0])
            return cmd_sweep(base, args.fractions, args.seeds, args.algos,
                             args.workers)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
