"""The benchmark's workloads and the case files each one solves.

Every workload is a closed loop: one process solves its instances one
after another, each through ``gridrestore solve`` with
``--damage-fraction 0.25`` and ``--seed`` equal to the instance seed. The
time limit is far above any solve's time, so the work done never depends
on the clock; the output check fails a run in which it binds.

Instances form a fixed ladder per workload. ``instance_offset`` shifts
every instance seed, which gives fresh grids to re-check a gain on. The
benchmark's ``--seed`` only renumbers the buses of each case (see
``meshgen``): it changes the text the parser reads, not the work. Instance
cost varies too much for a random draw of a few instances to be steady: on
a 2-core x86 VM with one BLAS thread, solve times of ``rop`` on meshed
14-bus grids range over 0.2-57 s across instance seeds 1-16, and of ``rrr``
on meshed 30-bus grids over 4-17 s across seeds 1-8. The ladders keep one
pass near 8 s on that machine, so that three passes fit in a 30 s run.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass

from meshgen import meshed_case

DAMAGE_FRACTION = 0.25
TIME_LIMIT_S = 600.0


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str
    n_buses: int
    instance_seeds: tuple[int, ...]
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "rrr-mesh30", "rrr", 30, (2, 8),
        "rrr on meshed 30-bus grids, 11 damaged lines: B&B over two-period "
        "sub-MILPs plus one 11-period RIP of ~760 rows per instance; no "
        "period topology repeats"),
    Workload(
        "rop-mesh14", "rop", 14, (3, 4, 5, 6, 7),
        "exact rop MILP warm-started from util on meshed 14-bus grids, 5 "
        "damaged lines: B&B nodes are multi-period LPs; evaluation is ~2%"),
    Workload(
        "oracle-mesh14", "oracle", 14, (1, 2),
        "oracle enumeration on meshed 14-bus grids, no MILP: ~120 "
        "evaluate_plan calls per instance, 95% of period topologies repeat"),
)}


@dataclass(frozen=True)
class Instance:
    name: str
    seed: int
    case_path: str


def bus_ids(n_buses: int, bench_seed: int, instance_seed: int) -> list[int]:
    """Increasing bus ids drawn from the benchmark seed."""
    rng = random.Random(bench_seed * 1_000_003 + instance_seed)
    return sorted(rng.sample(range(1, 100 * n_buses), n_buses))


def write_cases(workload: Workload, bench_seed: int, instance_offset: int,
                directory: str) -> list[Instance]:
    """Generate the workload's cases into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    out = []
    for s in workload.instance_seeds:
        seed = s + instance_offset
        text = meshed_case(workload.n_buses, seed,
                           bus_ids(workload.n_buses, bench_seed, seed))
        path = os.path.join(directory, f"mesh{workload.n_buses}_s{seed}.m")
        with open(path, "w") as f:
            f.write(text)
        out.append(Instance(f"{workload.name}/s{seed}", seed, path))
    return out


def solve_argv(workload: Workload, inst: Instance, out_dir: str) -> list[str]:
    """Arguments of ``gridrestore`` for one solve of one instance."""
    return ["solve", "--case", inst.case_path, "--algo", workload.algo,
            "--damage-fraction", str(DAMAGE_FRACTION), "--seed", str(inst.seed),
            "--time-limit", str(TIME_LIMIT_S), "--out", out_dir]
