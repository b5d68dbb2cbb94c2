"""Restoration ordering algorithms: UTIL, RRR, RAD, and a brute-force oracle."""
from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass

from .milp import SolveOptions, solve_mip
from .models import (PlanExtractionError, build_rop, evaluate_plan, extract_plan)
from .network import (DamageScenario, Network, PeriodSchedule, RestorationPlan,
                      build_schedule)


@dataclass
class AlgoBudget:
    time_limit: float = 300.0
    rel_gap: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


@dataclass
class RadConfig:
    min_partition: int = 2
    max_partition: int = 5
    initial_time_fraction: float = 0.01
    stall_limit: int = 100
    growth_factor: float = 1.10
    adapt_threshold: float = 0.80

    def __post_init__(self):
        if not 2 <= self.min_partition <= self.max_partition:
            raise ValueError("need 2 <= min_partition <= max_partition")
        if not 0 < self.initial_time_fraction <= 1:
            raise ValueError("initial_time_fraction must be in (0, 1]")


@dataclass
class RrrStats:
    """Instrumentation for the recursive refinement: sub-solve accounting."""

    subsolves: int = 0
    max_binaries: int = 0
    fallback_util_splits: int = 0
    empty_first_returns: int = 0


@dataclass
class RadStats:
    iterations: int = 0
    accepted_blocks: int = 0
    time_doublings: int = 0
    size_growths: int = 0


def util_order(network: Network, damage: DamageScenario) -> RestorationPlan:
    """Largest-capacity-first ordering, one line per period.

    Ties break on (from_bus, to_bus, line id) ascending for determinism.
    """
    lines = [network.lines_by_id[lid] for lid in damage.damaged_lines]
    lines.sort(key=lambda l: (-l.thermal_limit, l.from_bus, l.to_bus, l.id))
    return RestorationPlan.from_lists([[l.id] for l in lines])


def _default_rop_solver(network, damage, schedule, opts) -> tuple:
    art = build_rop(network, damage, schedule)
    return art, solve_mip(art.program, opts)


def rrr(network: Network, damage: DamageScenario, budget: AlgoBudget,
        rop_solver=None, stats: RrrStats | None = None) -> RestorationPlan:
    """Recursive bisection of the damage set via two-period ordering MILPs.

    Each call splits its line set with a two-period ordering problem
    (budget: half the lines in period one), falling back to a
    capacity-ordered split when the MILP fails, and recursing on both
    halves until singletons remain. The sub-problem time limit is half
    the remaining wall-clock budget at each call. Output is fully
    ordered: one line per period.
    """
    solver = rop_solver or _default_rop_solver
    deadline = time.monotonic() + budget.time_limit
    st = stats if stats is not None else RrrStats()

    def recurse(line_ids: tuple[int, ...]) -> list[int]:
        if len(line_ids) <= 1:
            return list(line_ids)
        sub_damage = DamageScenario(tuple(sorted(line_ids)))
        schedule = build_schedule(len(line_ids), 2, 1.0)
        remaining = deadline - time.monotonic()
        st.subsolves += 1
        st.max_binaries = max(st.max_binaries, 2 * len(line_ids))
        solution = None
        if remaining > 0:
            opts = SolveOptions(time_limit=remaining / 2.0, rel_gap=budget.rel_gap)
            try:
                artifacts, solution = solver(network, sub_damage, schedule, opts)
            except PlanExtractionError:
                solution = None
        first: list[int]
        second: list[int]
        if solution is None or not solution.has_incumbent:
            # MILP failure: capacity-ordered split into halves
            st.fallback_util_splits += 1
            order = util_order(network, sub_damage).ordered_lines()
            half = math.ceil(len(order) / 2)
            first, second = order[:half], order[half:]
        else:
            try:
                split = extract_plan(artifacts, solution)
            except PlanExtractionError:
                st.fallback_util_splits += 1
                order = util_order(network, sub_damage).ordered_lines()
                half = math.ceil(len(order) / 2)
                first, second = order[:half], order[half:]
            else:
                first = sorted(split.periods[0])
                second = sorted(split.periods[1])
                if not first:
                    # nothing is urgent; any order works, use capacity order
                    st.empty_first_returns += 1
                    return util_order(network, sub_damage).ordered_lines()
        return recurse(tuple(first)) + recurse(tuple(second))

    order = recurse(tuple(sorted(damage.damaged_lines)))
    return RestorationPlan.from_lists([[lid] for lid in order])


def _subnetwork_without(network: Network, removed: set[int]) -> Network:
    if not removed:
        return network
    return Network(buses=network.buses,
                   lines=tuple(l for l in network.lines if l.id not in removed),
                   generators=network.generators, loads=network.loads,
                   base_mva=network.base_mva)


def _block_energy(network: Network, removed_after: set[int],
                  block_order: list[int], memo: dict) -> float:
    """Energy served over the block's periods with post-block lines absent."""
    sub = _subnetwork_without(network, removed_after)
    dmg = DamageScenario(tuple(sorted(block_order)))
    sched = build_schedule(len(block_order), len(block_order), 1.0)
    plan = RestorationPlan.from_lists([[lid] for lid in block_order])
    series = evaluate_plan(sub, dmg, plan, sched, memo=memo)
    return sum(d * dt for d, dt in zip(series.delivered, series.durations))


def rad(network: Network, damage: DamageScenario, budget: AlgoBudget,
        config: RadConfig | None = None, initial: RestorationPlan | None = None,
        rop_solver=None, stats: RadStats | None = None) -> RestorationPlan:
    """Randomized adaptive decomposition of a fully-ordered plan.

    Repeatedly partitions the current ordering into contiguous random
    blocks, re-optimizes each block with an ordering MILP under the
    block's boundary conditions, and accepts a re-ordering only when it
    improves the block's served energy. Sub-problem time limits and the
    maximum block size adapt when most blocks stop improving.
    """
    config = config or RadConfig()
    solver = rop_solver or _default_rop_solver
    st = stats if stats is not None else RadStats()
    initial_plan = initial or util_order(network, damage)
    initial_plan.validate_against(damage)
    order = initial_plan.ordered_lines()
    n = len(order)
    if n <= 1:
        return initial_plan

    rng = random.Random(budget.seed)
    deadline = time.monotonic() + budget.time_limit
    sub_time = max(config.initial_time_fraction * budget.time_limit, 1e-3)
    s_lo = config.min_partition
    s_hi = float(config.max_partition)
    s_cap = max(n // 2, s_lo)
    stall = 0
    # one evaluation memo for the whole call. A period LP depends only on
    # the buses, generators, loads and energized lines, and
    # _subnetwork_without changes none of these for the lines that stay
    # energized, so block and full-network evaluations share entries.
    memo: dict = {}

    while stall < config.stall_limit and time.monotonic() < deadline:
        st.iterations += 1
        # contiguous random partition of the current ordering
        cuts = []
        pos = 0
        while pos < n:
            size = rng.randint(s_lo, max(s_lo, int(s_hi)))
            cuts.append((pos, min(pos + size, n)))
            pos += size
        improved = False
        n_blocks = n_fail = n_hit = 0
        for a, b in cuts:
            if time.monotonic() >= deadline:
                break
            block = order[a:b]
            if len(block) < 2:
                continue
            n_blocks += 1
            removed_after = set(order[b:])
            cur_energy = _block_energy(network, removed_after, block, memo)
            sub = _subnetwork_without(network, removed_after)
            dmg = DamageScenario(tuple(sorted(block)))
            sched = build_schedule(len(block), len(block), 1.0)
            opts = SolveOptions(time_limit=sub_time, rel_gap=budget.rel_gap)
            try:
                artifacts, solution = solver(sub, dmg, sched, opts)
            except PlanExtractionError:
                solution = None
            hit_limit = solution is None or solution.status in ("feasible_time_limit", "failure")
            if hit_limit:
                n_hit += 1
            accepted = False
            if solution is not None and solution.has_incumbent:
                try:
                    new_order = extract_plan(artifacts, solution).ordered_lines()
                except PlanExtractionError:
                    new_order = None
                if new_order is not None:
                    new_energy = _block_energy(network, removed_after, new_order, memo)
                    if new_energy > cur_energy + 1e-9 * max(1.0, abs(cur_energy)):
                        order[a:b] = new_order
                        accepted = True
                        improved = True
                        st.accepted_blocks += 1
            if not accepted:
                n_fail += 1
        if improved:
            stall = 0
        else:
            stall += 1
        if n_blocks > 0 and n_fail >= config.adapt_threshold * n_blocks:
            if n_hit >= config.adapt_threshold * n_blocks:
                sub_time *= 2.0
                st.time_doublings += 1
            else:
                s_hi = min(math.ceil(config.growth_factor * s_hi), s_cap)
                s_hi = max(float(s_hi), float(s_lo))
                st.size_growths += 1

    final = RestorationPlan.from_lists([[lid] for lid in order])
    # safeguard: never return a plan worse (post-processed) than the initial
    from .postprocess import monotonize, total_energy

    sched_full = build_schedule(n, initial_plan.n_periods, 1.0)
    try:
        init_series = evaluate_plan(network, damage, initial_plan, sched_full, memo=memo)
        fin_series = evaluate_plan(network, damage, final,
                                   build_schedule(n, final.n_periods, 1.0), memo=memo)
        init_e = total_energy(monotonize(init_series, initial_plan)[0])
        fin_e = total_energy(monotonize(fin_series, final)[0])
        if fin_e < init_e - 1e-9:
            return initial_plan
    except RuntimeError:
        pass
    return final


def brute_force_optimal(network: Network, damage: DamageScenario,
                        schedule: PeriodSchedule) -> tuple[RestorationPlan, float]:
    """Enumerate all orderings, bucket by the schedule, pick the best.

    Each permutation is bucketed so that the cumulative restoration count
    in period k equals the schedule's budget R_k, evaluated, post-processed,
    and scored by total energy. Ties break lexicographically on the
    post-processed plan. Guarded to at most 7 damaged lines.
    """
    from .postprocess import monotonize, total_energy

    n = len(damage.damaged_lines)
    if n > 7:
        raise ValueError("brute force limited to 7 damaged lines")
    if schedule.repair_budget[-1] != n:
        raise ValueError("schedule final repair budget must equal the damage count")

    best_energy = None
    best_plan = None
    best_key = None
    seen: set = set()
    memo: dict = {}  # energized line set -> period result, this network only
    for perm in itertools.permutations(sorted(damage.damaged_lines)):
        periods = []
        prev = 0
        for k in range(schedule.n_periods):
            rk = schedule.repair_budget[k]
            periods.append(perm[prev:rk])
            prev = rk
        key0 = tuple(tuple(sorted(p)) for p in periods)
        if key0 in seen:
            continue  # lumped schedules map many permutations to one plan
        seen.add(key0)
        plan = RestorationPlan.from_lists(periods)
        series = evaluate_plan(network, damage, plan, schedule, memo=memo)
        mono_series, mono_plan = monotonize(series, plan)
        energy = total_energy(mono_series)
        key = tuple(tuple(sorted(p)) for p in mono_plan.periods)
        if best_energy is None or energy > best_energy + 1e-9 or (
                abs(energy - best_energy) <= 1e-9 and key < best_key):
            best_energy = energy
            best_plan = mono_plan
            best_key = key
    return best_plan, best_energy
