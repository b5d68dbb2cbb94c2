"""Restoration ordering algorithms: UTIL, RRR, RAD, and a brute-force oracle.

RRR and RAD repeat one step, ``_sub_solve``: re-order a set of damaged
lines with a small ordering MILP over the network with the later lines
out, its final period read from the run's one memo, and solved through
the ``rop_solver`` seam.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import replace

import numpy as np

from . import models
from .milp import MipSolution, SolveOptions, solve_mip
from .models import PlanEvaluationError, PlanExtractionError, evaluate_plan, extract_plan
from .network import (DamageScenario, Network, PeriodSchedule, RestorationPlan,
                      build_schedule)
from .postprocess import DIP_TOL, monotonize, served_energy


# rad's search settings, read at each call
MIN_PARTITION = 2  # block sizes are drawn from MIN_PARTITION..cap,
MAX_PARTITION = 5  # and the cap starts at MAX_PARTITION
INITIAL_TIME_FRACTION = 0.01  # first MILP time limit, as a share of the budget
STALL_LIMIT = 100  # stop after this many rounds in a row with no improved block
GROWTH_FACTOR = 1.10  # growth of the block-size cap
ADAPT_THRESHOLD = 0.80  # share of failed blocks that makes a round adapt


def util_order(network: Network, damage: DamageScenario) -> RestorationPlan:
    """Largest-capacity-first ordering, one line per period.

    Ties break on (from_bus, to_bus, line id) ascending for determinism.
    """
    lines = [network.lines_by_id[lid] for lid in damage.damaged_lines]
    lines.sort(key=lambda l: (-l.thermal_limit, l.from_bus, l.to_bus, l.id))
    return RestorationPlan.from_lists([[l.id] for l in lines])


def _default_rop_solver(artifacts, opts) -> MipSolution:
    return solve_mip(artifacts.program, opts)


def _sub_solve(solver, network: Network, line_ids, out: frozenset[int], memo: dict,
               n_periods: int, time_limit: float,
               opts: SolveOptions) -> tuple[RestorationPlan | None, str]:
    """The step ``rrr`` and ``rad`` repeat: re-order a line set by MILP.

    Orders ``line_ids`` over ``n_periods`` unit periods with an even
    repair budget and the lines ``out`` absent (``build_rop``), within
    ``time_limit`` seconds and the run's relative gap (``opts``). Returns
    the extracted plan (None without a usable incumbent) and the MILP
    status, ``"failure"`` when there is no time left or building or
    solving the MILP raises ``PlanExtractionError`` or
    ``PlanEvaluationError`` (the final period's LP failed).
    """
    if time_limit <= 0:
        return None, "failure"
    damage = DamageScenario(tuple(sorted(line_ids)))
    schedule = build_schedule(len(line_ids), n_periods, 1.0)
    try:
        # through the module, so a replaced models.build_rop sees every sub-solve
        artifacts = models.build_rop(network, damage, schedule, out, memo)
        solution = solver(artifacts, replace(opts, time_limit=time_limit))
    except (PlanExtractionError, PlanEvaluationError):
        return None, "failure"
    try:
        plan = extract_plan(artifacts, solution) if solution.has_incumbent else None
    except PlanExtractionError:
        plan = None
    return plan, solution.status


def _capacity_order(network: Network, line_ids) -> list[int]:
    return util_order(network, DamageScenario(tuple(sorted(line_ids)))).ordered_lines()


def rrr(network: Network, damage: DamageScenario, opts: SolveOptions,
        rop_solver=None, memo: dict | None = None) -> RestorationPlan:
    """Recursive bisection of the damage set via two-period ordering MILPs.

    Each split picks half its lines for period one and recurses on both
    halves, with half the time left of ``opts.time_limit`` as the MILP
    time limit and ``opts.rel_gap`` as its gap. A split
    is solved with the lines restored after its set out: none at the top
    split, the second half's lines as well for the first half, and the
    same lines as its parent for the second half. Every line of the set
    is back in period two, so each split is one period of free binaries
    plus a constant, that topology's power from the run's one memo, the
    caller's ``memo`` (as in ``evaluate_plan``) when given. With no plan
    or no time left, it splits the capacity order in half; with an empty
    first half, the set comes back in capacity order.
    ``rop_solver(artifacts, opts) -> MipSolution`` solves every
    sub-problem. Output is fully ordered: one line per period.
    """
    solver = rop_solver or _default_rop_solver
    deadline = time.monotonic() + opts.time_limit
    # the network's shared period LP, bases and final periods
    memo = {} if memo is None else memo

    # the line sets still to split, each with the lines restored after it,
    # taken depth first, a first half before its second; a stack, not a
    # nested function that calls itself, which would keep the memo alive in
    # a reference cycle after the call
    order: list[int] = []
    todo = [(tuple(sorted(damage.damaged_lines)), frozenset())]
    while todo:
        line_ids, later = todo.pop()
        if len(line_ids) <= 1:
            order += line_ids
            continue
        remaining = deadline - time.monotonic()
        split, _ = _sub_solve(solver, network, line_ids, later, memo, 2,
                              remaining / 2.0, opts)
        if split is None:
            # MILP failure: capacity-ordered split into halves
            capacity = _capacity_order(network, line_ids)
            half = math.ceil(len(capacity) / 2)
            first, second = capacity[:half], capacity[half:]
        else:
            first, second = sorted(split.periods[0]), sorted(split.periods[1])
            if not first:
                # nothing is urgent; any order works, use capacity order
                order += _capacity_order(network, line_ids)
                continue
        todo += [(tuple(second), later), (tuple(first), later | frozenset(second))]
    return RestorationPlan.from_lists([[lid] for lid in order])


def rad(network: Network, damage: DamageScenario, opts: SolveOptions,
        initial: RestorationPlan | None = None, rop_solver=None,
        memo: dict | None = None, seed: int = 0) -> RestorationPlan:
    """Randomized adaptive decomposition of a fully-ordered plan.

    Cuts the ordering into random contiguous blocks, re-orders each by
    MILP (``rop_solver`` as in ``rrr``) with the lines restored after it
    out, and keeps a re-ordering that serves more energy over the block's
    periods. Those periods are read off the evaluation of the whole
    ordering on the full network: the lines restored after the block are
    still out in them, and the last is the MILP's final period, so its
    constant costs no LP. One memo serves the run, the caller's ``memo``
    (as in ``evaluate_plan``) when given. When most blocks of a round
    fail, the MILP time limit doubles if most solves hit it or failed,
    else the block-size cap grows; a MILP never gets more than the time
    left. A round in which no block gets a plan, with a time limit that
    already covers the time left, ends the search: later rounds could
    only give their MILPs less. Never worse than ``initial``. ``opts`` is
    the run's budget and every MILP's gap, ``seed`` seeds the block sizes,
    and the module constants above set the search.
    """
    solver = rop_solver or _default_rop_solver
    initial_plan = initial or util_order(network, damage)
    initial_plan.validate_against(damage)
    order = initial_plan.ordered_lines()
    n = len(order)
    if n <= 1:
        return initial_plan

    rng = random.Random(seed)
    deadline = time.monotonic() + opts.time_limit
    sub_time = max(INITIAL_TIME_FRACTION * opts.time_limit, 1e-3)
    s_lo, s_hi = MIN_PARTITION, MAX_PARTITION
    stall = 0
    schedule = build_schedule(n, n, 1.0)
    # the network's shared period LP, bases and period results
    memo = {} if memo is None else memo

    def energy(ordering: list[int], a: int, b: int) -> float:
        """Energy served over periods a+1..b of ``ordering``, one line each."""
        plan = RestorationPlan.from_lists([[lid] for lid in ordering])
        return sum(evaluate_plan(network, damage, plan, schedule, memo=memo).delivered[a:b])

    while stall < STALL_LIMIT and time.monotonic() < deadline:
        # contiguous random partition of the current ordering
        cuts, pos = [], 0
        while pos < n:
            size = rng.randint(s_lo, s_hi)
            cuts.append((pos, min(pos + size, n)))
            pos += size
        n_blocks = n_fail = n_hit = n_planned = 0
        for a, b in cuts:
            if time.monotonic() >= deadline:
                break
            block = order[a:b]
            if len(block) < 2:
                continue
            n_blocks += 1
            cur_energy = energy(order, a, b)
            plan, status = _sub_solve(solver, network, block, frozenset(order[b:]), memo,
                                      len(block), min(sub_time, deadline - time.monotonic()),
                                      opts)
            n_hit += status in ("feasible_time_limit", "failure")
            if plan is not None:
                n_planned += 1
                new_order = plan.ordered_lines()
                new_energy = energy(order[:a] + new_order + order[b:], a, b)
                if new_energy > cur_energy + DIP_TOL * max(1.0, abs(cur_energy)):
                    order[a:b] = new_order
                    continue
            n_fail += 1
        if n_blocks > 0 and n_planned == 0 and sub_time >= deadline - time.monotonic():
            break  # no block got a plan with all the time there is left
        stall = 0 if n_fail < n_blocks else stall + 1
        if n_blocks > 0 and n_fail >= ADAPT_THRESHOLD * n_blocks:
            if n_hit >= ADAPT_THRESHOLD * n_blocks:
                sub_time *= 2.0
            else:
                # grow toward n // 2, never below the current cap
                s_hi = max(s_hi, min(math.ceil(GROWTH_FACTOR * s_hi), n // 2))

    final = RestorationPlan.from_lists([[lid] for lid in order])
    # safeguard: the initial plan comes back if its ordering serves more
    try:
        init_e, fin_e = served_energy(
            [evaluate_plan(network, damage, plan, schedule, memo=memo).delivered
             for plan in (schedule.bucket(initial_plan.ordered_lines()), final)], schedule.delta)
        if fin_e < init_e - DIP_TOL:
            return initial_plan
    except RuntimeError:
        pass
    return final


def brute_force_optimal(network: Network, damage: DamageScenario,
                        schedule: PeriodSchedule,
                        memo: dict | None = None) -> tuple[RestorationPlan, float]:
    """Enumerate all orderings, bucket by the schedule, pick the best.

    Line ``lines[i]`` of the sorted damage set is bit i. Each distinct
    plan is a row of cumulative restored-line bitmasks, cut at the repair
    budget (``PeriodSchedule.bucket``), from the first permutation that
    gives it: the one that lists each period's lines in order. Each mask
    is solved once through one memo by ``evaluate_plan``'s rule, where a
    plan-by-plan walk first reaches it and from the mask before it there.
    One ``served_energy`` call scores every plan from the table of its
    periods' powers; a plan's score is its energy. In plan order, a plan
    is skipped when it scores below the best so far by more than
    ``DIP_TOL``, or ties it but sorts after it on period 1, which
    post-processing never defers. Every other plan is evaluated from the
    memo and post-processed, ties within ``DIP_TOL`` breaking
    lexicographically on the post-processed plan. For n damaged lines and
    N periods this costs about 2^n period LPs, n!·N array work and one
    loop over n! scores. Guarded to at most 7 damaged lines; a schedule
    whose final budget is not the damage count raises ``ValueError``. The
    memo is the caller's ``memo`` when given.
    """
    lines = sorted(damage.damaged_lines)
    n = len(lines)
    if n > 7:
        raise ValueError("brute force limited to 7 damaged lines")
    schedule.bucket(lines)  # checks the final budget
    damage.validate(network)
    count = math.factorial(n)
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))),
                        dtype=np.int64, count=count * n).reshape(count, n)
    # lumped schedules map many permutations to one plan, whose first
    # permutation lists each period's lines in order
    cut = np.array([r in schedule.repair_budget for r in range(1, n)], dtype=bool)
    perms = perms[np.all((perms[:, 1:] > perms[:, :-1]) | cut, axis=1)]
    # restored-line bitmask of each plan after its first r lines, r = 0..n
    restored = np.zeros((len(perms), n + 1), dtype=np.int64)
    np.cumsum(1 << perms, axis=1, out=restored[:, 1:])
    masks = restored[:, schedule.repair_budget]

    sets = [frozenset()]  # sets[m]: the lines of the bits of m
    for line in lines:
        sets += [s | {line} for s in sets]
    memo = {} if memo is None else memo
    periods = models._Periods.of(network, memo)
    base = models.energized_lines(network, damage, RestorationPlan(()), 0)
    power = np.empty(1 << n)
    # walk order: plan by plan, period by period; solve each mask where first reached
    _, reached = np.unique(masks, return_index=True)  # of the flattened table
    walk, N = masks.ravel().tolist(), schedule.n_periods
    for pos in np.sort(reached).tolist():
        mask, prev = walk[pos], 0 if pos % N == 0 else walk[pos - 1]
        power[mask] = periods.power(base | sets[mask], base | sets[prev], pos % N + 1)
    scores = served_energy(power[masks], schedule.delta)

    best_energy = best_plan = best_key = None
    for i, score in enumerate(scores):
        row = masks[i].tolist()
        if best_energy is not None and (score < best_energy - DIP_TOL or (
                score <= best_energy + DIP_TOL and tuple(sorted(sets[row[0]])) > best_key[0])):
            # below the best, or tied with it and behind it on period 1, which
            # post-processing never defers
            continue
        plan = RestorationPlan(tuple(sets[m ^ prev] for m, prev in zip(row, [0] + row)))
        mono_plan = monotonize(evaluate_plan(network, damage, plan, schedule, memo=memo),
                               plan)[1]
        key = tuple(tuple(sorted(p)) for p in mono_plan.periods)
        if best_energy is None or score > best_energy + DIP_TOL or (
                abs(score - best_energy) <= DIP_TOL and key < best_key):
            best_energy, best_plan, best_key = score, mono_plan, key
    return best_plan, best_energy
