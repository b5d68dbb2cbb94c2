import os
import random

import numpy as np
import pytest

from gridrestore.network import (Bus, DamageScenario, Generator, Line, Load,
                                 Network, random_damage)

CASES_DIR = os.path.join(os.path.dirname(__file__), "cases")


def tiny3_network() -> Network:
    """3-bus reference grid: one generator, two loads, a triangle of lines."""
    return Network(
        buses=(Bus(1), Bus(2), Bus(3)),
        lines=(Line(1, 1, 2, -10.0, 1.5), Line(2, 1, 3, -5.0, 1.0),
               Line(3, 2, 3, -8.0, 1.2)),
        generators=(Generator(1, 1, 2.0),),
        loads=(Load(1, 2, 0.8), Load(2, 3, 0.6)),
    )


def random_network(seed: int, n_buses: int | None = None,
                   n_lines: int | None = None) -> Network:
    """Random connected test grid with valid on/off flow relaxations.

    Topology is a random spanning tree plus identical parallel duplicates
    of tree edges. On such grids the dispatch LP reduces to a capacitated
    tree flow, so energizing more lines never reduces deliverable power:
    restoring all lines is always at least as good as any partial state.
    Loop-induced congestion effects (where an added line can hurt) cannot
    occur, which keeps exhaustive plan enumeration a true optimum oracle.
    Reactances stay in [0.05, 0.3] and each thermal limit is kept below
    |b| * angle_diff_max, so disabling a line's flow equation can never
    force its flow bound to bind spuriously.
    """
    rng = random.Random(seed)
    nb = n_buses if n_buses is not None else rng.randint(4, 8)
    nl = n_lines if n_lines is not None else rng.randint(max(5, nb - 1), 10)
    nl = max(nl, nb - 1)
    tree = []
    for i in range(2, nb + 1):
        fb = rng.randint(1, i - 1)
        x = rng.uniform(0.05, 0.3)
        susceptance = -1.0 / x
        cap = min(1.5, 0.9 * abs(susceptance) * 0.5236)
        tree.append((fb, i, susceptance, round(rng.uniform(0.3, cap), 4)))
    lines = [Line(i + 1, *edge) for i, edge in enumerate(tree)]
    while len(lines) < nl:
        fb, tb, susceptance, limit = tree[rng.randrange(len(tree))]
        lines.append(Line(len(lines) + 1, fb, tb, susceptance, limit))
    gens = []
    for gid, bus in enumerate(rng.sample(range(1, nb + 1), rng.randint(1, 3)),
                              start=1):
        gens.append(Generator(gid, bus, round(rng.uniform(0.5, 1.5), 4)))
    loads = []
    load_buses = rng.sample(range(1, nb + 1), max(2, nb // 2))
    for did, bus in enumerate(load_buses, start=1):
        loads.append(Load(did, bus, round(rng.uniform(0.2, 0.8), 4)))
    return Network(buses=tuple(Bus(i) for i in range(1, nb + 1)),
                   lines=tuple(lines), generators=tuple(gens),
                   loads=tuple(loads))


def random_scenario(seed: int, n_damaged_range=(3, 5)):
    """(network, damage) pair for oracle-vs-solver comparisons."""
    net = random_network(seed)
    rng = random.Random(seed + 10_000)
    k = min(rng.randint(*n_damaged_range), len(net.lines))
    damaged = tuple(sorted(rng.sample([l.id for l in net.lines], k)))
    return net, DamageScenario(damaged, seed=seed)


def meshed_network(seed: int, n_buses: int = 10) -> Network:
    """Random meshed grid with loops and loose thermal limits.

    Bus i >= 2 links to a random bus in [i-4, i-1] (so the grid is
    connected), and n_buses // 2 chords join bus pairs not yet linked.
    Reactance x ~ U[0.05, 0.3], thermal limit ~ U[0.5, 1.5] pu;
    n_buses // 6 generators with p_max ~ U[1, 3] and n_buses // 2 loads
    with demand ~ U[0.2, 0.8] sit on distinct buses. Unlike
    ``random_network``, an added line can lower deliverable power here.
    """
    rng = random.Random(seed)
    pairs = []
    linked = set()
    for i in range(2, n_buses + 1):
        j = rng.randint(max(1, i - 4), i - 1)
        pairs.append((j, i))
        linked.add(frozenset((i, j)))
    while len(pairs) < n_buses - 1 + n_buses // 2:
        a, b = rng.sample(range(1, n_buses + 1), 2)
        if frozenset((a, b)) not in linked:
            pairs.append((min(a, b), max(a, b)))
            linked.add(frozenset((a, b)))
    lines = tuple(Line(i, f, t, -1.0 / rng.uniform(0.05, 0.3), rng.uniform(0.5, 1.5))
                  for i, (f, t) in enumerate(pairs, start=1))
    gens = tuple(Generator(g, bus, rng.uniform(1.0, 3.0)) for g, bus in
                 enumerate(rng.sample(range(1, n_buses + 1), n_buses // 6), start=1))
    loads = tuple(Load(d, bus, rng.uniform(0.2, 0.8)) for d, bus in
                  enumerate(rng.sample(range(1, n_buses + 1), n_buses // 2), start=1))
    return Network(buses=tuple(Bus(i) for i in range(1, n_buses + 1)),
                   lines=lines, generators=gens, loads=loads)


def energizes_every_line(lp, form) -> bool:
    """Whether an LP call solves a topology with every line in.

    ``form`` is a topology of the shared period LP ``lp``: a line that is
    out frees its flow row's slack, and no other slack is ever free.
    """
    return form is not None and not np.isinf(form.lower[len(lp.variables):]).any()


def start_inversions(monkeypatch, inverse=None) -> list:
    """Record the columns of every basis that ``lp.basis_inverse`` inverts
    for a start (``Basis.inverse``), leaving out the fresh inversions of
    ``_Simplex._refactorize``; ``inverse``, when given, stands in for
    ``basis_inverse`` at those starts."""
    import gridrestore.lp as lp_module
    made, refactorizing = [], [False]
    real_inverse, real_refactorize = lp_module.basis_inverse, lp_module._Simplex._refactorize

    def counting(form, columns):
        if refactorizing[0]:
            return real_inverse(form, columns)
        made.append(columns)
        return (inverse or real_inverse)(form, columns)

    def refactorize(self):
        refactorizing[0] = True
        try:
            real_refactorize(self)
        finally:
            refactorizing[0] = False

    monkeypatch.setattr(lp_module, "basis_inverse", counting)
    monkeypatch.setattr(lp_module._Simplex, "_refactorize", refactorize)
    return made


@pytest.fixture
def meshed_scenarios():
    """(network, damage) pairs on meshed grids, 25% of lines damaged."""
    out = []
    for seed, n_buses in ((1, 8), (2, 10), (3, 10), (4, 12)):
        net = meshed_network(seed, n_buses)
        out.append((net, random_damage(net, 0.25, seed)))
    return out


@pytest.fixture
def tiny3():
    return tiny3_network()


@pytest.fixture
def tiny3_case_path():
    return os.path.join(CASES_DIR, "tiny3.m")
