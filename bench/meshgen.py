"""Meshed test-grid generator that writes MATPOWER case text.

A grid with ``n`` buses is drawn from ``random.Random(seed)``:

- bus ``i >= 2`` links to a random bus in ``[max(1, i - 4), i - 1]``, which
  keeps the grid connected, and ``n // 2`` random chords join bus pairs that
  are not yet linked;
- each line has reactance ``x ~ U[0.05, 0.3]`` and thermal limit
  ``~ U[0.5, 1.5]`` pu;
- ``n // 6`` generators sit on distinct buses with ``p_max ~ U[1, 3]`` pu;
- ``n // 2`` loads sit on distinct buses with demand ``~ U[0.2, 0.8]`` pu.

The text uses the MATPOWER subset that ``gridrestore.network.parse_case``
reads, so every generated case goes through the parser.

``bus_ids`` renumbers the buses. The solver only ever compares bus ids, so
any increasing renumbering yields the same models, the same pivots and the
same outputs: it changes the case text and nothing the solver computes.
"""
from __future__ import annotations

import random

BASE_MVA = 100.0


def meshed_case(n_buses: int, seed: int, bus_ids=None) -> str:
    """MATPOWER case text of a meshed ``n_buses``-bus grid.

    ``bus_ids``, if given, is the increasing list of ids written for buses
    ``1..n_buses``.
    """
    if n_buses < 6:
        raise ValueError("meshed grids need at least 6 buses")
    ids = list(bus_ids) if bus_ids is not None else list(range(1, n_buses + 1))
    if len(ids) != n_buses or any(a >= b for a, b in zip(ids, ids[1:])) or ids[0] < 1:
        raise ValueError("bus_ids must be n_buses increasing positive ids")
    rng = random.Random(seed)
    pairs: list[tuple[int, int]] = []
    linked: set[frozenset[int]] = set()
    for i in range(2, n_buses + 1):
        j = rng.randint(max(1, i - 4), i - 1)
        pairs.append((j, i))
        linked.add(frozenset((i, j)))
    n_chords = n_buses // 2
    while n_chords:
        a, b = rng.sample(range(1, n_buses + 1), 2)
        if frozenset((a, b)) in linked:
            continue
        pairs.append((min(a, b), max(a, b)))
        linked.add(frozenset((a, b)))
        n_chords -= 1
    branches = [(f, t, rng.uniform(0.05, 0.3), rng.uniform(0.5, 1.5))
                for f, t in pairs]
    gen_buses = rng.sample(range(1, n_buses + 1), n_buses // 6)
    gens = [(b, rng.uniform(1.0, 3.0)) for b in gen_buses]
    load_buses = rng.sample(range(1, n_buses + 1), n_buses // 2)
    demand = {b: rng.uniform(0.2, 0.8) for b in load_buses}

    out = [f"% meshed {n_buses}-bus grid, generator seed {seed}",
           f"function mpc = mesh{n_buses}_s{seed}",
           "mpc.version = '2';",
           f"mpc.baseMVA = {BASE_MVA:g};",
           "",
           "% bus_i type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin",
           "mpc.bus = ["]
    for b in range(1, n_buses + 1):
        kind = 3 if b == 1 else 1
        pd = demand.get(b, 0.0) * BASE_MVA
        out.append(f"\t{ids[b - 1]}\t{kind}\t{pd:.6f}\t0\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;")
    out += ["];", "", "% bus Pg Qg Qmax Qmin Vg mBase status Pmax Pmin",
            "mpc.gen = ["]
    for b, pmax in gens:
        out.append(f"\t{ids[b - 1]}\t0\t0\t100\t-100\t1\t100\t1\t{pmax * BASE_MVA:.6f}\t0;")
    out += ["];", "",
            "% fbus tbus r x b rateA rateB rateC ratio angle status angmin angmax",
            "mpc.branch = ["]
    for f, t, x, lim in branches:
        out.append(f"\t{ids[f - 1]}\t{ids[t - 1]}\t0\t{x:.6f}\t0\t{lim * BASE_MVA:.6f}"
                   "\t0\t0\t0\t0\t1\t-30\t30;")
    out += ["];", ""]
    return "\n".join(out)
