import random

import pytest

from gridrestore.graph import line_components
from gridrestore.network import Bus, Line, Network
from conftest import meshed_network, random_network, tiny3_network


def bfs_components(network, line_ids):
    """Reference: breadth-first search over an adjacency list."""
    adjacent = {b.id: [] for b in network.buses}
    for lid in line_ids:
        ln = network.lines_by_id[lid]
        adjacent[ln.from_bus].append(ln.to_bus)
        adjacent[ln.to_bus].append(ln.from_bus)
    seen, out = set(), []
    for start in adjacent:
        if start in seen:
            continue
        seen.add(start)
        comp, frontier = [start], [start]
        while frontier:
            nxt = []
            for bus in frontier:
                for other in adjacent[bus]:
                    if other not in seen:
                        seen.add(other)
                        comp.append(other)
                        nxt.append(other)
            frontier = nxt
        out.append(comp)
    return out


def check(network, line_ids):
    comps = line_components(network, line_ids)
    assert all(c == sorted(c) for c in comps)
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)
    assert sorted(b for c in comps for b in c) == sorted(b.id for b in network.buses)
    assert sorted(map(sorted, bfs_components(network, line_ids))) == comps
    return comps


@pytest.mark.parametrize("seed", range(10))
def test_matches_bfs_on_random_subsets(seed):
    # tree grids with parallel duplicates, and meshed grids
    rng = random.Random(seed)
    for net in (random_network(seed), meshed_network(seed, 8 + seed % 5)):
        ids = [ln.id for ln in net.lines]
        for size in (0, 1, len(ids) // 2, len(ids)):
            check(net, rng.sample(ids, size))


def test_isolated_bus_on_tiny3():
    net = tiny3_network()
    assert check(net, [1]) == [[1, 2], [3]]
    assert check(net, [1, 2, 3]) == [[1, 2, 3]]


def test_order_follows_bus_ids_not_input_order():
    # buses listed out of order, with gaps in their ids, and a parallel pair
    net = Network(buses=(Bus(40), Bus(7), Bus(12), Bus(3), Bus(25)),
                  lines=(Line(1, 40, 3, -5.0, 1.0), Line(2, 12, 25, -5.0, 1.0),
                         Line(3, 25, 12, -4.0, 1.0), Line(4, 7, 40, -5.0, 1.0)),
                  generators=(), loads=())
    assert check(net, [2, 1, 3]) == [[3, 40], [7], [12, 25]]
    assert check(net, [4, 1]) == [[3, 7, 40], [12], [25]]
    assert check(net, []) == [[3], [7], [12], [25], [40]]
