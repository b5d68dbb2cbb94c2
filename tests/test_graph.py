import math
import random

import pytest

from gridrestore.graph import adjacency, line_components, shortest_path
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


def floyd_warshall(network, line_ids, weight):
    """Reference: all-pairs shortest path lengths, infinite when apart."""
    buses = [b.id for b in network.buses]
    dist = {(a, b): 0.0 if a == b else math.inf for a in buses for b in buses}
    for lid in line_ids:
        ln = network.lines_by_id[lid]
        for a, b in ((ln.from_bus, ln.to_bus), (ln.to_bus, ln.from_bus)):
            dist[a, b] = min(dist[a, b], weight(ln))
    for k in buses:
        for a in buses:
            for b in buses:
                dist[a, b] = min(dist[a, b], dist[a, k] + dist[k, b])
    return dist


@pytest.mark.parametrize("seed", range(6))
def test_shortest_path_matches_floyd_warshall(seed):
    # random line subsets, so some bus pairs are apart; parallel lines on
    # the tree grids, with the angle limits as lengths
    rng = random.Random(seed)
    for net in (random_network(seed), meshed_network(seed, 8 + seed % 5)):
        weight = {ln.id: rng.uniform(0.05, 0.6) for ln in net.lines}
        ids = [ln.id for ln in net.lines]
        for size in (0, len(ids) // 2, len(ids)):
            subset = rng.sample(ids, size)
            ref = floyd_warshall(net, subset, lambda ln: weight[ln.id])
            adjacent = adjacency(net, subset, lambda ln: weight[ln.id])
            for (a, b), d in ref.items():
                got = shortest_path(adjacent, a, b)
                assert got == pytest.approx(d, rel=1e-12) if math.isfinite(d) else got == d
