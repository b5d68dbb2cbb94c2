"""Connected components and shortest paths of a network's buses under a set of lines."""
from __future__ import annotations

import heapq


def line_components(network, line_ids) -> list[list[int]]:
    """Components of all the network's buses joined by the lines ``line_ids``.

    Returned as sorted lists of bus ids, ordered by their smallest bus id.
    Isolated buses form singleton components.
    """
    root = {b.id: b.id for b in network.buses}  # union-find, roots the least ids

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for lid in line_ids:
        a = find(network.lines_by_id[lid].from_bus)
        b = find(network.lines_by_id[lid].to_bus)
        root[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for bus in sorted(root):
        groups.setdefault(find(bus), []).append(bus)
    return list(groups.values())


def adjacency(network, line_ids, weight) -> dict[int, list[tuple[int, float]]]:
    """The neighbours of each bus over the lines ``line_ids``, each with
    the length ``weight(line)`` of the line that joins them, in line order."""
    adjacent: dict[int, list[tuple[int, float]]] = {}
    for lid in line_ids:
        ln = network.lines_by_id[lid]
        adjacent.setdefault(ln.from_bus, []).append((ln.to_bus, weight(ln)))
        adjacent.setdefault(ln.to_bus, []).append((ln.from_bus, weight(ln)))
    return adjacent


def shortest_path(adjacent, source: int, target: int) -> float:
    """Length of the shortest path from bus ``source`` to bus ``target``
    over ``adjacent`` (``adjacency``), whose lengths are at least 0;
    infinite when no path joins them (Dijkstra, stopped once ``target``
    is settled)."""
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, bus = heapq.heappop(heap)
        if bus == target:
            return d
        if d > dist[bus]:
            continue
        for other, w in adjacent.get(bus, ()):
            if d + w < dist.get(other, float("inf")):
                dist[other] = d + w
                heapq.heappush(heap, (d + w, other))
    return float("inf")
