"""Connected components and shortest paths of a network's buses under a set of lines."""
from __future__ import annotations

import heapq


class Islands:
    """The components of a network's buses under lines added batch by batch:
    one union-find whose roots are each component's least bus id, with
    the number of components, ``count``, and the size of the largest,
    ``largest``, kept as lines join them."""

    def __init__(self, network):
        self.network = network
        self.root = {b.id: b.id for b in network.buses}
        self.size = dict.fromkeys(self.root, 1)
        self.count, self.largest = len(self.root), min(len(self.root), 1)

    def find(self, x):
        root = self.root
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    def add(self, line_ids) -> Islands:
        """Join the ends of each line of ``line_ids``; returns self."""
        lines, root, size = self.network.lines_by_id, self.root, self.size
        for lid in line_ids:
            a, b = self.find(lines[lid].from_bus), self.find(lines[lid].to_bus)
            if a != b:
                a, b = min(a, b), max(a, b)
                root[b] = a
                size[a] += size.pop(b)
                self.count -= 1
                self.largest = max(self.largest, size[a])
        return self

    def components(self) -> list[list[int]]:
        """Sorted lists of bus ids, ordered by their smallest bus id."""
        groups: dict[int, list[int]] = {}
        for bus in sorted(self.root):
            groups.setdefault(self.find(bus), []).append(bus)
        return list(groups.values())


def line_components(network, line_ids) -> list[list[int]]:
    """Components of all the network's buses joined by the lines ``line_ids``.

    Returned as sorted lists of bus ids, ordered by their smallest bus id.
    Isolated buses form singleton components.
    """
    return Islands(network).add(line_ids).components()


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
