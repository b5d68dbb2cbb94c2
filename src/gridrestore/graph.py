"""Union-find and connected components over bus/line graphs."""
from __future__ import annotations


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.rank = {x: 0 for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True

    def components(self) -> list[list]:
        groups: dict = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return [sorted(v) for v in groups.values()]


def connected_components(bus_ids, edges) -> list[list[int]]:
    """Components of the graph on bus_ids with (from, to) edges.

    Returned as sorted lists, ordered by their smallest bus id.
    """
    uf = UnionFind(bus_ids)
    for a, b in edges:
        uf.union(a, b)
    return sorted(uf.components(), key=lambda c: c[0])


def line_components(network, line_ids) -> list[list[int]]:
    """Components of all the network's buses joined by the lines ``line_ids``.

    Isolated buses form singleton components.
    """
    edges = [(network.lines_by_id[l].from_bus, network.lines_by_id[l].to_bus)
             for l in line_ids]
    return connected_components([b.id for b in network.buses], edges)
