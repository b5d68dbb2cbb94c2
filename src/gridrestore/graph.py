"""Connected components of a network's buses under a set of lines."""
from __future__ import annotations


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
