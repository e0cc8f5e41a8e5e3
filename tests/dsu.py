"""Union-find over string ids: the independent oracle the connected-
components tests compare ``state/unionfind.py`` against."""

from __future__ import annotations

from typing import Dict


class DSU:
    """Union-find with path compression + union by rank; roots resolve to
    the lexicographically smallest member id at finalize time."""

    def __init__(self) -> None:
        self.parent: Dict[str, str] = {}
        self.rank: Dict[str, int] = {}

    def find(self, x: str) -> str:
        p = self.parent
        if x not in p:
            p[x] = x
            self.rank[x] = 0
            return x
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1

    def labels(self) -> Dict[str, str]:
        """node -> min-member-id of its component."""
        min_of_root: Dict[str, str] = {}
        for x in self.parent:
            r = self.find(x)
            if r not in min_of_root or x < min_of_root[r]:
                min_of_root[r] = x
        return {x: min_of_root[self.find(x)] for x in self.parent}
