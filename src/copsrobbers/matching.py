"""Maximum bipartite matching (Hopcroft-Karp) with its Hall-violation witness.

Left vertices are 0..n_left-1 with adjacency lists of right ids. The
implementation is deterministic: vertices are scanned in ascending order and
no set iteration feeds a tie-sensitive choice.
"""

from __future__ import annotations

import itertools
from collections import deque


def hopcroft_karp(adj, n_right: int):
    """Return (size, pair_left, pair_right, deficient); unmatched entries of
    the pairs are -1.

    deficient lists, ascending, the left vertices that an alternating path
    reaches from an unmatched left vertex: the layers of the final phase,
    which finds no augmenting path (Koenig's construction). It is empty when
    the matching saturates the left side; otherwise its right neighbourhood
    is matched into it, so it is a Hall violation, and it is the set of left
    vertices some maximum matching leaves free.
    """
    n_left = len(adj)
    pair_left = [-1] * n_left
    pair_right = [-1] * n_right
    dist = [-1] * n_left

    def bfs():
        q = deque()
        found = False
        for u in range(n_left):
            if pair_left[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = -1
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = pair_right[v]
                if w == -1:
                    found = True
                elif dist[w] == -1:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def augment(root):
        # Depth-first search for an augmenting path along the BFS layers, on
        # an explicit stack so chains of any depth need no recursion: scan
        # neighbours in list order, descend into the first matched partner
        # one layer down, retire dead ends (dist -1), flip the path found.
        path, nxt = [root], [0]  # left vertices on the path; next adj index of each
        while path:
            u = path[-1]
            nbrs = adj[u]
            i = nxt[-1]
            while i < len(nbrs):
                w = pair_right[nbrs[i]]
                i += 1
                if w == -1:
                    nxt[-1] = i
                    for x, j in zip(path, nxt):
                        v = adj[x][j - 1]
                        pair_left[x] = v
                        pair_right[v] = x
                    return True
                if dist[w] == dist[u] + 1:
                    break
            else:
                dist[u] = -1
                path.pop()
                nxt.pop()
                continue
            nxt[-1] = i
            path.append(w)
            nxt.append(0)
        return False

    # The first phase needs no BFS: every left vertex is free, so all sit on
    # layer 0 and each augmenting path is one edge to a free right vertex.
    # Left vertices may share one list object (the sphere trap gives every
    # target within reach of all cops the same list). A matched right vertex
    # stays matched in this phase, so a shared list's scan resumes past the
    # prefix the scans before it found matched: `done` maps the list's id to
    # that prefix's length, and the pairs are those of a scan from the start.
    size = 0
    done = {}
    for u in range(n_left):
        nbrs = adj[u]
        at = done.get(id(nbrs), 0)
        for v in itertools.islice(nbrs, at, None):
            at += 1
            if pair_right[v] == -1:
                pair_left[u] = v
                pair_right[v] = u
                size += 1
                break
        done[id(nbrs)] = at
    while bfs():
        for u in range(n_left):
            if pair_left[u] == -1 and augment(u):
                size += 1
    return size, pair_left, pair_right, [u for u in range(n_left) if dist[u] >= 0]
