"""Pure-Python canonical-form search for small labelled multigraphs.

The hot kernel behind ``moricensus.graphs.canonical_graph``.  The search
minimizes a flat integer encoding over node orderings, restricted to
orderings compatible with an iterated neighbourhood-colour refinement
and pruned against the best encoding found so far.  Whenever a colouring
puts every node in a cell of its own, that order is forced and written
out without a search.  ``canonical_sequence`` tries its exits in order:

1. Labels increasing with the node index, as on every rigid triple
   encoding: the order is the identity, so each edge ``(u, v)`` with
   u < v is a back-edge of v, and the items are written out in one
   pass, with no order or position map.
2. A discrete first colouring: no two nodes share their label and
   sorted ``(edge label, mult)`` pairs (distinct labels always
   qualify).  Those keys come straight from the edge list; no
   adjacency list is built and refinement does not run.
3. Refinement, started from those keys, makes the partition discrete.
4. Otherwise the ordering search runs, expanding one node of each pair
   of twins per depth.

Encoding layout: ``(n, item_0, ..., item_{n-1})`` where the item for
position k is ``(label, b, j_1, e_1, m_1, ..., j_b, e_b, m_b)`` listing
the b back-edges from the node placed at k to already-placed positions,
sorted by (position, edge label).  Because each item states its own
length right after the node label, flat lexicographic comparison agrees
with itemwise comparison, which makes prefix pruning sound.
"""

from __future__ import annotations

from operator import lt

__all__ = ["canonical_sequence"]


def _twins(adj, cells):
    """Pairs ``(u, v)``, u < v, of interchangeable nodes in one cell.

    Nodes u and v are twins when swapping them is an automorphism: equal
    labels and identical edge data to every third node.  Subtrees rooted
    at twin candidates reach the same minimum, so the search only ever
    expands one of them per depth.  Only pairs inside one refinement
    cell are tested: the search compares candidates from one cell only,
    and twins always share a cell (and so a label).  Each node's
    ``(neighbour, label, mult)`` entries are unique, so sets compare
    them exactly.
    """
    twins = set()
    for cell in cells:
        for i, u in enumerate(cell):
            for v in cell[i + 1:]:
                if {x for x in adj[u] if x[0] != v} == \
                        {x for x in adj[v] if x[0] != u}:
                    twins.add((u, v))
    return twins


def _refine(n, base, adj):
    """Colour nodes by iterated neighbourhood signatures.

    ``base`` holds each node's first key: its label and the sorted
    ``(edge label, mult)`` pairs of its edges.  Returns a list of colour
    ranks; ranks are assigned by sorting signature values, so they are
    invariant under node relabelling.
    """
    order = sorted(set(base))
    rank = {key: i for i, key in enumerate(order)}
    colors = [rank[key] for key in base]
    ncolors = len(order)
    while ncolors < n:
        keys = [
            (c, tuple(sorted([(e, m, colors[u]) for (u, e, m) in nbrs])))
            for c, nbrs in zip(colors, adj)
        ]
        order = sorted(set(keys))
        if len(order) == ncolors:
            break
        rank = {key: i for i, key in enumerate(order)}
        colors = [rank[key] for key in keys]
        ncolors = len(order)
    return colors


def _forced_sequence(n, order, labels, edges):
    """Encoding of the nodes placed in ``order``, written in one pass.

    Each edge becomes a back-edge ``(pos, e, m)`` of its later-placed
    end, as the search's item for that node would list it.
    """
    pos = [0] * n
    for k, v in enumerate(order):
        pos[v] = k
    back = [[] for _ in range(n)]
    for (u, v, e, m) in edges:
        if pos[u] < pos[v]:
            back[v].append((pos[u], e, m))
        else:
            back[u].append((pos[v], e, m))
    seq = [n]
    for v in order:
        entries = back[v]
        entries.sort()
        seq.append(labels[v])
        seq.append(len(entries))
        for entry in entries:
            seq.extend(entry)
    return tuple(seq)


def canonical_sequence(n, labels, edges):
    """Minimal flat encoding of the graph over admissible node orderings.

    ``labels`` is a sequence of n ints; ``edges`` a sequence of
    ``(u, v, elabel, mult)`` with u < v and unique (u, v, elabel).
    """
    if all(map(lt, labels, labels[1:])):
        # labels already in increasing order: the forced order is the
        # identity, and each edge (u, v) with u < v is the back-edge
        # (u, e, m) of node v
        back = [[] for _ in range(n)]
        for (u, v, e, m) in edges:
            back[v].append((u, e, m))
        seq = [n]
        for v in range(n):
            entries = back[v]
            if len(entries) > 1:  # edges need not come sorted
                entries.sort()
            seq.append(labels[v])
            seq.append(len(entries))
            for entry in entries:
                seq.extend(entry)
        return tuple(seq)
    pairs = [[] for _ in range(n)]
    for (u, v, e, m) in edges:
        pairs[u].append((e, m))
        pairs[v].append((e, m))
    base = [(label, tuple(sorted(p))) for label, p in zip(labels, pairs)]
    order = sorted(range(n), key=base.__getitem__)
    first = [base[v] for v in order]
    if all(map(lt, first, first[1:])):
        # the first colouring is discrete (as distinct labels make it),
        # so its order is forced before any refinement
        return _forced_sequence(n, order, labels, edges)
    adj = [[] for _ in range(n)]
    for (u, v, e, m) in edges:
        adj[u].append((v, e, m))
        adj[v].append((u, e, m))

    colors = _refine(n, base, adj)
    cells = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    cell_order = [cells[c] for c in sorted(cells)]
    pos = [-1] * n

    def item_for(v):
        entries = sorted(
            (pos[u], e, m) for (u, e, m) in adj[v] if pos[u] >= 0
        )
        flat = [labels[v], len(entries)]
        for entry in entries:
            flat.extend(entry)
        return flat

    if len(cell_order) == n:
        # discrete partition: the only admissible ordering is the cell
        # order, so the search would take one branch per depth
        return _forced_sequence(n, [v for (v,) in cell_order], labels, edges)

    cell_at = []
    for cell in cell_order:
        cell_at.extend([cell] * len(cell))
    twins = _twins(adj, cell_order)
    cur = [n]
    best = None

    def dfs(depth, tight):
        # tight: cur equals the corresponding prefix of best (when best
        # exists), so segment comparisons against best stay meaningful.
        nonlocal best
        if depth == n:
            if best is None or (not tight and cur < best):
                best = list(cur)
            return
        tried = []
        for v in cell_at[depth]:
            if pos[v] >= 0:
                continue
            # cells list nodes in increasing order, so every u < v
            if any((u, v) in twins for u in tried):
                continue
            tried.append(v)
            item = item_for(v)
            if best is None:
                child_tight = True
            elif tight:
                off = len(cur)
                seg = best[off:off + len(item)]
                if item > seg:
                    continue
                child_tight = item == seg
            else:
                child_tight = False
            off = len(cur)
            pos[v] = depth
            cur.extend(item)
            dfs(depth + 1, child_tight)
            del cur[off:]
            pos[v] = -1

    dfs(0, True)
    return tuple(best)
