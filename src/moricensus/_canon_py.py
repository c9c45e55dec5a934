"""Pure-Python canonical-form search for small labelled multigraphs.

The hot kernel behind ``moricensus.graphs.canonical_graph`` and
``moricensus.graphs.iso``, which import this module on the first call
of either: a process that makes no kernel call, such as every CLI
subcommand, never compiles it.  The search
minimizes a flat integer encoding over node orderings, restricted to
orderings compatible with an iterated neighbourhood-colour refinement.
A branch is cut when its item exceeds the best encoding's at the same
offset, but only while the prefix equals the best's prefix: ``dfs``
fixes that (``tight``) when it enters a frame, so once a prefix beats
the best, its whole subtree is searched without being compared with
any best found inside it.  Whenever a colouring puts every node in a
cell of its own, that order is forced and written out without a
search.
``canonical_sequence`` tries its exits in order:

1. A discrete first colouring: no two nodes share their label and
   sorted ``(edge label, mult)`` pairs (distinct labels always
   qualify).  Those keys come straight from the edge list; no
   adjacency list is built and refinement does not run.  Most random
   labelled multigraphs take this exit (739 of the 900 of
   ``benchmarks/bench_canonical.py``'s random suite at seed 7, n = 6,
   8 and 10), and without it their mean call took 46-47us instead of
   33-34us (2 cores, CPython 3.11.7), so the exit stays.
2. Refinement, started from those keys, makes the partition discrete.
3. Otherwise the ordering search runs, expanding one node of each pair
   of twins per depth.

``iso_by_keys`` decides a pair of graphs, when it can, with no
canonical form.  One integer pass over each edge list gives every node
the key ``(label, degree, sum of edge labels, sum of mults, sum of
edge label * mult)`` over its incident edge entries; the key is
isomorphism-invariant, so graphs whose sorted keys differ are not
isomorphic.  When the keys are pairwise distinct, an isomorphism can
only send each node of one graph to the node of the other with its
key, and one check of that map decides the pair (McKay & Piperno,
"Practical graph isomorphism, II", 2014).  Otherwise it returns None
and the canonical forms decide.  On seeded random multigraphs of 6 to
10 nodes the keys are distinct on most graphs (750 of 960 of
canon-search's random graphs in a cycle at seed 30001) and on no
circulant.

Encoding layout: ``(n, item_0, ..., item_{n-1})`` where the item for
position k is ``(label, b, j_1, e_1, m_1, ..., j_b, e_b, m_b)`` listing
the b back-edges from the node placed at k to already-placed positions,
sorted by (position, edge label).  Because each item states its own
length right after the node label, flat lexicographic comparison agrees
with itemwise comparison, which makes prefix pruning sound.
"""

from __future__ import annotations

from operator import lt

__all__ = ["canonical_sequence", "iso_by_keys"]


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


def _node_keys(n, labels, edges):
    """Each node's ``(label, degree, sum e, sum m, sum e * m)`` over its
    incident ``(u, v, e, m)`` entries, in one pass over the edge list."""
    degree = [0] * n
    sum_e = [0] * n
    sum_m = [0] * n
    sum_em = [0] * n
    for (u, v, e, m) in edges:
        em = e * m
        degree[u] += 1
        degree[v] += 1
        sum_e[u] += e
        sum_e[v] += e
        sum_m[u] += m
        sum_m[v] += m
        sum_em[u] += em
        sum_em[v] += em
    return list(zip(labels, degree, sum_e, sum_m, sum_em))


def iso_by_keys(n, labels1, edges1, labels2, edges2):
    """Whether two n-node graphs are isomorphic, or None if node keys tie.

    False when the sorted node keys differ.  When they are pairwise
    distinct, the only candidate map sends each node of graph 1 to the
    node of graph 2 with its key, and the answer is whether it carries
    graph 1's edges onto graph 2's.  Edge entries are normalized and
    unique per ``(u, v, elabel)``, as ``LabeledGraph`` holds them.
    """
    keys1 = _node_keys(n, labels1, edges1)
    keys2 = _node_keys(n, labels2, edges2)
    if sorted(keys1) != sorted(keys2):
        return False
    node2 = dict(zip(keys2, range(n)))
    if len(node2) < n:
        return None
    image = [node2[key] for key in keys1]
    # equal degree sums give equal entry counts, and the map is a
    # bijection, so every mapped entry found in edges2 means equal sets
    target = set(edges2)
    for (u, v, e, m) in edges1:
        a = image[u]
        b = image[v]
        if ((a, b, e, m) if a < b else (b, a, e, m)) not in target:
            return False
    return True
