"""The matching kernel: diagram composition by path tracing through the
glued middle boundary, deleting closed loops.  It is the one loop counter:
a diagram's closure loops are the loops of a composite too (see
:func:`brauer.diagram.closure_loops`).

A matching on n nodes is given by its partner tuple: partner[i] = j iff
{i, j} is an arc.  Node layout follows the package convention: for a (k, l)
diagram, nodes 0..k-1 are the bottom boundary and k..k+l-1 the top.
"""

# perfbench/one_pass.py records this in its info line; there is one backend.
BACKEND = "python"

__all__ = ["compose_partners", "BACKEND"]


def compose_partners(lower, k, mid, upper, top):
    """Glue `upper` (mid -> top) on top of `lower` (k -> mid).

    Returns (loops, partner) where partner describes the residual matching on
    k + top boundary nodes and loops counts the closed cycles deleted from
    the middle.
    """
    n = k + top
    res = [-1] * n
    mid_seen = [False] * mid

    for start in range(n):
        if res[start] >= 0:
            continue
        if start < k:
            in_upper = False
            node = start
        else:
            in_upper = True
            node = mid + (start - k)
        while True:
            if in_upper:
                p = upper[node]
                if p >= mid:
                    end = k + (p - mid)
                    break
                mid_seen[p] = True
                in_upper = False
                node = k + p
            else:
                p = lower[node]
                if p < k:
                    end = p
                    break
                j = p - k
                mid_seen[j] = True
                in_upper = True
                node = j
        res[start] = end
        res[end] = start

    loops = 0
    for j in range(mid):
        if mid_seen[j]:
            continue
        loops += 1
        cur = j
        while True:
            mid_seen[cur] = True
            j2 = lower[k + cur] - k
            mid_seen[j2] = True
            cur = upper[j2]
            if cur == j:
                break
    return loops, tuple(res)
