"""Reference implementations shared by several test modules."""

import numpy as np

from cachecast.lp import FEAS_TOL, LinearProgram


def pieces(pm, file: int) -> list[np.ndarray]:
    """Per mask 0..2^K-1, the ascending indices of the symbols of file
    that pm stores exactly at that cache subset."""
    row = pm.holder[file - 1]
    order = np.argsort(row, kind="stable")
    ends = np.cumsum(np.bincount(row, minlength=1 << pm.config.K)).tolist()
    return [order[a:b] for a, b in zip([0] + ends, ends)]


def hand_reduced(lp):
    """lp without fixed variables, emptied rows and implied singleton
    inequality rows, or None if an emptied row is violated."""
    fixed = lp.lo == lp.hi
    free = ~fixed
    lo, hi = lp.lo[free], lp.hi[free]
    rows = {"E": [], "f": [], "A": [], "b": []}
    for kind, M, rhs in (("E", lp.E, lp.f), ("A", lp.A, lp.b)):
        for row, r in zip(M, rhs):
            r = r - row[fixed] @ lp.lo[fixed]
            live = row[free]
            nz = np.flatnonzero(live)
            if nz.size == 0:
                if (abs(r) if kind == "E" else -r) > FEAS_TOL:
                    return None
                continue
            if kind == "A" and nz.size == 1:
                a = live[nz[0]]
                if a * (hi[nz[0]] if a > 0 else lo[nz[0]]) <= r:
                    continue
            rows[kind].append(live)
            rows["f" if kind == "E" else "b"].append(r)
    k = int(free.sum())
    E = np.array(rows["E"], dtype=float).reshape(len(rows["E"]), k)
    A = np.array(rows["A"], dtype=float).reshape(len(rows["A"]), k)
    return LinearProgram(c=lp.c[free], E=E, f=rows["f"], A=A, b=rows["b"], lo=lo, hi=hi)
