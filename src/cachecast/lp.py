"""Linear-program solver used by the placement and delivery planners.

Minimizes c.v subject to E v = f, A v <= b and per-variable bounds
lo <= v <= hi.  The solver is a two-phase primal simplex on a dense
tableau with native bounded variables (bounds never become rows), which
keeps the planner LPs small.  Pivoting is deterministic: Dantzig's rule
with lowest-index tie-breaks, switching to Bland's anti-cycling rule
while a degenerate plateau persists, so repeated calls on identical
input walk the identical path.

The problems this package produces are small (the largest adaptive
delivery LP at K=12 has 380 columns under centralized placement and
1,315 under decentralized), well scaled, always box-bounded and very
sparse: in the K=12 adaptive delivery LPs a pivot's entering column has
about 2 nonzeros in 73 rows and its pivot row about 8 in 267 columns.
So the tableau is a plain dense array, and each iteration reads and
writes only the nonzeros of the entering column and the pivot row; a
post-solve residual check audits the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9   # constraint / bound residual tolerance
OPT_TOL = 1e-9    # reduced-cost optimality tolerance
PIVOT_TOL = 1e-10  # entries smaller than this never pivot
_DEGEN_LIMIT = 40  # consecutive zero-step pivots before Bland's rule kicks in


class LpNumericalError(RuntimeError):
    """Raised when the tableau degrades past the feasibility tolerance."""


@dataclass
class LinearProgram:
    """min c.v  s.t.  E v = f,  A v <= b,  lo <= v <= hi.

    E/f or A/b may be empty (shape (0, n) / (0,)).  Bounds may be
    +-inf; every problem built by this package is finitely boxed.
    """

    c: np.ndarray
    E: np.ndarray
    f: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        self.E = np.asarray(self.E, dtype=float).reshape(-1, n) if np.size(self.E) else np.zeros((0, n))
        self.A = np.asarray(self.A, dtype=float).reshape(-1, n) if np.size(self.A) else np.zeros((0, n))
        self.f = np.asarray(self.f, dtype=float).reshape(-1)
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        self.lo = np.asarray(self.lo, dtype=float).reshape(-1)
        self.hi = np.asarray(self.hi, dtype=float).reshape(-1)
        if self.E.shape[0] != self.f.shape[0]:
            raise ValueError("E and f disagree on the number of equality rows")
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A and b disagree on the number of inequality rows")
        if self.lo.shape[0] != n or self.hi.shape[0] != n:
            raise ValueError("bounds must have one entry per variable")
        if np.any(self.lo > self.hi + FEAS_TOL):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]


@dataclass
class LpSolution:
    """Solver outcome.  assignment is None unless status == 'optimal'."""

    status: str  # optimal | infeasible | unbounded
    value: float
    assignment: np.ndarray | None = None
    iterations: int = 0


# nonbasic status codes
_AT_LO, _AT_UP, _FREE = 0, 1, 2


class _Tableau:
    """Working state: reduced rows, basic values, variable statuses."""

    def __init__(self, M, lo, hi):
        self.M = M            # (m, ncol) current reduced coefficient rows
        self.m = M.shape[0]
        self.ncol = M.shape[1]
        self.lo = lo
        self.hi = hi
        self.basis = np.full(self.m, -1, dtype=int)
        self.xB = np.zeros(self.m)
        self.status = np.full(self.ncol, _AT_LO, dtype=np.int8)
        self.val = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        self.status[~np.isfinite(lo) & np.isfinite(hi)] = _AT_UP
        self.status[~np.isfinite(lo) & ~np.isfinite(hi)] = _FREE

    def values(self):
        vals = self.val.copy()
        vals[self.basis] = self.xB
        return vals

    def reduced_costs(self, c):
        return c - self.M.T @ c[self.basis]

    def pivot(self, row, col):
        """Make col basic in row and return row's nonzero columns.

        Only the block of col's nonzero rows and row's nonzero columns
        changes.  Each of its cells gets the product-then-subtract of a
        full dense update, so the floats are those of one; a cell outside
        it would only have had a zero subtracted, which can flip the sign
        of a zero and nothing else.
        """
        M = self.M
        rows = M[:, col].nonzero()[0]
        rows = rows[rows != row]
        cols = M[row].nonzero()[0]
        M[row, cols] /= M[row, col]
        if rows.size:
            M[rows[:, None], cols] -= np.outer(M[rows, col], M[row, cols])
            M[rows, col] = 0.0
        M[row, col] = 1.0
        return cols


def _scores(z, status, open_):
    """Pricing score per column: |z| where the column can enter in its
    improving direction, -1 where it cannot.  open_ marks nonbasic columns
    that may enter at all; a nonbasic column is at its lower bound, at its
    upper bound or free."""
    can = open_ & (((status != _AT_UP) & (z < -OPT_TOL)) | ((status != _AT_LO) & (z > OPT_TOL)))
    return np.where(can, np.abs(z), -1.0)


def _simplex_phase(tab: _Tableau, c, allowed, max_iter):
    """Run primal simplex to optimality for costs c.

    allowed marks columns eligible to enter.  Returns (status, iters):
    status 'optimal' or 'unbounded'.

    An iteration touches only the nonzeros of the entering column (ratio
    test, basic values) and of the pivot row (pivot, reduced costs,
    scores).  Dantzig's rule is argmax of the scores, which breaks ties
    toward the lowest index; Bland's rule takes the first column that
    scores >= 0.
    """
    M, xB, lo, hi, basis, status, val = tab.M, tab.xB, tab.lo, tab.hi, tab.basis, tab.status, tab.val
    z = tab.reduced_costs(c)
    enterable = allowed & ((hi - lo) > 0)  # fixed variables never enter
    open_ = enterable.copy()
    open_[basis] = False
    score = _scores(z, status, open_)
    degen_run = 0
    iters = 0
    while iters < max_iter:
        iters += 1
        if degen_run >= _DEGEN_LIMIT:
            j = int((score >= 0.0).argmax())  # Bland: lowest index
        else:
            j = int(score.argmax())
        if score[j] < 0.0:
            return "optimal", iters
        sigma = 1.0 if z[j] < 0.0 else -1.0

        rows = M[:, j].nonzero()[0]
        move = sigma * M[rows, j]  # basic values change by -move * t
        t_best = math.inf
        if status[j] != _FREE:
            span = float(hi[j] - lo[j])
            if math.isfinite(span):
                t_best = span  # bound flip
        leave_row = -1
        out = basis[rows]
        ratios = []
        for i, mv, xb, lo_i, hi_i, var in zip(rows.tolist(), move.tolist(), xB[rows].tolist(),
                                             lo[out].tolist(), hi[out].tolist(), out.tolist()):
            if mv > PIVOT_TOL:
                r = (xb - lo_i) / mv
            elif mv < -PIVOT_TOL:
                r = (hi_i - xb) / -mv
            else:
                continue
            if math.isfinite(r):  # drift below 0, and -0.0, clamp to 0.0
                ratios.append((r if r > 0.0 else 0.0, var, i, mv))
        if ratios:
            rmin = min(ratios)[0]
            if rmin < t_best:
                t_best = rmin
                # ties go to the lowest variable index
                tied = [(var, i, mv) for r, var, i, mv in ratios if r <= rmin + 1e-12]
                out_var, leave_row, leave_move = min(tied)
        if t_best == math.inf:
            return "unbounded", iters

        degen_run = degen_run + 1 if t_best <= 1e-12 else 0

        xB[rows] -= move * t_best
        if leave_row < 0:
            # bound flip, no basis change; j now sits at the bound it moved
            # toward, where it cannot improve
            status[j] = _AT_UP if sigma > 0 else _AT_LO
            val[j] = hi[j] if sigma > 0 else lo[j]
            score[j] = -1.0
            continue
        entering_val = val[j] + sigma * t_best
        # leaving variable parks at whichever of its bounds it reached
        if leave_move > 0:
            status[out_var] = _AT_LO
            val[out_var] = lo[out_var]
        else:
            status[out_var] = _AT_UP
            val[out_var] = hi[out_var]
        basis[leave_row] = j
        open_[out_var] = enterable[out_var]
        open_[j] = False
        xB[leave_row] = entering_val
        # cols holds j and out_var: the leaving column was the unit
        # column of leave_row, so the pivot row is 1 / pivot there
        cols = tab.pivot(leave_row, j)
        z[cols] -= z[j] * M[leave_row, cols]
        z[j] = 0.0
        if iters % 512 == 0:
            z = tab.reduced_costs(c)  # refresh against drift
            score = _scores(z, status, open_)
        else:
            score[cols] = _scores(z[cols], status[cols], open_[cols])
    raise LpNumericalError("simplex exceeded the iteration budget")


def solve(lp: LinearProgram) -> LpSolution:
    """Solve lp to optimality by two-phase simplex.  Deterministic for
    identical inputs.

    Fixed variables (lo == hi) never enter the basis, and a row without
    a nonzero stays inert, or makes phase 1 report infeasibility when
    its right-hand side violates it.

    Raises LpNumericalError if the solution fails the 1e-9 residual
    check (the solver never returns a silently-wrong optimum).
    """
    n = lp.n_vars
    me, mi = lp.E.shape[0], lp.A.shape[0]
    m = me + mi
    if m == 0:
        # pure box problem: each variable sits at its cheaper bound
        x = np.where(lp.c > 0, lp.lo, np.where(lp.c < 0, lp.hi, 0.0))
        zero_cost = lp.c == 0
        x[zero_cost] = np.clip(0.0, lp.lo[zero_cost], lp.hi[zero_cost])
        if not np.all(np.isfinite(x)):
            return LpSolution("unbounded", -np.inf)
        return LpSolution("optimal", float(lp.c @ x), x)

    rows = np.vstack([lp.E, lp.A])
    rhs = np.concatenate([lp.f, lp.b])

    nslack = mi
    ncol = n + nslack + m  # structural + slacks + one artificial per row
    M = np.zeros((m, ncol))
    M[:, :n] = rows
    lo = np.concatenate([lp.lo, np.zeros(nslack), np.zeros(m)])
    hi = np.concatenate([lp.hi, np.full(nslack, np.inf), np.full(m, np.inf)])
    for i in range(mi):
        M[me + i, n + i] = 1.0

    tab = _Tableau(M, lo, hi)
    start_vals = tab.val[:n].copy()
    resid = rhs - rows @ start_vals

    art_cols = []
    for i in range(m):
        if i >= me and resid[i] >= 0.0:
            # slack can start basic at a feasible value
            tab.basis[i] = n + (i - me)
            tab.xB[i] = resid[i]
            continue
        j = n + nslack + i
        if resid[i] < 0:
            # artificial column is -e_i; the reduced row flips sign so the
            # basic column stays an identity column
            tab.M[i, :] = -tab.M[i, :]
        tab.M[i, j] = 1.0
        tab.basis[i] = j
        tab.xB[i] = abs(resid[i])
        art_cols.append(j)
    art_cols = np.array(art_cols, dtype=int)

    max_iter = 50 * (m + ncol) + 5000

    if art_cols.size:
        c1 = np.zeros(ncol)
        c1[art_cols] = 1.0
        allowed = np.ones(ncol, dtype=bool)
        status, it1 = _simplex_phase(tab, c1, allowed, max_iter)
        if status != "optimal":
            raise LpNumericalError("phase 1 reported unbounded; bad problem data")
        if float(c1 @ tab.values()) > 1e-7:
            return LpSolution("infeasible", np.nan, iterations=it1)
        # pin artificials so phase 2 cannot move them
        tab.hi[art_cols] = 0.0
        tab.lo[art_cols] = 0.0
        basic_mask = np.zeros(ncol, dtype=bool)
        basic_mask[tab.basis] = True
        for j in art_cols:
            if not basic_mask[j]:
                continue
            row = int(np.flatnonzero(tab.basis == j)[0])
            pivots = np.abs(tab.M[row, :n + nslack])
            k = int(np.argmax(pivots))
            if pivots[k] > PIVOT_TOL:
                out = tab.basis[row]
                tab.val[out] = 0.0
                tab.status[out] = _AT_LO
                tab.basis[row] = k
                entering_val = tab.val[k]
                tab.pivot(row, k)
                tab.xB[row] = entering_val
                basic_mask[k] = True
            # else: numerically redundant row; the artificial stays basic
            # at zero and its row is (near-)zero elsewhere, which is inert
    else:
        it1 = 0

    c2 = np.zeros(ncol)
    c2[:n] = lp.c
    allowed = np.ones(ncol, dtype=bool)
    allowed[n + nslack:] = False
    status, it2 = _simplex_phase(tab, c2, allowed, max_iter)
    if status == "unbounded":
        return LpSolution("unbounded", -np.inf, iterations=it1 + it2)

    vals = tab.values()
    x = np.clip(vals[:n], lp.lo, lp.hi)
    _check_residuals(lp, x)
    return LpSolution("optimal", float(lp.c @ x), x, iterations=it1 + it2)


def _check_residuals(lp: LinearProgram, x: np.ndarray):
    # max |entry| from min and max: solve still holds the tableau here, so
    # an m x n abs copy would raise its peak memory
    scale = 1.0 + max(1.0, float(np.max(np.abs(x), initial=0.0)))
    if lp.E.shape[0]:
        r = np.max(np.abs(lp.E @ x - lp.f))
        if r > FEAS_TOL * scale * max(1.0, float(lp.E.max()), -float(lp.E.min())):
            raise LpNumericalError(f"equality residual {r:.3e} beyond tolerance")
    if lp.A.shape[0]:
        r = float(np.max(lp.A @ x - lp.b, initial=0.0))
        if r > FEAS_TOL * scale * max(1.0, float(lp.A.max()), -float(lp.A.min())):
            raise LpNumericalError(f"inequality residual {r:.3e} beyond tolerance")
