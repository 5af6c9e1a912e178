"""Linear-program solver used by the placement and delivery planners.

Minimizes c.v subject to E v = f, A v <= b and per-variable bounds
lo <= v <= hi.  The solver is a two-phase primal simplex on a dense
tableau with native bounded variables (bounds never become rows), which
keeps the planner LPs small.  Phase 1 adds an artificial column only for
a row that cannot start on a feasible slack.  Every LP takes this one
path; without rows, each improving column flips to its cheaper bound.
Pivoting is deterministic: Dantzig's rule
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
post-solve residual check audits the result.  At two nonzeros a numpy
call costs more than its arithmetic, so the ratio test, the basic-value
update and the bound flips run on Python floats (see _simplex_phase),
with the floats a full dense update computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LpNumericalError"]

FEAS_TOL = 1e-9   # constraint / bound residual tolerance
OPT_TOL = 1e-9    # reduced-cost optimality tolerance
PIVOT_TOL = 1e-10  # entries smaller than this never pivot
_DEGEN_LIMIT = 40  # consecutive zero-step pivots before Bland's rule kicks in


class LpNumericalError(RuntimeError):
    """Raised when the tableau degrades past the feasibility tolerance."""


@dataclass
class LinearProgram:
    """min c.v  s.t.  E v = f,  A v <= b,  lo <= v <= hi.

    E/f or A/b may be empty (shape (0, n) / (0,)).  Lower bounds are
    finite; an upper bound may be +inf.  Every problem built by this
    package is finitely boxed.
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
        if not np.all(np.isfinite(self.lo)):
            raise ValueError("lower bounds must be finite")
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


# nonbasic status codes; _scores compares them with booleans, so _AT_LO
# must be 0 (False) and _AT_UP 1 (True)
_AT_LO, _AT_UP = 0, 1


class _Tableau:
    """Working state: reduced rows, basic values, variable statuses."""

    def __init__(self, M, lo, hi):
        self.M = M            # (m, ncol) current reduced coefficient rows
        self.flat = M.reshape(-1)  # a view: M is C-contiguous and updated in place
        self.m = M.shape[0]
        self.ncol = M.shape[1]
        self.lo = lo
        self.hi = hi
        self.basis = np.full(self.m, -1, dtype=int)
        self.xB = np.zeros(self.m)
        self.status = np.full(self.ncol, _AT_LO, dtype=np.int8)
        self.val = lo.copy()  # every nonbasic column starts at its lower bound

    def values(self):
        vals = self.val.copy()
        vals[self.basis] = self.xB
        return vals

    def reduced_costs(self, c):
        return c - self.M.T @ c[self.basis]

    def pivot(self, row, col, rows):
        """Make col basic in row; rows are col's nonzero rows, row among
        them.  Returns (cols, prow): row's nonzero columns and the new
        pivot row there.

        Only the block of col's other nonzero rows and row's nonzero
        columns changes.  Each of its cells gets the product-then-subtract
        of a full dense update, so the floats are those of one; a cell
        outside it would only have had a zero subtracted, which can flip
        the sign of a zero and nothing else.  The block is read and written
        through flat indices into M.
        """
        M = self.M
        cols = M[row].nonzero()[0]
        prow = M[row, cols] / M[row, col]
        M[row, cols] = prow
        rows = rows[rows != row]
        if rows.size:
            idx = (rows * self.ncol)[:, None] + cols
            self.flat[idx] -= M[rows, col][:, None] * prow
            M[rows, col] = 0.0
        M[row, col] = 1.0
        return cols, prow


def _scores(z, status, open_):
    """Pricing score per column: |z| where the column can enter in its
    improving direction, -1 where it cannot.  open_ marks nonbasic columns
    that may enter at all; a nonbasic column is at its lower or its upper
    bound.  Improving means increasing where z < -OPT_TOL, blocked at the
    upper bound (status 1 == True), and decreasing where z > OPT_TOL,
    blocked at the lower bound (status 0 == False)."""
    size = np.abs(z)
    can = (size > OPT_TOL) & open_
    can &= status != (z < -OPT_TOL)
    return np.where(can, size, -1.0)


def _simplex_phase(tab: _Tableau, c, max_iter):
    """Run primal simplex to optimality for costs c.

    A column may enter when its bounds leave it room to move, so fixed
    variables, and artificials once solve pins them at 0, never do.
    Returns (status, iters): status 'optimal' or 'unbounded'.

    An iteration touches only the nonzeros of the entering column (ratio
    test, basic values) and of the pivot row (pivot, reduced costs,
    scores).  Dantzig's rule is argmax of the scores, which breaks ties
    toward the lowest index; Bland's rule takes the first column that
    scores >= 0.

    An entering column has about two nonzeros, where a numpy call costs
    more than the arithmetic it does.  So for the length of the phase the
    per-row state that the ratio test reads and writes (xB and basis) and
    the per-column val, lo and hi are Python lists, and the ratio test,
    the basic-value update and the bound-flip bookkeeping run in Python
    floats: the same IEEE operations, in the same order, as the dense
    loop's numpy ones, so the pivot path and the bytes are the same.  The
    per-column z, status, open_ and score stay numpy arrays, updated over
    the pivot row's columns at once; xB, basis and val go back to tab
    however the phase ends.
    """
    M, status = tab.M, tab.status
    z = tab.reduced_costs(c)
    enterable = (tab.hi - tab.lo) > 0
    open_ = enterable.copy()
    open_[tab.basis] = False
    score = _scores(z, status, open_)
    xB, basis, val = tab.xB.tolist(), tab.basis.tolist(), tab.val.tolist()
    lo, hi = tab.lo.tolist(), tab.hi.tolist()
    degen_run = 0
    iters = 0
    try:
        while iters < max_iter:
            iters += 1
            if degen_run >= _DEGEN_LIMIT:
                j = int((score >= 0.0).argmax())  # Bland: lowest index
            else:
                j = int(score.argmax())
            if score.item(j) < 0.0:
                return "optimal", iters
            sigma = 1.0 if z.item(j) < 0.0 else -1.0

            column = M[:, j]
            rows = column.nonzero()[0]
            at, entries = rows.tolist(), column[rows].tolist()
            span = hi[j] - lo[j]
            t_best = span if math.isfinite(span) else math.inf  # bound flip
            leave_row = -1
            ratios = []
            for i, a in zip(at, entries):
                mv = sigma * a  # basic value i changes by -mv * t
                if mv > PIVOT_TOL:
                    r = (xB[i] - lo[basis[i]]) / mv
                elif mv < -PIVOT_TOL:
                    r = (hi[basis[i]] - xB[i]) / -mv
                else:
                    continue
                if math.isfinite(r):  # drift below 0, and -0.0, clamp to 0.0
                    ratios.append((r if r > 0.0 else 0.0, basis[i], i, mv))
            if ratios:
                rmin = min(ratios)[0]
                if rmin < t_best:
                    t_best = rmin
                    # ties go to the lowest variable index
                    out_var, leave_row, leave_move = min(
                        (var, i, mv) for r, var, i, mv in ratios if r <= rmin + 1e-12)
            if t_best == math.inf:
                return "unbounded", iters

            degen_run = degen_run + 1 if t_best <= 1e-12 else 0

            for i, a in zip(at, entries):
                xB[i] -= sigma * a * t_best
            if leave_row < 0:
                # bound flip, no basis change; j now sits at the bound it
                # moved toward, where it cannot improve
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
            cols, prow = tab.pivot(leave_row, j, rows)
            zc = z[cols] - z[j] * prow
            z[cols] = zc
            z[j] = 0.0
            if iters % 512 == 0:
                tab.basis[:] = basis
                z = tab.reduced_costs(c)  # refresh against drift
                score = _scores(z, status, open_)
            else:
                score[cols] = _scores(zc, status[cols], open_[cols])
        raise LpNumericalError("simplex exceeded the iteration budget")
    finally:
        tab.xB[:], tab.basis[:], tab.val[:] = xB, basis, val


def solve(lp: LinearProgram) -> LpSolution:
    """Solve lp to optimality by two-phase simplex.  Deterministic for
    identical inputs.

    The tableau holds the n structural columns, one slack per inequality
    row, then one artificial per row that cannot start on a feasible
    slack, in row order, so equality row i owns column n + mi + i.  An
    LP without rows runs the same loop.  Fixed variables (lo == hi)
    never enter the basis, and a row without a nonzero stays inert, or
    makes phase 1 report infeasibility when its right-hand side violates
    it.

    Raises LpNumericalError if the solution fails the 1e-9 residual
    check (the solver never returns a silently-wrong optimum).
    """
    n = lp.n_vars
    me, mi = lp.E.shape[0], lp.A.shape[0]
    m = me + mi
    resid = np.concatenate([lp.f - lp.E @ lp.lo, lp.b - lp.A @ lp.lo])  # columns start at lo

    # an inequality row with resid >= 0 starts with its slack basic at a
    # feasible value; every other row gets an artificial
    slack_ok = np.zeros(m, dtype=bool)
    slack_ok[me:] = resid[me:] >= 0.0
    slack_rows = np.flatnonzero(slack_ok)
    art_rows = np.flatnonzero(~slack_ok)
    first_art = n + mi  # structural and slack columns come first
    ncol = first_art + art_rows.size
    if ncol == 0:
        return LpSolution("optimal", 0.0, np.zeros(0))  # no variables, no rows

    M = np.zeros((m, ncol))
    M[:me, :n] = lp.E
    M[me:, :n] = lp.A
    M[np.arange(me, m), np.arange(n, first_art)] = 1.0
    # where resid < 0 the artificial column is -e_i; the reduced row flips
    # sign so the basic column stays an identity column
    flip = resid < 0
    M[flip] = -M[flip]
    art_cols = np.arange(first_art, ncol)
    M[art_rows, art_cols] = 1.0
    lo = np.concatenate([lp.lo, np.zeros(ncol - n)])
    hi = np.concatenate([lp.hi, np.full(ncol - n, np.inf)])

    tab = _Tableau(M, lo, hi)
    tab.basis[slack_rows] = n + slack_rows - me
    tab.basis[art_rows] = art_cols
    tab.xB[slack_rows] = resid[slack_rows]
    tab.xB[art_rows] = np.abs(resid[art_rows])

    max_iter = 50 * (m + ncol) + 5000

    it1 = 0
    if art_cols.size:
        c1 = np.zeros(ncol)
        c1[art_cols] = 1.0
        status, it1 = _simplex_phase(tab, c1, max_iter)
        if status != "optimal":
            raise LpNumericalError("phase 1 reported unbounded; bad problem data")
        if float(c1 @ tab.values()) > 1e-7:
            return LpSolution("infeasible", np.nan, iterations=it1)
        # pin artificials so phase 2 cannot move them
        tab.hi[art_cols] = 0.0
        tab.lo[art_cols] = 0.0
        # rows still holding an artificial, in the artificials' order
        held = np.flatnonzero(tab.basis >= first_art)
        for row in held[np.argsort(tab.basis[held])].tolist():
            pivots = np.abs(tab.M[row, :first_art])
            k = int(np.argmax(pivots))
            if pivots[k] > PIVOT_TOL:
                out = tab.basis[row]
                tab.val[out] = 0.0
                tab.status[out] = _AT_LO
                tab.basis[row] = k
                entering_val = tab.val[k]
                tab.pivot(row, k, tab.M[:, k].nonzero()[0])
                tab.xB[row] = entering_val
            # else: numerically redundant row; the artificial stays basic
            # at zero and its row is (near-)zero elsewhere, which is inert

    c2 = np.zeros(ncol)
    c2[:n] = lp.c
    status, it2 = _simplex_phase(tab, c2, max_iter)
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
