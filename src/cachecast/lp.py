"""Linear-program solver used by the placement and delivery planners.

Minimizes c.v subject to E v = f, A v <= b and per-variable bounds
lo <= v <= hi.  The solver is a two-phase primal simplex with native
bounded variables (bounds never become rows), which keeps the planner LPs
small.  Phase 1 adds an artificial column only for a row that cannot
start on a feasible slack.  Every LP takes this one path; without rows,
each improving column flips to its cheaper bound.  Pivoting is
deterministic: Dantzig's rule with lowest-index tie-breaks, switching to
Bland's anti-cycling rule while a degenerate plateau persists, so
repeated calls on identical input walk the identical path.

The problems this package produces are small (the largest adaptive
delivery LP at K=12 has 380 columns under centralized placement and
1,315 under decentralized), well scaled, always box-bounded and very
sparse.  The largest centralized K=12 tableau is 237 rows by 617 columns
with 1,006 nonzeros, and in the K=12 LPs a pivot's entering column has
about 2 nonzeros in 73 rows and its pivot row about 8 in 267 columns.  At
that size a numpy call costs more than its arithmetic, so for the length
of one solve the tableau is one {column: value} map per row and one
{row: value} map per column, over exactly its nonzero cells, and an
iteration runs on Python floats: the ratio test reads the entering
column's map, and a pivot updates the block of that column's rows and the
pivot row's columns in both maps in place (see _Tableau.pivot).  These
are the IEEE operations of a dense loop, in the same order, so the pivot
path and the bytes are those of a dense tableau.

The dense array stays for one job: the reduced costs c - M.T @ c_B at
each phase start and every 512th iteration.  BLAS sums them in an order
the maps cannot reproduce, so solve keeps the dense M it builds the maps
from and rewrites, in place, the rows that changed before each product.
A tableau that fills in (dense rows over many rows) is far slower on maps
than on a dense array; no LP this package builds does.  A post-solve
residual check audits the result.
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
    """Working state of one solve: the reduced rows as sparse maps, and the
    basic values and variable statuses as Python lists.

    rows[i] maps column -> value and cols[k] maps row -> value, each over
    exactly the nonzero cells of the reduced matrix; pivot updates both in
    place.  M is the dense matrix the maps started from, rewritten from
    them in place before each product with it.
    """

    def __init__(self, M, lo, hi, basis, xB):
        self.M = M
        m, self.ncol = M.shape
        # flat indices of the nonzeros (a boolean mask scans far faster
        # than M.nonzero() on floats)
        at = np.flatnonzero(M != 0.0)
        vals = M.reshape(-1)[at].tolist()
        at, ks = np.divmod(at, self.ncol)
        self.rows = rows = [{} for _ in range(m)]
        self.cols = cols = [{} for _ in range(self.ncol)]
        for i, k, x in zip(at.tolist(), ks.tolist(), vals):
            rows[i][k] = cols[k][i] = x
        self.dirty = set()  # rows where M lags the maps
        self.lo, self.hi = lo.tolist(), hi.tolist()
        self.basis, self.xB = basis.tolist(), xB.tolist()
        self.status = [_AT_LO] * self.ncol
        self.val = list(self.lo)  # every nonbasic column starts at its lower bound

    def values(self):
        vals = np.array(self.val)
        vals[self.basis] = self.xB
        return vals

    def reduced_costs(self, c):
        """c - M.T @ c[basis], through BLAS on the dense M, whose summation
        order the maps cannot reproduce."""
        M, rows, dirty = self.M, self.rows, list(self.dirty)
        if dirty:
            M[dirty] = 0.0
            flat = M.reshape(-1)  # a view: M is C-contiguous
            ncol = self.ncol
            flat[[i * ncol + k for i in dirty for k in rows[i]]] = [
                x for i in dirty for x in rows[i].values()]
            self.dirty.clear()
        return c - M.T @ c[self.basis]

    def pivot(self, row, col):
        """Make col basic in row; returns the new pivot row's map.

        Only the block of col's other nonzero rows and row's nonzero
        columns changes.  Each of its cells gets the product-then-subtract
        of a full dense update, so the floats are those of one; a cell
        outside it would only have had a zero subtracted, which can flip
        the sign of a zero and nothing else.  A cell that becomes exactly
        zero leaves both maps, as a dense loop's nonzero() skips it.
        """
        rows, cols = self.rows, self.cols
        prow = rows[row]
        piv = prow[col]
        for k, x in prow.items():
            prow[k] = cols[k][row] = x / piv
        prow[col] = 1.0
        if 0.0 in prow.values():  # a quotient underflowed
            for k in [k for k, p in prow.items() if not p]:
                del prow[k], cols[k][row]
        self.dirty.update(cols[col])
        for i, a in [(i, a) for i, a in cols[col].items() if i != row]:
            cells = rows[i]
            get = cells.get
            for k, p in prow.items():
                x = get(k, 0.0) - a * p
                if x:
                    cells[k] = cols[k][i] = x
                else:
                    cells.pop(k, None)
                    cols[k].pop(i, None)
            # col's own cell came to a - a * 1.0 == 0.0 above unless a is
            # not finite; a dense update zeroes it either way
            cells.pop(col, None)
        cols[col] = {row: 1.0}
        return prow


def _scores(z, status, open_):
    """Pricing score per column: |z| where the column can enter in its
    improving direction, -1 where it cannot.  open_ marks nonbasic columns
    that may enter at all; a nonbasic column is at its lower or its upper
    bound.  Improving means increasing where z < -OPT_TOL, blocked at the
    upper bound (status 1 == True), and decreasing where z > OPT_TOL,
    blocked at the lower bound (status 0 == False).  _simplex_phase
    repeats this test on Python floats for a pivot row's columns."""
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
    scores), all Python floats in the tableau's maps and lists: the same
    IEEE operations, in the same order, as a dense loop's numpy ones, so
    the pivot path and the bytes are the same.  Only the score vector is a
    numpy array, for its argmax: Dantzig's rule is argmax of the scores,
    which breaks ties toward the lowest index; Bland's rule takes the first
    column that scores >= 0.
    """
    cols = tab.cols
    xB, basis, val, status = tab.xB, tab.basis, tab.val, tab.status
    lo, hi = tab.lo, tab.hi
    enterable = [h - l > 0 for l, h in zip(lo, hi)]
    open_ = list(enterable)
    for k in basis:
        open_[k] = False

    def pricing():
        z = tab.reduced_costs(c)
        return z.tolist(), _scores(z, np.array(status), np.array(open_))

    z, score = pricing()
    inf = math.inf
    degen_run = 0
    iters = 0
    while iters < max_iter:
        iters += 1
        if degen_run >= _DEGEN_LIMIT:
            j = int((score >= 0.0).argmax())  # Bland: lowest index
        else:
            j = int(score.argmax())
        if score.item(j) < 0.0:
            return "optimal", iters
        zj = z[j]
        sigma = 1.0 if zj < 0.0 else -1.0

        column = cols[j]
        span = hi[j] - lo[j]
        t_best = span if span < inf else inf  # bound flip
        leave_row = -1
        ratios = []
        for i, a in column.items():
            mv = sigma * a  # basic value i changes by -mv * t
            if mv > PIVOT_TOL:
                var = basis[i]
                r = (xB[i] - lo[var]) / mv
            elif mv < -PIVOT_TOL:
                var = basis[i]
                r = (hi[var] - xB[i]) / -mv
            else:
                continue
            if -inf < r < inf:  # finite; drift below 0, and -0.0, clamp to 0.0
                ratios.append((r if r > 0.0 else 0.0, var, i, mv))
        if ratios:
            rmin = min(ratios)[0]
            if rmin < t_best:
                t_best = rmin
                if len(ratios) == 1:
                    _, out_var, leave_row, leave_move = ratios[0]
                else:  # ties go to the lowest variable index
                    out_var, leave_row, leave_move = min(
                        (var, i, mv) for r, var, i, mv in ratios if r <= rmin + 1e-12)
        if t_best == inf:
            return "unbounded", iters

        degen_run = degen_run + 1 if t_best <= 1e-12 else 0

        for i, a in column.items():
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
        # the pivot row holds j and out_var: the leaving column was the
        # unit column of leave_row, so the pivot row is 1 / pivot there
        prow = tab.pivot(leave_row, j)
        if iters % 512 == 0:
            z, score = pricing()  # refresh against drift
            continue
        for k, p in prow.items():
            zk = z[k] = z[k] - zj * p
            size = abs(zk)
            can = size > OPT_TOL and open_[k] and status[k] != (zk < -OPT_TOL)
            score[k] = size if can else -1.0
        z[j] = 0.0
    raise LpNumericalError("simplex exceeded the iteration budget")


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
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = n + slack_rows - me
    basis[art_rows] = art_cols
    tab = _Tableau(M, lo, hi, basis, np.where(slack_ok, resid, np.abs(resid)))

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
        tab.lo[first_art:] = tab.hi[first_art:] = [0.0] * art_cols.size
        # rows still holding an artificial, in the artificials' order
        for _, row in sorted((k, i) for i, k in enumerate(tab.basis) if k >= first_art):
            # the largest structural or slack entry, the lowest column on
            # ties, as np.argmax of the row's magnitudes would pick it
            k, x = max(((k, x) for k, x in tab.rows[row].items() if k < first_art),
                       key=lambda kx: (abs(kx[1]), -kx[0]), default=(0, 0.0))
            if abs(x) > PIVOT_TOL:
                out = tab.basis[row]
                tab.val[out] = 0.0
                tab.status[out] = _AT_LO
                tab.basis[row] = k
                entering_val = tab.val[k]
                tab.pivot(row, k)
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
