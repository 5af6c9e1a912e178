"""Simplex solver, validated against brute-force vertex enumeration.

The oracle enumerates candidate optima directly from the KKT structure of
a bounded problem: every basic feasible point is defined by picking n
active constraints (rows at equality or variables at a bound) and solving
the square system. That is exponential but fine at the sizes used here,
and it is a completely independent check on the simplex path.

The dense two-phase simplex that the sparse map tableau replaced is kept
at the end of this file, whole, as a second oracle (solve_reference): the
same set-up, drive-out loop and phase loop on a dense array, sharing only
the tolerances, the LP and solution types and the residual check with
cachecast.lp.  On every input the two must walk the same pivot path to the
same bytes; a trace of the reference shows which of its branches (Bland's
rule, the reduced-cost refresh, the drive-out) each input reached.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cachecast.lp as lp_mod
from cachecast import delivery
from cachecast.core import RedundancyPattern, partitions_into_parts
from cachecast.delivery import adaptive_plan, canonical_demand
from cachecast.lp import (
    _DEGEN_LIMIT,
    OPT_TOL,
    PIVOT_TOL,
    LinearProgram,
    LpNumericalError,
    LpSolution,
    _check_residuals,
    solve,
)
from cachecast.placement import centralized_profile, decentralized_profile, solve_placement_lp

from oracles import hand_reduced

RNG_TRIALS = 120


def brute_force_min(c, E, f, A, b, lo, hi):
    """Minimize over all vertices of the (bounded) feasible polytope."""
    n = len(c)
    rows = []
    rhs = []
    if E.size:
        for i in range(E.shape[0]):
            rows.append((E[i], f[i], "eq"))
    if A.size:
        for i in range(A.shape[0]):
            rows.append((A[i], b[i], "le"))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, lo[j], "bound"))
        rows.append((e, hi[j], "bound"))
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        if any(rows[i][2] == "eq" for i in range(len(rows))) and not all(
            i in combo for i, r in enumerate(rows) if r[2] == "eq"
        ):
            continue
        M = np.array([rows[i][0] for i in combo])
        v = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        x = np.linalg.solve(M, v)
        if E.size and np.max(np.abs(E @ x - f)) > 1e-7:
            continue
        if A.size and np.max(A @ x - b) > 1e-7:
            continue
        if np.any(x < lo - 1e-7) or np.any(x > hi + 1e-7):
            continue
        val = float(c @ x)
        if best is None or val < best:
            best = val
    return best


def random_bounded_lp(rng, n, me, ma):
    c = rng.normal(size=n)
    E = rng.normal(size=(me, n)) if me else np.zeros((0, n))
    A = rng.normal(size=(ma, n)) if ma else np.zeros((0, n))
    lo = rng.uniform(-3.0, 0.0, size=n)
    hi = lo + rng.uniform(0.5, 4.0, size=n)
    # anchor the right-hand sides at an interior point so the problem
    # is feasible more often than not
    x0 = rng.uniform(lo, hi)
    f = E @ x0 if me else np.zeros(0)
    b = (A @ x0 + rng.uniform(0.0, 2.0, size=ma)) if ma else np.zeros(0)
    return LinearProgram(c=c, E=E, f=f, A=A, b=b, lo=lo, hi=hi)


def with_fixed_bounds(lp, rng):
    """lp with a random subset of variables fixed (lo == hi) inside their box."""
    fixed = rng.random(lp.n_vars) < 0.4
    at = rng.uniform(lp.lo, lp.hi)
    lo, hi = lp.lo.copy(), lp.hi.copy()
    lo[fixed] = hi[fixed] = at[fixed]
    return LinearProgram(c=lp.c, E=lp.E, f=lp.f, A=lp.A, b=lp.b, lo=lo, hi=hi)


def random_trials():
    """RNG_TRIALS seeded random LPs, then the same again with some
    variables fixed."""
    rng = np.random.default_rng(1234)
    fix_rng = np.random.default_rng(4321)
    trials = []
    for _ in range(RNG_TRIALS):
        n = int(rng.integers(2, 5))
        me = int(rng.integers(0, min(n, 2) + 1))
        ma = int(rng.integers(0, 4))
        trials.append(random_bounded_lp(rng, n, me, ma))
    return trials + [with_fixed_bounds(lp, fix_rng) for lp in trials]


def test_solver_matches_vertex_enumeration():
    solved = 0
    for lp in random_trials():
        sol = solve(lp)
        oracle = brute_force_min(lp.c, lp.E, lp.f, lp.A, lp.b, lp.lo, lp.hi)
        if oracle is None:
            assert sol.status == "infeasible"
            continue
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(oracle, abs=1e-7)
        # the reported assignment achieves the reported value and is feasible
        x = sol.assignment
        assert lp.c @ x == pytest.approx(sol.value, abs=1e-8)
        if lp.E.size:
            assert np.max(np.abs(lp.E @ x - lp.f)) < 1e-7
        if lp.A.size:
            assert np.max(lp.A @ x - lp.b) < 1e-7
        assert np.all(x >= lp.lo - 1e-9) and np.all(x <= lp.hi + 1e-9)
        solved += 1
    assert solved > RNG_TRIALS  # most random instances are feasible


def test_solver_matches_highs():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    solved = 0
    for lp in random_trials():
        sol = solve(lp)
        ref = scipy_optimize.linprog(
            lp.c, A_ub=lp.A if lp.A.size else None, b_ub=lp.b if lp.A.size else None,
            A_eq=lp.E if lp.E.size else None, b_eq=lp.f if lp.E.size else None,
            bounds=list(zip(lp.lo, lp.hi)), method="highs")
        if ref.status == 2:
            assert sol.status == "infeasible"
            continue
        assert ref.status == 0 and sol.status == "optimal"
        assert abs(sol.value - ref.fun) <= 1e-9
        solved += 1
    assert solved > RNG_TRIALS


def test_infeasible_detected():
    lp = LinearProgram(
        c=np.array([1.0, 1.0]),
        E=np.array([[1.0, 1.0]]),
        f=np.array([5.0]),
        A=np.zeros((0, 2)),
        b=np.zeros(0),
        lo=np.zeros(2),
        hi=np.ones(2),
    )
    assert solve(lp).status == "infeasible"


def test_unbounded_detected():
    lp = LinearProgram(
        c=np.array([-1.0, 0.0]),
        E=np.zeros((0, 2)),
        f=np.zeros(0),
        A=np.array([[-1.0, 1.0]]),
        b=np.array([1.0]),
        lo=np.array([0.0, 0.0]),
        hi=np.array([np.inf, np.inf]),
    )
    assert solve(lp).status == "unbounded"


def test_lower_bounds_must_be_finite():
    # the simplex starts every nonbasic column at its lower bound
    for lo in ([-np.inf, 0.0], [0.0, np.nan]):
        with pytest.raises(ValueError, match="lower bounds must be finite"):
            LinearProgram(c=np.ones(2), E=np.zeros((0, 2)), f=np.zeros(0),
                          A=np.ones((1, 2)), b=np.ones(1), lo=np.array(lo), hi=np.ones(2))


def test_pure_box_problem():
    # no rows at all: the solution snaps each variable to the cheap bound
    lp = LinearProgram(
        c=np.array([2.0, -3.0, 0.0]),
        E=np.zeros((0, 3)),
        f=np.zeros(0),
        A=np.zeros((0, 3)),
        b=np.zeros(0),
        lo=np.array([-1.0, -2.0, 0.5]),
        hi=np.array([4.0, 5.0, 2.0]),
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.assignment == pytest.approx([-1.0, 5.0, 0.5])
    assert sol.value == pytest.approx(-17.0)


def test_row_less_lp_is_unbounded_below_an_infinite_bound():
    # no rows: each improving column flips to its cheaper bound, which
    # for the second column is +inf
    lp = LinearProgram(c=[1.0, -1.0], E=np.zeros((0, 2)), f=np.zeros(0), A=np.zeros((0, 2)),
                       b=np.zeros(0), lo=[0.0, 0.0], hi=[1.0, np.inf])
    assert solve(lp).status == "unbounded"


def test_equality_only_square_system():
    lp = LinearProgram(
        c=np.array([1.0, 2.0]),
        E=np.array([[1.0, 0.0], [0.0, 1.0]]),
        f=np.array([0.25, 0.75]),
        A=np.zeros((0, 2)),
        b=np.zeros(0),
        lo=np.zeros(2),
        hi=np.ones(2),
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.assignment == pytest.approx([0.25, 0.75])


def test_degenerate_problem_terminates():
    # many redundant constraints through the same vertex
    n = 6
    E = np.zeros((0, n))
    A = -np.eye(n)
    extra = -np.ones((3, n))
    lp = LinearProgram(
        c=np.ones(n),
        E=E,
        f=np.zeros(0),
        A=np.vstack([A, extra]),
        b=np.zeros(n + 3),
        lo=np.zeros(n),
        hi=np.full(n, 10.0),
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.0, abs=1e-9)
    # 60 random rows through the origin in 30 dimensions: x = 0 is the
    # only feasible point, and the walk to it stalls long enough for
    # Bland's rule to take over and end it
    lp = cone_lp(np.random.default_rng(0))
    trace = {}
    ref = solve_reference(lp, trace)
    assert "bland" in trace["events"]
    sol = solve(lp)
    assert sol.status == ref.status == "optimal"
    assert sol.iterations == ref.iterations == 321
    assert sol.value == 0.0 and not sol.assignment.any()


def test_negative_rhs_rows():
    # rows that need a sign flip for the artificial start
    lp = LinearProgram(
        c=np.array([1.0, 1.0]),
        E=np.array([[-1.0, -1.0]]),
        f=np.array([-1.0]),
        A=np.zeros((0, 2)),
        b=np.zeros(0),
        lo=np.zeros(2),
        hi=np.full(2, 5.0),
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.0)


def test_shape_validation():
    with pytest.raises(ValueError):
        LinearProgram(
            c=np.ones(2),
            E=np.ones((1, 3)),
            f=np.ones(1),
            A=np.zeros((0, 2)),
            b=np.zeros(0),
            lo=np.zeros(2),
            hi=np.ones(2),
        )
    with pytest.raises(ValueError):
        LinearProgram(
            c=np.ones(2),
            E=np.zeros((0, 2)),
            f=np.zeros(0),
            A=np.zeros((0, 2)),
            b=np.zeros(0),
            lo=np.ones(2),
            hi=np.zeros(2),  # lo > hi
        )


@pytest.mark.parametrize("change, message", [
    ({"f": np.ones(2)}, "E and f disagree on the number of equality rows"),
    ({"b": np.zeros(1)}, "A and b disagree on the number of inequality rows"),
    ({"lo": np.zeros(3)}, "bounds must have one entry per variable"),
    ({"hi": np.ones(1)}, "bounds must have one entry per variable"),
])
def test_row_and_bound_counts_must_match(change, message):
    shape = {"c": np.ones(2), "E": np.ones((1, 2)), "f": np.ones(1), "A": np.zeros((0, 2)),
             "b": np.zeros(0), "lo": np.zeros(2), "hi": np.ones(2)}
    with pytest.raises(ValueError, match=f"^{message}$"):
        LinearProgram(**{**shape, **change})


def test_solve_reports_violated_emptied_rows():
    # x_0 is fixed at 1, so x_0 = 2 and x_0 <= 0.5 lose their only variable
    eq = LinearProgram(c=[1.0, 1.0], E=[[1.0, 0.0], [1.0, 1.0]], f=[2.0, 3.0],
                       A=np.zeros((0, 2)), b=np.zeros(0), lo=[1.0, 0.0], hi=[1.0, 5.0])
    assert solve(eq).status == "infeasible"
    ineq = LinearProgram(c=[1.0, 1.0], E=np.zeros((0, 2)), f=np.zeros(0),
                         A=[[1.0, 0.0]], b=[0.5], lo=[1.0, 0.0], hi=[1.0, 5.0])
    assert solve(ineq).status == "infeasible"
    # a satisfied emptied row is inert and the rest still solves
    ok = LinearProgram(c=[1.0, 1.0], E=[[1.0, 0.0], [1.0, 1.0]], f=[1.0, 3.0],
                       A=np.zeros((0, 2)), b=np.zeros(0), lo=[1.0, 0.0], hi=[1.0, 5.0])
    sol = solve(ok)
    assert sol.status == "optimal" and sol.assignment == pytest.approx([1.0, 2.0])


def test_solve_is_unchanged_by_implied_singleton_rows():
    # the adaptive LP's shape: y_0 - z <= 0 with y_0 fixed at 0 leaves
    # -z <= 0, which z >= 0 already implies; y_1 - z <= 0 stays binding
    common = dict(c=[0.0, 0.0, 1.0], E=[[1.0, 1.0, 0.0]], f=[1.0],
                  lo=[0.0, 0.0, 0.0], hi=[0.0, 1.0, 1.0])
    with_row = LinearProgram(A=[[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]], b=[0.0, 0.0], **common)
    without = LinearProgram(A=[[0.0, 1.0, -1.0]], b=[0.0], **common)
    a, b = solve(with_row), solve(without)
    assert a.status == b.status == "optimal"
    assert a.value == b.value == 1.0
    assert np.array_equal(a.assignment, b.assignment)
    assert a.iterations == b.iterations
    # a singleton row tighter than the bound binds
    tight = LinearProgram(c=[-1.0], E=np.zeros((0, 1)), f=np.zeros(0),
                          A=[[2.0]], b=[1.0], lo=[0.0], hi=[1.0])
    assert solve(tight).value == pytest.approx(-0.5)


def test_residual_check_rejects_a_wrong_simplex_answer(monkeypatch):
    # x_0 + x_1 = 1 (or <= 1) binds at the optimum; a tableau that reports
    # every value 0.5 too high must not slip a violated optimum through
    eq = LinearProgram(c=[-1.0, -1.0], E=[[1.0, 1.0]], f=[1.0],
                       A=np.zeros((0, 2)), b=np.zeros(0), lo=[0.0, 0.0], hi=[1.0, 1.0])
    ineq = LinearProgram(c=[-1.0, -1.0], E=np.zeros((0, 2)), f=np.zeros(0),
                         A=[[1.0, 1.0]], b=[1.0], lo=[0.0, 0.0], hi=[1.0, 1.0])
    assert solve(eq).value == pytest.approx(-1.0)
    assert solve(ineq).value == pytest.approx(-1.0)

    # shift the two structural columns only: phase 1 reads the same values
    # for its artificials, and must still find the LP feasible
    values = lp_mod._Tableau.values
    monkeypatch.setattr(lp_mod._Tableau, "values",
                        lambda tab: values(tab) + np.where(np.arange(tab.ncol) < 2, 0.5, 0.0))
    with pytest.raises(LpNumericalError, match="^equality residual"):
        solve(eq)
    with pytest.raises(LpNumericalError, match="^inequality residual"):
        solve(ineq)


@st.composite
def small_boxed_lps(draw):
    """Integer-valued boxed LPs, so zero, singleton and fixed cases are common
    and every reduced quantity is exact."""
    n = draw(st.integers(1, 4))
    me, ma = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    coef = st.integers(-2, 2)
    c = [draw(coef) for _ in range(n)]
    E = np.array([[draw(coef) for _ in range(n)] for _ in range(me)], dtype=float).reshape(me, n)
    A = np.array([[draw(coef) for _ in range(n)] for _ in range(ma)], dtype=float).reshape(ma, n)
    lo = np.array([draw(st.integers(-2, 0)) for _ in range(n)], dtype=float)
    hi = lo + np.array([draw(st.integers(0, 3)) for _ in range(n)])  # width 0 fixes
    x0 = lo + np.array([draw(st.integers(0, 1)) for _ in range(n)]) * (hi - lo)
    # anchored at a box corner, shifted off it now and then to make infeasible cases
    f = E @ x0 + np.array([draw(st.sampled_from([0, 0, 0, 1])) for _ in range(me)])
    b = A @ x0 + np.array([draw(st.integers(-1, 2)) for _ in range(ma)])
    return LinearProgram(c=c, E=E, f=f, A=A, b=b, lo=lo, hi=hi)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_boxed_lps())
def test_solve_matches_hand_reduced_solve(lp):
    # fixed columns, emptied rows and implied singleton rows change
    # neither the status nor the optimal value
    full = solve(lp)
    reduced = hand_reduced(lp)
    if reduced is None:
        assert full.status == "infeasible"
        return
    part = solve(reduced)
    assert full.status == part.status
    if part.status != "optimal":
        return
    fixed = lp.lo == lp.hi
    assert np.array_equal(full.assignment[fixed], lp.lo[fixed])
    assert abs(full.value - (part.value + lp.c[fixed] @ lp.lo[fixed])) <= 1e-9


# --- the dense two-phase solver that the sparse one replaced, as an oracle ---

# nonbasic statuses of the reference tableau
AT_LO, AT_UP = 0, 1


class DenseTableau:
    """The reference solver's working state: the full reduced matrix M,
    the basis and basic values xB, and each column's status and value."""

    def __init__(self, M, lo, hi):
        self.M = M
        self.ncol = M.shape[1]
        self.lo = lo
        self.hi = hi
        self.basis = np.full(M.shape[0], -1, dtype=int)
        self.xB = np.zeros(M.shape[0])
        self.status = np.full(self.ncol, AT_LO, dtype=np.int8)
        self.val = lo.copy()  # every nonbasic column starts at its lower bound

    def values(self):
        vals = self.val.copy()
        vals[self.basis] = self.xB
        return vals

    def reduced_costs(self, c):
        return c - self.M.T @ c[self.basis]

    def pivot(self, row, col, trace):
        """Make col basic in row by a full m x ncol update; records in
        trace["widest"] the most other rows one pivot's column reached."""
        trace["widest"] = max(trace["widest"], np.count_nonzero(self.M[:, col]) - 1)
        piv = self.M[row, col]
        self.M[row] /= piv
        colvals = self.M[:, col].copy()
        colvals[row] = 0.0
        self.M -= np.outer(colvals, self.M[row])
        self.M[:, col] = 0.0
        self.M[row, col] = 1.0


def simplex_phase_reference(tab, c, max_iter, trace):
    """One simplex phase with dense eligibility and ratio tests at every
    iteration.  Adds to trace["events"] "bland" when Bland's rule picks a
    column and "refresh" when the reduced costs are recomputed.
    """
    z = tab.reduced_costs(c)
    degen_run = 0
    iters = 0
    enterable = (tab.hi - tab.lo) > 0  # fixed variables never enter
    basic_mask = np.zeros(tab.ncol, dtype=bool)
    basic_mask[tab.basis] = True
    while iters < max_iter:
        iters += 1
        stat = tab.status
        # eligibility in the improving direction; a nonbasic column is at
        # its lower or its upper bound
        nonbasic = enterable & ~basic_mask
        can_inc = nonbasic & (stat != AT_UP) & (z < -OPT_TOL)
        can_dec = nonbasic & (stat != AT_LO) & (z > OPT_TOL)
        cand = np.flatnonzero(can_inc | can_dec)
        if cand.size == 0:
            return "optimal", iters
        if degen_run >= _DEGEN_LIMIT:
            trace["events"].add("bland")
            j = int(cand[0])  # Bland: lowest index
        else:
            j = int(cand[np.argmax(np.abs(z[cand]))])
        sigma = 1.0 if can_inc[j] else -1.0

        d = tab.M[:, j]
        move = sigma * d  # basic values change by -move * t
        t_best = np.inf
        span = tab.hi[j] - tab.lo[j]
        if np.isfinite(span):
            t_best = span  # bound flip
        leave_row = -1
        dec_rows = np.flatnonzero(move > PIVOT_TOL)
        inc_rows = np.flatnonzero(move < -PIVOT_TOL)
        ratios_dec = (tab.xB[dec_rows] - tab.lo[tab.basis[dec_rows]]) / move[dec_rows]
        ratios_inc = (tab.hi[tab.basis[inc_rows]] - tab.xB[inc_rows]) / (-move[inc_rows])
        rows = np.concatenate([dec_rows, inc_rows])
        ratios = np.concatenate([ratios_dec, ratios_inc])
        finite = np.isfinite(ratios)
        rows, ratios = rows[finite], ratios[finite]
        ratios = np.maximum(ratios, 0.0)
        if rows.size:
            rmin = ratios.min()
            if rmin < t_best:
                t_best = rmin
                tied = rows[ratios <= rmin + 1e-12]
                leave_row = int(tied[np.argmin(tab.basis[tied])])  # lowest var index
        if not np.isfinite(t_best):
            return "unbounded", iters

        degen_run = degen_run + 1 if t_best <= 1e-12 else 0

        tab.xB -= move * t_best
        if leave_row < 0:
            # bound flip, no basis change
            tab.status[j] = AT_UP if sigma > 0 else AT_LO
            tab.val[j] = tab.hi[j] if sigma > 0 else tab.lo[j]
            continue
        entering_val = tab.val[j] + sigma * t_best
        out_var = tab.basis[leave_row]
        # leaving variable parks at whichever of its bounds it reached
        if move[leave_row] > 0:
            tab.status[out_var] = AT_LO
            tab.val[out_var] = tab.lo[out_var]
        else:
            tab.status[out_var] = AT_UP
            tab.val[out_var] = tab.hi[out_var]
        tab.basis[leave_row] = j
        basic_mask[out_var] = False
        basic_mask[j] = True
        tab.xB[leave_row] = entering_val
        tab.pivot(leave_row, j, trace)
        z = z - z[j] * tab.M[leave_row]
        z[j] = 0.0
        if iters % 512 == 0:
            trace["events"].add("refresh")
            z = tab.reduced_costs(c)  # refresh against drift
    raise LpNumericalError("simplex exceeded the iteration budget")


def solve_reference(lp, trace=None):
    """``solve(lp)`` as the dense two-phase simplex computes it.

    If given, the dict trace receives "events" (see
    simplex_phase_reference), "width" (the tableau's column count),
    "held" (rows holding an artificial after phase 1), "drive_outs" (the
    (row, column) of each pivot made between the phases) and "widest"
    (see DenseTableau.pivot).
    """
    trace = {} if trace is None else trace
    trace.update(events=set(), width=None, held=[], drive_outs=[], widest=0)
    n = lp.n_vars
    me, mi = lp.E.shape[0], lp.A.shape[0]
    m = me + mi
    resid = np.concatenate([lp.f - lp.E @ lp.lo, lp.b - lp.A @ lp.lo])

    slack_ok = np.zeros(m, dtype=bool)
    slack_ok[me:] = resid[me:] >= 0.0
    slack_rows = np.flatnonzero(slack_ok)
    art_rows = np.flatnonzero(~slack_ok)
    first_art = n + mi
    ncol = first_art + art_rows.size
    trace["width"] = ncol
    if ncol == 0:
        return LpSolution("optimal", 0.0, np.zeros(0))

    M = np.zeros((m, ncol))
    M[:me, :n] = lp.E
    M[me:, :n] = lp.A
    M[np.arange(me, m), np.arange(n, first_art)] = 1.0
    flip = resid < 0
    M[flip] = -M[flip]
    art_cols = np.arange(first_art, ncol)
    M[art_rows, art_cols] = 1.0
    lo = np.concatenate([lp.lo, np.zeros(ncol - n)])
    hi = np.concatenate([lp.hi, np.full(ncol - n, np.inf)])

    tab = DenseTableau(M, lo, hi)
    tab.basis[slack_rows] = n + slack_rows - me
    tab.basis[art_rows] = art_cols
    tab.xB[slack_rows] = resid[slack_rows]
    tab.xB[art_rows] = np.abs(resid[art_rows])

    max_iter = 50 * (m + ncol) + 5000

    it1 = 0
    if art_cols.size:
        c1 = np.zeros(ncol)
        c1[art_cols] = 1.0
        status, it1 = simplex_phase_reference(tab, c1, max_iter, trace)
        if status != "optimal":
            raise LpNumericalError("phase 1 reported unbounded; bad problem data")
        if float(c1 @ tab.values()) > 1e-7:
            return LpSolution("infeasible", np.nan, iterations=it1)
        tab.hi[art_cols] = 0.0
        tab.lo[art_cols] = 0.0
        held = np.flatnonzero(tab.basis >= first_art)
        trace["held"] = held.tolist()
        for row in held[np.argsort(tab.basis[held])].tolist():
            pivots = np.abs(tab.M[row, :first_art])
            k = int(np.argmax(pivots))
            if pivots[k] > PIVOT_TOL:
                trace["drive_outs"].append((row, k))
                out = tab.basis[row]
                tab.val[out] = 0.0
                tab.status[out] = AT_LO
                tab.basis[row] = k
                entering_val = tab.val[k]
                tab.pivot(row, k, trace)
                tab.xB[row] = entering_val

    c2 = np.zeros(ncol)
    c2[:n] = lp.c
    status, it2 = simplex_phase_reference(tab, c2, max_iter, trace)
    if status == "unbounded":
        return LpSolution("unbounded", -np.inf, iterations=it1 + it2)

    x = np.clip(tab.values()[:n], lp.lo, lp.hi)
    _check_residuals(lp, x)
    return LpSolution("optimal", float(lp.c @ x), x, iterations=it1 + it2)


def held_artificial_lps():
    """LPs whose phase 1 ends with an artificial basic at zero.

    In the first, x3 is fixed at 0, so it never enters; phase 1 leaves
    row 1 minus row 0, whose only nonzero is x3, holding its artificial,
    and the drive-out loop pivots x3 in.  In the second, row 1 repeats
    row 0, so it is zero outside its artificial, which stays basic."""
    E = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    fixed = LinearProgram(c=np.array([1.0, 2.0, 0.0]), E=E, f=np.ones(2), A=np.zeros((0, 3)),
                          b=np.zeros(0), lo=np.zeros(3), hi=np.array([1.0, 1.0, 0.0]))
    E = np.array([[1.0, 1.0], [1.0, 1.0]])
    redundant = LinearProgram(c=np.array([1.0, 2.0]), E=E, f=np.ones(2), A=np.zeros((0, 2)),
                              b=np.zeros(0), lo=np.zeros(2), hi=np.ones(2))
    return [fixed, redundant]


def test_dense_reference_drives_out_held_artificials():
    # Same bytes through the loop after phase 1 that pivots a structural
    # column into each row still holding an artificial.
    for lp, drive_outs in zip(held_artificial_lps(), ([(1, 2)], [])):
        trace = {}
        ref = _outcome(functools.partial(solve_reference, trace=trace), lp)
        assert (trace["held"], trace["drive_outs"]) == ([1], drive_outs)
        assert ref[0] == "optimal"
        assert _outcome(solve, lp) == ref


def cone_lp(rng, n=30, m=60):
    """min c.x over {A x <= 0} and the unit box, with dense normal A: with
    m = 2n rows the cone meets the box only at 0, a degenerate vertex."""
    A = rng.normal(size=(m, n))
    return LinearProgram(c=rng.normal(size=n), E=np.zeros((0, n)), f=np.zeros(0),
                         A=A, b=np.zeros(m), lo=np.zeros(n), hi=np.ones(n))


@pytest.mark.xfail(raises=LpNumericalError, strict=True,
                   reason="no relative pivot threshold: any entry above PIVOT_TOL may pivot, "
                          "so entries grow until the residual check fires")
def test_degenerate_sparse_cone_lps_solve():
    # cone_lp with each entry of A kept with probability 8/30: the box
    # contains 0, so every draw is feasible and bounded, yet draws 5, 8
    # and 17 end in "inequality residual ... beyond tolerance"
    rng = np.random.default_rng(0)
    n, m = 30, 60
    for _ in range(20):
        A = rng.normal(size=(m, n))
        A *= rng.random((m, n)) < 8 / n
        lp = LinearProgram(c=rng.normal(size=n), E=np.zeros((0, n)), f=np.zeros(0),
                           A=A, b=np.zeros(m), lo=np.zeros(n), hi=np.ones(n))
        assert solve(lp).status == "optimal"


def random_sparse_lp(rng, n, m):
    """A boxed LP whose m rows have two to four small-integer entries, up
    to three of them equalities, anchored at an interior point."""
    me = int(rng.integers(0, 4))
    M = np.zeros((m, n))
    for row in M:
        at = rng.choice(n, size=int(rng.integers(2, 5)), replace=False)
        row[at] = rng.integers(-3, 4, size=at.size)
    hi = rng.integers(1, 4, size=n).astype(float)
    x0 = rng.uniform(0.0, hi)
    E, A = M[:me], M[me:]
    return LinearProgram(c=rng.normal(size=n), E=E, f=E @ x0, A=A,
                         b=A @ x0 + rng.uniform(0.0, 1.0, size=m - me), lo=np.zeros(n), hi=hi)


def klee_minty(n):
    """The Klee-Minty cube, on which Dantzig's rule visits all 2^n vertices."""
    A = np.tril(2.0 ** (np.arange(n)[:, None] - np.arange(n)[None, :] + 1), -1) + np.eye(n)
    return LinearProgram(c=-(2.0 ** np.arange(n - 1, -1, -1)), E=np.zeros((0, n)), f=np.zeros(0),
                         A=A, b=5.0 ** np.arange(1, n + 1), lo=np.zeros(n), hi=np.full(n, np.inf))


def adaptive_lp(profile, pattern):
    """The LP that adaptive_plan solves for a demand of this pattern."""
    lps = []

    def recording(lp):
        lps.append(lp)
        return solve(lp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delivery, "solve", recording)
        adaptive_plan(profile, canonical_demand(pattern))
    (lp,) = lps
    return lp


def adaptive_lps(Ks=range(1, 9), makers=(centralized_profile, decentralized_profile,
                                         solve_placement_lp)):
    """Every adaptive delivery LP for K in Ks at m in {0.1, 0.4} under each
    placement maker; by default K <= 8 under centralized, decentralized
    and LP placement."""
    return [adaptive_lp(maker(K, m), pattern)
            for K in Ks for m in (0.1, 0.4) for maker in makers
            for L in range(1, K + 1) for pattern in partitions_into_parts(K, L)]


def test_tableau_holds_artificials_only_for_rows_that_start_with_one():
    # the K=8 adaptive LPs: an inequality row whose slack starts feasible
    # (resid >= 0 with every column at its lower bound) gets no artificial
    # column, so the tableau is n + mi + (rows that start with one) wide;
    # solve walks the reference's path, so its phase 1 has the same columns
    lps = adaptive_lps(Ks=(8,), makers=(centralized_profile,))
    assert len(lps) > 0
    slack_started = 0
    for lp in lps:
        trace = {}
        assert _outcome(solve, lp) == _outcome(functools.partial(solve_reference, trace=trace), lp)
        mi = lp.A.shape[0]
        started = int(np.count_nonzero(lp.b - lp.A @ lp.lo >= 0.0))
        assert trace["width"] == lp.n_vars + mi + (lp.E.shape[0] + mi - started)
        slack_started += started
    assert slack_started > 0


def _outcome(solver, lp):
    """What a solve reports: (status, iterations, assignment bytes, value
    bytes), or the text of the error it raised."""
    try:
        sol = solver(lp)
    except LpNumericalError as err:
        return str(err)
    x = None if sol.assignment is None else sol.assignment.tobytes()
    return sol.status, sol.iterations, x, np.float64(sol.value).tobytes()


# (m, pattern) of the three cheapest decentralized K=12 adaptive LPs whose
# phase 1 pivots at iteration 512 and so refreshes its reduced costs (of
# the 308 phases of `sweep --K 12 --m-ratio 0.1:0.3:0.4 --placement
# decentralized`, 48 pass iteration 512; in most of them it is a bound flip)
K12_REFRESHING = ((0.1, (5, 3, 2, 2)), (0.4, (5, 3, 2, 2)), (0.1, (3, 3, 2, 1, 1, 1, 1)))


def test_sparse_loop_matches_dense_reference():
    # Same pivot path, same bytes: the sparse loop performs the dense
    # loop's float operations on every cell that can change.
    rng = np.random.default_rng(7)
    sparse = [random_sparse_lp(rng, n, int(rng.integers(n // 2, 2 * n)))
              for n in rng.integers(10, 120, size=20)]
    # few rows, many columns: second phases of 613-680 iterations, two of
    # them pivoting at iteration 512 and so refreshing the reduced costs
    large_rng = np.random.default_rng(4)
    sparse += [random_sparse_lp(large_rng, n, n // 6) for n in large_rng.integers(900, 1400, size=3)]
    # about twice as many rows as columns: the tableau fills in, so a
    # pivot's block update spans many rows at once
    filled_rng = np.random.default_rng(11)
    filled = [random_sparse_lp(filled_rng, n, 2 * n) for n in filled_rng.integers(150, 201, size=3)]
    # the 154 LPs of `sweep --K 12 --m-ratio 0.1:0.3:0.4`: all 77 patterns
    # at the K=12 cap under centralized placement, m in {0.1, 0.4}
    k12 = adaptive_lps(Ks=(12,), makers=(centralized_profile,))
    assert len(k12) == 154
    refreshing = [adaptive_lp(decentralized_profile(12, m), RedundancyPattern(counts))
                  for m, counts in K12_REFRESHING]
    cone_rng = np.random.default_rng(0)
    head = (random_trials() + sparse + [klee_minty(10)] + [cone_lp(cone_rng) for _ in range(20)]
            + held_artificial_lps() + adaptive_lps())
    trials = head + k12 + refreshing + filled

    traces, outcomes = [], []
    for lp in trials:
        traces.append({})
        outcomes.append(_outcome(functools.partial(solve_reference, trace=traces[-1]), lp))
        assert _outcome(solve, lp) == outcomes[-1]
    # the pivot path as a count: the reference shares solve's tolerances,
    # so a tolerance edit would move both sides; perfbench/baseline.json
    # reads the same lp.solve.iterations on the K=12 sweep
    assert sum(ref[1] for ref in outcomes[len(head):len(head) + len(k12)]) == 12979
    events = [trace["events"] for trace in traces]
    assert any("bland" in e for e in events) and any("refresh" in e for e in events)
    assert all("refresh" in e for e in events[len(head) + len(k12):-len(filled)])
    assert sum(isinstance(ref, tuple) and ref[0] == "optimal" for ref in outcomes) > len(trials) // 2
    # the most other rows one pivot's entering column reached
    assert max(trace["widest"] for trace in traces[-len(filled):]) >= 10

