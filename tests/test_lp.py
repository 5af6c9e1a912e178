"""Simplex solver, validated against brute-force vertex enumeration.

The oracle enumerates candidate optima directly from the KKT structure of
a bounded problem: every basic feasible point is defined by picking n
active constraints (rows at equality or variables at a bound) and solving
the square system. That is exponential but fine at the sizes used here,
and it is a completely independent check on the simplex path.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cachecast.lp as lp_mod
from cachecast.lp import FEAS_TOL, LinearProgram, LpNumericalError, solve

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
    variables fixed, for the presolve."""
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
    # many redundant constraints through the same vertex; Bland's rule
    # must prevent cycling
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


def test_presolve_reports_violated_emptied_rows():
    # x_0 is fixed at 1, so x_0 = 2 and x_0 <= 0.5 lose their only variable
    eq = LinearProgram(c=[1.0, 1.0], E=[[1.0, 0.0], [1.0, 1.0]], f=[2.0, 3.0],
                       A=np.zeros((0, 2)), b=np.zeros(0), lo=[1.0, 0.0], hi=[1.0, 5.0])
    assert solve(eq).status == "infeasible"
    ineq = LinearProgram(c=[1.0, 1.0], E=np.zeros((0, 2)), f=np.zeros(0),
                         A=[[1.0, 0.0]], b=[0.5], lo=[1.0, 0.0], hi=[1.0, 5.0])
    assert solve(ineq).status == "infeasible"
    # a satisfied emptied row is dropped and the rest still solves
    ok = LinearProgram(c=[1.0, 1.0], E=[[1.0, 0.0], [1.0, 1.0]], f=[1.0, 3.0],
                       A=np.zeros((0, 2)), b=np.zeros(0), lo=[1.0, 0.0], hi=[1.0, 5.0])
    sol = solve(ok)
    assert sol.status == "optimal" and sol.assignment == pytest.approx([1.0, 2.0])


def test_presolve_drops_implied_singleton_rows():
    # the adaptive LP's shape: y_0 - z <= 0 with y_0 fixed at 0 leaves
    # -z <= 0, which z >= 0 already implies; y_1 - z <= 0 stays binding
    common = dict(c=[0.0, 0.0, 1.0], E=[[1.0, 1.0, 0.0]], f=[1.0],
                  lo=[0.0, 0.0, 0.0], hi=[0.0, 1.0, 1.0])
    with_row = LinearProgram(A=[[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]], b=[0.0, 0.0], **common)
    without = LinearProgram(A=[[0.0, 1.0, -1.0]], b=[0.0], **common)
    sub, cols = lp_mod._presolve(with_row)
    assert list(cols) == [1, 2]
    assert sub.A.shape == (1, 2) and sub.E.shape == (1, 2)
    a, b = solve(with_row), solve(without)
    assert a.status == b.status == "optimal"
    assert a.value == b.value == 1.0
    assert np.array_equal(a.assignment, b.assignment)
    assert a.iterations == b.iterations
    # a singleton row tighter than the bound is kept
    tight = LinearProgram(c=[-1.0], E=np.zeros((0, 1)), f=np.zeros(0),
                          A=[[2.0]], b=[1.0], lo=[0.0], hi=[1.0])
    assert lp_mod._presolve(tight)[0] is tight
    assert solve(tight).value == pytest.approx(-0.5)


def test_residual_check_runs_on_the_unreduced_lp(monkeypatch):
    # a presolve that wrongly drops the binding row x_0 + x_1 <= 1 must
    # not slip a violated optimum through
    lp = LinearProgram(c=[-1.0, -1.0], E=np.zeros((0, 2)), f=np.zeros(0),
                       A=[[1.0, 1.0]], b=[1.0], lo=[0.0, 0.0], hi=[1.0, 1.0])
    assert solve(lp).value == pytest.approx(-1.0)

    def lossy(p):
        return LinearProgram(c=p.c, E=p.E, f=p.f, A=np.zeros((0, 2)), b=np.zeros(0),
                             lo=p.lo, hi=p.hi), np.arange(2)

    monkeypatch.setattr(lp_mod, "_presolve", lossy)
    with pytest.raises(LpNumericalError, match="inequality residual"):
        solve(lp)


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


@st.composite
def small_boxed_lps(draw):
    """Integer-valued boxed LPs, so zero, singleton and fixed cases are common
    and every presolve quantity is exact."""
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
def test_presolve_matches_hand_reduced_solve(lp):
    full = solve(lp)
    reduced = hand_reduced(lp)
    if reduced is None:
        assert full.status == "infeasible"
        return
    part = solve(reduced)
    assert full.status == part.status
    if part.status != "optimal":
        return
    x = lp.lo.copy()
    x[lp.lo != lp.hi] = part.assignment
    assert np.array_equal(full.assignment, x)
    assert full.value == float(lp.c @ x)
    assert full.iterations == part.iterations
