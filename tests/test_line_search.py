"""The block line search against the one-trial-at-a-time reference."""

import tracemalloc

import numpy as np
import pytest

from armijo import sequential_solve
from tsvar import (
    EvalDomainError,
    GridFunction,
    Lagrangian,
    SolverConfig,
    StepUnderflowError,
    VariationalProblem,
    catalog,
    chord,
    first_variation_gradient,
    make_timescale,
    parse_lagrangian,
    solve,
)
from tsvar.variational import _slot_args

PAIRS = {
    "expr": (parse_lagrangian, "dy^2 + y^2 + sin(t)*y", "dy^2 + 1"),
    "catalog": (catalog, "kinetic_minus_potential(2)", "dy_squared"),
    "steep": (parse_lagrangian, "sqrt(dy^2+1)", "exp(y)*dy^2 + 1"),
    # Large trial steps leave sqrt's domain, but the solve does not diverge.
    "bounded": (parse_lagrangian, "sqrt(2 - y^2) + dy^2", "dy^2 + 1"),
}
BUDGET = 30
# Ascents of the unbounded pairs overflow most trials; fewer iterations show it.
ASCENT_BUDGET = 10


def seeded_points(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    gaps = 10.0 ** rng.uniform(-2.0, 0.0, n - 1)
    pts = np.concatenate(([0.0], np.cumsum(gaps))) / float(np.sum(gaps))
    pts[-1] = 1.0
    return pts


def assert_same_solve(got, want):
    assert got.y.values.tobytes() == want.y.values.tobytes()
    assert np.float64(got.j_value).tobytes() == np.float64(want.j_value).tobytes()
    assert got.gradient_norm == want.gradient_norm
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    for a, b in ((got.el1, want.el1), (got.el2, want.el2)):
        assert a.which == b.which and a.domain == b.domain
        assert a.residual_trace.tobytes() == b.residual_trace.tobytes()
        assert np.float64(a.constant_c).tobytes() == np.float64(b.constant_c).tobytes()
        assert np.float64(a.deviation).tobytes() == np.float64(b.deviation).tobytes()


def outcome(run):
    """The result of ``run()``, or the error it raised."""
    try:
        return run()
    except StepUnderflowError as exc:
        return exc


def assert_same_outcome(got, want):
    assert isinstance(got, StepUnderflowError) == isinstance(want, StepUnderflowError)
    if isinstance(want, StepUnderflowError):
        assert str(got) == str(want)
        assert type(got.__cause__) is type(want.__cause__) is EvalDomainError
        assert str(got.__cause__) == str(want.__cause__)
    else:
        assert_same_solve(got, want)


@pytest.mark.parametrize("maximize", [False, True], ids=["min", "max"])
@pytest.mark.parametrize("kind", ["uniform", "seeded"])
@pytest.mark.parametrize("n", [11, 41])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_block_search_matches_the_sequential_ladder(pair, n, kind, maximize):
    build, ld, ln = PAIRS[pair]
    pts = np.linspace(0.0, 1.0, n) if kind == "uniform" else seeded_points(n, n)
    p = VariationalProblem(make_timescale(pts), build(ld), build(ln), 0.0, 1.0)
    budget = ASCENT_BUDGET if maximize else BUDGET
    assert_same_outcome(outcome(lambda: solve(p, SolverConfig(max_iterations=budget, maximize=maximize))),
                        outcome(lambda: sequential_solve(p, budget, maximize)))


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_block_search_matches_the_sequential_ladder_from_a_seeded_start(pair):
    build, ld, ln = PAIRS[pair]
    p = VariationalProblem(make_timescale(seeded_points(41, 5)), build(ld), build(ln), 0.0, 1.0)
    vals = chord(p).values + 0.3 * np.random.default_rng(5).standard_normal(41)
    vals[0], vals[-1] = 0.0, 1.0
    y0 = GridFunction(p.scale, vals)
    assert_same_outcome(outcome(lambda: solve(p, SolverConfig(max_iterations=BUDGET), y0=y0)),
                        outcome(lambda: sequential_solve(p, BUDGET, y0=y0)))


def forced_path() -> list:
    """The interior values the forced descent below accepts: u -> u - (1/4) * (u/2)."""
    path = [1.0]
    for _ in range(7):
        path.append(path[-1] - 0.25 * (path[-1] / 2.0))
    return path


FORCED_PATH = forced_path()


def forced_problem(final_gradient: float, forbidden: set, calls: list) -> VariationalProblem:
    """A hand-built descent on [0, 1, 2] whose every trial step is known in advance.

    The interior value u walks ``FORCED_PATH`` from 1.0 with the gradient
    u/2, accepting the third trial (step 1/4) each time: the two larger
    steps land where the density is 100.  At the path's end the gradient is
    u itself, so the first trial lands on 0.0, where the gradient is
    ``final_gradient`` and every trial is negative.  A negative u, or one
    in ``forbidden``, raises a forced ``EvalDomainError``.
    """
    path = FORCED_PATH
    value = {u: float(len(path) - i) for i, u in enumerate(path)}
    slope = {u: u / 2.0 for u in path}
    value[0.0], slope[path[-1]], slope[0.0] = 0.0, path[-1], final_gradient

    def forced_eval(t, u, v):
        if t == 1.0:  # the boundary point's delta slot
            return 0.0
        calls.append(u)
        if u < 0.0 or u in forbidden:
            raise EvalDomainError("forced failure", t, u, v)
        return value.get(u, 100.0)

    forced = Lagrangian(eval=forced_eval,
                        d2=lambda t, u, v: 0.0 if t == 1.0 else slope[u],
                        d3=lambda t, u, v: 0.0,
                        origin="forced")
    return VariationalProblem(make_timescale([0.0, 1.0, 2.0]), forced, catalog("const(0.5)"), 0.0, 0.0)


@pytest.mark.parametrize("final_gradient", [0.0, 1.0], ids=["converges", "underflows"])
def test_forced_domain_errors_in_a_block(monkeypatch, final_gradient):
    # From iteration 1 on, a block holds rungs 0-3 and accepts rung 2.  In
    # iteration 2 rung 3, which the sequential search never tries, raises;
    # in iteration 4 rung 1, which it rejects, raises.  Each of those rows
    # gets nan factors in its block's one pass, and the block accepts the
    # same rung.
    path = FORCED_PATH
    after = path[2] - 0.125 * (path[2] / 2.0)
    before = path[4] - 0.5 * (path[4] / 2.0)
    y0 = GridFunction(make_timescale([0.0, 1.0, 2.0]), [0.0, 1.0, 0.0])
    want_calls, got_calls = [], []
    want = outcome(lambda: sequential_solve(forced_problem(final_gradient, {after, before}, want_calls),
                                            20, y0=y0))
    builds = []

    def counted(p, vals):
        builds.append(vals.copy())
        return _slot_args(p, vals)

    monkeypatch.setattr("tsvar.solver._slot_args", counted)
    got = outcome(lambda: solve(forced_problem(final_gradient, {after, before}, got_calls),
                                SolverConfig(max_iterations=20), y0=y0))
    assert_same_outcome(got, want)
    assert before in want_calls and before in got_calls
    assert after not in want_calls and after in got_calls
    # Iteration 0 has no prediction: a one-row pass rejects rung 0 and a
    # two-row pass accepts rung 2.  Blocks of four rows ran in iterations
    # 1-7, and in 7 the block's first row reached 0.0.
    blocks = [vals[:, 1].tolist() for vals in builds if vals.ndim == 2 and len(vals) > 1]
    assert [len(rows) for rows in blocks[:8]] == [2] + [4] * 7
    assert [rows[2] for rows in blocks[1:7]] == path[2:8]
    assert blocks[7][0] == 0.0
    if final_gradient == 0.0:
        assert got.converged and got.iterations == 8 and got.y.values[1] == 0.0
        assert len(blocks) == 8
    else:
        # At 0.0 every trial raises; the rungs then run two per pass, the
        # ladder's 997th and last rung alone, and the error names that one.
        assert blocks[8:] == [[-2.0 ** -k, -2.0 ** -(k + 1)] for k in range(0, 996, 2)]
        assert str(got).endswith("last trial: forced failure at (t=0.0, u=-1.4932217896051502e-300, "
                                 "v=-1.4932217896051502e-300)")


def stacked_rows(monkeypatch) -> list:
    """The row count of every stacked ``_slot_args`` call ``solve`` makes from now on."""
    rows = []

    def counted(p, vals):
        if vals.ndim == 2:
            rows.append(len(vals))
        return _slot_args(p, vals)

    monkeypatch.setattr("tsvar.solver._slot_args", counted)
    return rows


def row_cap(n: int) -> int:
    """Trial rows per block at n points: 8192 elements, and at least one row."""
    return max(1, 8192 // n)


@pytest.mark.parametrize("maximize", [False, True], ids=["min", "max"])
@pytest.mark.parametrize("kind", ["uniform", "seeded"])
@pytest.mark.parametrize("pair", ["catalog", "expr"])
def test_capped_blocks_match_the_sequential_ladder(monkeypatch, pair, kind, maximize):
    # At n = 2048 a block holds at most 4 trials, fewer than the rungs these
    # searches accept, so the cap splits the blocks the search would run.
    # Ascents accept step 1 at first; by iteration 6 each has walked past
    # rung 3.
    n = 2048
    build, ld, ln = PAIRS[pair]
    pts = np.linspace(0.0, 1.0, n) if kind == "uniform" else seeded_points(n, n)
    p = VariationalProblem(make_timescale(pts), build(ld), build(ln), 0.0, 1.0)
    budget = 6 if maximize else 10
    rows = stacked_rows(monkeypatch)
    assert_same_outcome(outcome(lambda: solve(p, SolverConfig(max_iterations=budget, maximize=maximize))),
                        outcome(lambda: sequential_solve(p, budget, maximize)))
    assert max(rows) == row_cap(n) == 4


def test_one_row_blocks_match_the_sequential_ladder(monkeypatch):
    n = 8193
    build, ld, ln = PAIRS["catalog"]
    p = VariationalProblem(make_timescale(seeded_points(n, n)), build(ld), build(ln), 0.0, 1.0)
    rows = stacked_rows(monkeypatch)
    assert_same_outcome(solve(p, SolverConfig(max_iterations=5)), sequential_solve(p, 5))
    assert set(rows) == {row_cap(n)} == {1}


@pytest.mark.parametrize("n", [11, 1001, 10001])
def test_no_block_exceeds_the_row_cap(monkeypatch, n):
    build, ld, ln = PAIRS["catalog"]
    p = VariationalProblem(make_timescale(seeded_points(n, n)), build(ld), build(ln), 0.0, 1.0)
    rows = stacked_rows(monkeypatch)
    solve(p, SolverConfig(max_iterations=10))
    assert max(rows) <= row_cap(n)
    if n > 11:  # the searches accept rungs past the cap, so it binds
        assert max(rows) == row_cap(n)


def test_blocks_fit_the_predicted_rows(monkeypatch):
    # An iteration spreads the P rows it predicts (the rung the previous one
    # accepted + 2) over ceil(P / cap) passes of equal size, and the first
    # iteration doubles its block after each pass that accepts nothing.
    # Chunks of min(P, cap) rows, with one row per pass on the first
    # iteration, built 462 rows here, in 62 passes too.
    build, ld, ln = PAIRS["catalog"]
    p = VariationalProblem(make_timescale(np.linspace(0.0, 1.0, 1001)), build(ld), build(ln), 0.0, 1.0)
    rows = stacked_rows(monkeypatch)
    assert solve(p, SolverConfig(max_iterations=BUDGET)).iterations == BUDGET
    assert (sum(rows), len(rows)) == (375, 62)


@pytest.mark.parametrize("start", ["chord", "spike"])
def test_trial_rows_keep_the_boundary_values(monkeypatch, start):
    # A trial row's ends are y - s * 0.0: alpha = -0.0 stays -0.0, and an
    # infinite gradient component beside an end does not reach it.
    if start == "chord":
        build, ld, ln = PAIRS["expr"]
        p = VariationalProblem(make_timescale(np.linspace(0.0, 1.0, 11)), build(ld), build(ln), -0.0, 1.0)
        y0 = chord(p)
    else:
        p = VariationalProblem(make_timescale([0.0, 1.0, 2.0, 3.0]), catalog("dy_squared"),
                               catalog("dy_squared"), -0.0, 0.0)
        y0 = GridFunction(p.scale, [-0.0, 1e150, 0.0, 0.0])
        assert np.isinf(first_variation_gradient(p, y0)).all()
    builds = []

    def counted(p, vals):
        builds.append(vals.copy())
        return _slot_args(p, vals)

    monkeypatch.setattr("tsvar.solver._slot_args", counted)
    assert_same_outcome(outcome(lambda: solve(p, SolverConfig(max_iterations=BUDGET), y0=y0)),
                        outcome(lambda: sequential_solve(p, BUDGET, y0=y0)))
    trials = [vals for vals in builds if vals.ndim == 2]
    assert len(trials) > 1
    for vals in trials:
        assert vals[:, 0].tobytes() == np.full(len(vals), -0.0).tobytes()
        assert vals[:, -1].tobytes() == np.full(len(vals), p.beta).tobytes()


def test_block_memory_stays_bounded():
    # A block's value pass allocates one temporary per numpy operation; at
    # most 8192 elements per block keeps the peak near 640 KiB at n = 1001,
    # where blocks of up to 22 uncapped rows took about 1.3 MB.
    build, ld, ln = PAIRS["catalog"]
    p = VariationalProblem(make_timescale(seeded_points(1001, 1001)), build(ld), build(ln), 0.0, 1.0)
    tracemalloc.start()
    try:
        r = solve(p, SolverConfig(max_iterations=30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.iterations == 30
    assert peak < 900 * 1024
