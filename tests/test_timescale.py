import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsvar import (
    KappaKind,
    KappaSet,
    TimeScale,
    TimeScaleError,
    VariationalProblem,
    brute_force_oracle,
    make_timescale,
    mu,
    nu,
    kappa_set,
    parse_lagrangian,
    perturbation_audit,
    rho,
    sigma,
    solve,
    uniform_scale,
)

from conftest import random_scale


scales = st.builds(
    lambda start, gaps: make_timescale(
        start + np.concatenate(([0.0], np.cumsum(gaps)))),
    st.floats(min_value=-100, max_value=100),
    st.lists(st.floats(min_value=1e-3, max_value=50.0),
             min_size=2, max_size=20),
)


def test_construction_basics():
    ts = make_timescale([0.0, 1.0, 4.0, 5.0])
    assert len(ts) == 4
    assert ts.a == 0.0
    assert ts.b == 5.0
    assert isinstance(ts.points, np.ndarray)
    np.testing.assert_array_equal(ts.points, [0.0, 1.0, 4.0, 5.0])


def test_points_are_read_only():
    ts = make_timescale([0.0, 1.0, 2.0])
    with pytest.raises((ValueError, RuntimeError)):
        ts.points[0] = 7.0


def test_accepts_lists_tuples_arrays():
    for src in ([0, 1, 2], (0.0, 1.0, 2.0), np.array([0.0, 1.0, 2.0])):
        assert len(make_timescale(src)) == 3


def test_rejects_too_few_points():
    with pytest.raises(TimeScaleError, match="at least 3"):
        make_timescale([0.0, 1.0])


def test_rejects_decreasing_points():
    with pytest.raises(TimeScaleError, match="not increasing at index 2"):
        make_timescale([0.0, 1.0, 0.5, 2.0])


def test_rejects_near_duplicate_points():
    with pytest.raises(TimeScaleError, match="duplicate point at index 2"):
        make_timescale([0.0, 1.0, 1.0 + 1e-13, 2.0])


def test_rejects_exact_duplicate_points():
    with pytest.raises(TimeScaleError, match="duplicate point at index 1"):
        make_timescale([0.0, 0.0, 2.0])


def test_rejects_non_finite_points():
    with pytest.raises(TimeScaleError, match="non-finite point at index 1"):
        make_timescale([0.0, np.nan, 2.0])
    with pytest.raises(TimeScaleError, match="non-finite"):
        make_timescale([0.0, 1.0, np.inf])
    # Several failures: the first index is named.
    with pytest.raises(TimeScaleError, match="^non-finite point at index 2$"):
        make_timescale([0.0, 1.0, np.inf, 3.0, np.nan])
    with pytest.raises(TimeScaleError, match="^points not increasing at index 2$"):
        make_timescale([0.0, 1.0, 0.5, 0.5, 0.25])


def test_rejects_nested_points():
    with pytest.raises(TimeScaleError, match="^points must form a one-dimensional sequence$"):
        make_timescale([[0, 1, 2], [3, 4, 5]])


@pytest.mark.parametrize("points, message", [
    ([0, True, 2], "point at index 1 must be a real number, got True"),
    (["0", "1", "2"], "point at index 0 must be a real number, got '0'"),
    ((0.0, 1.0, np.False_), "point at index 2 must be a real number, got np.False_"),
    (np.array([False, True, True]), "need an array of integers or floats, got dtype bool"),
    (np.array(["0", "1", "2"]), "need an array of integers or floats, got dtype <U1"),
    # Ragged sequences, which numpy cannot stack, are checked entry by entry too.
    ([0, [1, 2], 2], "point at index 1 must be a real number, got [1, 2]"),
    ([[0, 1], [2]], "point at index 0 must be a real number, got [0, 1]"),
], ids=["bool", "strings", "numpy-bool", "bool-array", "string-array", "ragged", "ragged-nested"])
def test_rejects_points_that_are_not_numbers(points, message):
    # A bool or a numeric string is not a point, in a list as in an array;
    # numpy alone would turn [0, True, 2] into the int64 array [0, 1, 2].
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_timescale(points)


def test_takes_integer_and_float_arrays():
    for points in (np.array([0, 1, 2]), np.array([0, 1, 2], dtype=np.uint8), np.array([0.0, 1.0, 2.0], np.float32)):
        np.testing.assert_array_equal(make_timescale(points).points, [0.0, 1.0, 2.0])


DY2 = parse_lagrangian("dy^2")
THREE = VariationalProblem(uniform_scale(0.0, 1.0, 3), DY2, DY2, 0.0, 1.0)


@pytest.mark.parametrize("name, call", [
    ("boundary value alpha", lambda: VariationalProblem(THREE.scale, DY2, DY2, 10**400, 1.0)),
    ("b", lambda: uniform_scale(0, 10**400, 5)),
    ("bounds", lambda: brute_force_oracle(THREE, (0, 10**400), 11)),
    ("resolution", lambda: brute_force_oracle(THREE, (0, 1), 10**400)),
    ("radius", lambda: perturbation_audit(THREE, solve(THREE), 10**400, 3)),
    ("point at index 2", lambda: make_timescale([0, 1, 10**400])),
], ids=["problem", "uniform", "oracle", "oracle-resolution", "audit", "points"])
def test_integers_past_the_float_range_name_their_argument(name, call):
    # The number rule turns float()'s OverflowError into a ValueError that
    # names the argument, as the CLI reports an oversized JSON integer; an
    # integer count past the float range is refused too.
    with pytest.raises(ValueError, match=f"^{re.escape(name)} is too large for a float$"):
        call()


def test_jump_operators_clamp_at_boundary():
    ts = make_timescale([0.0, 1.0, 4.0, 5.0])
    assert sigma(ts, 0) == 1
    assert sigma(ts, 2) == 3
    assert sigma(ts, 3) == 3
    assert rho(ts, 0) == 0
    assert rho(ts, 1) == 0
    assert rho(ts, 3) == 2


def test_graininess_values_and_boundary_errors():
    ts = make_timescale([0.0, 1.0, 4.0, 5.0])
    assert mu(ts, 0) == 1.0
    assert mu(ts, 1) == 3.0
    assert nu(ts, 1) == 1.0
    assert nu(ts, 3) == 1.0
    with pytest.raises(ValueError, match="forward graininess undefined"):
        mu(ts, 3)
    with pytest.raises(ValueError, match="backward graininess undefined"):
        nu(ts, 0)


def test_index_out_of_range():
    ts = make_timescale([0.0, 1.0, 2.0])
    for fn in (sigma, rho, mu, nu):
        with pytest.raises(IndexError, match="out of range"):
            fn(ts, 3)
        with pytest.raises(IndexError, match="out of range"):
            fn(ts, -1)


@pytest.mark.parametrize("fn", [sigma, rho, mu, nu])
def test_index_operators_take_numpy_integers(fn):
    ts = make_timescale([0.0, 1.0, 4.0, 5.0])
    for i in (1, 2):
        assert fn(ts, np.int64(i)) == fn(ts, np.int32(i)) == fn(ts, i)


@pytest.mark.parametrize("index", [1.5, True, np.float64(1.0), np.True_, "1"], ids=repr)
@pytest.mark.parametrize("fn", [sigma, rho, mu, nu])
def test_index_operators_reject_non_indices(fn, index):
    ts = make_timescale([0.0, 1.0, 4.0, 5.0])
    with pytest.raises(TypeError, match=f"^point index must be an integer, got {re.escape(repr(index))}$"):
        fn(ts, index)


@given(scales)
def test_jump_operator_identities(ts):
    n = len(ts)
    for i in range(n):
        if i < n - 1:
            # mu(i) spans the same cell as nu at the next point
            assert mu(ts, i) == nu(ts, i + 1)
            assert mu(ts, i) > 0
            assert rho(ts, sigma(ts, i)) == i
            assert mu(ts, i) == ts.points[i + 1] - ts.points[i]
        if i > 0:
            assert sigma(ts, rho(ts, i)) == i
            assert nu(ts, i) == ts.points[i] - ts.points[i - 1]


def test_kappa_sets_four_points():
    ts = make_timescale([0.0, 1.0, 2.0, 3.0])
    expect = {
        KappaKind.FULL: [0, 1, 2, 3],
        KappaKind.UPPER: [0, 1, 2],
        KappaKind.LOWER: [1, 2, 3],
        KappaKind.UPPER_SQUARED: [0, 1],
        KappaKind.LOWER_SQUARED: [2, 3],
        KappaKind.BOTH: [1, 2],
    }
    for kind, idx in expect.items():
        ks = kappa_set(ts, kind)
        assert list(ks.indices) == idx
        assert len(ks) == len(idx)
        assert ks.kind is kind


def test_kappa_sets_accept_strings():
    ts = make_timescale([0.0, 1.0, 2.0, 3.0])
    assert list(kappa_set(ts, "upper-kappa").indices) == [0, 1, 2]
    assert list(kappa_set(ts, "both-kappa").indices) == [1, 2]
    with pytest.raises(ValueError):
        kappa_set(ts, "sideways-kappa")


def test_kappa_squared_needs_four_points():
    ts = make_timescale([0.0, 1.0, 2.0])
    for kind in (KappaKind.UPPER_SQUARED, KappaKind.LOWER_SQUARED):
        with pytest.raises(TimeScaleError, match="at least 4 points"):
            kappa_set(ts, kind)
    assert list(kappa_set(ts, KappaKind.BOTH).indices) == [1]


def test_kappa_membership():
    ts = make_timescale([0.0, 1.0, 2.0, 3.0])
    ks = kappa_set(ts, KappaKind.UPPER)
    assert 0 in ks and 2 in ks
    assert 3 not in ks
    assert -1 not in ks
    assert np.int64(2) in ks and np.int64(3) not in ks
    for index in (1.5, True):
        with pytest.raises(TypeError, match=f"^point index must be an integer, got {index!r}$"):
            index in ks


@given(scales)
def test_kappa_unions_recover_full_set(ts):
    n = len(ts)
    upper = set(kappa_set(ts, KappaKind.UPPER).indices)
    lower = set(kappa_set(ts, KappaKind.LOWER).indices)
    both = set(kappa_set(ts, KappaKind.BOTH).indices)
    assert upper | {n - 1} == set(range(n))
    assert lower | {0} == set(range(n))
    assert upper & lower == both


def test_uniform_scale():
    ts = uniform_scale(0.0, 1.0, 5)
    np.testing.assert_allclose(ts.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert ts.a == 0.0 and ts.b == 1.0
    with pytest.raises(ValueError):
        uniform_scale(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        uniform_scale(0.0, 0.0, 5)
    with pytest.raises(ValueError):
        uniform_scale(0.0, 1.0, 2)
    with pytest.raises(TimeScaleError, match="^endpoints must be finite$"):
        uniform_scale(0.0, np.inf, 5)


@pytest.mark.parametrize("args, message", [
    ((0, 1, 5.0), "n_points must be an integer, got 5.0"),
    ((0, 1, True), "n_points must be an integer, got True"),
    ((0, 1, "5"), "n_points must be an integer, got '5'"),
    (("0", 1, 5), "a must be a real number, got '0'"),
    ((0, None, 5), "b must be a real number, got None"),
    ((False, 1, 5), "a must be a real number, got False"),
], ids=["n-float", "n-bool", "n-string", "a-string", "b-none", "a-bool"])
def test_uniform_scale_names_an_argument_that_is_not_a_number(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        uniform_scale(*args)


def test_uniform_scale_names_a_point_count_too_large_to_allocate(monkeypatch):
    # numpy refuses 10**300 points with a message that names no argument, and
    # a count it cannot allocate raises MemoryError; both name n_points.  The
    # patched linspace refuses as an allocation would, allocating nothing.
    with pytest.raises(TimeScaleError, match=f"^n_points is too large to allocate, got {10**300}$"):
        uniform_scale(0, 1, 10**300)

    def refuse(a, b, n):
        raise MemoryError(f"Unable to allocate an array of {n} points")

    monkeypatch.setattr(np, "linspace", refuse)
    with pytest.raises(TimeScaleError, match="^n_points is too large to allocate, got 1000000000000$"):
        uniform_scale(0, 1, 10**12)


def test_uniform_scale_takes_numpy_numbers():
    ts = uniform_scale(np.float32(0.0), np.int64(1), np.int64(5))
    np.testing.assert_array_equal(ts.points, uniform_scale(0.0, 1.0, 5).points)


def test_json_round_trip_is_bit_exact():
    pts = [0.1, 1.0 / 3.0, 0.7000000000000001, 2.5e17]
    ts = make_timescale(pts)
    again = TimeScale.from_json(ts.to_json())
    np.testing.assert_array_equal(again.points, ts.points)
    # the serialized form is a plain JSON array
    assert json.loads(ts.to_json()) == pts


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        TimeScale.from_json('{"not": "an array"}')
    with pytest.raises(ValueError):
        TimeScale.from_json('[0.0, 1.0]')


def test_random_scale_helper_is_valid():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ts = random_scale(rng)
        assert np.all(np.diff(ts.points) > 0)
        assert len(ts) >= 4


def test_kappa_set_is_plain_data():
    ks = KappaSet(KappaKind.UPPER, 0, 3)
    assert ks.start == 0
    assert ks.stop == 3
    assert list(ks.indices) == [0, 1, 2]
