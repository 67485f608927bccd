import numpy as np
import pytest

from qstar import (
    DimensionMismatchError,
    FilterN3,
    NoConvergenceError,
    NoSignChangeError,
    SingularMatrixError,
    bandwidth,
    find_root,
    integrate,
    make_delta,
    make_st_form,
    n3_transmission,
    numerics,
    smatrix,
    solve_linear,
)

from conftest import random_channels, rng_for


class TestSolveLinear:
    def test_identity(self):
        b = np.array([[1.0 + 2j, 3.0], [0.5j, -1.0], [2.0, 0.0]])
        x = solve_linear(np.eye(3), b)
        assert np.allclose(x, b, rtol=0, atol=1e-14)

    def test_diagonal(self):
        x = solve_linear(np.diag([2.0, 1j]), np.array([2.0, 1j]))
        assert np.allclose(x, [1.0, 1.0], rtol=0, atol=1e-14)

    def test_permutation_is_own_inverse(self):
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = solve_linear(p, np.eye(2))
        assert np.array_equal(x, p)

    def test_inverse_of_random_matrix(self):
        rng = rng_for("solve-inverse")
        for n in range(1, 9):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 3 * np.eye(n)
            x = solve_linear(a, a)
            assert np.abs(x - np.eye(n)).max() < 1e-12

    def test_residual_contract(self):
        # Orders 1..30 with up to n right-hand sides; couplings solve n x n.
        rng = rng_for("solve-residual")
        for n in range(1, 31):
            for m in {1, n, int(rng.integers(1, n + 1))}:
                a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                a += 2 * n * np.eye(n)  # keep it well conditioned
                b = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
                x = solve_linear(a, b)
                resid = np.abs(a @ x - b).max()
                assert resid <= 1e-12 * max(1.0, np.abs(b).max()), (n, m)

    def test_row_graded_matrix_needs_the_pivot_order(self):
        # a = D a0 with rows graded by 2^-5 and a0 of tiny diagonal: a has
        # condition ~1e11, yet partial pivoting recovers x to the accuracy
        # of a0 (condition ~30). Pivots taken down the diagonal lose about
        # 1e-7 here, and a pivot row used twice loses everything.
        rng = rng_for("solve-graded")
        n = 8
        a0 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a0[np.diag_indices(n)] *= 1e-9
        grade = 2.0 ** (-5 * np.arange(n))[:, None]
        x = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        got = solve_linear(grade * a0, grade * (a0 @ x))
        assert np.abs(got - x).max() <= 1e-13 * np.abs(x).max()

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))

    def test_singular_at_a_later_column_names_it(self):
        # Columns 0 and 1 pivot on 1; column 2 is left with 2^-50, exactly,
        # so max|a^-1| = 2^50 + 1 and the estimate is 9 (2^50 + 1) (1 + 2^-50).
        tiny = 2.0**-50
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0 + tiny]])
        with pytest.raises(SingularMatrixError) as info:
            solve_linear(a, np.eye(3))
        err = info.value
        assert err.limit == np.sqrt(3) / numerics.PIVOT_FLOOR
        assert err.estimate == pytest.approx(9 * (2.0**50 + 1) * (1 + tiny), rel=1e-12)
        assert str(err) == "condition estimate 1.013e+16 at or above 1.732e+14"

    def test_tiny_pivot_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(SingularMatrixError):
            solve_linear(a, np.eye(2))

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(np.zeros((2, 2)), np.eye(2))

    def test_vector_rhs_shape(self):
        x = solve_linear(2 * np.eye(3), np.ones(3))
        assert x.shape == (3,)
        assert np.allclose(x, 0.5)

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatchError):
            solve_linear(np.ones((2, 3)), np.ones(2))
        with pytest.raises(DimensionMismatchError):
            solve_linear(np.eye(2), np.ones(3))

    def test_nonfinite_rejected(self):
        a = np.eye(2)
        a[0, 0] = np.nan
        with pytest.raises(ValueError, match="matrix entries"):
            solve_linear(a, np.ones(2))
        with pytest.raises(ValueError, match="right-hand side entries"):
            solve_linear(np.eye(2), [1.0, np.inf])
        with pytest.raises(ValueError, match="matrix entries"):
            solve_linear(a, [np.nan, 1.0])

    def test_operands_unchanged(self):
        # Elimination works on copies: the caller's a and b survive, for a
        # vector and for a matrix right-hand side, and complex128 inputs
        # (which need no conversion) are not aliased either.
        rng = rng_for("solve-operands")
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) + 4 * np.eye(5)
        for b in (rng.normal(size=5) + 1j * rng.normal(size=5),
                  rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))):
            a_before, b_before = a.copy(), b.copy()
            x = solve_linear(a, b)
            assert np.array_equal(a, a_before)
            assert np.array_equal(b, b_before)
            assert not np.shares_memory(x, b)
            assert np.abs(a @ x - b).max() < 1e-12


def _trailing_block_solve(a, b):
    """Oracle: Gauss-Jordan elimination on ``[a | b]`` that updates only the
    columns right of the pivot column, ``m[:, k + 1:]``, pivoting on the
    largest modulus among the rows not yet used. Raises SingularMatrixError
    where a pivot falls below ``PIVOT_FLOOR`` times the largest entry of
    ``a``, the rule that ``solve_linear``'s limit bounds."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    vector = b.ndim == 1
    if vector:
        b = b.reshape(-1, 1)
    n = a.shape[0]
    floor = numerics.PIVOT_FLOOR * float(np.abs(a).max())
    m = np.concatenate((a, b), axis=1)
    free = np.ones(n)
    rows = []
    for k in range(n):
        column = m[:, k]
        modulus = np.abs(column) * free
        p = int(modulus.argmax())
        best = float(modulus[p])
        if best < floor or best == 0.0:
            raise SingularMatrixError(f"oracle: pivot {best:.3e} below floor at column {k}")
        pivot_row = m[p, k + 1 :] / column[p]
        m[:, k + 1 :] -= column[:, None] * pivot_row
        m[p, k + 1 :] = pivot_row
        free[p] = 0.0
        rows.append(p)
    return m[rows, n] if vector else m[rows, n:]


def _near_singular_systems(rng, n, count):
    """``count`` systems (a, b) of order n, in four kinds taken in turn:
    rank n - 1 plus noise; row 1 a multiple of row 0 plus noise; entries
    from {-1, 0, 1} + i{-1, 0, 1}, with modulus ties and the last row the
    sum of the first two (exactly singular); the last column a combination
    of the first two plus noise. The noise is 1e-19 to 1e-11 of the
    largest entry. For n = 2 the ties have no sum row and the last column
    is a multiple of the first; for n = 1 only the ties are not plain
    random numbers. Each a is scaled by 10^u, u uniform in [-100, 100]."""
    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    kind = np.arange(count) % 4
    a = np.empty((count, n, n), dtype=np.complex128)
    for k in range(4):
        c = int(np.sum(kind == k))
        if k == 2:
            ties = rng.integers(-1, 2, size=(c, n, n)) + 1j * rng.integers(-1, 2, size=(c, n, n))
            if n > 2:
                ties[:, -1] = ties[:, 0] + ties[:, 1]
            a[kind == k] = ties
            continue
        block = cplx(c, n, n)
        if k == 0 and n > 1:
            block = cplx(c, n, n - 1) @ cplx(c, n - 1, n)
        elif k == 1 and n > 1:
            block[:, 1] = block[:, 0] * rng.normal(size=(c, 1))
        elif k == 3 and n > 1:
            block[:, :, -1] = sum(block[:, :, j] * rng.normal(size=(c, 1))
                                  for j in range(min(2, n - 1)))
        if n > 1:
            noise = 10.0 ** rng.uniform(-19, -11, size=(c, 1, 1)) * cplx(c, n, n)
            block += noise * np.abs(block).max(axis=(1, 2), keepdims=True)
        a[kind == k] = block
    a *= 10.0 ** rng.uniform(-100, 100, size=(count, 1, 1))
    b = cplx(count, n, 1 + n % 3)
    return zip(a, b)


def _backward_error(a, b, x):
    """max|a x - b| in units of n eps (||a||_inf max|x| + max|b|)."""
    scale = np.abs(a).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
    return float(np.abs(a @ x - b).max() / (len(a) * np.finfo(float).eps * scale))


class TestSolveLinearDispatch:
    """solve_linear answers or refuses by its condition estimate alone."""

    def test_every_pivot_floor_raise_is_refused_by_the_limit(self):
        # 50,229 near-singular systems of order 1..24, about 13,300 / n of
        # order n, so that each order costs about as much elimination:
        # wherever the oracle's pivot floor fires, solve_linear raises with
        # an estimate at or above its limit, and whatever it answers has a
        # backward error of a few n eps.
        rng = rng_for("solve-guard-survey")
        surveyed, fired, refused, worst = 0, 0, 0, 0.0
        for n in range(1, 25):
            for a, b in _near_singular_systems(rng, n, -(-13_300 // n)):
                surveyed += 1
                try:
                    _trailing_block_solve(a, b)
                    fires = False
                except SingularMatrixError:
                    fires = True
                    fired += 1
                try:
                    x = solve_linear(a, b)
                except SingularMatrixError as err:
                    refused += 1
                    assert err.estimate >= err.limit == np.sqrt(n) / numerics.PIVOT_FLOOR
                    continue
                assert not fires, n
                worst = max(worst, _backward_error(a, b, x))
        assert surveyed >= 50_000
        assert fired > 0.3 * surveyed
        assert refused > fired
        assert worst < 4

    def test_coupling_systems_take_lapack(self):
        # ST couplings with complex T and delta couplings, n = 2..16.
        rng = rng_for("solve-dispatch-couplings")
        for _ in range(200):
            n = int(rng.integers(2, 17))
            m = int(rng.integers(1, n))
            t = rng.uniform(-3.0, 3.0, size=(m, n - m)) + 1j * rng.uniform(-3.0, 3.0, size=(m, n - m))
            for bc in (make_st_form(n, m, t), make_delta(n, float(rng.uniform(-3.0, 3.0)))):
                sm = smatrix(bc, random_channels(rng, n))
                assert np.isfinite(sm.S).all()


class TestIntegrate:
    def test_linear(self):
        assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_flat_passband_flux_integrand(self):
        # k * 1/4 over [0, 1]: the below-threshold flux piece of the flat
        # filter with unit density and unit potential.
        val = integrate(lambda k: 0.25 * k, 0.0, 1.0)
        assert val == pytest.approx(0.125, abs=1e-12)

    def test_filter_peak_against_dense_trapezoid(self):
        f = FilterN3(a=1.0, b=3.0, U=1.0)
        ks = np.linspace(0.9, 1.1, 1_000_001)
        oracle = np.trapezoid(n3_transmission(f, ks), ks)
        val = integrate(
            lambda k: n3_transmission(f, float(k)),
            0.9,
            1.1,
            breakpoints=[1.0],
        )
        assert val == pytest.approx(oracle, abs=1e-6)

    def test_additivity(self):
        def f(x):
            return np.exp(-x) * np.sin(3 * x)

        whole = integrate(f, 0.0, 2.0)
        parts = integrate(f, 0.0, 0.7) + integrate(f, 0.7, 2.0)
        assert whole == pytest.approx(parts, abs=5e-11)

    def test_breakpoint_handles_kink(self):
        val = integrate(lambda x: abs(x), -1.0, 1.0, breakpoints=[0.0])
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 1.0)

    def test_depth_exhaustion(self, monkeypatch):
        def nasty(x):
            return np.sign(x - np.pi / 6)  # jump far from any breakpoint

        monkeypatch.setattr(numerics, "QUAD_MAX_DEPTH", 3)
        with pytest.raises(NoConvergenceError):
            integrate(nasty, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_integrand_raises_at_once(self, bad):
        # A nan error estimate fails every panel, so a quadrature that kept
        # bisecting would call f without end; stop the test after 1,000.
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) > 1000:
                raise RuntimeError("integrate kept calling a non-finite integrand")
            return bad if x > 0.25 else x

        with pytest.raises(ValueError, match=r"integrand is .* at x=0\.[0-9]"):
            integrate(f, 0.0, 1.0, breakpoints=[0.5])
        assert len(calls) <= 60

    @pytest.mark.parametrize("lo, hi", [
        (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan),
    ])
    def test_non_finite_bounds_rejected(self, lo, hi):
        # At infinite bounds every panel is nan and would bisect down to
        # QUAD_MAX_DEPTH; stop the test after 1,000 calls.
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) > 1000:
                raise RuntimeError("integrate kept calling f on a non-finite interval")
            return 1.0

        with pytest.raises(ValueError, match="need finite lo < hi"):
            integrate(f, lo, hi)
        assert not calls


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 0.5, 0.0, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_sqrt2(self):
        root = find_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert root == pytest.approx(np.sqrt(2.0), abs=1e-10)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_endpoint_root(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0
        assert find_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_iteration_budget(self, monkeypatch):
        monkeypatch.setattr(numerics, "ROOT_MAX_ITER", 3)
        with pytest.raises(NoConvergenceError, match="within 3 iterations"):
            find_root(lambda x: x * x - 2.0, 1.0, 2.0)

    def test_result_bracketed_and_bracket_shrinks(self):
        xs = []

        def f(x):
            xs.append(x)
            return np.cos(x) - x

        root = find_root(f, 0.0, 2.0)
        assert 0.0 <= root <= 2.0
        # Replay the bracket from the signs at the evaluated points.
        assert xs[:2] == [0.0, 2.0]
        lo, hi = xs[:2]
        trace = [(lo, hi)]
        for x in xs[2:]:
            assert lo < x < hi
            if np.cos(x) - x > 0:  # the sign of f(lo)
                lo = x
            else:
                hi = x
            trace.append((lo, hi))
        widths = [hi - lo for lo, hi in trace]
        assert all(w2 <= w1 for w1, w2 in zip(widths, widths[1:]))
        for lo, hi in trace:
            assert lo <= root <= hi or hi - lo > 1e-12

    @pytest.mark.parametrize("lo, hi", [
        (0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan),
    ])
    def test_non_finite_bounds_rejected(self, lo, hi):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.5

        with pytest.raises(ValueError, match="bounds must be finite"):
            find_root(f, lo, hi)
        assert not calls

    def test_half_max_edges_give_band_width(self):
        # Edges of the transmission band of the (a=1, b=3) filter, located
        # from each side of the threshold; energy width lands close to the
        # sharp-peak estimate 4.7 U / b^4.
        f = FilterN3(a=1.0, b=3.0, U=1.0)

        def excess(k):
            return n3_transmission(f, k) - 0.5

        hi = find_root(excess, 1.0, 1.1)
        lo = find_root(excess, 0.9, 1.0)
        width = hi**2 - lo**2
        assert width == pytest.approx(4.7 / 81, rel=0.10)

        # The same root find, bracketed on each side of sqrt(U), is an
        # oracle for the closed-form edges of bandwidth().
        rng = rng_for("half-max-edges")
        for a, b, U in zip(rng.uniform(0.6, 1.8, 5), rng.uniform(2.0, 20.0, 5),
                           rng.uniform(0.5, 4.0, 5)):
            f = FilterN3(a=a, b=b, U=U)
            k_th = f.threshold
            rep = bandwidth(f)
            assert find_root(excess, k_th * 1e-3, k_th) == pytest.approx(
                rep.k_lo, rel=1e-12)
            assert find_root(excess, k_th, 2.0 * k_th) == pytest.approx(
                rep.k_hi, rel=1e-12)
