import math
import random

import numpy as np
import pytest
import scipy.linalg

from ofo import linalg
from ofo.errors import InputError, NotStabilizedError, SingularMatrixError
from ofo.linalg import (
    Matrix,
    faddeev_leverrier,
    inverse,
    solve_lyapunov,
    spectral_norm,
    sym_eigenvalues,
)
from ofo.plants import LinearPlant

from conftest import random_hurwitz_rows, random_spd_rows, to_rows


def as_np(m: Matrix) -> np.ndarray:
    return np.array(to_rows(m))


def column_scaled_hurwitz_rows(rng: random.Random, n: int) -> list[list[float]]:
    """A random Hurwitz matrix with its columns scaled by factors in
    [1e-2, 1e2], redrawn until the scaled matrix is Hurwitz as well."""
    while True:
        rows = random_hurwitz_rows(rng, n)
        d = [10.0 ** rng.uniform(-2.0, 2.0) for _ in range(n)]
        rows = [[v * dj for v, dj in zip(row, d)] for row in rows]
        if max(np.linalg.eigvals(np.array(rows)).real) < 0.0:
            return rows


class TestSolveLyapunov:
    def test_negative_identity(self):
        p = solve_lyapunov(Matrix.identity(2).scale(-1.0))
        assert as_np(p) == pytest.approx(0.5 * np.eye(2), abs=1e-12)

    def test_resonant_example(self):
        a = Matrix.from_rows([[-1.0, 10.0], [-10.0, -1.0]])
        p = solve_lyapunov(a)
        assert as_np(p) == pytest.approx(0.5 * np.eye(2), abs=1e-11)
        residual = as_np(a) @ as_np(p) + as_np(p) @ as_np(a).T + np.eye(2)
        assert np.max(np.abs(residual)) <= 1e-10

    def test_round_trip_recovers_known_solution(self):
        # A = (S - I/2) P0^-1 with S skew-symmetric gives A P0 + P0 A^T = -I
        # for a given positive-definite P0; the solver must recover P0.
        p0 = np.array([[0.66, 0.33], [0.33, 0.66]])
        s = np.array([[0.0, 0.4], [-0.4, 0.0]])
        a = (s - 0.5 * np.eye(2)) @ np.linalg.inv(p0)
        p = solve_lyapunov(Matrix.from_rows(a.tolist()))
        assert as_np(p) == pytest.approx(p0, abs=1e-10)

    def test_random_hurwitz_matches_scipy(self):
        rng = random.Random(20250809)
        for n in range(2, 11):
            for a_rows in (*(random_hurwitz_rows(rng, n) for _ in range(3)),
                           column_scaled_hurwitz_rows(rng, n)):
                p = solve_lyapunov(Matrix.from_rows(a_rows))
                a_np = np.array(a_rows)
                residual = a_np @ as_np(p) + as_np(p) @ a_np.T + np.eye(n)
                assert np.max(np.abs(residual)) <= 1e-10
                assert p.symmetry_defect() <= 1e-12
                assert min(sym_eigenvalues(p)) > 0.0
                ref = scipy.linalg.solve_continuous_lyapunov(a_np, -np.eye(n))
                assert as_np(p) == pytest.approx(ref, rel=1e-8, abs=1e-10)

    def test_one_equation_per_distinct_entry_of_p(self, monkeypatch):
        # P = P^T has n(n+1)/2 free entries, and A P + P A^T = -I states each
        # of their equations once: one system of that many unknowns, and P
        # read back from it symmetric with no averaging
        sizes = []
        real = linalg._solve_dense

        def recorded(k, rhs):
            sizes.append(len(k))
            return real(k, rhs)

        monkeypatch.setattr(linalg, "_solve_dense", recorded)
        rng = random.Random(33)
        for n in range(1, 7):
            sizes.clear()
            p = solve_lyapunov(Matrix.from_rows(random_hurwitz_rows(rng, n)))
            assert sizes == [n * (n + 1) // 2]
            assert p.symmetry_defect() == 0.0

    @pytest.mark.parametrize("alpha", [111.0, 112.0, 2263.0, 2263.7, 2264.0, 2300.0])
    def test_fig1_closed_loop_verdict_matches_spectral_abscissa(self, alpha):
        # fig1's gradient loop [[A, B], [-2 alpha q_y H^T C, -2 alpha q_u I]]
        # at gains on either side of its unstable interval (111.5, 2263.7);
        # at 2264 the abscissa is -1e-4 and P is large, so the residual must
        # be judged against ||A|| ||P||, not ||Q|| alone
        a = np.array([[-1.0, 10.0], [-10.0, -1.0]])
        b = np.array([[0.0], [1.0]])
        c = np.array([[1.0, 0.0]])
        h = -c @ np.linalg.inv(a) @ b
        q_u, q_y = 0.01, 1.0
        m = np.block([[a, b], [-2.0 * alpha * q_y * h.T @ c, -2.0 * alpha * q_u * np.eye(1)]])
        loop = Matrix.from_rows(m.tolist())
        if max(np.linalg.eigvals(m).real) >= 0.0:
            with pytest.raises(NotStabilizedError):
                solve_lyapunov(loop)
            return
        p = solve_lyapunov(loop)
        assert min(sym_eigenvalues(p)) > 0.0
        ref = scipy.linalg.solve_continuous_lyapunov(m, -np.eye(3))
        assert as_np(p) == pytest.approx(ref, rel=1e-6)

    def test_non_hurwitz_rejected(self):
        with pytest.raises(NotStabilizedError, match="not pre-stabilized"):
            solve_lyapunov(Matrix.from_rows([[0.0, 1.0], [0.0, 0.0]]))
        # purely imaginary eigenvalues make the Lyapunov system singular
        with pytest.raises(NotStabilizedError):
            solve_lyapunov(Matrix.from_rows([[0.0, -1.0], [1.0, 0.0]]))
        # Hurwitz fails even if the solve is regular: P must be indefinite
        with pytest.raises(NotStabilizedError):
            solve_lyapunov(Matrix.from_rows([[1.0, 0.0], [0.0, -2.0]]))

    def test_input_validation(self):
        with pytest.raises(InputError, match="square"):
            solve_lyapunov(Matrix.from_rows([[1.0, 2.0]]))


class TestSymEigenvalues:
    def test_identity(self):
        assert sym_eigenvalues(Matrix.identity(2)) == (1.0, 1.0)

    def test_two_by_two_closed_form(self):
        # eigenvalues of [[a, b], [b, a]] are a -+ b
        m = Matrix.from_rows([[0.66, 0.33], [0.33, 0.66]])
        assert sym_eigenvalues(m) == pytest.approx((0.33, 0.99), abs=1e-10)

    def test_diagonal(self):
        m = Matrix.from_rows([[3.0, 0.0], [0.0, -1.0]])
        assert sym_eigenvalues(m) == pytest.approx((-1.0, 3.0), abs=1e-14)

    def test_random_matches_numpy_and_charpoly(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.choice((2, 3, 4, 5, 6))
            rows = random_spd_rows(rng, n)
            shift = rng.uniform(-2.0, 2.0)
            for i in range(n):
                rows[i][i] += shift
            m = Matrix.from_rows(rows)
            ours = sym_eigenvalues(m)
            ref = np.linalg.eigvalsh(np.array(rows))
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)
            scale = max(1.0, m.max_norm()) ** n
            for lam in ours:
                charpoly = abs(np.linalg.det(np.array(rows) - lam * np.eye(n)))
                assert charpoly <= 1e-8 * scale

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError, match="symmetric"):
            sym_eigenvalues(Matrix.from_rows([[1.0, 2.0], [0.0, 1.0]]))

    def test_small_matrix_is_rotated_not_read_off_its_diagonal(self):
        # the rotation tolerance follows the matrix's own scale, so entries
        # far below 1 are not taken for an already diagonal matrix
        ours = sym_eigenvalues(Matrix.from_rows([[1e-15, 1e-15], [1e-15, 1e-15]]))
        assert ours[0] == pytest.approx(0.0, abs=1e-30)
        assert ours[1] == pytest.approx(2e-15, rel=1e-15, abs=0.0)

    def test_zero_matrix(self):
        assert sym_eigenvalues(Matrix.from_rows([[0.0, 0.0], [0.0, 0.0]])) == (0.0, 0.0)


class TestSpectralNorm:
    def test_unit_column(self):
        assert spectral_norm(Matrix.from_rows([[0.0], [1.0]])) == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        assert spectral_norm(Matrix.identity(2)) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_gain(self):
        assert spectral_norm(Matrix.from_rows([[-10.0 / 101.0]])) == pytest.approx(10.0 / 101.0, abs=1e-12)

    def test_random_matches_numpy(self):
        rng = random.Random(11)
        for _ in range(30):
            r, c = rng.choice(((2, 2), (3, 2), (2, 4), (1, 3), (4, 1)))
            rows = [[rng.uniform(-3.0, 3.0) for _ in range(c)] for _ in range(r)]
            ours = spectral_norm(Matrix.from_rows(rows))
            ref = float(np.linalg.norm(np.array(rows), 2))
            assert ours == pytest.approx(ref, rel=1e-8, abs=1e-8)

    def test_small_matrix(self):
        ours = spectral_norm(Matrix.from_rows([[1e-8, 1e-8], [1e-8, 1e-8]]))
        assert ours == pytest.approx(2e-8, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6])
    def test_scales_with_the_matrix(self, scale):
        rows = [[1.0, 2.0], [-0.5, 3.0], [0.25, -1.0]]
        ours = spectral_norm(Matrix.from_rows([[scale * v for v in row] for row in rows]))
        ref = scale * float(np.linalg.norm(np.array(rows), 2))
        assert ours == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestFaddeevLeverrier:
    def test_polynomials_match_numpy(self):
        """det(sI - A) against numpy.poly, and left^T adj(sI - A) right at
        points away from the spectrum against det(sI - A) left^T (sI - A)^-1
        right, for n = 1..8 and entries spread over six decades.  The k-th
        coefficient of det(sI - A) is a sum of comb(n, k) products of k
        eigenvalues, so it is judged against comb(n, k) ||A||^k, and a value
        of the adjugate polynomial against the sum of its terms' sizes."""
        rng = random.Random(31)

        def spread(count):
            return [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(count)]

        for trial in range(160):
            n = 1 + trial % 8
            a = np.array([spread(n) for _ in range(n)])
            left, right = spread(n), spread(n)
            char, adj = faddeev_leverrier(Matrix.from_rows(a.tolist()), left, right)
            assert len(char) == n + 1 and len(adj) == n
            norm = np.linalg.norm(a, 2)
            for k, (got, want) in enumerate(zip(char, np.poly(a))):
                assert abs(got - want) <= 1e-12 * math.comb(n, k) * norm ** k, (trial, k)
            for s in (3.0 * norm, -3.0 * norm, 5.0 * norm):
                terms = [c * s ** (n - 1 - k) for k, c in enumerate(adj)]
                shifted = s * np.eye(n) - a
                want = np.linalg.det(shifted) * np.dot(left, np.linalg.solve(shifted, right))
                assert abs(sum(terms) - want) <= 1e-12 * sum(map(abs, terms)), (trial, s)


class TestInverse:
    def test_identity(self):
        assert as_np(inverse(Matrix.identity(3))) == pytest.approx(np.eye(3), abs=1e-14)

    def test_resonant_example(self):
        m = Matrix.from_rows([[-1.0, 10.0], [-10.0, -1.0]])
        expected = np.array([[-1.0, -10.0], [10.0, -1.0]]) / 101.0
        assert as_np(inverse(m)) == pytest.approx(expected, abs=1e-14)

    def test_slow_plant_matrix(self):
        m = Matrix.from_rows([[0.0, -0.1], [0.1, -0.1]])
        expected = np.array([[-10.0, 10.0], [-10.0, 0.0]])
        assert as_np(inverse(m)) == pytest.approx(expected, abs=1e-12)

    def test_random_product_is_identity(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.choice((2, 3, 4))
            rows = [[rng.uniform(-3.0, 3.0) for _ in range(n)] for _ in range(n)]
            if abs(np.linalg.det(np.array(rows))) < 1e-3:
                continue
            m = Matrix.from_rows(rows)
            prod = as_np(m.matmul(inverse(m)))
            assert np.max(np.abs(prod - np.eye(n))) <= 1e-10 * max(1.0, m.max_norm())

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError, match="singular plant matrix"):
            inverse(Matrix.from_rows([[1.0, 2.0], [2.0, 4.0]]))

    @pytest.mark.parametrize("scale", [1e-15, 1e-12, 1.0, 1e6])
    def test_verdict_does_not_change_with_scale(self, scale):
        # a pivot is judged against the matrix's own largest entry, so
        # -scale I inverts at every scale, and the singular matrices stay
        # singular at every scale
        inv = inverse(Matrix.identity(3).scale(-scale))
        assert as_np(inv) == pytest.approx(-np.eye(3) / scale, rel=1e-15)
        assert as_np(solve_lyapunov(Matrix.identity(2).scale(-scale))) == pytest.approx(
            np.eye(2) / (2.0 * scale), rel=1e-12)
        for rows in ([[1.0, 2.0], [2.0, 4.0]], [[0.1, 0.3], [0.2, 0.6]], [[0.0, 0.0], [0.0, 0.0]]):
            with pytest.raises(SingularMatrixError, match="singular plant matrix"):
                inverse(Matrix.from_rows(rows).scale(scale))
        with pytest.raises(NotStabilizedError, match="singular"):
            solve_lyapunov(Matrix.from_rows([[0.0, -1.0], [1.0, 0.0]]).scale(scale))

    def test_ill_conditioned_hurwitz_plants_accepted(self):
        """Hurwitz plants with cond(A) in [1e6, 1e8) pass their Lyapunov gate,
        and their -C A^-1 B agrees with numpy's to rounding times cond(A):
        the residual of A A^-1 - I grows with ||A|| ||A^-1||, so judging it
        against ||A|| alone refused about two in five of them."""
        rng = np.random.default_rng(1)
        kept = 0
        for _ in range(1600):
            n = int(rng.choice([2, 3, 4, 6, 8]))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            t = np.diag(-np.logspace(rng.uniform(-4.0, -1.0), rng.uniform(0.0, 1.0), n))
            t += np.triu(rng.standard_normal((n, n)), 1) * rng.uniform(0.0, 3.0)
            a = q @ t @ q.T
            cond = np.linalg.cond(a)
            if not 1e6 <= cond < 1e8:
                continue
            b, c = rng.standard_normal((n, 1)), rng.standard_normal((1, n))
            kept += 1
            plant = LinearPlant(a=Matrix.from_rows(a.tolist()), b=Matrix.from_rows(b.tolist()),
                                bw=Matrix.from_rows(b.tolist()), c=Matrix.from_rows(c.tolist()))
            (h,) = plant.base_sensitivity.data
            ref = float(-(c @ np.linalg.solve(a, b))[0, 0])
            assert abs(h - ref) <= 1e-15 * cond * abs(ref)
        assert kept > 200
        for rows in ([[1.0, 2.0], [2.0, 4.0]], [[1.0, 1.0], [1.0, 1.0]], [[0.1, 0.3], [0.2, 0.6]]):
            with pytest.raises(SingularMatrixError, match="singular plant matrix"):
                inverse(Matrix.from_rows(rows))


class TestMatrixBasics:
    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            Matrix.from_rows([[math.inf, 0.0], [0.0, 1.0]])

    def test_ragged_rejected(self):
        with pytest.raises(InputError):
            Matrix.from_rows([[1.0, 2.0], [3.0]])

    def test_matvec_mismatch(self):
        with pytest.raises(InputError):
            Matrix.identity(2).matvec((1.0, 2.0, 3.0))
