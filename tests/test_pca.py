import numpy as np
import pytest

from sentaxis.axis import DistanceMatrix, principal_axis
from sentaxis.errors import DegenerateMatrixError
from sentaxis.pca import top_two_components


def random_distance_matrix(rng, k: int) -> DistanceMatrix:
    """Symmetric zero-diagonal matrix with entries in (0, 2)."""
    upper = rng.uniform(0.05, 1.95, size=(k, k))
    d = np.triu(upper, 1)
    d = d + d.T
    return DistanceMatrix(words=tuple(f"w{i}" for i in range(k)), d=d)


def oracle_projection(dm: DistanceMatrix):
    """SVD of the centered matrix (independent of the covariance eigensolver)."""
    centered = dm.d - dm.d.mean(axis=0)
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    eigenvalues = singular ** 2 / (dm.d.shape[0] - 1)
    return centered @ vt[0], centered @ vt[1], eigenvalues[0], eigenvalues[1]


def relative_gap(dm: DistanceMatrix) -> float:
    _, _, lam1, lam2 = oracle_projection(dm)
    return (lam1 - lam2) / lam1 if lam1 > 0 else 0.0


def matches_up_to_sign(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    return bool(np.max(np.abs(a - b)) <= tol or np.max(np.abs(a + b)) <= tol)


class TestPrincipalAxis:
    def test_identical_rows_degenerate(self):
        d = np.zeros((4, 4))
        dm = DistanceMatrix(words=("a", "b", "c", "d"), d=d)
        with pytest.raises(DegenerateMatrixError):
            principal_axis(dm)

    def test_six_by_six_fixtures_match_eigendecomposition(self):
        rng = np.random.default_rng(1234)
        checked = 0
        while checked < 20:
            dm = random_distance_matrix(rng, 6)
            if relative_gap(dm) < 1e-3:
                continue  # near-degenerate leading pair: direction ill-posed
            proj = principal_axis(dm)
            expected_pc1, _, _, _ = oracle_projection(dm)
            assert matches_up_to_sign(proj.pc1, expected_pc1, 1e-6)
            checked += 1

    def test_collinear_rows_explain_everything(self):
        # rows arranged on a line in row space: rank-1 after centering
        line = np.linspace(0.1, 1.9, 5)
        d = np.outer(line, np.ones(4))
        dm = DistanceMatrix(words=tuple("abcde"), d=np.column_stack([d, line]))
        proj = principal_axis(dm)
        assert proj.explained_variance[0] == pytest.approx(1.0, abs=1e-9)
        assert proj.explained_variance[1] == pytest.approx(0.0, abs=1e-9)
        assert np.max(np.abs(proj.pc2)) <= 1e-6

    def test_pc1_never_all_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            dm = random_distance_matrix(rng, 5)
            proj = principal_axis(dm)
            assert np.any(proj.pc1 != 0.0)

    def test_explained_variance_shares_bounded(self):
        rng = np.random.default_rng(11)
        dm = random_distance_matrix(rng, 7)
        proj = principal_axis(dm)
        ev1, ev2 = proj.explained_variance
        assert 0.0 < ev1 <= 1.0
        assert 0.0 <= ev2 <= ev1
        assert ev1 + ev2 <= 1.0 + 1e-12

    def test_projection_is_deterministic(self):
        rng = np.random.default_rng(3)
        dm = random_distance_matrix(rng, 6)
        first = principal_axis(dm)
        second = principal_axis(dm)
        assert np.array_equal(first.pc1, second.pc1)
        assert np.array_equal(first.pc2, second.pc2)


class TestPowerIteration:
    def test_diagonal_matrix_exact(self):
        values, vectors = top_two_components(np.diag([5.0, 2.0, 1.0]))
        assert values[0] == pytest.approx(5.0, abs=1e-9)
        assert values[1] == pytest.approx(2.0, abs=1e-9)
        assert matches_up_to_sign(vectors[0], np.array([1.0, 0.0, 0.0]), 1e-6)
        assert matches_up_to_sign(vectors[1], np.array([0.0, 1.0, 0.0]), 1e-6)

    def test_canonical_sign_convention(self):
        _, vectors = top_two_components(np.diag([3.0, 1.0]))
        pivot = int(np.argmax(np.abs(vectors[0])))
        assert vectors[0][pivot] > 0

    def test_zero_matrix_raises(self):
        with pytest.raises(DegenerateMatrixError):
            top_two_components(np.zeros((3, 3)))

    def test_rank_one_second_component_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        values, vectors = top_two_components(np.outer(v, v))
        assert values[1] == 0.0
        assert np.all(vectors[1] == 0.0)

    def test_near_tied_pair_returns_both_eigenvalues(self):
        values, _ = top_two_components(np.diag([1.0, 1.0 - 1e-9]))
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert values[1] == pytest.approx(1.0 - 1e-9, abs=1e-12)

    def test_matches_eigh_across_sizes(self):
        rng = np.random.default_rng(99)
        for k in range(3, 9):
            a = rng.normal(size=(k, k))
            cov = a @ a.T
            # eigenpairs of a a^T are the squared singular values and left
            # singular vectors of a
            left, singular, _ = np.linalg.svd(a)
            eigenvalues = singular ** 2
            if (eigenvalues[0] - eigenvalues[1]) / eigenvalues[0] < 1e-3:
                continue
            values, vectors = top_two_components(cov)
            assert values[0] == pytest.approx(eigenvalues[0], rel=1e-8)
            assert matches_up_to_sign(vectors[0], left[:, 0], 1e-6)
