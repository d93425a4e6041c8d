import math

import numpy as np
import pytest

from microseg.pca import (
    PcaModel,
    explained_variance,
    fit_pca,
    project,
    save_pca,
)


from oracles import power_iteration_spectrum, reconstruct


class TestFitPca:
    def test_two_dim_line(self):
        # Points on the diagonal: single component (1/sqrt(2), 1/sqrt(2)),
        # sample covariance eigenvalue 20/3, all variance explained.
        X = np.array([[1, 1], [-1, -1], [2, 2], [-2, -2]], dtype=float)
        model = fit_pca(X, 0.95)
        assert model.retained_dim == 1
        assert model.components[0] == pytest.approx(
            [1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-12
        )
        assert model.eigenvalues[0] == pytest.approx(20 / 3, abs=1e-12)
        assert explained_variance(model) == pytest.approx([1.0], abs=1e-12)

    def test_full_dim_preserves_distances(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 6))
        model = fit_pca(X, 6)
        assert model.retained_dim == 6
        P = project(model, X)
        for i in range(0, 20, 5):
            for j in range(1, 20, 7):
                orig = np.linalg.norm(X[i] - X[j])
                proj = np.linalg.norm(P[i] - P[j])
                assert proj == pytest.approx(orig, abs=1e-8)

    def test_rank_one_data(self):
        direction = np.array([3.0, 4.0, 0.0]) / 5.0
        X = np.outer(np.arange(6, dtype=float), direction)
        model = fit_pca(X, 0.5)
        assert model.retained_dim == 1
        assert explained_variance(model)[0] == pytest.approx(1.0, abs=1e-12)

    def test_fixed_dim_capped_by_rows(self):
        X = np.array([[0.0, 0.0], [1.0, 2.0]])
        model = fit_pca(X, 2)
        assert model.retained_dim == 1  # min(rows - 1, dim)

    def test_fixed_dim_below_one_rejected(self):
        with pytest.raises(ValueError):
            fit_pca(np.eye(3), 0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            fit_pca(np.ones((4, 3)), 0.95)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            fit_pca(np.ones((1, 3)), 0.95)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 5))
        m1 = fit_pca(X, 0.9)
        m2 = fit_pca(X.copy(), 0.9)
        assert np.array_equal(m1.components, m2.components)
        assert np.array_equal(m1.eigenvalues, m2.eigenvalues)


class TestProject:
    def test_mean_projects_to_zero(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 4))
        model = fit_pca(X, 4)
        assert project(model, model.mean) == pytest.approx([0.0] * 4, abs=1e-12)

    def test_along_component(self):
        X = np.array([[1, 1], [-1, -1], [2, 2], [-2, -2]], dtype=float)
        model = fit_pca(X, 0.95)
        vec = model.mean + 2.0 * model.components[0]
        assert project(model, vec) == pytest.approx([2.0], abs=1e-12)

    def test_projected_variance_matches_eigenvalues(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(40, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.1])
        model = fit_pca(X, 5)
        P = project(model, X)
        variances = P.var(axis=0, ddof=1)
        assert variances == pytest.approx(model.eigenvalues, abs=1e-6)

    def test_dimension_mismatch(self):
        model = fit_pca(np.random.default_rng(0).normal(size=(5, 3)), 2)
        with pytest.raises(ValueError, match="mismatch"):
            project(model, np.zeros(4))


class TestExplainedVariance:
    def test_normalization(self):
        model = PcaModel(
            mean=np.zeros(2),
            components=np.eye(2),
            eigenvalues=np.array([3.0, 1.0]),
            total_variance=4.0,
        )
        assert explained_variance(model).tolist() == [0.75, 0.25]

    def test_rank_one_full(self):
        model = PcaModel(
            mean=np.zeros(2),
            components=np.eye(2)[:1],
            eigenvalues=np.array([2.0]),
            total_variance=2.0,
        )
        assert explained_variance(model).tolist() == [1.0]

    def test_truncated_spectrum_normalizes_by_full_total(self):
        model = PcaModel(
            mean=np.zeros(3),
            components=np.eye(3)[:2],
            eigenvalues=np.array([2.0, 1.0]),
            total_variance=4.0,
        )
        assert explained_variance(model).tolist() == [0.5, 0.25]


class TestPcaProperties:
    def test_orthonormality(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(30, 8))
        model = fit_pca(X, 8)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(model.retained_dim)).max() <= 1e-8

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(29)
        for trial in range(5):
            d = int(rng.integers(2, 6))
            X = rng.normal(size=(25, d)) * rng.uniform(0.5, 3.0, size=d)
            model = fit_pca(X, d)
            centered = X - X.mean(axis=0)
            cov = centered.T @ centered / (X.shape[0] - 1)
            count = min(model.retained_dim, d - 1)  # deflation robust below top-(d-1)
            values, vectors = power_iteration_spectrum(cov, count)
            assert model.eigenvalues[:count] == pytest.approx(values, abs=1e-6)
            for i in range(count):
                dot = abs(float(vectors[i] @ model.components[i]))
                assert dot == pytest.approx(1.0, abs=1e-6)

    def test_reconstruction_error_monotone_in_dim(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(25, 6)) @ rng.normal(size=(6, 6))
        errors = []
        for m in range(1, 7):
            model = fit_pca(X, m)
            approx = reconstruct(model, project(model, X))
            errors.append(float(((X - approx) ** 2).sum()))
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-9

    def test_negative_eigenvalue_noise_clamped(self):
        rng = np.random.default_rng(37)
        base = rng.normal(size=(10, 2))
        X = np.hstack([base, base, base])  # rank 2 in 6 dims
        model = fit_pca(X, 6)
        assert (model.eigenvalues >= 0).all()


class TestPersistence:
    def test_save_is_deterministic(self, tmp_path):
        X = np.random.default_rng(43).normal(size=(8, 3))
        model = fit_pca(X, 0.9)
        save_pca(model, tmp_path / "a.json")
        save_pca(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
