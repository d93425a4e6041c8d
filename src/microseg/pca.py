"""Endpoint signature extraction by principal component analysis.

Fitting eigendecomposes the sample covariance matrix (divisor n - 1) with a
dense symmetric solve. Component signs are fixed so the largest-magnitude
entry of each component is positive, which makes fits bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .features import SampleMatrix
from .flows import write_atomic

#: Most negative eigenvalue tolerated as numerical noise before clamping.
EIG_NOISE_FLOOR = -1e-8


@dataclass(frozen=True)
class PcaModel:
    """Fitted projection: mean, orthonormal components, retained spectrum.

    ``eigenvalues`` holds only the retained eigenvalues (descending);
    ``total_variance`` is the sum over the full spectrum at fit time, so
    explained fractions stay correct after truncation.
    """

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray
    total_variance: float
    schema_fingerprint: str = ""

    @property
    def retained_dim(self) -> int:
        return self.components.shape[0]

    @property
    def input_dim(self) -> int:
        return self.components.shape[1]


def _as_values(matrix: Union[SampleMatrix, np.ndarray]) -> np.ndarray:
    if isinstance(matrix, SampleMatrix):
        return matrix.values
    return np.asarray(matrix, dtype=np.float64)


def fit_pca(
    matrix: Union[SampleMatrix, np.ndarray],
    target: Union[float, int] = 0.95,
    *,
    schema_fingerprint: str = "",
) -> PcaModel:
    """Fit a PCA model, retaining components per ``target``.

    ``target`` given as a float in (0, 1] retains the smallest number of
    components whose cumulative explained-variance fraction reaches it; an
    int requests that fixed dimension, capped at min(rows - 1, dimension).
    Callers are expected to standardize first; this is not enforced.
    """
    X = _as_values(matrix)
    n, d = X.shape
    if n < 2:
        raise ValueError("fit_pca requires at least 2 rows")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    if eigvals[-1] < EIG_NOISE_FLOOR:
        raise ValueError(f"covariance eigenvalue {eigvals[-1]} below noise floor")
    eigvals = np.clip(eigvals, 0.0, None)
    total = float(eigvals.sum())
    if total <= 0.0:
        raise ValueError("matrix has zero variance; nothing to retain")

    # Sign convention: largest-magnitude entry of each component positive.
    for j in range(eigvecs.shape[1]):
        col = eigvecs[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            eigvecs[:, j] = -col

    if isinstance(target, bool):
        raise ValueError("target must be a fraction or an integer dimension")
    if isinstance(target, int):
        if target < 1:
            raise ValueError(f"fixed_dim {target} < 1")
        m = min(target, n - 1, d)
    else:
        if not 0.0 < target <= 1.0:
            raise ValueError(f"variance fraction {target} outside (0, 1]")
        cumfrac = np.cumsum(eigvals) / total
        m = int(np.searchsorted(cumfrac, target - 1e-12)) + 1
        m = min(m, d)
    return PcaModel(
        mean=mean,
        components=eigvecs[:, :m].T.copy(),
        eigenvalues=eigvals[:m].copy(),
        total_variance=total,
        schema_fingerprint=schema_fingerprint,
    )


def project(model: PcaModel, vectors: np.ndarray) -> np.ndarray:
    """Project one vector or a stack of row vectors into signature space."""
    V = np.asarray(vectors, dtype=np.float64)
    if V.shape[-1] != model.input_dim:
        raise ValueError(
            f"dimension mismatch: got {V.shape[-1]}, model expects {model.input_dim}"
        )
    return (V - model.mean) @ model.components.T


def explained_variance(model: PcaModel) -> np.ndarray:
    """Retained eigenvalues normalized by the full-spectrum total."""
    return model.eigenvalues / model.total_variance


def save_pca(model: PcaModel, path: Union[str, Path]) -> None:
    payload = {
        "kind": "pca_model",
        "mean": model.mean.tolist(),
        "components": model.components.tolist(),
        "eigenvalues": model.eigenvalues.tolist(),
        "total_variance": model.total_variance,
        "schema_fingerprint": model.schema_fingerprint,
    }
    write_atomic(Path(path), json.dumps(payload, sort_keys=True) + "\n")

