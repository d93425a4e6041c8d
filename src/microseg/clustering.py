"""Security-group discovery over projected endpoint samples.

K-means (k-means++ seeding, Lloyd iterations with a single-sample
refinement, best-of-restarts) runs over individual per-window samples;
each endpoint then joins the centroid with the smallest average distance
over all of its samples, which smooths over endpoints whose sample counts
differ. Non-empty centroids become security groups. Ties break to the
lowest index everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .features import SampleMatrix, encode_windows, standardize, write_atomic
from .flows import ClassifiedFlow
from .metrics import EvalReport
from .pca import PcaModel, fit_pca, project


@dataclass(frozen=True)
class ClusterModel:
    """Fitted centroids plus fit metadata.

    ``inertia_history`` records the sum of squared sample-to-assigned-
    centroid distances at each Lloyd iteration of the winning restart,
    ending with the final value (which equals ``inertia``).
    """

    centroids: np.ndarray
    inertia: float
    iterations_run: int
    seed: int
    inertia_history: tuple[float, ...] = ()

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


@dataclass(frozen=True)
class GroupAssignment:
    endpoint: str
    mean_distances: np.ndarray

    @property
    def group_id(self) -> int:
        return int(np.argmin(self.mean_distances))


@dataclass(frozen=True)
class SecurityGroups:
    """Partition of endpoints into non-empty groups keyed by centroid index."""

    groups: dict[int, frozenset[str]]

    @property
    def suggested_qty(self) -> int:
        return len(self.groups)

    def endpoint_to_group(self) -> dict[str, int]:
        return {ep: gid for gid, members in self.groups.items() for ep in members}

    @property
    def endpoints(self) -> frozenset[str]:
        return frozenset(ep for members in self.groups.values() for ep in members)


def _row_sq(X: np.ndarray) -> np.ndarray:
    """Squared row norms as a column, (n_samples, 1)."""
    return np.einsum("ij,ij->i", X, X)[:, None]


def _sq_dists(X: np.ndarray, C: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (n_samples, n_centroids), clipped at 0."""
    cc = np.einsum("ij,ij->i", C, C)[None, :]
    return np.clip(xx + cc - 2.0 * (X @ C.T), 0.0, None)


def _distinct_rows(X: np.ndarray) -> int:
    return np.unique(X, axis=0).shape[0]


def _pp_seed(
    X: np.ndarray, k: int, rng: np.random.Generator, xx: np.ndarray
) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[int(rng.integers(n))]
    d2 = _sq_dists(X, centroids[0:1], xx)[:, 0]
    for i in range(1, k):
        centroids[i] = X[int(rng.choice(n, p=d2 / d2.sum()))]
        d2 = np.minimum(d2, _sq_dists(X, centroids[i : i + 1], xx)[:, 0])
    return centroids


def kmeans_pp_init(samples: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding: squared-distance-weighted draws, deterministic per seed."""
    X = np.asarray(samples, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > _distinct_rows(X):
        raise ValueError(f"k={k} exceeds the {_distinct_rows(X)} distinct sample rows")
    return _pp_seed(X, k, np.random.default_rng(seed), _row_sq(X))


def _cluster_sums(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster row sums, (k, n_features); ``bincount`` adds in row order."""
    return np.stack(
        [np.bincount(labels, weights=col, minlength=k) for col in X.T], axis=1
    )


def _update_centroids(
    X: np.ndarray, labels: np.ndarray, k: int, point_sq: np.ndarray
) -> np.ndarray:
    """Mean-update step. Empty clusters are reseeded at the sample currently
    farthest from its assigned centroid, lowest cluster index first."""
    new_centroids = _cluster_sums(X, labels, k)
    counts = np.bincount(labels, minlength=k)
    nonzero = counts > 0
    new_centroids[nonzero] /= counts[nonzero, None]
    if not nonzero.all():
        far = point_sq.copy()
        for j in np.flatnonzero(~nonzero):
            idx = int(np.argmax(far))
            new_centroids[j] = X[idx]
            far[idx] = -1.0
    return new_centroids


def _hartigan_polish(
    X: np.ndarray, xx: np.ndarray, labels: np.ndarray, k: int,
    prev_centroids: np.ndarray, max_rounds: int = 1000
) -> tuple[np.ndarray, np.ndarray, int]:
    """Single-sample refinement after Lloyd convergence.

    Applies reassignments of individual samples whose exact objective
    decrease (Hartigan's move criterion, which accounts for the centroid
    shift a move causes) is strictly negative, keeping centroids equal to
    their cluster means throughout. This escapes the boundary-stuck fixed
    points Lloyd alone can converge to. Each round scans all moves once and
    greedily applies the best ones over pairwise-disjoint cluster pairs, so
    every applied delta stays exact; every move strictly decreases the
    objective, so the refinement terminates. Clusters empty on entry keep
    their previous centroid position (a move into an empty cluster costs
    nothing wherever it sits). The distance and move-cost matrices persist
    across rounds; a round recomputes only the columns it touched.
    """
    n = X.shape[0]
    labels = labels.copy()
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    centroids = _cluster_sums(X, labels, k)
    nonzero = counts > 0
    centroids[nonzero] /= counts[nonzero, None]
    centroids[~nonzero] = prev_centroids[~nonzero]
    D = _sq_dists(X, centroids, xx)
    cost = counts / (counts + 1.0) * D
    rows = np.arange(n)
    cost[rows, labels] = np.inf
    moves = 0
    for _ in range(max_rounds):
        own = D[rows, labels]
        # Removing a sample from a singleton cluster would empty it; bar
        # those moves by making their gain infinitely unattractive.
        gain = np.where(
            counts[labels] > 1,
            counts[labels] / np.maximum(counts[labels] - 1.0, 1.0) * own,
            -np.inf,
        )
        # Per-row best target is enough: the row's gain term is constant,
        # and blocked rows get another chance next round.
        best_b = np.argmin(cost, axis=1)
        delta = cost[rows, best_b] - gain
        threshold = -1e-12 * max(1.0, float(own.sum()))
        cand = np.flatnonzero(delta < threshold)
        if cand.size == 0:
            break
        order = cand[np.argsort(delta[cand], kind="stable")]
        touched = np.zeros(k, dtype=bool)
        for i in order:
            i = int(i)
            a, b = int(labels[i]), int(best_b[i])
            if touched[a] or touched[b]:
                continue
            touched[a] = touched[b] = True
            centroids[a] = (counts[a] * centroids[a] - X[i]) / (counts[a] - 1.0)
            centroids[b] = (counts[b] * centroids[b] + X[i]) / (counts[b] + 1.0)
            counts[a] -= 1.0
            counts[b] += 1.0
            labels[i] = b
            moves += 1
        tc = np.flatnonzero(touched)
        D[:, tc] = d_tc = _sq_dists(X, centroids[tc], xx)
        cost[:, tc] = counts[tc] / (counts[tc] + 1.0) * d_tc
        # A row whose own cluster was rewritten needs its move barred again.
        own_tc = np.flatnonzero(touched[labels])
        cost[own_tc, labels[own_tc]] = np.inf
    return centroids, labels, moves


def _fit_restart(
    X: np.ndarray, xx: np.ndarray, k: int, seed: int, tol: float, max_iter: int
) -> tuple[np.ndarray, float, int, list[float]]:
    """One restart: Lloyd iterations alternated with Hartigan polish.

    Lloyd runs until the largest centroid movement drops below ``tol`` (or
    the shared ``max_iter`` budget runs out), then single-sample moves
    refine the converged state; the alternation repeats until the polish
    pass finds nothing to improve. The final centroids are cluster means of
    a nearest-centroid assignment, so the recorded inertia is exactly the
    sum of squared sample-to-nearest-centroid distances.
    """
    centroids = _pp_seed(X, k, np.random.default_rng(seed), xx)
    history: list[float] = []
    iterations = 0
    while True:
        converged = False
        while iterations < max_iter and not converged:
            iterations += 1
            labels = np.argmin(_sq_dists(X, centroids, xx), axis=1)
            diffs = X - centroids[labels]
            point_sq = np.einsum("ij,ij->i", diffs, diffs)
            history.append(float(point_sq.sum()))

            new_centroids = _update_centroids(X, labels, k, point_sq)
            movement = float(
                np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
            )
            centroids = new_centroids
            if movement < tol:
                converged = True
        labels = np.argmin(_sq_dists(X, centroids, xx), axis=1)
        centroids, labels, moves = _hartigan_polish(X, xx, labels, k, centroids)
        if moves == 0 or iterations >= max_iter:
            break
    labels = np.argmin(_sq_dists(X, centroids, xx), axis=1)
    diffs = X - centroids[labels]
    final = float(np.einsum("ij,ij->i", diffs, diffs).sum())
    history.append(final)
    return centroids, final, iterations, history


def kmeans_fit(
    samples: np.ndarray,
    k: int,
    seed: int,
    tol: float = 1e-6,
    max_iter: int = 300,
    restarts: int = 4,
) -> ClusterModel:
    """Fit K-means, keeping the best of ``restarts``.

    Each restart seeds with k-means++ from a sub-seed derived from ``seed``
    and runs Lloyd iterations (stopping when the largest centroid movement
    drops below ``tol`` or after ``max_iter`` rounds) alternated with a
    single-sample refinement pass. Ties on final inertia keep the earliest
    restart, so results are bit-reproducible for a fixed seed.
    """
    X = np.asarray(samples, dtype=np.float64)
    if k < 1 or tol <= 0 or max_iter < 1 or restarts < 1:
        raise ValueError("require k >= 1, tol > 0, max_iter >= 1, restarts >= 1")
    distinct = _distinct_rows(X)
    if k > distinct:
        raise ValueError(f"k={k} exceeds the {distinct} distinct sample rows")
    rng = np.random.default_rng(seed)
    sub_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=restarts)]
    xx = _row_sq(X)
    best: tuple[np.ndarray, float, int, list[float]] | None = None
    for sub in sub_seeds:
        run = _fit_restart(X, xx, k, sub, tol, max_iter)
        if best is None or run[1] < best[1]:
            best = run
    centroids, inertia, iterations, history = best
    return ClusterModel(
        centroids=centroids,
        inertia=inertia,
        iterations_run=iterations,
        seed=seed,
        inertia_history=tuple(history),
    )


def assign_endpoint(
    endpoint: str,
    endpoint_samples: np.ndarray,
    model: ClusterModel,
) -> GroupAssignment:
    """Assign an endpoint to the centroid minimizing its mean sample distance."""
    X = np.asarray(endpoint_samples, dtype=np.float64)
    if X.shape[0] < 1:
        raise ValueError(f"endpoint {endpoint} has no samples")
    dists = np.sqrt(_sq_dists(X, model.centroids, _row_sq(X)))
    return GroupAssignment(endpoint=endpoint, mean_distances=dists.mean(axis=0))


def derive_groups(assignments: Sequence[GroupAssignment]) -> SecurityGroups:
    """Bucket endpoints by winning centroid; non-empty buckets become groups."""
    seen: set[str] = set()
    buckets: dict[int, set[str]] = {}
    for a in assignments:
        if a.endpoint in seen:
            raise ValueError(f"duplicate endpoint {a.endpoint} in assignments")
        seen.add(a.endpoint)
        buckets.setdefault(a.group_id, set()).add(a.endpoint)
    groups = {gid: frozenset(members) for gid, members in sorted(buckets.items())}
    return SecurityGroups(groups=groups)


@dataclass(frozen=True)
class GroupingParams:
    """Hyper-parameters of the grouping stage.

    ``k`` may be an absolute count, a fraction of the endpoint count, or
    None for the default of one potential group per endpoint. The effective
    k is additionally capped by the number of distinct projected samples.
    """

    window_seconds: int = 3600
    top_k_ports: int = 64
    pca_target: Union[float, int] = 0.95
    k: Union[int, float, None] = None
    seed: int = 0
    tol: float = 1e-6
    max_iter: int = 300
    restarts: int = 4


@dataclass
class GroupingResult:
    matrix: SampleMatrix
    pca_model: PcaModel
    cluster_model: ClusterModel
    assignments: list[GroupAssignment]
    groups: SecurityGroups


def resolve_k(k: Union[int, float, None], n_endpoints: int) -> int:
    if k is None:
        return n_endpoints
    if isinstance(k, float):
        if not 0.0 < k <= 1.0:
            raise ValueError(f"fractional k {k} outside (0, 1]")
        return max(1, int(round(k * n_endpoints)))
    if k < 1:
        raise ValueError(f"k {k} < 1")
    return int(k)


def fit_groups(
    records: Sequence[ClassifiedFlow], params: GroupingParams
) -> GroupingResult:
    """Run encode -> standardize -> project -> cluster -> assign -> group."""
    matrix, schema = encode_windows(records, params.window_seconds, params.top_k_ports)
    std = standardize(matrix)
    pca_model = fit_pca(std, params.pca_target, schema_fingerprint=schema.fingerprint())
    projected = project(pca_model, std.values)

    endpoints = sorted(set(std.endpoints))
    rows_of: dict[str, list[int]] = {ep: [] for ep in endpoints}
    for i, ep in enumerate(std.endpoints):
        rows_of[ep].append(i)

    k = min(resolve_k(params.k, len(endpoints)), len(endpoints), _distinct_rows(projected))
    cluster_model = kmeans_fit(
        projected,
        k,
        params.seed,
        tol=params.tol,
        max_iter=params.max_iter,
        restarts=params.restarts,
    )
    assignments = [
        assign_endpoint(ep, projected[rows_of[ep]], cluster_model) for ep in endpoints
    ]
    return GroupingResult(
        matrix=std,
        pca_model=pca_model,
        cluster_model=cluster_model,
        assignments=assignments,
        groups=derive_groups(assignments),
    )


def select_best(reports: Sequence[EvalReport], homogeneity_floor: float) -> tuple[int, bool]:
    """Pick the V-measure-maximizing report among those meeting the
    homogeneity floor; fall back to the max-homogeneity report (flagged)
    when none does. Ties keep the earliest grid entry."""
    if not reports:
        raise ValueError("empty grid")
    eligible = [i for i, r in enumerate(reports) if r.homogeneity >= homogeneity_floor]
    if eligible:
        best = max(eligible, key=lambda i: (reports[i].v_measure, -i))
        return best, False
    best = max(range(len(reports)), key=lambda i: (reports[i].homogeneity, -i))
    return best, True


def save_cluster_model(
    model: ClusterModel, path: Union[str, Path], *, config: dict | None = None,
    fingerprint: str = ""
) -> None:
    payload = {
        "kind": "cluster_model",
        "centroids": model.centroids.tolist(),
        "k": model.k,
        "inertia": model.inertia,
        "iterations_run": model.iterations_run,
        "seed": model.seed,
        "config": config or {},
        "fingerprint": fingerprint,
    }
    write_atomic(Path(path), json.dumps(payload, sort_keys=True) + "\n")


def load_cluster_model(path: Union[str, Path]) -> ClusterModel:
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != "cluster_model":
        raise ValueError(f"{path} is not a cluster model file")
    return ClusterModel(
        centroids=np.array(payload["centroids"], dtype=np.float64),
        inertia=float(payload["inertia"]),
        iterations_run=int(payload["iterations_run"]),
        seed=int(payload["seed"]),
    )
