"""Security-group discovery over projected endpoint samples.

K-means (k-means++ seeding, Lloyd iterations with a single-sample
refinement, best-of-restarts) runs over individual per-window samples;
each endpoint then joins the centroid with the smallest average distance
over all of its samples, which smooths over endpoints whose sample counts
differ. Non-empty centroids become security groups. Ties break to the
lowest index everywhere.

Lloyd keeps one upper and one lower distance bound per sample and computes
distance rows only for the samples the bounds leave open; the refinement
keeps the distance matrix and each sample's cheapest move, and updates
them from the columns a round touched. Both give the labels of the full
distance product bit for bit: a bound decides only with a margin wider
than the rounding of any evaluation, and a near tie takes the full product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .features import encode_windows, standardize
from .flows import FlowTable, write_atomic
from .metrics import EvalReport
from .pca import fit_pca, project


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


#: Elements per block of the elementwise passes over a distance matrix.
_BLOCK = 1 << 15


def _block_rows(k: int) -> int:
    return max(1, _BLOCK // max(k, 1))


def _sq_dists(X: np.ndarray, C: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (n_samples, n_centroids), clipped at 0.
    Computed in the product's buffer, one row block at a time, as
    (xx + cc) - 2·X·Cᵀ, so a call holds a single n_samples×n_centroids
    matrix."""
    cc = np.einsum("ij,ij->i", C, C)[None, :]
    G = X @ C.T
    step = _block_rows(G.shape[1])
    for start in range(0, G.shape[0], step):
        g = G[start : start + step]
        g *= 2.0
        np.subtract(xx[start : start + step] + cc, g, out=g)
        np.maximum(g, 0.0, out=g)
    return G


_EPS = float(np.finfo(np.float64).eps)


def _dist_err(xx: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Per-row bound on how far any evaluation of a squared distance from a
    sample to a centroid of ``C`` lies from the exact value.

    Whatever the summation order (BLAS blocking, FMA, row subsets), the
    expanded form (xx + cc) - 2·x·c and the direct form ‖x - c‖² are each
    within (d + 3)·eps·(‖x‖² + ‖c‖²) of exact. This is at least four times
    that, with the largest ‖c‖², so the bound tests also absorb their own
    rounding.
    """
    cc_max = float(np.einsum("ij,ij->i", C, C).max())
    return 4.0 * (C.shape[1] + 4) * _EPS * (xx[:, 0] + cc_max)


def _upper(sq: np.ndarray, err: np.ndarray) -> np.ndarray:
    """An upper bound on the exact distance, from a computed squared one."""
    return np.sqrt(sq + err) * (1.0 + 2.0 * _EPS)


def _lower(sq: np.ndarray, err: np.ndarray) -> np.ndarray:
    """A lower bound on the exact distance, from a computed squared one."""
    return np.sqrt(np.maximum(sq - err, 0.0)) * (1.0 - 2.0 * _EPS)


_Bounds = tuple[np.ndarray, np.ndarray, np.ndarray]


def _bounds(D: np.ndarray, err: np.ndarray) -> _Bounds:
    """Each row's nearest centroid in ``D`` (lowest index on ties), an upper
    bound on its distance to it and a lower bound on its distance to every
    other centroid (inf when k = 1). Overwrites ``D``."""
    rows = np.arange(D.shape[0])
    labels = np.argmin(D, axis=1)
    best = D[rows, labels]
    D[rows, labels] = np.inf
    return labels, _upper(best, err), _lower(D.min(axis=1), err)


def _full_assign(X: np.ndarray, xx: np.ndarray, C: np.ndarray) -> _Bounds:
    """Labels equal to ``np.argmin(_sq_dists(X, C, xx), axis=1)`` by
    computing it, with fresh bounds for every row."""
    return _bounds(_sq_dists(X, C, xx), _dist_err(xx, C))


def _assign(X: np.ndarray, xx: np.ndarray, C: np.ndarray, state: _Bounds) -> _Bounds:
    """Labels equal to ``np.argmin(_sq_dists(X, C, xx), axis=1)``, computing
    distance rows only where the bounds do not settle them (Hamerly, "Making
    k-means even faster", SDM 2010).

    ``state`` holds candidate labels and, per row, an upper bound on the
    exact distance to its candidate and a lower bound on the exact distance
    to every other centroid of ``C``; it is updated in place. A row keeps
    its label when the bounds leave more than the rounding margin between
    the two, first as given, then with the own distance recomputed. The
    other rows get distance rows from a product over just those rows, whose
    last bits may differ from the full product's; if any of them has its
    two nearest centroids within the margin, the full product decides.
    """
    labels, upper, lower = state
    err = _dist_err(xx, C)
    rows = np.flatnonzero(upper * upper + err >= lower * lower)
    if rows.size:
        diff = X[rows] - C[labels[rows]]
        upper[rows] = _upper(np.einsum("ij,ij->i", diff, diff), err[rows])
        rows = rows[upper[rows] * upper[rows] + err[rows] >= lower[rows] * lower[rows]]
    if rows.size:
        sub_labels, sub_upper, sub_lower = _bounds(
            _sq_dists(X[rows], C, xx[rows]), err[rows]
        )
        if np.any(sub_lower * sub_lower - sub_upper * sub_upper <= err[rows]):
            return _full_assign(X, xx, C)
        labels[rows], upper[rows], lower[rows] = sub_labels, sub_upper, sub_lower
    return labels, upper, lower


def _widen(state: _Bounds, shifts: np.ndarray, d: int) -> None:
    """Keep the bounds valid after each centroid moved by ``shifts``."""
    labels, upper, lower = state
    # Each shift is itself computed; widen it past its rounding.
    shifts = shifts * (1.0 + (d + 4) * _EPS)
    far = int(np.argmax(shifts))
    runner_up = float(np.delete(shifts, far).max(initial=0.0))
    upper += shifts[labels]
    upper *= 1.0 + 2.0 * _EPS
    lower -= np.where(labels == far, runner_up, shifts[far])
    np.maximum(lower, 0.0, out=lower)
    lower *= 1.0 - 2.0 * _EPS


#: Upper bound on single-sample refinement rounds per polish pass.
POLISH_ROUNDS = 1000


def _distinct_rows(X: np.ndarray) -> int:
    return np.unique(X, axis=0).shape[0]


def _pp_seed(
    X: np.ndarray, k: int, rng: np.random.Generator, xx: np.ndarray
) -> np.ndarray:
    """k-means++ draws. When every weight rounds to 0 (rows a few ulps
    apart), the next centroid is the lowest-index row bitwise equal to no
    chosen centroid, and no draw is made."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[int(rng.integers(n))]
    d2 = _sq_dists(X, centroids[0:1], xx)[:, 0]
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            seen = {row.tobytes() for row in centroids[:i]}
            idx = next(j for j, row in enumerate(X) if row.tobytes() not in seen)
        centroids[i] = X[idx]
        d2 = np.minimum(d2, _sq_dists(X, centroids[i : i + 1], xx)[:, 0])
    return centroids


def kmeans_pp_init(samples: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding: squared-distance-weighted draws, deterministic per seed."""
    X = np.asarray(samples, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    distinct = _distinct_rows(X)
    if k > distinct:
        raise ValueError(f"k={k} exceeds the {distinct} distinct sample rows")
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


def _best_moves(
    D: np.ndarray, weights: np.ndarray, labels: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``rows``: the cluster with the cheapest move cost
    ``weights[j] * D[i, j]`` other than its own (lowest index on ties), and
    that cost. Works one row block at a time."""
    best = np.empty(rows.size, dtype=np.intp)
    cost = np.empty(rows.size)
    step = _block_rows(D.shape[1])
    for start in range(0, rows.size, step):
        block = rows[start : start + step]
        c = D[block]
        c *= weights
        r = np.arange(block.size)
        c[r, labels[block]] = np.inf
        best[start : start + step] = j = np.argmin(c, axis=1)
        cost[start : start + step] = c[r, j]
    return best, cost


def _hartigan_polish(
    X: np.ndarray, xx: np.ndarray, labels: np.ndarray, k: int, prev_centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
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
    nothing wherever it sits).

    The distance matrix persists across rounds; a round recomputes only the
    columns it touched. Each row keeps its cheapest move target and that
    move's cost. After a round a row compares its target with the touched
    columns only, and rescans its whole row only when its target column was
    touched and no touched column is strictly cheaper. Returns the
    centroids, labels, move count and the final distance matrix.
    """
    n = X.shape[0]
    labels = labels.copy()
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    centroids = _cluster_sums(X, labels, k)
    nonzero = counts > 0
    centroids[nonzero] /= counts[nonzero, None]
    centroids[~nonzero] = prev_centroids[~nonzero]
    D = _sq_dists(X, centroids, xx)
    rows = np.arange(n)
    best_b, best_cost = _best_moves(D, counts / (counts + 1.0), labels, rows)
    moves = 0
    for _ in range(POLISH_ROUNDS):
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
        delta = best_cost - gain
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
        D[:, tc] = cost_tc = _sq_dists(X, centroids[tc], xx)
        cost_tc *= counts[tc] / (counts[tc] + 1.0)
        own_tc = np.flatnonzero(touched[labels])
        cost_tc[own_tc, np.searchsorted(tc, labels[own_tc])] = np.inf
        j = np.argmin(cost_tc, axis=1)
        tc_best, tc_cost = tc[j], cost_tc[rows, j]
        # An untouched target is still the cheapest untouched column, so the
        # touched columns decide between it and themselves; a touched target
        # that no touched column beats needs the whole row.
        del cost_tc
        kept = ~touched[best_b]
        cheaper = tc_cost < best_cost
        rescan = np.flatnonzero(~kept & ~cheaper)
        better = cheaper | (kept & (tc_cost == best_cost) & (tc_best < best_b))
        best_b[better], best_cost[better] = tc_best[better], tc_cost[better]
        best_b[rescan], best_cost[rescan] = _best_moves(
            D, counts / (counts + 1.0), labels, rescan
        )
    return centroids, labels, moves, D


def _fit_restart(
    X: np.ndarray, xx: np.ndarray, k: int, seed: int, tol: float, max_iter: int
) -> tuple[np.ndarray, float, int, list[float]]:
    """One restart: Lloyd iterations alternated with Hartigan polish.

    Lloyd runs until the largest centroid movement drops below ``tol`` (or
    the shared ``max_iter`` budget runs out), then single-sample moves
    refine the converged state; the alternation repeats until the polish
    pass finds nothing to improve. The final centroids are cluster means of
    a nearest-centroid assignment, so the recorded inertia is exactly the
    sum of squared sample-to-nearest-centroid distances. Every assignment
    equals the argmin of the full distance product; the bounds only decide
    which distance rows need computing.
    """
    d = X.shape[1]
    centroids = _pp_seed(X, k, np.random.default_rng(seed), xx)
    state = _full_assign(X, xx, centroids)
    history: list[float] = []
    iterations = 0
    while True:
        converged = False
        while iterations < max_iter and not converged:
            iterations += 1
            labels = state[0]
            diffs = X - centroids[labels]
            point_sq = np.einsum("ij,ij->i", diffs, diffs)
            history.append(float(point_sq.sum()))

            new_centroids = _update_centroids(X, labels, k, point_sq)
            shifts = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1))
            _widen(state, shifts, d)
            centroids = new_centroids
            state = _assign(X, xx, centroids, state)
            converged = float(shifts.max()) < tol
        centroids, _, moves, D = _hartigan_polish(X, xx, state[0], k, centroids)
        state = _bounds(D, _dist_err(xx, centroids))
        del D
        state = _assign(X, xx, centroids, state)
        if moves == 0 or iterations >= max_iter:
            break
    diffs = X - centroids[state[0]]
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


@dataclass
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


def fit_groups(flows: FlowTable, params: GroupingParams) -> GroupingResult:
    """Run encode -> standardize -> project -> cluster -> assign -> group."""
    # Only the projection and each row's endpoint live on into k-means.
    std = standardize(encode_windows(flows, params.window_seconds, params.top_k_ports)[0])
    row_endpoints = std.endpoints
    projected = project(fit_pca(std, params.pca_target), std.values)
    del std
    endpoints, starts, counts = np.unique(row_endpoints, return_index=True, return_counts=True)
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
        assign_endpoint(ep, projected[start : start + n], cluster_model)
        for ep, start, n in zip(endpoints.tolist(), starts.tolist(), counts.tolist())
    ]
    return GroupingResult(assignments=assignments, groups=derive_groups(assignments))


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

