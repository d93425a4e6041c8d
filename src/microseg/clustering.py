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
Lloyd works in row blocks: each sample's distance to its own centroid and
the distance rows the bounds leave open are computed a block of rows at a
time, so an iteration holds no samples×features or samples×centroids
temporary. Only the full product (after seeding and on a near tie) and the
refinement's distance matrix are samples×centroids.

The restarts run in parallel processes, one per CPU in the affinity mask
and at most one per restart, forked after the samples are built, so the
results are identical whatever the CPU count. Peak RSS is per process and
stays the serial peak; machine-wide memory grows by about one restart's
working set per extra process.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn, Sequence, Union

import numpy as np

from .core import GroupingParams, SecurityGroups, write_atomic
from .features import encode_windows, standardize
from .flows import FlowTable
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


def _row_sq(X: np.ndarray) -> np.ndarray:
    """Squared row norms as a column, (n_samples, 1)."""
    return np.einsum("ij,ij->i", X, X)[:, None]


#: Elements per block of the elementwise passes over a distance matrix.
_BLOCK = 1 << 15


def _block_rows(k: int) -> int:
    return max(1, _BLOCK // max(k, 1))


def _point_sq(X: np.ndarray, C: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each row's squared distance to its centroid ``C[labels]``, one row
    block at a time, so no samples×features temporary is held."""
    out = np.empty(X.shape[0])
    step = _block_rows(X.shape[1])
    for start in range(0, X.shape[0], step):
        diff = X[start : start + step] - C[labels[start : start + step]]
        out[start : start + step] = np.einsum("ij,ij->i", diff, diff)
    return out


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
    other rows get distance rows from a product over a row block of just
    those rows, whose last bits may differ from the full product's; if any
    of them has its two nearest centroids within the margin, the full
    product decides. So the blocks need no fixed offsets, and short of that
    fallback a call holds no samples×features or samples×centroids
    temporary.
    """
    labels, upper, lower = state
    err = _dist_err(xx, C)
    open_rows = np.flatnonzero(upper * upper + err >= lower * lower)
    step = _block_rows(max(C.shape))
    for start in range(0, open_rows.size, step):
        rows = open_rows[start : start + step]
        upper[rows] = _upper(_point_sq(X[rows], C, labels[rows]), err[rows])
        rows = rows[upper[rows] * upper[rows] + err[rows] >= lower[rows] * lower[rows]]
        if not rows.size:
            continue
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


_Run = tuple[np.ndarray, float, int, list[float]]


def _fit_restart(
    X: np.ndarray, xx: np.ndarray, k: int, seed: int, tol: float, max_iter: int
) -> _Run:
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
            point_sq = _point_sq(X, centroids, labels)
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
    final = float(_point_sq(X, centroids, state[0]).sum())
    history.append(final)
    return centroids, final, iterations, history


def _cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _child(write_fd: int, fit: Callable[[], object]) -> NoReturn:
    """In a forked child: send ``fit()``'s result, or what it raised,
    pickled through ``write_fd``, then exit without the parent's cleanup."""
    try:
        try:
            out = fit()
        except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
            out = exc
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(out, pipe, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def kmeans_fit(
    samples: np.ndarray,
    k: int,
    seed: int,
    tol: float = 1e-6,
    max_iter: int = 300,
    restarts: int = 4,
    *,
    _distinct: int | None = None,
) -> ClusterModel:
    """Fit K-means, keeping the best of ``restarts``.

    Each restart seeds with k-means++ from a sub-seed derived from ``seed``
    and runs Lloyd iterations (stopping when the largest centroid movement
    drops below ``tol`` or after ``max_iter`` rounds) alternated with a
    single-sample refinement pass. Ties on final inertia keep the earliest
    restart, so results are bit-reproducible for a fixed seed.

    With W = min(restarts, CPUs) workers, this process runs restarts
    0, W, 2W, ... and forks a child w for restarts w, w + W, ...; each
    child pipes back only its best run. What a child raises is raised here;
    every child is killed and reaped before this returns or raises. Each
    worker keeps the caller's BLAS threads: a multi-threaded BLAS
    oversubscribes the cores. The CLI pins one thread.

    ``_distinct``, :func:`fit_groups`' count of the distinct rows of
    ``samples``, spares counting them again.
    """
    X = np.asarray(samples, dtype=np.float64)
    if k < 1 or tol <= 0 or max_iter < 1 or restarts < 1:
        raise ValueError("require k >= 1, tol > 0, max_iter >= 1, restarts >= 1")
    distinct = _distinct_rows(X) if _distinct is None else _distinct
    if k > distinct:
        raise ValueError(f"k={k} exceeds the {distinct} distinct sample rows")
    rng = np.random.default_rng(seed)
    sub_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=restarts)]
    xx = _row_sq(X)
    workers = min(restarts, _cpus())

    def fit(w: int) -> tuple[float, int, _Run]:
        """The lowest-inertia run of restarts w, w + W, ... (the earliest on
        ties), as (inertia, restart, run)."""
        best = None
        for i in range(w, restarts, workers):
            run = _fit_restart(X, xx, k, sub_seeds[i], tol, max_iter)
            if best is None or run[1] < best[0]:
                best = (run[1], i, run)
        return best

    children = []
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _child(write_fd, lambda: fit(w))
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        bests = [fit(0)]
        for pid, pipe in children:
            try:
                out = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise RuntimeError(f"k-means worker {pid} sent no result") from exc
            if isinstance(out, BaseException):
                raise out
            bests.append(out)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    _, _, (centroids, inertia, iterations, history) = min(bests, key=lambda b: b[:2])
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
    buckets: dict[int, set[str]] = {}
    for a in assignments:
        buckets.setdefault(a.group_id, set()).add(a.endpoint)
    groups = {gid: frozenset(members) for gid, members in sorted(buckets.items())}
    return SecurityGroups(groups=groups)


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


def project_samples(
    flows: FlowTable, params: GroupingParams
) -> tuple[tuple[str, ...], np.ndarray]:
    """Run encode -> standardize -> project: each sample row's endpoint, and
    the projected samples. Neither refers to the table."""
    # standardize overwrites the encoded matrix in place, and that one
    # samples×features buffer is freed on return, so only the projection
    # outlives this call.
    std = standardize(encode_windows(flows, params.window_seconds, params.top_k_ports)[0])
    return std.endpoints, project(fit_pca(std, params.pca_target), std.values)


def group_samples(
    row_endpoints: tuple[str, ...], projected: np.ndarray, params: GroupingParams
) -> GroupingResult:
    """Run cluster -> assign -> group on :func:`project_samples`' output.
    k-means starts with only the projection, each row's endpoint and the
    endpoint slices (endpoints, starts, counts) alive."""
    endpoints, starts, counts = np.unique(row_endpoints, return_index=True, return_counts=True)
    distinct = _distinct_rows(projected)
    k = min(resolve_k(params.k, len(endpoints)), len(endpoints), distinct)
    cluster_model = kmeans_fit(
        projected,
        k,
        params.seed,
        tol=params.tol,
        max_iter=params.max_iter,
        restarts=params.restarts,
        _distinct=distinct,
    )
    assignments = [
        assign_endpoint(ep, projected[start : start + n], cluster_model)
        for ep, start, n in zip(endpoints.tolist(), starts.tolist(), counts.tolist())
    ]
    return GroupingResult(assignments=assignments, groups=derive_groups(assignments))


def fit_groups(flows: FlowTable, params: GroupingParams) -> GroupingResult:
    """Run encode -> standardize -> project -> cluster -> assign -> group."""
    return group_samples(*project_samples(flows, params), params)


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

