"""Independent reference implementations used to cross-check results.

These deliberately avoid the package's own code paths: metrics are computed
by direct probability sums, the optimal 2-means partition by exhaustive
enumeration, and eigenpairs by power iteration with deflation. The flow
parse, filter, rule extraction, vocabulary discovery, windowing and row
encoding are the plain per-line, per-record and per-flow loops over
``FlowRecord``s and ``ClassifiedFlow``s that the package's column versions
must reproduce exactly.
``reference_kmeans_fit`` is the straightforward k-means fit (sample norms
recomputed per distance call, the full distance product for every Lloyd
assignment, the whole move-cost matrix rebuilt every polish round, one
distance call per polish-touched column, ``np.add.at`` sums) that the
package's fit must reproduce bit for bit. It stays unbounded: the package
skips distance rows by Hamerly bounds and updates each row's best polish
move incrementally, and this fit checks that neither changes a label.
When every k-means++ weight rounds to 0, both seedings take the lowest-index
row bitwise equal to no chosen centroid.
"""

import ipaddress
import math
from collections import Counter

import numpy as np

from microseg.core import DROP_UNKNOWN, UNKNOWN, DataError, FlowRecord, classify_peer
from microseg.features import FeatureSchema
from microseg.flows import MALFORMED_LIMIT, ClassifiedFlow, IngestReport
from microseg.rules import EntityRef, ServiceTuple


def oracle_scores(true_labels, pred_labels):
    """Homogeneity, completeness, V-measure by brute-force entropy sums."""
    n = len(true_labels)
    classes = sorted(set(true_labels))
    clusters = sorted(set(pred_labels))

    def plog(p):
        return p * math.log(p) if p > 0 else 0.0

    h_c = -sum(plog(true_labels.count(c) / n) for c in classes)
    h_k = -sum(plog(pred_labels.count(k) / n) for k in clusters)
    h_c_given_k = 0.0
    h_k_given_c = 0.0
    for k in clusters:
        nk = pred_labels.count(k)
        for c in classes:
            nck = sum(1 for t, p in zip(true_labels, pred_labels) if t == c and p == k)
            if nck:
                h_c_given_k -= (nck / n) * math.log(nck / nk)
    for c in classes:
        nc = true_labels.count(c)
        for k in clusters:
            nck = sum(1 for t, p in zip(true_labels, pred_labels) if t == c and p == k)
            if nck:
                h_k_given_c -= (nck / n) * math.log(nck / nc)
    h = 1.0 if h_c == 0 else 1.0 - h_c_given_k / h_c
    c = 1.0 if h_k == 0 else 1.0 - h_k_given_c / h_k
    v = 0.0 if h + c == 0 else 2 * h * c / (h + c)
    return h, c, v


def brute_force_two_means(points):
    """Optimal 2-partition inertia by exhaustive enumeration (n <= 8)."""
    n = len(points)
    best = float("inf")
    for bits in range(1, 2 ** (n - 1)):
        a = [p for i, p in enumerate(points) if bits & (1 << i)]
        b = [p for i, p in enumerate(points) if not bits & (1 << i)]
        if not a or not b:
            continue
        sse = sum((x - sum(a) / len(a)) ** 2 for x in a)
        sse += sum((x - sum(b) / len(b)) ** 2 for x in b)
        best = min(best, sse)
    return best


def power_iteration_spectrum(A, count, iters=20000):
    """Top eigenpairs of a symmetric PSD matrix by power iteration with
    deflation; adequate when the dominant eigenvalues are distinct."""
    A = A.copy().astype(float)
    values, vectors = [], []
    for _ in range(count):
        v = np.ones(A.shape[0]) / math.sqrt(A.shape[0])
        for _ in range(iters):
            w = A @ v
            norm = np.linalg.norm(w)
            if norm == 0:
                break
            v = w / norm
        lam = float(v @ A @ v)
        values.append(lam)
        vectors.append(v.copy())
        A -= lam * np.outer(v, v)
    return np.array(values), np.array(vectors)


def reference_parse_flow_log(text, strict=False):
    """Per-line flow-log parse that runs ``ipaddress`` on every address token."""

    def parse_line(line):
        fields = line.split(",")
        if len(fields) != 7:
            raise ValueError(f"expected 7 fields, got {len(fields)}")
        ts, src, dst, proto, port, packets, nbytes = (f.strip() for f in fields)
        proto = proto.upper()
        if not proto:
            raise ValueError("empty protocol token")
        src = str(ipaddress.IPv4Address(src))
        dst = str(ipaddress.IPv4Address(dst))
        return FlowRecord(int(ts), src, dst, proto, int(port), int(packets), int(nbytes))

    records, malformed, content, first_error, saw_first = [], 0, 0, "", False
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if not saw_first:
            saw_first = True
            head = line.split(",", 1)[0].strip()
            if head and not head.lstrip("-").isdigit():
                continue
        content += 1
        try:
            records.append(parse_line(line))
        except ValueError as exc:
            if strict:
                raise DataError(f"line {lineno}: {exc}") from exc
            malformed += 1
            first_error = first_error or f"line {lineno}: {exc}"
    if content and malformed / content > MALFORMED_LIMIT:
        raise DataError(
            f"corrupt input: {malformed} of {content} lines malformed "
            f"(first: {first_error})"
        )
    return records, malformed


def reference_filter_flows(records, scope, policy):
    """Per-record filter: classify both peers of every record and keep it
    under the policy; returns (kept classified flows, report)."""
    kept, endpoints = [], set()
    report = IngestReport(records_read=len(records))
    for rec in records:
        src = classify_peer(rec.src_addr, scope)
        dst = classify_peer(rec.dst_addr, scope)
        if policy == DROP_UNKNOWN:
            keep = src.is_member and dst.is_member
        else:
            keep = (src.is_member or dst.is_member) and UNKNOWN not in (src.kind, dst.kind)
        if keep:
            kept.append(ClassifiedFlow(rec, src, dst))
            report.records_mapped_to_objects += src.is_object or dst.is_object
            endpoints.update(peer.value for peer in (src, dst) if peer.is_member)
    report.records_kept = len(kept)
    report.distinct_endpoints = len(endpoints)
    return kept, report


def reference_extract_service_flows(records, groups, scope):
    """Per-record rule-tuple extraction: a new reference and service per flow."""
    endpoint_group = groups.endpoint_to_group()

    def ref(peer, addr):
        if peer.is_member:
            if addr not in endpoint_group:
                raise ValueError(
                    f"member endpoint {addr} is not in any security group; "
                    "grouping must precede rule synthesis"
                )
            return EntityRef.group(endpoint_group[addr])
        if peer.is_object:
            if peer.value not in {name for _, name in scope.object_table}:
                raise ValueError(f"network object {peer.value!r} not in scope")
            return EntityRef.network_object(peer.value)
        raise ValueError("records with unknown peers cannot produce rules")

    counts = {}
    for rec in records:
        key = (
            ref(rec.src_class, rec.flow.src_addr),
            ref(rec.dst_class, rec.flow.dst_addr),
            ServiceTuple(rec.flow.protocol, rec.flow.dst_port),
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


def reference_schema(records, top_k_ports):
    """Per-record vocabulary discovery: the ``top_k_ports`` most frequent
    ports (ties to the lower port), every protocol and object name."""
    protocols, ports, peers = set(), Counter(), set()
    for rec in records:
        protocols.add(rec.flow.protocol)
        ports[rec.flow.dst_port] += 1
        for pc in (rec.src_class, rec.dst_class):
            if pc.is_object:
                peers.add(pc.value)
    ranked = sorted(ports.items(), key=lambda kv: (-kv[1], kv[0]))
    return FeatureSchema(
        protocol_vocab=tuple(sorted(protocols)),
        port_vocab=tuple(sorted(port for port, _ in ranked[:top_k_ports])),
        peer_vocab=tuple(sorted(peers)),
    )


def reference_windowize(records, window_seconds):
    """Per-record bucketing: a record adds ("out", record) to its source's
    (endpoint, window) bucket and ("in", record) to its destination's, each
    only when that side is a member. Windows count from the first timestamp."""
    t0 = min(rec.flow.timestamp for rec in records)
    buckets = {}
    for rec in records:
        w = (rec.flow.timestamp - t0) // window_seconds
        if rec.src_class.is_member:
            buckets.setdefault((rec.flow.src_addr, w), []).append(("out", rec))
        if rec.dst_class.is_member:
            buckets.setdefault((rec.flow.dst_addr, w), []).append(("in", rec))
    return buckets


def reference_encode(contributions, schema):
    """Per-flow row encoding: every contribution adds 1.0 to three slots."""
    p = len(schema.protocol_vocab) + 1
    q = len(schema.port_vocab) + 1
    r = len(schema.peer_vocab) + 1
    proto_idx = {v: i for i, v in enumerate(schema.protocol_vocab)}
    port_idx = {v: i for i, v in enumerate(schema.port_vocab)}
    peer_idx = {v: i for i, v in enumerate(schema.peer_vocab)}
    values = np.zeros(schema.dimension)
    services = set()
    total_bytes = 0
    for direction, rec in contributions:
        flow = rec.flow
        out = direction == "out"
        peer = rec.dst_class if out else rec.src_class
        pslot = proto_idx.get(flow.protocol, p - 1)
        tslot = port_idx.get(flow.dst_port, q - 1)
        values[pslot if out else p + pslot] += 1.0
        values[(2 * p if out else 2 * p + q) + tslot] += 1.0
        peer_slot = peer_idx.get(peer.value, r - 1) if peer.is_object else r - 1
        values[2 * p + 2 * q + peer_slot] += 1.0
        peer_key = ("object", peer.value) if peer.is_object else ("member",)
        services.add((direction, flow.protocol, flow.dst_port, peer_key))
        total_bytes += flow.byte_count
    tail = 2 * p + 2 * q + r
    values[tail] = float(len(services))
    values[tail + 1] = float(len(contributions))
    values[tail + 2] = math.log1p(total_bytes)
    return values


def reference_encode_windows(records, window_seconds, top_k_ports):
    """(sorted bucket keys, stacked rows, schema) from the three loops above."""
    schema = reference_schema(records, top_k_ports)
    buckets = reference_windowize(records, window_seconds)
    keys = sorted(buckets)
    return keys, np.stack([reference_encode(buckets[key], schema) for key in keys]), schema


def reconstruct(model, projected):
    """Map PCA signatures back to the input space."""
    return np.asarray(projected) @ model.components + model.mean


def _ref_sq_dists(X, C):
    xx = np.einsum("ij,ij->i", X, X)[:, None]
    cc = np.einsum("ij,ij->i", C, C)[None, :]
    return np.clip(xx + cc - 2.0 * (X @ C.T), 0.0, None)


def _ref_pp_seed(X, k, rng):
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[int(rng.integers(n))]
    d2 = _ref_sq_dists(X, centroids[0:1])[:, 0]
    for i in range(1, k):
        if d2.sum() > 0:
            idx = int(rng.choice(n, p=d2 / d2.sum()))
        else:
            chosen = [row.tobytes() for row in centroids[:i]]
            idx = next(j for j in range(n) if X[j].tobytes() not in chosen)
        centroids[i] = X[idx]
        d2 = np.minimum(d2, _ref_sq_dists(X, centroids[i : i + 1])[:, 0])
    return centroids


def _ref_update_centroids(X, labels, k, point_sq):
    new_centroids = np.zeros((k, X.shape[1]))
    np.add.at(new_centroids, labels, X)
    counts = np.bincount(labels, minlength=k)
    nonzero = counts > 0
    new_centroids[nonzero] /= counts[nonzero, None]
    far = point_sq.copy()
    for j in np.flatnonzero(~nonzero):
        idx = int(np.argmax(far))
        new_centroids[j] = X[idx]
        far[idx] = -1.0
    return new_centroids


def _ref_hartigan_polish(X, labels, k, prev_centroids, max_rounds=1000):
    n = X.shape[0]
    labels = labels.copy()
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    centroids = np.zeros((k, X.shape[1]))
    np.add.at(centroids, labels, X)
    nonzero = counts > 0
    centroids[nonzero] /= counts[nonzero, None]
    centroids[~nonzero] = prev_centroids[~nonzero]
    D = _ref_sq_dists(X, centroids)
    rows = np.arange(n)
    moves = 0
    for _ in range(max_rounds):
        own = D[rows, labels]
        gain = np.where(
            counts[labels] > 1,
            counts[labels] / np.maximum(counts[labels] - 1.0, 1.0) * own,
            -np.inf,
        )
        cost = counts[None, :] / (counts[None, :] + 1.0) * D
        cost[rows, labels] = np.inf
        best_b = np.argmin(cost, axis=1)
        delta = cost[rows, best_b] - gain
        threshold = -1e-12 * max(1.0, float(own.sum()))
        cand = np.flatnonzero(delta < threshold)
        if cand.size == 0:
            break
        order = cand[np.argsort(delta[cand], kind="stable")]
        touched = np.zeros(k, dtype=bool)
        for i in order:
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
        for c in np.flatnonzero(touched):
            D[:, c] = _ref_sq_dists(X, centroids[c : c + 1])[:, 0]
    return centroids, labels, moves


def _ref_fit_restart(X, k, seed, tol, max_iter):
    centroids = _ref_pp_seed(X, k, np.random.default_rng(seed))
    history = []
    iterations = 0
    while True:
        converged = False
        while iterations < max_iter and not converged:
            iterations += 1
            labels = np.argmin(_ref_sq_dists(X, centroids), axis=1)
            diffs = X - centroids[labels]
            point_sq = np.einsum("ij,ij->i", diffs, diffs)
            history.append(float(point_sq.sum()))
            new_centroids = _ref_update_centroids(X, labels, k, point_sq)
            movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
            centroids = new_centroids
            converged = movement < tol
        labels = np.argmin(_ref_sq_dists(X, centroids), axis=1)
        centroids, labels, moves = _ref_hartigan_polish(X, labels, k, centroids)
        if moves == 0 or iterations >= max_iter:
            break
    labels = np.argmin(_ref_sq_dists(X, centroids), axis=1)
    diffs = X - centroids[labels]
    final = float(np.einsum("ij,ij->i", diffs, diffs).sum())
    history.append(final)
    return centroids, final, iterations, history


def reference_kmeans_fit(X, k, seed, tol=1e-6, max_iter=300, restarts=4):
    """Best-of-restarts k-means; returns (centroids, inertia, iterations,
    inertia_history) of the winning restart. Ties keep the earliest."""
    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(seed)
    best = None
    for sub in rng.integers(0, 2**63 - 1, size=restarts):
        run = _ref_fit_restart(X, k, int(sub), tol, max_iter)
        if best is None or run[1] < best[1]:
            best = run
    return best
