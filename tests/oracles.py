"""Independent reference implementations used to cross-check results.

These deliberately avoid the package's own code paths: metrics are computed
by direct probability sums, the optimal 2-means partition by exhaustive
enumeration, and eigenpairs by power iteration with deflation. The flow
parse, rule extraction and row encoding are the plain per-line, per-record
and per-flow loops the memoized package versions must reproduce exactly.
"""

import ipaddress
import math

import numpy as np

from microseg.flows import MALFORMED_LIMIT, DataError, FlowRecord
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def reference_extract_service_flows(records, groups, scope):
    """Per-record rule-tuple extraction: a new reference and service per flow."""
    endpoint_group = groups.endpoint_to_group()

    def ref(peer, addr):
        if peer.is_member:
            if addr not in endpoint_group:
                raise DataError(
                    f"member endpoint {addr} is not in any security group; "
                    "grouping must precede rule synthesis"
                )
            return EntityRef.group(endpoint_group[addr])
        if peer.is_object:
            if peer.value not in scope.object_names:
                raise DataError(f"network object {peer.value!r} not in scope")
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
