"""Per-endpoint, per-window behavior vectors from a filtered flow table.

Each member endpoint gets one sample vector per time window. Categorical
attributes (protocol, destination port, peer class) are one-hot count
blocks split by direction; three numerical features follow: the number of
distinct service tuples, the total flow count, and log(1 + total bytes).
The counts come from ``np.unique`` and ``np.bincount`` over the table's
integer columns. Columns are standardized before signature extraction.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .flows import FlowTable, distinct_rows

#: Columns with standard deviation below this are treated as constant.
CONST_EPS = 1e-12


@dataclass(frozen=True)
class FeatureSchema:
    """Vocabularies fixing the encoded vector layout.

    Every one-hot block carries one extra slot: an overflow bucket for
    protocols and ports, and the member bucket for peers (which also
    absorbs object names unseen at schema time).
    """

    protocol_vocab: tuple[str, ...]
    port_vocab: tuple[int, ...]
    peer_vocab: tuple[str, ...]

    @property
    def dimension(self) -> int:
        p = len(self.protocol_vocab) + 1
        q = len(self.port_vocab) + 1
        r = len(self.peer_vocab) + 1
        return 2 * p + 2 * q + r + 3

    def fingerprint(self) -> str:
        text = "|".join(
            (
                ",".join(self.protocol_vocab),
                ",".join(str(p) for p in self.port_vocab),
                ",".join(self.peer_vocab),
            )
        )
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class SampleMatrix:
    """Sample vectors stacked row-wise, one row per (endpoint, window), sorted
    by endpoint string, then window: each endpoint's rows are one slice."""

    endpoints: tuple[str, ...]
    windows: tuple[int, ...]
    values: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def dimension(self) -> int:
        return self.values.shape[1]


def encode_windows(
    flows: FlowTable, window_seconds: int, top_k_ports: int, workers: int = 1
) -> tuple[SampleMatrix, FeatureSchema]:
    """Count a filtered table's rows into one raw row per (member endpoint,
    window) key, in sorted key order, and return the rows with the schema
    found. ``workers`` is accepted and has no effect. Windows count from the
    earliest timestamp. A flow adds to its source's row as outbound and to
    its destination's as inbound, each only when that side is a member. The
    port vocabulary keeps the ``top_k_ports`` most frequent destination
    ports (ties to the lower port); protocols and object names keep
    everything observed. Row layout: outbound and inbound protocol counts,
    outbound and inbound port counts, peer-class counts, then the three
    numerical features. Every count is an integer count over the columns,
    so every sum is exact and independent of row order.
    """
    if not len(flows):
        raise ValueError("cannot build a schema from zero records")
    if top_k_ports < 1:
        raise ValueError("top_k_ports must be >= 1")
    if window_seconds < 1:
        raise ValueError("window_seconds must be >= 1")
    classes = flows.classes
    member = np.array([pc.is_member for pc in classes], dtype=bool)
    used = np.union1d(flows.src, flows.dst).tolist()
    objects = {c: classes[c].value for c in used if classes[c].is_object}
    protocols = np.unique(flows.protocol)
    ports, port_flows = np.unique(flows.dst_port, return_counts=True)
    top = np.sort(ports[np.lexsort((ports, -port_flows))[:top_k_ports]])
    schema = FeatureSchema(
        protocol_vocab=tuple(flows.protocols[c] for c in protocols.tolist()),
        port_vocab=tuple(top.tolist()),
        peer_vocab=tuple(sorted(set(objects.values()))),
    )
    p, q, r = (len(v) + 1 for v in (schema.protocol_vocab, top, schema.peer_vocab))
    # Slot of each protocol code, destination port and far-peer address code.
    proto_slot = np.full(len(flows.protocols), p - 1)
    proto_slot[protocols] = np.arange(p - 1)
    port_slot = np.full(65536, q - 1)
    port_slot[top] = np.arange(q - 1)
    peer_slot = np.full(len(flows.addrs), r - 1)
    for c, name in objects.items():
        peer_slot[c] = schema.peer_vocab.index(name)

    # One contribution per (flow, member side): outbound rows, then inbound.
    out, inb = member[flows.src], member[flows.dst]
    flow_of = np.concatenate([np.flatnonzero(out), np.flatnonzero(inb)])
    inbound = np.repeat([0, 1], [np.count_nonzero(out), np.count_nonzero(inb)])
    endpoint = np.concatenate([flows.src[out], flows.dst[inb]])
    far = peer_slot[np.concatenate([flows.dst[out], flows.src[inb]])]
    window = (flows.timestamp[flow_of] - flows.timestamp.min()) // window_seconds
    protocol = flows.protocol[flow_of]
    port = flows.dst_port[flow_of]
    first, row, _ = distinct_rows(endpoint, window)
    n = len(first)

    def count(size: int, slot: np.ndarray) -> np.ndarray:
        return np.bincount(row * size + slot, minlength=n * size).reshape(n, size)

    values = np.empty((n, schema.dimension))
    values[:, : 2 * p] = count(2 * p, proto_slot[protocol] + p * inbound)
    values[:, 2 * p : 2 * p + 2 * q] = count(2 * q, port_slot[port] + q * inbound)
    values[:, 2 * p + 2 * q : -3] = count(r, far)
    services, _, _ = distinct_rows(row, inbound, protocol, port, far)
    values[:, -3] = np.bincount(row[services], minlength=n)
    values[:, -2] = np.bincount(row, minlength=n)
    # Exact byte totals: the high and low 32 bits are summed apart, so an
    # int64 sum cannot wrap below 2**31 contributions per row.
    nbytes = flows.byte_count[flow_of]
    high, low = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    np.add.at(high, row, nbytes >> 32)
    np.add.at(low, row, nbytes & 0xFFFFFFFF)
    values[:, -1] = [
        math.log1p((h << 32) + lo) for h, lo in zip(high.tolist(), low.tolist())
    ]
    endpoints = tuple(flows.addrs[c] for c in endpoint[first].tolist())
    return SampleMatrix(endpoints, tuple(window[first].tolist()), values), schema


def standardize(matrix: SampleMatrix) -> SampleMatrix:
    """Column-wise (x - mean) / scale with population-std scales.

    Columns with standard deviation below ``CONST_EPS`` get scale 1 so
    constant features become zero instead of dividing by noise.
    """
    if matrix.n_rows < 2:
        raise ValueError("standardize requires at least 2 rows")
    scale = matrix.values.std(axis=0)
    values = matrix.values - matrix.values.mean(axis=0)
    values /= np.where(scale < CONST_EPS, 1.0, scale)
    return replace(matrix, values=values)

