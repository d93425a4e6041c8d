"""Per-endpoint, per-window behavior vectors from a filtered flow table.

Each member endpoint gets one sample vector per time window. Categorical
attributes (protocol, destination port, peer class) are one-hot count
blocks split by direction; three numerical features follow: the number of
distinct service tuples, the total flow count, and log(1 + total bytes).
The table is counted in fixed blocks of rows, so the temporaries grow with
the block, not the log. Columns are standardized before signature extraction.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .flows import FlowTable, distinct_rows

#: Columns with standard deviation below this are treated as constant.
CONST_EPS = 1e-12

#: Table rows per block of :func:`encode_windows`; its temporaries grow with
#: this, not with the table.
BLOCK_ROWS = 1 << 15


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
    found. ``workers`` has no effect; only ``bench/trace.py`` passes it.
    Windows count from the earliest timestamp. A flow adds to its source's
    row as outbound and to its destination's as inbound, each only when that
    side is a member. The port vocabulary keeps the ``top_k_ports`` most
    frequent destination ports (ties to the lower port); protocols and object
    names keep everything observed. Row layout: outbound and inbound protocol
    counts, outbound and inbound port counts, peer-class counts, then the
    three numerical features.

    Two passes read the table in blocks of :data:`BLOCK_ROWS` rows: one
    tallies the vocabularies and merges the sorted row keys, one adds 1.0 per
    contribution to the float rows and merges the service tuples. Each count
    is an integer below 2**53, so every float sum is exact in any order.
    """
    if not len(flows):
        raise ValueError("cannot build a schema from zero records")
    if top_k_ports < 1:
        raise ValueError("top_k_ports must be >= 1")
    if window_seconds < 1:
        raise ValueError("window_seconds must be >= 1")
    classes = flows.classes
    member = np.array([pc.is_member for pc in classes], dtype=bool)
    used, seen = np.zeros(len(flows.addrs), dtype=bool), np.zeros(len(flows.protocols), dtype=bool)
    port_flows = np.zeros(65536, dtype=np.int64)
    keys = services = ()
    for block, _, _, endpoint, _, window in _blocks(flows, member, window_seconds):
        used[block.src] = used[block.dst] = True
        seen[block.protocol] = True
        np.add.at(port_flows, block.dst_port, 1)
        keys = _merge(keys, (endpoint, window))
    objects = {c: classes[c].value for c in np.flatnonzero(used).tolist() if classes[c].is_object}
    protocols, ports = np.flatnonzero(seen), np.flatnonzero(port_flows)
    top = np.sort(ports[np.lexsort((ports, -port_flows[ports]))[:top_k_ports]])
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

    # Row keys pack (endpoint rank, window rank) below (n + 1) * n: no int64 wraps.
    n, dim = len(keys[0]), schema.dimension
    windows = np.unique(keys[1])
    rank = np.cumsum(np.bincount(keys[0], minlength=len(flows.addrs)) > 0) * len(windows)
    row_keys = rank[keys[0]] + np.searchsorted(windows, keys[1])
    values = np.zeros((n, dim))
    # Exact byte totals: the high and low 32 bits are summed apart, so an
    # int64 sum cannot wrap below 2**31 contributions per row.
    high, low = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for block, flow_of, inbound, endpoint, far, window in _blocks(flows, member, window_seconds):
        row = np.searchsorted(row_keys, rank[endpoint] + np.searchsorted(windows, window))
        protocol, port = proto_slot[block.protocol[flow_of]], block.dst_port[flow_of]
        far = peer_slot[far]
        at = row * dim
        np.add.at(values.reshape(-1), at + protocol + p * inbound, 1.0)
        np.add.at(values.reshape(-1), at + 2 * p + port_slot[port] + q * inbound, 1.0)
        np.add.at(values.reshape(-1), at + 2 * p + 2 * q + far, 1.0)
        nbytes = block.byte_count[flow_of]
        np.add.at(high, row, nbytes >> 32)
        np.add.at(low, row, nbytes & 0xFFFFFFFF)
        # Service (row, protocol, port, far, inbound): protocol slots are distinct, ports < 65536.
        services = _merge(services, (row, protocol * 65536 + port, far * 2 + inbound))
    values[:, -3] = np.bincount(services[0], minlength=n)
    values[:, -2] = values[:, 2 * p + 2 * q : -3].sum(axis=1)
    values[:, -1] = [math.log1p((h << 32) + lo) for h, lo in zip(high.tolist(), low.tolist())]
    endpoints = tuple(flows.addrs[c] for c in keys[0].tolist())
    return SampleMatrix(endpoints, tuple(keys[1].tolist()), values), schema


def _blocks(flows: FlowTable, member: np.ndarray, window_seconds: int):
    """Each :data:`BLOCK_ROWS`-row block of a table and, per (flow, member side),
    outbound first: the flow's index in it, 1 if inbound, endpoint, far side, window."""
    t0 = flows.timestamp.min()
    for start in range(0, len(flows), BLOCK_ROWS):
        block = flows.take(slice(start, start + BLOCK_ROWS))
        out, inb = member[block.src], member[block.dst]
        flow_of = np.concatenate([np.flatnonzero(out), np.flatnonzero(inb)])
        inbound = np.repeat([0, 1], [np.count_nonzero(out), np.count_nonzero(inb)])
        endpoint = np.concatenate([block.src[out], block.dst[inb]])
        far = np.concatenate([block.dst[out], block.src[inb]])
        window = (block.timestamp[flow_of] - t0) // window_seconds
        yield block, flow_of, inbound, endpoint, far, window


def _merge(kept: tuple, new: tuple) -> tuple:
    """The distinct rows of two column tuples stacked, in lexicographic order."""
    columns = tuple(map(np.concatenate, zip(kept, new))) if kept else new
    first = distinct_rows(*columns)[0]
    return tuple(c[first] for c in columns)


def standardize(matrix: SampleMatrix) -> SampleMatrix:
    """Column-wise (x - mean) / scale with population-std scales, written
    over ``matrix.values``: the input is overwritten, and ``matrix`` itself is
    returned, so a fit holds one sample matrix, not two.

    Columns with standard deviation below ``CONST_EPS`` get scale 1 so
    constant features become zero instead of dividing by noise.
    """
    if matrix.n_rows < 2:
        raise ValueError("standardize requires at least 2 rows")
    values = matrix.values
    scale = values.std(axis=0)
    values -= values.mean(axis=0)
    values /= np.where(scale < CONST_EPS, 1.0, scale)
    return matrix

