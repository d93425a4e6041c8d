"""Per-endpoint, per-window behavior vectors from classified flow records.

Each member endpoint gets one sample vector per time window. Categorical
attributes (protocol, destination port, peer class) are one-hot count
blocks split by direction; three numerical features follow: the number of
distinct service tuples, the total flow count, and log(1 + total bytes).
Columns are standardized before signature extraction.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .flows import OBJECT, ClassifiedFlow

OUTBOUND = "out"
INBOUND = "in"

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
    """Sample vectors stacked row-wise, with optional standardization state."""

    endpoints: tuple[str, ...]
    windows: tuple[int, ...]
    values: np.ndarray
    mean: np.ndarray | None = None
    scale: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def dimension(self) -> int:
        return self.values.shape[1]


def build_schema(records: Sequence[ClassifiedFlow], top_k_ports: int) -> FeatureSchema:
    """Discover vocabularies from classified records.

    The port vocabulary keeps the ``top_k_ports`` most frequent destination
    ports (ties broken by ascending port number); protocols and object
    names keep everything observed. All vocabularies are sorted, so the
    schema is identical for any ordering of the same records.
    """
    if not records:
        raise ValueError("cannot build a schema from zero records")
    if top_k_ports < 1:
        raise ValueError("top_k_ports must be >= 1")
    protocols: set[str] = set()
    ports: Counter[int] = Counter()
    peers: set[str] = set()
    for rec in records:
        protocols.add(rec.flow.protocol)
        ports[rec.flow.dst_port] += 1
        for pc in (rec.src_class, rec.dst_class):
            if pc.is_object:
                peers.add(pc.value)
    ranked = sorted(ports.items(), key=lambda kv: (-kv[1], kv[0]))
    kept_ports = sorted(port for port, _ in ranked[:top_k_ports])
    return FeatureSchema(
        protocol_vocab=tuple(sorted(protocols)),
        port_vocab=tuple(kept_ports),
        peer_vocab=tuple(sorted(peers)),
    )


def _slot(value, index: dict) -> int:
    return index.get(value, len(index))


def windowize(
    records: Sequence[ClassifiedFlow], window_seconds: int
) -> dict[tuple[str, int], list[tuple[str, ClassifiedFlow]]]:
    """Bucket records per (member endpoint, window index) with direction.

    Window indices count from the earliest timestamp in the batch. A record
    contributes to its source endpoint as outbound and to its destination
    endpoint as inbound, in each case only when that side is a member.
    """
    if window_seconds < 1:
        raise ValueError("window_seconds must be >= 1")
    if not records:
        return {}
    t0 = min(rec.flow.timestamp for rec in records)
    buckets: dict[tuple[str, int], list[tuple[str, ClassifiedFlow]]] = {}
    for rec in records:
        w = (rec.flow.timestamp - t0) // window_seconds
        if rec.src_class.is_member:
            buckets.setdefault((rec.flow.src_addr, w), []).append((OUTBOUND, rec))
        if rec.dst_class.is_member:
            buckets.setdefault((rec.flow.dst_addr, w), []).append((INBOUND, rec))
    return buckets


def encode(
    contributions: Sequence[tuple[str, ClassifiedFlow]], schema: FeatureSchema
) -> np.ndarray:
    """Encode one endpoint-window bucket into a raw sample row.

    Layout: outbound protocol counts, inbound protocol counts, outbound
    port counts, inbound port counts, peer-class counts, then the three
    numerical features. Permutation-invariant over the contribution list.
    """
    p = len(schema.protocol_vocab) + 1
    q = len(schema.port_vocab) + 1
    r = len(schema.peer_vocab) + 1
    proto_idx = {v: i for i, v in enumerate(schema.protocol_vocab)}
    port_idx = {v: i for i, v in enumerate(schema.port_vocab)}
    peer_idx = {v: i for i, v in enumerate(schema.peer_vocab)}

    off_in_proto = p
    off_out_port = 2 * p
    off_in_port = 2 * p + q
    off_peer = 2 * p + 2 * q
    off_tail = off_peer + r

    # Count contributions per service tuple (direction, protocol, port, far
    # peer's object name or None for a member), then add each count to its
    # slots once. Counts are integers, so the sums are exact in any order.
    tally: Counter[tuple[str, str, int, str | None]] = Counter()
    total_bytes = 0
    for direction, rec in contributions:
        flow = rec.flow
        peer = rec.dst_class if direction == OUTBOUND else rec.src_class
        obj = peer.value if peer.kind == OBJECT else None
        tally[(direction, flow.protocol, flow.dst_port, obj)] += 1
        total_bytes += flow.byte_count

    values = np.zeros(schema.dimension)
    for (direction, protocol, dst_port, obj), n in tally.items():
        pslot = _slot(protocol, proto_idx)
        tslot = _slot(dst_port, port_idx)
        values[pslot if direction == OUTBOUND else off_in_proto + pslot] += n
        values[(off_out_port if direction == OUTBOUND else off_in_port) + tslot] += n
        values[off_peer + (r - 1 if obj is None else _slot(obj, peer_idx))] += n
    values[off_tail] = float(len(tally))
    values[off_tail + 1] = float(len(contributions))
    values[off_tail + 2] = math.log1p(total_bytes)
    return values


def encode_windows(
    records: Sequence[ClassifiedFlow],
    window_seconds: int,
    top_k_ports: int,
    workers: int = 1,
) -> tuple[SampleMatrix, FeatureSchema]:
    """Full raw-encoding pass: schema discovery, windowing, one row per
    (endpoint, window) key in sorted key order. ``workers`` is accepted and
    has no effect."""
    schema = build_schema(records, top_k_ports)
    buckets = windowize(records, window_seconds)
    keys = sorted(buckets)
    values = np.stack([encode(buckets[key], schema) for key in keys])
    matrix = SampleMatrix(
        endpoints=tuple(ep for ep, _ in keys),
        windows=tuple(w for _, w in keys),
        values=values,
    )
    return matrix, schema


def standardize(matrix: SampleMatrix) -> SampleMatrix:
    """Column-wise (x - mean) / scale with population-std scales.

    Columns with standard deviation below ``CONST_EPS`` get scale 1 so
    constant features become zero instead of dividing by noise. The mean
    and scale are stored on the result for reuse on later samples.
    """
    if matrix.n_rows < 2:
        raise ValueError("standardize requires at least 2 rows")
    mean = matrix.values.mean(axis=0)
    scale = matrix.values.std(axis=0)
    scale = np.where(scale < CONST_EPS, 1.0, scale)
    return replace(
        matrix, values=(matrix.values - mean) / scale, mean=mean, scale=scale
    )


def destandardize(matrix: SampleMatrix) -> np.ndarray:
    if matrix.mean is None or matrix.scale is None:
        raise ValueError("matrix is not standardized")
    return matrix.values * matrix.scale + matrix.mean


def matrix_to_csv(matrix: SampleMatrix) -> str:
    """Export as CSV with header ``endpoint,window,f0..f{d-1}``."""
    header = "endpoint,window," + ",".join(f"f{i}" for i in range(matrix.dimension))
    lines = [header]
    for ep, w, row in zip(matrix.endpoints, matrix.windows, matrix.values):
        lines.append(f"{ep},{w}," + ",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def write_atomic(path: Path, text: str) -> None:
    """Write a temp file beside ``path`` and rename it into place, so a
    crash never leaves a half-written artifact.

    Every artifact goes through here; it sits in this module because pca,
    clustering and pipeline all import it.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
