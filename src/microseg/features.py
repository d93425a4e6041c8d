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
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .flows import ClassifiedFlow

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


def encode_windows(
    records: Sequence[ClassifiedFlow],
    window_seconds: int,
    top_k_ports: int,
    workers: int = 1,
) -> tuple[SampleMatrix, FeatureSchema]:
    """Count the records into one raw row per (member endpoint, window)
    key, in sorted key order, and return the rows with the schema found.
    ``workers`` is accepted and has no effect.

    Windows count from the earliest timestamp. A record adds to its
    source's row as outbound and to its destination's as inbound, each only
    when that side is a member. The port vocabulary keeps the
    ``top_k_ports`` most frequent destination ports (ties to the lower
    port); protocols and object names keep everything observed. Row layout:
    outbound and inbound protocol counts, outbound and inbound port counts,
    peer-class counts, then the three numerical features.

    Records are counted once per distinct (window, peers, addresses,
    service, bytes), and every later step works on those integer counts, so
    every sum is exact and the result does not depend on record order.
    """
    if not records:
        raise ValueError("cannot build a schema from zero records")
    if top_k_ports < 1:
        raise ValueError("top_k_ports must be >= 1")
    if window_seconds < 1:
        raise ValueError("window_seconds must be >= 1")
    t0 = min(rec.flow.timestamp for rec in records)
    distinct = Counter(
        (
            (rec.flow.timestamp - t0) // window_seconds,
            rec.src_class,
            rec.dst_class,
            rec.flow.src_addr,
            rec.flow.dst_addr,
            rec.flow.protocol,
            rec.flow.dst_port,
            rec.flow.byte_count,
        )
        for rec in records
    )

    # Per (endpoint, window): flows per service tuple (inbound?, protocol,
    # port, far peer's object name or None for a member), and total bytes.
    ports: Counter[int] = Counter()
    peers: set[str] = set()
    tallies: defaultdict[tuple[str, int], Counter] = defaultdict(Counter)
    total_bytes: Counter[tuple[str, int]] = Counter()
    for (w, src, dst, src_addr, dst_addr, protocol, port, nbytes), n in distinct.items():
        ports[port] += n
        for endpoint, inbound, near, far in (
            (src_addr, False, src, dst),
            (dst_addr, True, dst, src),
        ):
            if far.is_object:
                peers.add(far.value)
            if near.is_member:
                obj = far.value if far.is_object else None
                tallies[endpoint, w][inbound, protocol, port, obj] += n
                total_bytes[endpoint, w] += n * nbytes

    ranked = sorted(ports.items(), key=lambda kv: (-kv[1], kv[0]))
    schema = FeatureSchema(
        protocol_vocab=tuple(sorted({key[5] for key in distinct})),
        port_vocab=tuple(sorted(port for port, _ in ranked[:top_k_ports])),
        peer_vocab=tuple(sorted(peers)),
    )
    p = len(schema.protocol_vocab) + 1
    q = len(schema.port_vocab) + 1
    r = len(schema.peer_vocab) + 1
    proto_col = {v: i for i, v in enumerate(schema.protocol_vocab)}
    port_col = {v: i for i, v in enumerate(schema.port_vocab)}
    peer_col = {v: i for i, v in enumerate(schema.peer_vocab)}

    keys = sorted(tallies)
    values = np.zeros((len(keys), schema.dimension))
    for i, key in enumerate(keys):
        tally = tallies[key]
        row = [0] * (2 * p + 2 * q + r)
        for (inbound, protocol, port, obj), n in tally.items():
            row[proto_col.get(protocol, p - 1) + (p if inbound else 0)] += n
            row[2 * p + port_col.get(port, q - 1) + (q if inbound else 0)] += n
            row[2 * p + 2 * q + peer_col.get(obj, r - 1)] += n
        values[i] = row + [len(tally), sum(tally.values()), math.log1p(total_bytes[key])]
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
