"""Flow-log ingestion: parsing, peer classification and the unknown-traffic policy.

A flow log is line-oriented CSV with the columns
``timestamp,src_addr,dst_addr,protocol,dst_port,packets,bytes``.
It is parsed once into a :class:`FlowTable`: one numpy column per field, with
addresses and protocols as integer codes into small sorted vocabularies.
Peers are classified against a :class:`MemberScope` as network members,
named external network objects, or unknown, once per distinct address, and
rows are kept by one boolean mask under one of two policies:
``drop_unknown`` keeps member-to-member traffic only, ``map_to_objects``
additionally keeps member traffic whose far side resolves to a declared
network object. The one reader and the one writer of every file a stage
touches live here too, beside :class:`DataError`.
"""

from __future__ import annotations

import ipaddress
import os
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Union

import numpy as np

PORTED_PROTOCOLS = frozenset({"TCP", "UDP"})

DROP_UNKNOWN = "drop_unknown"
MAP_TO_OBJECTS = "map_to_objects"
POLICIES = (DROP_UNKNOWN, MAP_TO_OBJECTS)

MEMBER = "member"
OBJECT = "object"
UNKNOWN = "unknown"

#: Fraction of malformed content lines at which a non-strict parse aborts.
MALFORMED_LIMIT = 0.5

INT64_MAX = 2**63 - 1

#: The columns of a :class:`FlowTable`, in :class:`FlowRecord` field order.
COLUMNS = ("timestamp", "src", "dst", "protocol", "dst_port", "packet_count", "byte_count")


class DataError(Exception):
    """Malformed or inconsistent input data (files, logs, artifacts)."""


def read_file(
    path: Union[str, Path], what: str, error: type[Exception] = DataError, *, text: bool = True
) -> Union[str, bytes]:
    """The one reader of inputs and artifacts: the file's bytes, or with
    ``text`` those bytes decoded as strict UTF-8 with every ``\\r`` kept, so
    no locale changes what is read and only ``\\n`` ends a line. A failure to
    read or decode, or a path the filesystem encoding cannot encode, raises
    ``error`` naming ``what``."""
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8") if text else data
    except (OSError, UnicodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def make_dir(path: Union[str, Path]) -> Path:
    """Create a directory and its parents; a failure, an unencodable path
    included, is a :class:`DataError`."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except (OSError, UnicodeError) as exc:
        raise DataError(f"cannot create directory {path}: {exc}") from exc
    return Path(path)


def write_atomic(path: Path, text: str) -> None:
    """The one writer of artifacts: ``text`` as UTF-8 bytes, newlines as
    given, into a temp file beside ``path`` that is renamed into place, so a
    crash never leaves a half-written artifact. Any failure, removing the
    temp file or encoding the path included, is a :class:`DataError` naming
    ``path``."""
    make_dir(path.parent)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        try:
            tmp.write_bytes(text.encode("utf-8"))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except (OSError, UnicodeError) as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def parse_decimal(text: str) -> int:
    """The one integer form an artifact holds, as ``str(n)`` writes it for
    n >= 0: ASCII digits, no sign, space, ``_`` or leading zero. Anything
    else, or more digits than the interpreter's limit, raises ``ValueError``."""
    try:
        if text.isdecimal() and text == str(int(text)):
            return int(text)
    except ValueError:
        pass
    raise ValueError(f"{text!r} is not a canonical decimal integer")


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped line) for each content line of a
    hand-edited input (scope, config, grid, ground truth). Lines end at ``\\n``
    only; a ``#`` comment runs to the end of its line; blank lines are skipped."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def check_service(protocol: str, dst_port: int) -> None:
    """The one rule for a valid service, applied by :func:`check_flow` and
    ``rules.ServiceTuple``: a port in 0-65535, 0 exactly when not TCP/UDP."""
    if not 0 <= dst_port <= 65535:
        raise ValueError(f"dst_port {dst_port} out of range")
    if (protocol.upper() in PORTED_PROTOCOLS) == (dst_port == 0):
        raise ValueError(f"dst_port 0 is for portless protocols exactly, got {protocol}/{dst_port}")


def check_flow(
    timestamp: int, protocol: str, dst_port: int, packet_count: int, byte_count: int
) -> None:
    """The one rule for a valid flow, applied by the parse and :class:`FlowRecord`:
    raises ``ValueError`` naming the first bad field of timestamp, service,
    packets and bytes, then any count that an int64 column cannot hold."""
    if timestamp < 0:
        raise ValueError(f"negative timestamp {timestamp}")
    check_service(protocol, dst_port)
    if packet_count < 1:
        raise ValueError(f"packet_count {packet_count} < 1")
    if byte_count < 0:
        raise ValueError(f"negative byte_count {byte_count}")
    if (largest := max(timestamp, packet_count, byte_count)) > INT64_MAX:
        raise ValueError(f"{largest} exceeds int64")


@dataclass(frozen=True)
class FlowRecord:
    """One observed communication event: a flow to match, or a view of a
    :class:`FlowTable` row."""

    timestamp: int
    src_addr: str
    dst_addr: str
    protocol: str
    dst_port: int
    packet_count: int
    byte_count: int

    def __post_init__(self) -> None:
        check_flow(
            self.timestamp, self.protocol, self.dst_port, self.packet_count, self.byte_count
        )


@dataclass(frozen=True)
class PeerClass:
    """Classification of one communication peer.

    Exactly one of three variants: a network member (``value`` is the
    address), a named external network object (``value`` is the object
    name), or unknown.
    """

    kind: str
    value: str = ""

    @property
    def is_member(self) -> bool:
        return self.kind == MEMBER

    @property
    def is_object(self) -> bool:
        return self.kind == OBJECT


def check_object_name(name: str) -> None:
    """Reject an object name that a CSV cell cannot hold."""
    if "," in name:
        raise ValueError(f"object name {name!r} holds a comma, which splits ruleset.csv")


@dataclass(frozen=True)
class MemberScope:
    """Network membership definition plus the named-externals table.

    ``object_table`` entries are consulted in order and the first match
    wins; tables where an earlier entry contains or equals a later one are
    rejected because the later entry could never match.
    """

    member_cidrs: tuple[ipaddress.IPv4Network, ...]
    object_table: tuple[tuple[ipaddress.IPv4Network, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.member_cidrs:
            raise ValueError("member_cidrs must be non-empty")
        for _, name in self.object_table:
            check_object_name(name)
        for i, (early, _) in enumerate(self.object_table):
            for late, _ in self.object_table[i + 1 :]:
                if late.subnet_of(early):
                    raise ValueError(
                        f"object table entry {early} shadows later entry {late}"
                    )

    @property
    def object_names(self) -> frozenset[str]:
        return frozenset(name for _, name in self.object_table)


@dataclass(frozen=True)
class ClassifiedFlow:
    """A flow record with both peers classified against a scope."""

    flow: FlowRecord
    src_class: PeerClass
    dst_class: PeerClass


@dataclass(frozen=True, eq=False)
class FlowTable:
    """Flow records as columns, in input order.

    ``timestamp``, ``dst_port``, ``packet_count`` and ``byte_count`` are
    int64. ``src`` and ``dst`` are int32 codes into ``addrs``, canonical
    address strings sorted so that code order is string order; ``protocol``
    holds codes into the sorted ``protocols``. ``classes`` is empty on a
    parsed table; :func:`filter_flows` sets it to each address's class,
    indexed by code. Iterating builds a :class:`FlowRecord` per row (a
    :class:`ClassifiedFlow` once classified). No pipeline stage does; the
    rule-completeness check :func:`~microseg.pipeline.verify_ruleset_completeness`
    iterates one row per distinct (src, dst, protocol, port).
    """

    timestamp: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    protocol: np.ndarray
    dst_port: np.ndarray
    packet_count: np.ndarray
    byte_count: np.ndarray
    addrs: tuple[str, ...]
    protocols: tuple[str, ...]
    classes: tuple[PeerClass, ...] = ()

    def __len__(self) -> int:
        return len(self.timestamp)

    def take(self, rows) -> "FlowTable":
        """The rows an index array, boolean mask or slice selects."""
        return replace(self, **{name: getattr(self, name)[rows] for name in COLUMNS})

    def __iter__(self) -> Iterator[FlowRecord | ClassifiedFlow]:
        for ts, src, dst, proto, *counts in zip(*(getattr(self, c).tolist() for c in COLUMNS)):
            rec = FlowRecord(ts, self.addrs[src], self.addrs[dst], self.protocols[proto], *counts)
            yield ClassifiedFlow(rec, self.classes[src], self.classes[dst]) if self.classes else rec


def distinct_rows(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique`` over the rows of non-negative integer columns: each
    distinct row's first index, each row's distinct-row number, and each
    distinct row's count, in lexicographic row order. The columns are packed
    into one int64 key; where the next column would overflow it, the key so
    far, and then a wide column, is renumbered densely first, so no key
    exceeds the square of the row count."""
    key, size = np.zeros(len(columns[0]), dtype=np.int64), 1
    for col in columns:
        bound = int(col.max()) + 1 if col.size else 1
        if size * bound > INT64_MAX:
            key = np.unique(key, return_inverse=True)[1]
            size = int(key.max()) + 1
        if size * bound > INT64_MAX:
            col = np.unique(col, return_inverse=True)[1]
            bound = int(col.max()) + 1
        key, size = key * bound + col, size * bound
    _, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    return first, inverse, counts


@dataclass
class IngestReport:
    records_read: int = 0
    records_kept: int = 0
    records_mapped_to_objects: int = 0
    distinct_endpoints: int = 0

    @property
    def records_dropped_unknown(self) -> int:
        return self.records_read - self.records_kept


def classify_peer(addr: str, scope: MemberScope) -> PeerClass:
    """Classify one IPv4 address against a scope.

    Membership takes precedence over the object table; addresses matching
    neither are unknown. Total for any valid IPv4 address.
    """
    ip = ipaddress.IPv4Address(addr)
    for cidr in scope.member_cidrs:
        if ip in cidr:
            return PeerClass(MEMBER, addr)
    for cidr, name in scope.object_table:
        if ip in cidr:
            return PeerClass(OBJECT, name)
    return PeerClass(UNKNOWN)


class _Codes(dict):
    """Token to code, numbered in first-seen order. A new token must pass
    ``check``; one that raises ``ValueError`` is not remembered, so it
    raises on every line."""

    def __init__(self, check=str) -> None:
        super().__init__()
        self.check = check

    def __missing__(self, token: str) -> int:
        self.check(token)
        code = self[token] = len(self)
        return code

    def sorted_tokens(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The tokens in string order, and each code's rank among them."""
        vocab = tuple(sorted(self))
        rank = np.empty(len(vocab), dtype=np.int32)
        rank[[self[token] for token in vocab]] = np.arange(len(vocab))
        return vocab, rank


def _parse_line(line: str, addrs: _Codes, protocols: _Codes) -> tuple[int, ...]:
    fields = line.split(",")
    if len(fields) != 7:
        raise ValueError(f"expected 7 fields, got {len(fields)}")
    ts, src, dst, proto, port, packets, nbytes = map(str.strip, fields)
    proto = proto.upper()
    if not proto:
        raise ValueError("empty protocol token")
    src_code, dst_code = addrs[src], addrs[dst]
    row = (int(ts), src_code, dst_code, protocols[proto], int(port), int(packets), int(nbytes))
    check_flow(row[0], proto, row[4], row[5], row[6])
    return row


def parse_flow_log(text: str, *, strict: bool = False) -> tuple[FlowTable, int]:
    """Parse a flow log into a table, in input order.

    Returns ``(table, malformed_count)``. An optional header line is
    detected by a non-numeric first field. Malformed lines are skipped and
    counted unless ``strict`` is set, in which case the first one is fatal;
    without ``strict`` the parse aborts when more than half of the content
    lines are malformed.
    """
    cells = array("q")
    # IPv4Address accepts canonical dotted quads only: a token is its own form.
    addr_codes = _Codes(ipaddress.IPv4Address)
    protocols = _Codes()
    malformed = 0
    content = 0
    first_error = ""
    saw_first = False
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if not saw_first:
            saw_first = True
            head = line.split(",", 1)[0].strip()
            if head and not head.lstrip("-").isdigit():
                continue  # header line
        content += 1
        try:
            cells.extend(_parse_line(line, addr_codes, protocols))
        except ValueError as exc:
            if strict:
                raise DataError(f"line {lineno}: {exc}") from exc
            malformed += 1
            if not first_error:
                first_error = f"line {lineno}: {exc}"
    if content and malformed / content > MALFORMED_LIMIT:
        raise DataError(
            f"corrupt input: {malformed} of {content} lines malformed "
            f"(first: {first_error})"
        )
    # Code lookups copy the src, dst and protocol rows; copy only the other
    # four, so no column keeps the whole row buffer alive.
    ts, src, dst, proto, port, packets, nbytes = (
        np.frombuffer(cells, dtype=np.int64).reshape(-1, len(COLUMNS)).T
    )
    addrs, addr_rank = addr_codes.sorted_tokens()
    protocol_vocab, protocol_rank = protocols.sorted_tokens()
    table = FlowTable(
        ts.copy(), addr_rank[src], addr_rank[dst], protocol_rank[proto],
        port.copy(), packets.copy(), nbytes.copy(), addrs, protocol_vocab,
    )
    return table, malformed


def filter_flows(
    table: FlowTable,
    scope: MemberScope,
    policy: str,
) -> tuple[FlowTable, IngestReport]:
    """Apply the unknown-traffic policy, attaching peer classifications.

    ``drop_unknown`` keeps rows where both peers are members.
    ``map_to_objects`` keeps rows where at least one peer is a member and
    any non-member peer resolves to a network object. Rows where neither
    side is a member are always dropped. Each address is classified once;
    the kept table keeps input order and the parsed vocabularies.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    classes = tuple(classify_peer(addr, scope) for addr in table.addrs)
    member = np.array([pc.is_member for pc in classes], dtype=bool)
    known = np.array([pc.kind != UNKNOWN for pc in classes], dtype=bool)
    both = member[table.src] & member[table.dst]
    if policy == DROP_UNKNOWN:
        keep = both
    else:
        keep = (member[table.src] | member[table.dst]) & known[table.src] & known[table.dst]
    kept = replace(table.take(keep), classes=classes)
    endpoints = np.union1d(kept.src[member[kept.src]], kept.dst[member[kept.dst]])
    report = IngestReport(
        records_read=len(table),
        records_kept=len(kept),
        records_mapped_to_objects=int(np.count_nonzero(keep & ~both)),
        distinct_endpoints=len(endpoints),
    )
    return kept, report


def load_scope(text: str) -> MemberScope:
    """Parse a scope file: ``member <CIDR>`` and ``object <CIDR> <name>`` lines."""
    members: list[ipaddress.IPv4Network] = []
    objects: list[tuple[ipaddress.IPv4Network, str]] = []
    for lineno, line in content_lines(text):
        tokens = line.split()
        try:
            if tokens[0] == "member" and len(tokens) == 2:
                members.append(ipaddress.IPv4Network(tokens[1]))
            elif tokens[0] == "object" and len(tokens) == 3:
                check_object_name(tokens[2])
                objects.append((ipaddress.IPv4Network(tokens[1]), tokens[2]))
            else:
                raise ValueError(f"unrecognized scope line {tokens[0]!r}")
        except ValueError as exc:
            raise DataError(f"scope line {lineno}: {exc}") from exc
    try:
        return MemberScope(tuple(members), tuple(objects))
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def scope_to_text(scope: MemberScope) -> str:
    lines = [f"member {cidr}" for cidr in scope.member_cidrs]
    lines += [f"object {cidr} {name}" for cidr, name in scope.object_table]
    return "\n".join(lines) + "\n"
