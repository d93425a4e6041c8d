"""Flow-log ingestion: parsing, peer classification and the unknown-traffic policy.

A flow log is line-oriented CSV with the columns
``timestamp,src_addr,dst_addr,protocol,dst_port,packets,bytes``.
Peers are classified against a :class:`MemberScope` as network members,
named external network objects, or unknown, and records are filtered under
one of two policies: ``drop_unknown`` keeps member-to-member traffic only,
``map_to_objects`` additionally keeps member traffic whose far side resolves
to a declared network object.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field

PORTED_PROTOCOLS = frozenset({"TCP", "UDP"})

DROP_UNKNOWN = "drop_unknown"
MAP_TO_OBJECTS = "map_to_objects"
POLICIES = (DROP_UNKNOWN, MAP_TO_OBJECTS)

MEMBER = "member"
OBJECT = "object"
UNKNOWN = "unknown"

#: Fraction of malformed content lines at which a non-strict parse aborts.
MALFORMED_LIMIT = 0.5


class DataError(Exception):
    """Malformed or inconsistent input data (files, logs, artifacts)."""


def is_portless(protocol: str) -> bool:
    """True for protocols that carry no destination port (ICMP, other)."""
    return protocol.upper() not in PORTED_PROTOCOLS


@dataclass(frozen=True)
class FlowRecord:
    """One observed communication event from the flow log."""

    timestamp: int
    src_addr: str
    dst_addr: str
    protocol: str
    dst_port: int
    packet_count: int
    byte_count: int

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp {self.timestamp}")
        if not 0 <= self.dst_port <= 65535:
            raise ValueError(f"dst_port {self.dst_port} out of range")
        if is_portless(self.protocol) and self.dst_port != 0:
            raise ValueError(
                f"portless protocol {self.protocol} with dst_port {self.dst_port}"
            )
        if self.packet_count < 1:
            raise ValueError(f"packet_count {self.packet_count} < 1")
        if self.byte_count < 0:
            raise ValueError(f"negative byte_count {self.byte_count}")


@dataclass(frozen=True)
class PeerClass:
    """Classification of one communication peer.

    Exactly one of three variants: a network member (``value`` is the
    address), a named external network object (``value`` is the object
    name), or unknown.
    """

    kind: str
    value: str = ""

    @classmethod
    def member(cls, addr: str) -> "PeerClass":
        return cls(MEMBER, addr)

    @classmethod
    def network_object(cls, name: str) -> "PeerClass":
        return cls(OBJECT, name)

    @classmethod
    def unknown(cls) -> "PeerClass":
        return cls(UNKNOWN)

    @property
    def is_member(self) -> bool:
        return self.kind == MEMBER

    @property
    def is_object(self) -> bool:
        return self.kind == OBJECT


@dataclass(frozen=True)
class MemberScope:
    """Network membership definition plus the named-externals table.

    ``object_table`` entries are consulted in order and the first match
    wins; tables where an earlier entry strictly contains a later one are
    rejected because the later entry could never match.
    """

    member_cidrs: tuple[ipaddress.IPv4Network, ...]
    object_table: tuple[tuple[ipaddress.IPv4Network, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.member_cidrs:
            raise ValueError("member_cidrs must be non-empty")
        for i, (early, _) in enumerate(self.object_table):
            for late, _ in self.object_table[i + 1 :]:
                if early != late and late.subnet_of(early):
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
            return PeerClass.member(addr)
    for cidr, name in scope.object_table:
        if ip in cidr:
            return PeerClass.network_object(name)
    return PeerClass.unknown()


def _canonical_addr(token: str, canon: dict[str, str]) -> str:
    """Validate an address token and return its canonical string form.

    ``canon`` remembers tokens already validated; a token that fails is not
    remembered, so it raises ``ValueError`` again on every line it is on.
    """
    addr = canon.get(token)
    if addr is None:
        addr = canon[token] = str(ipaddress.IPv4Address(token))
    return addr


def _parse_line(line: str, canon: dict[str, str]) -> FlowRecord:
    fields = line.split(",")
    if len(fields) != 7:
        raise ValueError(f"expected 7 fields, got {len(fields)}")
    ts, src, dst, proto, port, packets, nbytes = map(str.strip, fields)
    proto = proto.upper()
    if not proto:
        raise ValueError("empty protocol token")
    # Validates the addresses; the canonical string form is kept.
    src = _canonical_addr(src, canon)
    dst = _canonical_addr(dst, canon)
    return FlowRecord(
        timestamp=int(ts),
        src_addr=src,
        dst_addr=dst,
        protocol=proto,
        dst_port=int(port),
        packet_count=int(packets),
        byte_count=int(nbytes),
    )


def parse_flow_log(text: str, *, strict: bool = False) -> tuple[list[FlowRecord], int]:
    """Parse a flow log into records, in input order.

    Returns ``(records, malformed_count)``. An optional header line is
    detected by a non-numeric first field. Malformed lines are skipped and
    counted unless ``strict`` is set, in which case the first one is fatal;
    without ``strict`` the parse aborts when more than half of the content
    lines are malformed.
    """
    records: list[FlowRecord] = []
    canon: dict[str, str] = {}
    malformed = 0
    content_lines = 0
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
        content_lines += 1
        try:
            records.append(_parse_line(line, canon))
        except ValueError as exc:
            if strict:
                raise DataError(f"line {lineno}: {exc}") from exc
            malformed += 1
            if not first_error:
                first_error = f"line {lineno}: {exc}"
    if content_lines and malformed / content_lines > MALFORMED_LIMIT:
        raise DataError(
            f"corrupt input: {malformed} of {content_lines} lines malformed "
            f"(first: {first_error})"
        )
    return records, malformed


def filter_flows(
    records: list[FlowRecord],
    scope: MemberScope,
    policy: str,
) -> tuple[list[ClassifiedFlow], IngestReport]:
    """Apply the unknown-traffic policy, attaching peer classifications.

    ``drop_unknown`` keeps records where both peers are members.
    ``map_to_objects`` keeps records where at least one peer is a member and
    any non-member peer resolves to a network object. Records where neither
    side is a member are always dropped. Input order is preserved and the
    records themselves are never altered.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    cache: dict[str, PeerClass] = {}

    def cls(addr: str) -> PeerClass:
        pc = cache.get(addr)
        if pc is None:
            pc = classify_peer(addr, scope)
            cache[addr] = pc
        return pc

    kept: list[ClassifiedFlow] = []
    report = IngestReport(records_read=len(records))
    endpoints: set[str] = set()
    for rec in records:
        s, d = cls(rec.src_addr), cls(rec.dst_addr)
        if policy == DROP_UNKNOWN:
            keep = s.is_member and d.is_member
        else:
            keep = (s.is_member or d.is_member) and s.kind != UNKNOWN and d.kind != UNKNOWN
        if not keep:
            continue
        kept.append(ClassifiedFlow(rec, s, d))
        if s.is_object or d.is_object:
            report.records_mapped_to_objects += 1
        if s.is_member:
            endpoints.add(rec.src_addr)
        if d.is_member:
            endpoints.add(rec.dst_addr)
    report.records_kept = len(kept)
    report.distinct_endpoints = len(endpoints)
    return kept, report


def load_scope(text: str) -> MemberScope:
    """Parse a scope file: ``member <CIDR>`` and ``object <CIDR> <name>`` lines."""
    members: list[ipaddress.IPv4Network] = []
    objects: list[tuple[ipaddress.IPv4Network, str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "member" and len(tokens) == 2:
                members.append(ipaddress.IPv4Network(tokens[1]))
            elif tokens[0] == "object" and len(tokens) == 3:
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
