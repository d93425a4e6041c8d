"""What every stage shares, without numpy: errors, the one reader and writer
of files, the flow and peer model, the scope file, security groups, the
grouping parameters and synth's address plan. ``rules`` and ``eval`` need
only this, ``metrics`` and ``rules``, so they run without loading numpy."""

from __future__ import annotations

import ipaddress
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

PORTED_PROTOCOLS = frozenset({"TCP", "UDP"})

DROP_UNKNOWN = "drop_unknown"
MAP_TO_OBJECTS = "map_to_objects"
POLICIES = (DROP_UNKNOWN, MAP_TO_OBJECTS)

MEMBER = "member"
OBJECT = "object"
UNKNOWN = "unknown"

INT64_MAX = 2**63 - 1

#: Bytes per block of :func:`read_blocks`.
READ_BLOCK = 1 << 20

# synth's address plan.
#: Members are numbered from the first host address of this network.
MEMBER_NET = ipaddress.IPv4Network("10.0.0.0/16")
#: External object ``i`` is the /32 at host address ``i + 1`` of this network.
OBJECT_NET = ipaddress.IPv4Network("198.51.100.0/24")
#: Port ``i`` of the template port pool is ``PORT_BASE + PORT_STEP * i``.
PORT_BASE, PORT_STEP = 2000, 7

MAX_ENDPOINTS = MEMBER_NET.num_addresses - 1
MAX_OBJECTS = OBJECT_NET.num_addresses - 1
MAX_PORT_POOL = (65535 - PORT_BASE) // PORT_STEP + 1


class DataError(Exception):
    """Malformed or inconsistent input data (files, logs, artifacts)."""


def _reason(exc: Exception) -> object:
    """An ``OSError``'s ``strerror``, which repeats no path; else ``exc``."""
    return getattr(exc, "strerror", None) or exc


def read_file(path: Union[str, Path], what: str, error: type[Exception] = DataError) -> str:
    """The one reader of inputs and artifacts but the flow log: the file's
    bytes decoded as strict UTF-8 with every ``\\r`` kept, so no locale
    changes what is read and only ``\\n`` ends a line. A failure to read or
    decode, or a path the filesystem encoding cannot encode, raises
    ``error`` naming ``what``."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeError) as exc:
        raise error(f"cannot read {what} {path}: {_reason(exc)}") from exc


def read_blocks(path: Union[str, Path], what: str) -> Iterator[bytes]:
    """The file's bytes in blocks of :data:`READ_BLOCK`, the one reader of
    the flow log, which no stage holds whole; a failure raises
    :class:`DataError` as :func:`read_file` does."""
    try:
        with Path(path).open("rb") as file:
            while block := file.read(READ_BLOCK):
                yield block
    except (OSError, UnicodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {_reason(exc)}") from exc


def make_dir(path: Union[str, Path]) -> Path:
    """Create a directory and its parents; a failure, an unencodable path
    included, is a :class:`DataError`."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except (OSError, UnicodeError) as exc:
        raise DataError(f"cannot create directory {path}: {_reason(exc)}") from exc
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
        raise DataError(f"cannot write {path}: {_reason(exc)}") from exc


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
    ``flows.FlowTable`` row."""

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


#: One conversation: (src address, dst address, protocol, port, row count).
Conversation = tuple[str, str, str, int, int]


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


@dataclass(frozen=True)
class SecurityGroups:
    """Partition of endpoints into groups keyed by centroid index: one group
    at least, none empty and no endpoint in two, or ``ValueError``."""

    groups: dict[int, frozenset[str]]

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("lists no groups")
        seen: set[str] = set()
        for gid, members in self.groups.items():
            if not members:
                raise ValueError(f"group {gid} has no members")
            if not seen.isdisjoint(members):
                ep = min(members & seen)
                first = next(g for g, m in self.groups.items() if ep in m)
                raise ValueError(f"endpoint {ep} is in groups {first} and {gid}")
            seen |= members

    @property
    def suggested_qty(self) -> int:
        return len(self.groups)

    def endpoint_to_group(self) -> dict[str, int]:
        return {ep: gid for gid, members in self.groups.items() for ep in members}

    @property
    def endpoints(self) -> frozenset[str]:
        return frozenset(ep for members in self.groups.values() for ep in members)


@dataclass(frozen=True)
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
