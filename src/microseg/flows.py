"""Flow-log ingestion: parsing, peer classification and the unknown-traffic policy.

A flow log is line-oriented CSV with the columns
``timestamp,src_addr,dst_addr,protocol,dst_port,packets,bytes``.
It is parsed once into a :class:`FlowTable`: one numpy column per field, with
addresses and protocols as integer codes into small sorted vocabularies.
Lines in the canonical form synth writes, with LF or CRLF ends, are read
column-wise, a chunk of lines at a time; every other valid line parses the
same, only more slowly, through the per-line parse.
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


def _reason(exc: Exception) -> object:
    """An ``OSError``'s ``strerror``, which repeats no path; else ``exc``."""
    return getattr(exc, "strerror", None) or exc


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
        raise error(f"cannot read {what} {path}: {_reason(exc)}") from exc


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
    indexed by code, and feature encoding reads it. The group stage writes
    the kept table's :func:`conversations` for the rules stage, which reads
    no table. Iterating builds a :class:`FlowRecord` per row (a
    :class:`ClassifiedFlow` once classified). No package code iterates a
    table; bench/trace.py's match probe and the tests do.
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


#: One conversation: (src address, dst address, protocol, port, row count).
Conversation = tuple[str, str, str, int, int]


def conversations(table: FlowTable) -> list[Conversation]:
    """Each distinct (src address, dst address, protocol, port) of a table
    with its row count, in order of first appearance."""
    columns = (table.src, table.dst, table.protocol, table.dst_port)
    first, _, counts = distinct_rows(*columns)
    order = np.argsort(first)
    return [
        (table.addrs[src], table.addrs[dst], table.protocols[protocol], port, count)
        for src, dst, protocol, port, count in zip(
            *(column[first[order]].tolist() for column in columns), counts[order].tolist()
        )
    ]


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


#: Characters per chunk of the columnar parse; a chunk runs on to the end
#: of the line it stops in.
CHUNK_CHARS = 1 << 18

_NOT_A_DIGIT = 255


def _digits(*runs: tuple[str, str, int]) -> np.ndarray:
    """Byte to digit value: each run of characters counts up from its value."""
    table = np.full(256, _NOT_A_DIGIT, dtype=np.uint8)
    for first, last, value in runs:
        table[ord(first) : ord(last) + 1] = range(value, value + ord(last) - ord(first) + 1)
    return table


# Each canonical field is read as a numeral: (digit table, base, most bytes).
# A number is its value; an address or protocol token is a key with no zero
# digit, so distinct tokens of one form have distinct keys, except that a
# protocol's key folds case as its code does. Every key fits in a uint64.
_DECIMAL = (_digits(("0", "9", 0)), 10, 19)
_ADDRESS = (_digits(("0", "9", 1), (".", ".", 11)), 12, 15)
_PROTOCOL = (_digits(("0", "9", 1), ("A", "Z", 11), ("a", "z", 11)), 37, 12)
_FIELD_FORMS = (_DECIMAL, _ADDRESS, _ADDRESS, _PROTOCOL, _DECIMAL, _DECIMAL, _DECIMAL)


def _read_numerals(b, form, start, end) -> tuple[np.ndarray, np.ndarray]:
    """The fields ``b[start:end]`` read as numerals of ``form``: their uint64
    values, and which fields are 1 to the form's most bytes long with every
    byte a digit."""
    table, base, width = form
    length = end - start
    value = np.zeros(len(start), dtype=np.uint64)
    worst = np.zeros(len(start), dtype=np.uint8)
    ok = (length > 0) & (length <= width)
    # Right-aligned: the bytes before a field's start read as leading zeros.
    for back in range(int(np.max(length, where=ok, initial=0)), 0, -1):
        at = end - back
        digit = np.where(at >= start, table[b.take(at, mode="clip")], 0)
        np.maximum(worst, digit, out=worst)
        value *= np.uint64(base)
        value += digit
    return value, ok & (worst != _NOT_A_DIGIT)


def _distinct_tokens(data, keys, start, end, memo: dict, normalize):
    """The tokens of the distinct ``keys``, and each key's index among them.
    A token is cut from ``data`` and normalised once per distinct key;
    ``memo`` keeps them from chunk to chunk."""
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    tokens = []
    for key, i in zip(distinct.tolist(), first.tolist()):
        if key not in memo:
            memo[key] = normalize(data[start[i] : end[i]].decode("ascii"))
        tokens.append(memo[key])
    return tokens, inverse


def _valid_address(token: str) -> str | None:
    try:
        ipaddress.IPv4Address(token)
    except ValueError:
        return None
    return token


def _register(codes: _Codes, tokens: list, inverse: np.ndarray) -> np.ndarray:
    """The codes of the tokens ``inverse`` indexes, registering only those."""
    used = np.unique(inverse)
    lookup = np.zeros(len(tokens), dtype=np.int32)
    lookup[used] = [codes[tokens[i]] for i in used.tolist()]
    return lookup[inverse]


def _canonical_rows(data: bytes, addr_codes: _Codes, protocols: _Codes, memos: tuple):
    """Parse the lines of ``data``, whole lines that each end with ``\\n``,
    that are in canonical form (a ``\\r`` before the ``\\n`` allowed) and
    pass every check of :func:`_parse_line`.

    Returns the indices of the lines parsed, their seven columns, and the
    number of lines. Only the tokens of parsed lines are registered, as
    :func:`_parse_line` would have registered them.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    # A "\r" just before the "\n" ends the last field too, as the per-line
    # parse strips it. (ends[0] - 1 may be -1: the chunk's last byte, a "\n".)
    stops = ends - (b[ends - 1] == ord("\r"))
    commas = np.flatnonzero(b == ord(","))
    line_of = np.searchsorted(ends, commas)
    # Candidates have seven fields and end in a digit; a line ending in a
    # space is left to the per-line parse without reading its fields.
    seven = np.bincount(line_of, minlength=len(ends)) == 6
    seven &= _DECIMAL[0][b[stops - 1]] != _NOT_A_DIGIT
    lines = np.flatnonzero(seven)
    # Field f of candidate line i lies strictly between cuts[i, f] and cuts[i, f + 1].
    cuts = np.column_stack(
        (starts[lines] - 1, commas[seven[line_of]].reshape(-1, 6), stops[lines])
    )
    fields, ok = [], np.ones(len(lines), dtype=bool)
    for f, form in enumerate(_FIELD_FORMS):
        value, valid = _read_numerals(b, form, cuts[:, f] + 1, cuts[:, f + 1])
        fields.append(value)
        ok &= valid
    ts, src, dst, proto, port, packets, nbytes = fields
    big = np.uint64(INT64_MAX)
    ok &= (ts <= big) & (port <= 65535) & (packets >= 1) & (packets <= big) & (nbytes <= big)

    rows = np.flatnonzero(ok)
    addr_memo, protocol_memo = memos
    addrs, addr_of = _distinct_tokens(
        data, np.concatenate((src[rows], dst[rows])),
        np.concatenate((cuts[rows, 1], cuts[rows, 2])) + 1,
        np.concatenate((cuts[rows, 2], cuts[rows, 3])),
        addr_memo, _valid_address,
    )
    protos, proto_of = _distinct_tokens(
        data, proto[rows], cuts[rows, 3] + 1, cuts[rows, 4], protocol_memo, str.upper
    )
    valid_addr = np.array([a is not None for a in addrs], dtype=bool)
    ported = np.array([p in PORTED_PROTOCOLS for p in protos], dtype=bool)
    src_of, dst_of = np.split(addr_of, 2)
    keep = valid_addr[src_of] & valid_addr[dst_of] & (ported[proto_of] != (port[rows] == 0))
    rows = rows[keep]
    src_code, dst_code = np.split(_register(addr_codes, addrs, addr_of[np.tile(keep, 2)]), 2)
    columns = (
        ts[rows], src_code, dst_code, _register(protocols, protos, proto_of[keep]),
        port[rows], packets[rows], nbytes[rows],
    )
    return lines[rows], columns, len(ends)


def _chunks(text: str) -> Iterator[bytes]:
    """``text`` as UTF-8 in chunks of whole lines, about :data:`CHUNK_CHARS`
    characters each, every chunk ending with ``\\n``."""
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + CHUNK_CHARS - 1)
        end = len(text) if end < 0 else end + 1
        # A lone surrogate round-trips; it is never canonical.
        data = text[pos:end].encode("utf-8", "surrogatepass")
        yield data if data.endswith(b"\n") else data + b"\n"
        pos = end


def parse_flow_log(text: str, *, strict: bool = False) -> tuple[FlowTable, int]:
    """Parse a flow log into a table, in input order.

    Returns ``(table, malformed_count)``. An optional header line is
    detected by a non-numeric first field. Malformed lines are skipped and
    counted unless ``strict`` is set, in which case the first one is fatal;
    without ``strict`` the parse aborts when more than half of the content
    lines are malformed.

    Lines in canonical form, the form synth writes, are parsed as numpy
    columns, one chunk of lines at a time: seven comma-separated fields
    and no whitespace but a ``\\r`` before the line end, each number 1-19
    ASCII digits, each address digits and dots, the protocol 1-12 ASCII
    letters and digits. Each distinct address or protocol token is checked
    once. Every other line, and every line a check rejects, goes through the
    per-line parse in line order, so the table, counts and messages are the
    same as a per-line parse of all.
    """
    rows = text.count("\n") + 1
    columns = [
        np.empty(rows, dtype=np.int32 if c in ("src", "dst", "protocol") else np.int64)
        for c in COLUMNS
    ]
    # IPv4Address accepts canonical dotted quads only: a token is its own form.
    addr_codes = _Codes(ipaddress.IPv4Address)
    protocols = _Codes()
    memos = ({}, {})
    kept = 0
    lines_before = 0
    malformed = 0
    content = 0
    first_error = ""
    saw_first = False
    for data in _chunks(text):
        fast, fast_columns, line_count = _canonical_rows(data, addr_codes, protocols, memos)
        slow = np.ones(line_count, dtype=bool)
        slow[fast] = False
        first_fast = fast[0] if len(fast) else line_count
        lines = data.decode("utf-8", "surrogatepass").split("\n") if slow.any() else []
        slow_parsed, cells = [], array("q")
        for i in np.flatnonzero(slow).tolist():
            line = lines[i].strip()
            if not line:
                continue
            if not saw_first:
                saw_first = True
                head = line.split(",", 1)[0].strip()
                if i < first_fast and head and not head.lstrip("-").isdigit():
                    continue  # header line
            content += 1
            try:
                cells.extend(_parse_line(line, addr_codes, protocols))
                slow_parsed.append(i)
            except ValueError as exc:
                lineno = lines_before + i + 1
                if strict:
                    raise DataError(f"line {lineno}: {exc}") from exc
                malformed += 1
                if not first_error:
                    first_error = f"line {lineno}: {exc}"
        content += len(fast)
        saw_first = saw_first or len(fast) > 0
        # Rows go to the columns in line order, fast and slow interleaved.
        slow_parsed = np.array(slow_parsed, dtype=np.intp)
        parsed = ~slow
        parsed[slow_parsed] = True
        dest = np.cumsum(parsed) - 1 + kept
        fast_dest, slow_dest = dest[fast], dest[slow_parsed]
        slow_columns = np.frombuffer(cells, dtype=np.int64).reshape(-1, len(COLUMNS)).T
        for column, fast_values, slow_values in zip(columns, fast_columns, slow_columns):
            column[fast_dest] = fast_values
            column[slow_dest] = slow_values
        kept += len(fast) + len(slow_parsed)
        lines_before += line_count
    if content and malformed / content > MALFORMED_LIMIT:
        raise DataError(
            f"corrupt input: {malformed} of {content} lines malformed "
            f"(first: {first_error})"
        )
    for column in columns:
        # No view of a column exists, so each shrinks in place.
        column.resize(kept, refcheck=False)
    ts, src, dst, proto, port, packets, nbytes = columns
    addrs, addr_rank = addr_codes.sorted_tokens()
    protocol_vocab, protocol_rank = protocols.sorted_tokens()
    table = FlowTable(
        ts, addr_rank[src], addr_rank[dst], protocol_rank[proto],
        port, packets, nbytes, addrs, protocol_vocab,
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
