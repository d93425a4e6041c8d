"""Flow-log ingestion: parsing, peer classification and the unknown-traffic policy.

A flow log is line-oriented CSV with the columns
``timestamp,src_addr,dst_addr,protocol,dst_port,packets,bytes``.
It is parsed once into a :class:`FlowTable`: one numpy column per field, with
addresses and protocols as integer codes into small sorted vocabularies.
The parse takes the log as a stream of byte blocks and re-cuts them into
chunks of whole lines, so no whole copy of the log's bytes or text exists.
Lines in the canonical form synth writes, with LF or CRLF ends, are read
column-wise, a chunk of lines at a time; every other valid line parses the
same, only more slowly, through the per-line parse.
Peers are classified against a :class:`MemberScope` as network members,
named external network objects, or unknown, once per distinct address, and
rows are kept by one boolean mask under one of two policies:
``drop_unknown`` keeps member-to-member traffic only, ``map_to_objects``
additionally keeps member traffic whose far side resolves to a declared
network object. The per-row rules, the peer classes and the scope are
:mod:`microseg.core`'s, which the stages that load no numpy share.
"""

from __future__ import annotations

import ipaddress
from array import array
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .core import (
    DROP_UNKNOWN,
    INT64_MAX,
    POLICIES,
    PORTED_PROTOCOLS,
    UNKNOWN,
    Conversation,
    DataError,
    FlowRecord,
    MemberScope,
    PeerClass,
    check_flow,
    classify_peer,
    load_scope,
)

# load_scope is defined in core; bench/trace.py imports it from here.
__all__ = ["load_scope"]

#: Fraction of malformed content lines at which a non-strict parse aborts.
MALFORMED_LIMIT = 0.5

#: The columns of a :class:`FlowTable`, in :class:`FlowRecord` field order.
COLUMNS = ("timestamp", "src", "dst", "protocol", "dst_port", "packet_count", "byte_count")


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


#: Table rows per block of a pass that reads a table in blocks; its
#: temporaries grow with this, not with the table.
BLOCK_ROWS = 1 << 15


def _row_keys(*columns: np.ndarray) -> np.ndarray:
    """One int64 key per row of non-negative integer columns, in the rows'
    lexicographic order. The columns are packed into the key; where the
    next column would overflow it, the key so far, and then a wide column,
    is renumbered densely first, so no key exceeds the square of the row
    count."""
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
    return key


def distinct_rows(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique`` over the rows of non-negative integer columns: each
    distinct row's first index and its count, in lexicographic row order."""
    _, first, counts = np.unique(_row_keys(*columns), return_index=True, return_counts=True)
    return first, counts


def conversations(table: FlowTable) -> list[Conversation]:
    """Each distinct (src address, dst address, protocol, port) of a table
    with its row count, in order of first appearance.

    The table is tallied in blocks of :data:`BLOCK_ROWS` rows, each merged
    into the distinct keys so far, as encode merges its keys, so the
    temporaries grow with the block and the distinct keys, not the table.
    """
    columns = (table.src, table.dst, table.protocol, table.dst_port)
    keys = [column[:0] for column in columns]
    first, counts = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
    for start in range(0, len(table), BLOCK_ROWS):
        block = [column[start : start + BLOCK_ROWS] for column in columns]
        stacked = [np.concatenate(pair) for pair in zip(keys, block)]
        # The keys so far come first, so a key seen before keeps its first row.
        _, at, inverse = np.unique(_row_keys(*stacked), return_index=True, return_inverse=True)
        rows = np.concatenate((first, np.arange(start, start + len(block[0]))))
        weights = np.concatenate((counts, np.ones(len(block[0]), dtype=np.int64)))
        keys, first = [column[at] for column in stacked], rows[at]
        counts = np.zeros(len(at), dtype=np.int64)
        np.add.at(counts, inverse, weights)
    order = np.argsort(first)
    return [
        (table.addrs[src], table.addrs[dst], table.protocols[protocol], port, count)
        for src, dst, protocol, port, count in zip(
            *(column[order].tolist() for column in keys), counts[order].tolist()
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


#: Bytes (of UTF-8) per chunk of the columnar parse; a chunk runs on to
#: the end of the line it stops in. A chunk's temporaries, a few times its
#: size, come from malloc's heap once the log's blocks have raised glibc's
#: mmap threshold, and smaller chunks leave less of that heap resident.
CHUNK_CHARS = 1 << 17

#: Rows the parsed columns start with. Even an int32 column is then larger
#: than malloc's default mmap threshold (128 KiB), so glibc maps each column
#: apart from its heap, and growing one remaps pages instead of copying it
#: and leaving a hole in the heap.
FIRST_ROWS = 1 << 16

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


def _line_chunks(blocks: Iterable[bytes]) -> Iterator[bytearray]:
    """``blocks``, consecutive pieces of a log's bytes, re-cut into chunks of
    whole lines, about :data:`CHUNK_CHARS` bytes each, every chunk ending
    with ``\\n``: the bytes after a chunk's last ``\\n`` carry into the next."""
    rest = bytearray()
    for block in blocks:
        rest += block
        start = 0
        while (end := rest.find(b"\n", start + CHUNK_CHARS - 1)) >= 0:
            yield rest[start : end + 1]
            start = end + 1
        del rest[:start]
    if rest:
        yield rest if rest.endswith(b"\n") else rest + b"\n"


def parse_flow_log(
    log: str | Iterable[bytes], *, strict: bool = False
) -> tuple[FlowTable, int]:
    """Parse a flow log into a table, in input order.

    ``log`` is the log's text, or its bytes as consecutive blocks cut
    anywhere, which read as ``bytes.decode("utf-8", "replace")`` of the
    whole would. Either way no whole copy of the log is made: its bytes are
    re-cut into chunks of whole lines, and a chunk is decoded only if it
    holds a line out of canonical form. A ``\\n`` byte is never inside a
    UTF-8 sequence, so a chunk decodes as its part of the whole does.

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
    same as a per-line parse of all. The columns grow in place as chunks
    are parsed.
    """
    errors = "replace"
    if isinstance(log, str):
        # A lone surrogate round-trips; it is never canonical.
        text, errors = log, "surrogatepass"
        log = (
            text[at : at + CHUNK_CHARS].encode("utf-8", errors)
            for at in range(0, len(text), CHUNK_CHARS)
        )
    columns = [
        np.empty(FIRST_ROWS, dtype=np.int32 if c in ("src", "dst", "protocol") else np.int64)
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
    for data in _line_chunks(log):
        fast, fast_columns, line_count = _canonical_rows(data, addr_codes, protocols, memos)
        slow = np.ones(line_count, dtype=bool)
        slow[fast] = False
        first_fast = fast[0] if len(fast) else line_count
        lines = data.decode("utf-8", errors).split("\n") if slow.any() else []
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
        kept += len(fast) + len(slow_parsed)
        if kept > len(columns[0]):
            for column in columns:
                # No view of a column exists, so each grows in place.
                column.resize(kept + kept // 8, refcheck=False)
        slow_columns = np.frombuffer(cells, dtype=np.int64).reshape(-1, len(COLUMNS)).T
        for column, fast_values, slow_values in zip(columns, fast_columns, slow_columns):
            column[fast_dest] = fast_values
            column[slow_dest] = slow_values
        lines_before += line_count
    if content and malformed / content > MALFORMED_LIMIT:
        raise DataError(
            f"corrupt input: {malformed} of {content} lines malformed "
            f"(first: {first_error})"
        )
    for column in columns:
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
