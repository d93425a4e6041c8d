"""Group-level firewall rule synthesis from the conversation table.

A conversation is one distinct (source, destination, protocol, port) of the
kept flows with its row count; the group stage writes them all. Endpoint
addresses are replaced by their security group (members) or network object
(externals) once per conversation, so generalization reduces to
deduplication plus canonical ordering: one allow rule per distinct
(source, destination, service) triple over a default-deny base.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .clustering import SecurityGroups
from .flows import (
    Conversation,
    DataError,
    FlowRecord,
    FlowTable,
    MemberScope,
    check_service,
    classify_peer,
    conversations,
    parse_decimal,
    read_file,
)

ALLOW = "allow"
DENY = "deny"

GROUP = "group"
OBJ = "object"

UNIVERSE = ipaddress.IPv4Network("0.0.0.0/0")


@dataclass(frozen=True)
class EntityRef:
    """A rule endpoint: a security group id or a network object name."""

    kind: str
    group_id: int = -1
    name: str = ""

    @classmethod
    def group(cls, group_id: int) -> "EntityRef":
        return cls(GROUP, group_id=group_id)

    @classmethod
    def network_object(cls, name: str) -> "EntityRef":
        return cls(OBJ, name=name)

    def sort_key(self) -> tuple[int, int, str]:
        return (0, self.group_id, "") if self.kind == GROUP else (1, 0, self.name)

    def __str__(self) -> str:
        return f"group:{self.group_id}" if self.kind == GROUP else f"object:{self.name}"


@dataclass(frozen=True)
class ServiceTuple:
    protocol: str
    dst_port: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocol", self.protocol.upper())
        check_service(self.protocol, self.dst_port)


@dataclass(frozen=True)
class FirewallRule:
    src: EntityRef
    dst: EntityRef
    service: ServiceTuple
    evidence_count: int

    def __post_init__(self) -> None:
        if self.evidence_count < 1:
            raise ValueError("evidence_count must be >= 1")

    def key(self) -> tuple:
        return (
            self.src.sort_key(),
            self.dst.sort_key(),
            self.service.protocol,
            self.service.dst_port,
        )


@dataclass(frozen=True)
class RuleSet:
    """Canonically ordered allow rules over an implicit default deny."""

    rules: tuple[FirewallRule, ...]

    @classmethod
    def from_rules(cls, rules: Sequence[FirewallRule]) -> "RuleSet":
        ordered = tuple(sorted(rules, key=FirewallRule.key))
        keys = [r.key() for r in ordered]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (src, dst, service) keys in ruleset")
        return cls(rules=ordered)


def tally_conversations(
    rows: Iterable[Conversation],
    groups: SecurityGroups,
    scope: MemberScope,
) -> dict[tuple[EntityRef, EntityRef, ServiceTuple], int]:
    """Map each conversation to (src ref, dst ref, service), summing row
    counts, pulling the rows in order. An address resolves as
    :func:`make_matcher` resolves it: a member to its security group, any
    other address to its network object. Each distinct address is parsed
    and each distinct service checked once, here; the first, in row order,
    that is not an IPv4 address, not a valid service, or resolves to nothing
    raises ``ValueError`` naming it. Grouping must have covered every member.
    """
    resolve = _resolver(groups, scope)
    services: dict[tuple[str, int], ServiceTuple] = {}

    def ref(addr: str) -> EntityRef:
        resolved = resolve(addr)
        if resolved is not None:
            return resolved
        if classify_peer(addr, scope).is_member:
            raise ValueError(
                f"member endpoint {addr} is not in any security group; "
                "grouping must precede rule synthesis"
            )
        raise ValueError(f"address {addr} is neither a member nor in a network object")

    counts: dict[tuple[EntityRef, EntityRef, ServiceTuple], int] = {}
    for src, dst, protocol, port, count in rows:
        src_ref, dst_ref = ref(src), ref(dst)
        service = services.get((protocol, port)) or services.setdefault(
            (protocol, port), ServiceTuple(protocol, port)
        )
        key = (src_ref, dst_ref, service)
        counts[key] = counts.get(key, 0) + count
    return counts


def extract_service_flows(
    flows: FlowTable,
    groups: SecurityGroups,
    scope: MemberScope,
) -> dict[tuple[EntityRef, EntityRef, ServiceTuple], int]:
    """:func:`tally_conversations` over the conversations of a filtered table."""
    return tally_conversations(conversations(flows), groups, scope)


def generalize(
    tuple_counts: dict[tuple[EntityRef, EntityRef, ServiceTuple], int]
) -> RuleSet:
    """One allow rule per unique tuple, canonically sorted, default deny."""
    return RuleSet.from_rules(
        [
            FirewallRule(src=s, dst=d, service=svc, evidence_count=count)
            for (s, d, svc), count in tuple_counts.items()
        ]
    )


def _resolver(
    groups: SecurityGroups, scope: MemberScope
) -> Callable[[str], EntityRef | None]:
    """The one ref a rule names an address by: a member address resolves to
    its security group, any other address to the first object-table entry
    holding it, and an address matching neither (or an ungrouped member) to
    nothing."""
    endpoint_group = groups.endpoint_to_group()
    cache: dict[str, EntityRef | None] = {}

    def resolve(addr: str) -> EntityRef | None:
        if addr not in cache:
            peer = classify_peer(addr, scope)
            if peer.is_member:
                gid = endpoint_group.get(addr)
                cache[addr] = None if gid is None else EntityRef.group(gid)
            else:
                cache[addr] = EntityRef.network_object(peer.value) if peer.is_object else None
        return cache[addr]

    return resolve


@dataclass
class HygieneReport:
    any_to_any: list[FirewallRule] = field(default_factory=list)
    duplicates: list[FirewallRule] = field(default_factory=list)
    redundant: list[FirewallRule] = field(default_factory=list)
    #: Refs named by the ruleset that no address resolves to.
    dead: set[EntityRef] = field(default_factory=set)

    def to_text(self) -> str:
        lines = [
            f"any_to_any: {len(self.any_to_any)}",
            f"duplicates: {len(self.duplicates)}",
            f"redundant: {len(self.redundant)}",
        ]
        for rule in self.any_to_any:
            lines.append(f"  any-to-any: {format_rule(rule)}")
        for rule in self.duplicates:
            lines.append(f"  duplicate: {format_rule(rule)}")
        for rule in self.redundant:
            sides = [
                f"{side} {ref}"
                for side, ref in (("src", rule.src), ("dst", rule.dst))
                if ref in self.dead
            ]
            lines.append(
                f"  redundant: {format_rule(rule)} (no address resolves to "
                f"{', '.join(sides)})"
            )
        return "\n".join(lines) + "\n"


def check_ruleset(
    ruleset: RuleSet, groups: SecurityGroups, scope: MemberScope
) -> HygieneReport:
    """Report-only hygiene pass over a ruleset.

    Flags rules whose two sides are both objects holding 0.0.0.0/0 (the
    any-to-any failure mode), duplicate keys, and redundant rules: those
    with a side that no address resolves to under ``make_matcher``'s
    first-match resolution. That resolution gives every address at most one
    ref, so distinct refs match disjoint addresses and no rule covers
    another; removing a rule changes no verdict exactly when it is dead.
    """
    report = HygieneReport()
    resolve = _resolver(groups, scope)
    # A group is live when one of its members resolves to it. An object is
    # live when one of its entries holds an address outside the member CIDRs
    # and every earlier entry.
    live = {resolve(ep) for ep in groups.endpoints}
    universal: set[EntityRef] = set()
    taken = list(scope.member_cidrs)
    for cidr, name in scope.object_table:
        if not any(cidr.subnet_of(net) for net in ipaddress.collapse_addresses(taken)):
            live.add(EntityRef.network_object(name))
        if cidr == UNIVERSE:
            universal.add(EntityRef.network_object(name))
        taken.append(cidr)

    seen_keys: set[tuple] = set()
    for rule in ruleset.rules:
        if rule.src in universal and rule.dst in universal:
            report.any_to_any.append(rule)
        if rule.key() in seen_keys:
            report.duplicates.append(rule)
        seen_keys.add(rule.key())
        dead = {rule.src, rule.dst} - live
        if dead:
            report.redundant.append(rule)
            report.dead |= dead
    return report


def make_matcher(
    ruleset: RuleSet, groups: SecurityGroups, scope: MemberScope
) -> Callable[[FlowRecord], str]:
    """Flow → allow/deny matcher. Only bench/trace.py's match probe and tests call it."""
    resolve = _resolver(groups, scope)
    allowed = {rule.key() for rule in ruleset.rules}

    def matcher(flow: FlowRecord) -> str:
        src = resolve(flow.src_addr)
        dst = resolve(flow.dst_addr)
        if src is None or dst is None:
            return DENY
        key = (
            src.sort_key(),
            dst.sort_key(),
            flow.protocol.upper(),
            flow.dst_port,
        )
        return ALLOW if key in allowed else DENY

    return matcher


def format_rule(rule: FirewallRule) -> str:
    return (
        f"{rule.src},{rule.dst},{rule.service.protocol},{rule.service.dst_port},"
        f"{ALLOW},{rule.evidence_count}"
    )


RULESET_HEADER = "src_ref,dst_ref,protocol,dst_port,action,evidence_count"


def ruleset_to_csv(ruleset: RuleSet) -> str:
    lines = [RULESET_HEADER]
    lines.extend(format_rule(rule) for rule in ruleset.rules)
    return "\n".join(lines) + "\n"


def _parse_ref(token: str) -> EntityRef:
    kind, _, value = token.partition(":")
    if kind == GROUP:
        return EntityRef.group(parse_decimal(value))
    if kind == OBJ:
        return EntityRef.network_object(value)
    raise ValueError(f"bad entity reference {token!r}")


def load_ruleset(path) -> RuleSet:
    """Parse a ruleset CSV back into a RuleSet. Only the form
    :func:`ruleset_to_csv` writes loads: the header, then rule lines with no
    whitespace around them and an upper-case protocol, each with a line end."""
    lines = read_file(path, "ruleset").split("\n")
    if lines[0] != RULESET_HEADER:
        raise DataError(f"ruleset line 1: expected the header {RULESET_HEADER!r}")
    if lines[-1]:
        raise DataError(f"ruleset line {len(lines)}: no line end")
    rules = []
    for lineno, line in enumerate(lines[1:-1], start=2):
        if line != line.strip():
            raise DataError(f"ruleset line {lineno}: leading or trailing whitespace")
        parts = line.split(",")
        if len(parts) != 6:
            raise DataError(f"ruleset line {lineno}: expected 6 fields")
        if parts[4] != ALLOW:
            raise DataError(f"ruleset line {lineno}: action {parts[4]!r} is not {ALLOW}")
        if parts[2] != parts[2].upper():
            raise DataError(f"ruleset line {lineno}: protocol {parts[2]!r} is not upper case")
        try:
            rules.append(
                FirewallRule(
                    src=_parse_ref(parts[0]),
                    dst=_parse_ref(parts[1]),
                    service=ServiceTuple(parts[2], parse_decimal(parts[3])),
                    evidence_count=parse_decimal(parts[5]),
                )
            )
        except ValueError as exc:
            raise DataError(f"ruleset line {lineno}: {exc}") from exc
    try:
        return RuleSet.from_rules(rules)
    except ValueError as exc:
        raise DataError(f"ruleset {path}: {exc}") from exc
