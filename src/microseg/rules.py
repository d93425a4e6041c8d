"""Group-level firewall rule synthesis from the conversation table.

A conversation is one distinct (source, destination, protocol, port) of the
kept flows with its row count; the group stage writes them all. Endpoint
addresses are replaced by their security group (members) or network object
(externals) once per conversation, so generalization reduces to
deduplication plus canonical ordering: one allow rule per distinct
(source, destination, service) triple over a default-deny base.

Every rule names a security group, its lowest granularity, on one side at
least, and a ruleset's keys strictly increase, so none repeats: ``FirewallRule``
and ``RuleSet`` refuse anything else, so no ruleset built or loaded breaks either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .core import (
    Conversation,
    DataError,
    FlowRecord,
    MemberScope,
    SecurityGroups,
    check_service,
    classify_peer,
    parse_decimal,
    read_file,
)

if TYPE_CHECKING:
    from .flows import FlowTable

ALLOW = "allow"
DENY = "deny"

GROUP = "group"
OBJ = "object"

#: hygiene.txt: the counts of rules joining two objects, of repeated keys and
#: of rules naming a ref that no address resolves to. Each is 0: the first two
#: are refused where rules and rulesets are built, and every ref a built rule
#: names is the resolution of an address in the conversation table.
HYGIENE_TEXT = "any_to_any: 0\nduplicates: 0\nredundant: 0\n"


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
        if self.src.kind == OBJ and self.dst.kind == OBJ:
            raise ValueError(f"rule {self.src} -> {self.dst} names no security group")

    def key(self) -> tuple:
        return (
            self.src.sort_key(),
            self.dst.sort_key(),
            self.service.protocol,
            self.service.dst_port,
        )


@dataclass(frozen=True)
class RuleSet:
    """Allow rules over an implicit default deny, each key strictly after the
    one before it (canonical order, no repeats), or ``ValueError``."""

    rules: tuple[FirewallRule, ...]

    def __post_init__(self) -> None:
        for before, rule in zip(self.rules, self.rules[1:]):
            if not before.key() < rule.key():
                fault = "repeats the key of" if before.key() == rule.key() else "sorts before"
                raise ValueError(f"rule {format_rule(rule)} {fault} the rule before it")

    @classmethod
    def from_rules(cls, rules: Sequence[FirewallRule]) -> "RuleSet":
        return cls(rules=tuple(sorted(rules, key=FirewallRule.key)))


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
    """:func:`tally_conversations` over the conversations of a filtered table.
    Only bench/trace.py and the tests call it, so ``flows`` is imported here."""
    from .flows import conversations

    return tally_conversations(conversations(flows), groups, scope)


def generalize(
    tuple_counts: dict[tuple[EntityRef, EntityRef, ServiceTuple], int]
) -> RuleSet:
    """One allow rule per unique tuple, canonically sorted, default deny. A
    tuple of two objects raises ``ValueError`` naming both."""
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
    """hygiene.txt's counts as lists of rules, each empty for a built ruleset.
    Kept, with :func:`check_ruleset`, only while bench/trace.py reads them."""

    any_to_any: list[FirewallRule] = field(default_factory=list)
    duplicates: list[FirewallRule] = field(default_factory=list)
    redundant: list[FirewallRule] = field(default_factory=list)

    def to_text(self) -> str:
        return HYGIENE_TEXT


def check_ruleset(ruleset: RuleSet, groups: SecurityGroups, scope: MemberScope) -> HygieneReport:
    """The empty report (see :data:`HYGIENE_TEXT`); no argument is read."""
    return HygieneReport()


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
    :func:`ruleset_to_csv` writes loads, so what loads writes back to the same
    bytes; a fault raises :class:`DataError` naming the file and the line."""
    lines = read_file(path, "ruleset").split("\n")
    if lines[0] != RULESET_HEADER:
        raise DataError(f"ruleset {path} line 1: expected the header {RULESET_HEADER!r}")
    if lines[-1]:
        raise DataError(f"ruleset {path} line {len(lines)}: no line end")
    rules = []
    for lineno, line in enumerate(lines[1:-1], start=2):
        parts = line.split(",")
        if len(parts) != 6:
            raise DataError(f"ruleset {path} line {lineno}: expected 6 fields")
        try:
            rule = FirewallRule(
                src=_parse_ref(parts[0]),
                dst=_parse_ref(parts[1]),
                service=ServiceTuple(parts[2], parse_decimal(parts[3])),
                evidence_count=parse_decimal(parts[5]),
            )
            if format_rule(rule) != line:
                raise ValueError(f"not the written form {format_rule(rule)!r}")
        except ValueError as exc:
            raise DataError(f"ruleset {path} line {lineno}: {exc}") from exc
        rules.append(rule)
    try:
        return RuleSet(tuple(rules))
    except ValueError as exc:
        raise DataError(f"ruleset {path}: {exc}") from exc
