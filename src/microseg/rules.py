"""Group-level firewall rule synthesis from classified flows.

Endpoint addresses are replaced by their security group (members) or
network object (externals) at extraction time, so generalization reduces
to deduplication plus canonical ordering: one allow rule per distinct
(source, destination, service) triple over a default-deny base.
"""

from __future__ import annotations

import ipaddress
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .clustering import SecurityGroups
from .flows import (
    MEMBER,
    OBJECT,
    ClassifiedFlow,
    DataError,
    FlowRecord,
    MemberScope,
    classify_peer,
    is_portless,
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
        if not 0 <= self.dst_port <= 65535:
            raise ValueError(f"dst_port {self.dst_port} out of range")
        if is_portless(self.protocol) != (self.dst_port == 0):
            raise ValueError(
                f"dst_port 0 is for portless protocols exactly, got "
                f"{self.protocol}/{self.dst_port}"
            )


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


def extract_service_flows(
    records: Sequence[ClassifiedFlow],
    groups: SecurityGroups,
    scope: MemberScope,
) -> dict[tuple[EntityRef, EntityRef, ServiceTuple], int]:
    """Map every record to (src ref, dst ref, service), summing evidence.

    Member peers become their security group, external peers their network
    object. Grouping must have covered every member endpoint seen here.

    Records are first counted per distinct raw tuple (peer kinds, values,
    addresses and service); each distinct tuple is then resolved once, in
    order of first appearance, so errors name the same record as a
    per-record pass would.
    """
    endpoint_group = groups.endpoint_to_group()
    known_objects = scope.object_names
    refs: dict[tuple[str, str, str], EntityRef] = {}
    services: dict[tuple[str, int], ServiceTuple] = {}

    def ref(peer: tuple[str, str, str]) -> EntityRef:
        resolved = refs.get(peer)
        if resolved is not None:
            return resolved
        kind, value, addr = peer
        if kind == MEMBER:
            gid = endpoint_group.get(addr)
            if gid is None:
                raise DataError(
                    f"member endpoint {addr} is not in any security group; "
                    "grouping must precede rule synthesis"
                )
            resolved = EntityRef.group(gid)
        elif kind == OBJECT:
            if value not in known_objects:
                raise DataError(f"network object {value!r} not in scope")
            resolved = EntityRef.network_object(value)
        else:
            raise ValueError("records with unknown peers cannot produce rules")
        refs[peer] = resolved
        return resolved

    def service(svc: tuple[str, int]) -> ServiceTuple:
        resolved = services.get(svc)
        if resolved is None:
            resolved = services[svc] = ServiceTuple(*svc)
        return resolved

    raw = Counter(
        (
            (rec.src_class.kind, rec.src_class.value, rec.flow.src_addr),
            (rec.dst_class.kind, rec.dst_class.value, rec.flow.dst_addr),
            (rec.flow.protocol, rec.flow.dst_port),
        )
        for rec in records
    )
    counts: dict[tuple[EntityRef, EntityRef, ServiceTuple], int] = {}
    for (src, dst, svc), n in raw.items():
        key = (ref(src), ref(dst), service(svc))
        counts[key] = counts.get(key, 0) + n
    return counts


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


def _address_sets(
    refs: set[EntityRef], groups: SecurityGroups, scope: MemberScope
) -> dict[EntityRef, list[ipaddress.IPv4Network]]:
    """Each ref's addresses as networks: a group's members as /32s, an
    object's scope CIDRs in table order (none for an unknown ref)."""
    obj_nets: dict[str, list[ipaddress.IPv4Network]] = {}
    for cidr, name in scope.object_table:
        obj_nets.setdefault(name, []).append(cidr)
    return {
        ref: [
            ipaddress.IPv4Network(ipaddress.IPv4Address(ep))
            for ep in sorted(groups.groups.get(ref.group_id, ()))
        ]
        if ref.kind == GROUP
        else obj_nets.get(ref.name, [])
        for ref in refs
    }


def _contains(
    a: EntityRef, b: EntityRef, nets: dict[EntityRef, list[ipaddress.IPv4Network]]
) -> bool:
    """Whether the address set of ``a`` contains the address set of ``b``.

    Groups are disjoint, so the only group that contains group ``b`` is
    ``b``, and an empty group is contained by no ref but itself.
    """
    if b.kind == GROUP and (a.kind == GROUP or not nets[b]):
        return a == b
    return all(any(b_net.subnet_of(a_net) for a_net in nets[a]) for b_net in nets[b])


@dataclass
class HygieneReport:
    any_to_any: list[FirewallRule] = field(default_factory=list)
    duplicates: list[FirewallRule] = field(default_factory=list)
    empty_group_refs: list[FirewallRule] = field(default_factory=list)
    redundant: list[tuple[FirewallRule, FirewallRule]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (
            self.any_to_any or self.duplicates or self.empty_group_refs or self.redundant
        )

    def to_text(self) -> str:
        lines = [
            f"any_to_any: {len(self.any_to_any)}",
            f"duplicates: {len(self.duplicates)}",
            f"empty_group_refs: {len(self.empty_group_refs)}",
            f"redundant_pairs: {len(self.redundant)}",
        ]
        for rule in self.any_to_any:
            lines.append(f"  any-to-any: {format_rule(rule)}")
        for rule in self.duplicates:
            lines.append(f"  duplicate: {format_rule(rule)}")
        for rule in self.empty_group_refs:
            lines.append(f"  empty group ref: {format_rule(rule)}")
        for shadowed, covering in self.redundant:
            lines.append(
                f"  redundant: {format_rule(shadowed)} covered by {format_rule(covering)}"
            )
        return "\n".join(lines) + "\n"


def check_ruleset(
    ruleset: RuleSet, groups: SecurityGroups, scope: MemberScope
) -> HygieneReport:
    """Report-only hygiene pass over a ruleset.

    Flags rules whose two sides both resolve to the universal address set
    (the any-to-any failure mode), duplicate keys, references to groups
    with no members, and rules strictly contained by a wider rule for the
    same service (address-set containment, see ``_contains``).
    """
    report = HygieneReport()
    rules = ruleset.rules
    refs = {ref for rule in rules for ref in (rule.src, rule.dst)}
    nets = _address_sets(refs, groups, scope)

    seen_keys: set[tuple] = set()
    for rule in rules:
        if UNIVERSE in nets[rule.src] and UNIVERSE in nets[rule.dst]:
            report.any_to_any.append(rule)
        if rule.key() in seen_keys:
            report.duplicates.append(rule)
        seen_keys.add(rule.key())
        if any(ref.kind == GROUP and not nets[ref] for ref in (rule.src, rule.dst)):
            report.empty_group_refs.append(rule)

    # Rule a covers rule b when a's sides contain b's, so only the rules keyed
    # by (b's service, a container of b.src, a container of b.dst) can; b is
    # redundant unless it covers a too. Pairs sort into pairwise-scan order:
    # service by first position, then a, then b.
    containers = {x: {y for y in refs if _contains(y, x, nets)} for x in refs}
    at: dict[tuple, list[int]] = {}
    first_of_service: dict[ServiceTuple, int] = {}
    for i, rule in enumerate(rules):
        at.setdefault((rule.service, rule.src, rule.dst), []).append(i)
        first_of_service.setdefault(rule.service, i)
    found = []
    for j, b in enumerate(rules):
        for src in containers[b.src]:
            for dst in containers[b.dst]:
                for i in at.get((b.service, src, dst), ()):
                    a = rules[i]
                    if not (b.src in containers[a.src] and b.dst in containers[a.dst]):
                        found.append((first_of_service[b.service], i, j))
    report.redundant = [(rules[j], rules[i]) for _, i, j in sorted(found)]
    return report


def make_matcher(
    ruleset: RuleSet, groups: SecurityGroups, scope: MemberScope
) -> Callable[[FlowRecord], str]:
    """Precompiled matcher mapping a flow to allow or deny."""
    endpoint_group = groups.endpoint_to_group()
    allowed = {rule.key() for rule in ruleset.rules}
    cache: dict[str, EntityRef | None] = {}

    def resolve(addr: str) -> EntityRef | None:
        if addr in cache:
            return cache[addr]
        peer = classify_peer(addr, scope)
        ref: EntityRef | None
        if peer.is_member:
            gid = endpoint_group.get(addr)
            ref = EntityRef.group(gid) if gid is not None else None
        elif peer.is_object:
            ref = EntityRef.network_object(peer.value)
        else:
            ref = None
        cache[addr] = ref
        return ref

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
        return EntityRef.group(int(value))
    if kind == OBJ:
        return EntityRef.network_object(value)
    raise ValueError(f"bad entity reference {token!r}")


def load_ruleset(path) -> RuleSet:
    """Parse a ruleset CSV back into a RuleSet."""
    from pathlib import Path

    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read ruleset {path}: {exc}") from exc
    rules = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line == RULESET_HEADER:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise DataError(f"ruleset line {lineno}: expected 6 fields")
        if parts[4] != ALLOW:
            raise DataError(f"ruleset line {lineno}: action {parts[4]!r} is not {ALLOW}")
        try:
            rules.append(
                FirewallRule(
                    src=_parse_ref(parts[0]),
                    dst=_parse_ref(parts[1]),
                    service=ServiceTuple(parts[2], int(parts[3])),
                    evidence_count=int(parts[5]),
                )
            )
        except ValueError as exc:
            raise DataError(f"ruleset line {lineno}: {exc}") from exc
    try:
        return RuleSet.from_rules(rules)
    except ValueError as exc:
        raise DataError(f"ruleset {path}: {exc}") from exc
