import ipaddress

import pytest

from microseg.clustering import SecurityGroups
from microseg.flows import (
    DROP_UNKNOWN,
    MAP_TO_OBJECTS,
    ClassifiedFlow,
    DataError,
    MemberScope,
    PeerClass,
    filter_flows,
)
from microseg.rules import (
    ALLOW,
    DENY,
    EntityRef,
    FirewallRule,
    RuleSet,
    ServiceTuple,
    check_ruleset,
    extract_service_flows,
    generalize,
    load_ruleset,
    make_matcher,
    ruleset_to_csv,
)

from conftest import flow


def member_flow(src, dst, **kwargs):
    rec = flow(src, dst, **kwargs)
    return ClassifiedFlow(rec, PeerClass.member(src), PeerClass.member(dst))


def object_flow(src, dst, name, **kwargs):
    rec = flow(src, dst, **kwargs)
    return ClassifiedFlow(rec, PeerClass.member(src), PeerClass.network_object(name))


def two_groups():
    return SecurityGroups(
        groups={1: frozenset({"10.0.0.1"}), 2: frozenset({"10.0.0.2"})}
    )


def scope_with(*objects):
    return MemberScope(
        member_cidrs=(ipaddress.IPv4Network("10.0.0.0/24"),),
        object_table=tuple(
            (ipaddress.IPv4Network(cidr), name) for cidr, name in objects
        ),
    )


class TestExtractServiceFlows:
    def test_direct_substitution(self):
        tuples = extract_service_flows(
            [member_flow("10.0.0.1", "10.0.0.2")], two_groups(), scope_with()
        )
        key = (EntityRef.group(1), EntityRef.group(2), ServiceTuple("TCP", 443))
        assert tuples == {key: 1}

    def test_dedup_sums_evidence(self):
        records = [member_flow("10.0.0.1", "10.0.0.2") for _ in range(2)]
        tuples = extract_service_flows(records, two_groups(), scope_with())
        assert list(tuples.values()) == [2]

    def test_object_peer_substitution(self):
        scope = scope_with(("0.0.0.0/0", "internet"))
        records = [
            object_flow("10.0.0.1", "8.8.8.8", "internet", protocol="UDP", dst_port=53)
        ]
        tuples = extract_service_flows(records, two_groups(), scope)
        key = (
            EntityRef.group(1),
            EntityRef.network_object("internet"),
            ServiceTuple("UDP", 53),
        )
        assert tuples == {key: 1}

    def test_ungrouped_member_rejected(self):
        with pytest.raises(DataError, match="10.0.0.9"):
            extract_service_flows(
                [member_flow("10.0.0.9", "10.0.0.2")], two_groups(), scope_with()
            )

    def test_undeclared_object_rejected(self):
        records = [object_flow("10.0.0.1", "8.8.8.8", "mystery")]
        with pytest.raises(DataError, match="mystery"):
            extract_service_flows(records, two_groups(), scope_with())


class TestGeneralize:
    def test_dedup(self):
        records = [
            member_flow("10.0.0.1", "10.0.0.2"),
            member_flow("10.0.0.1", "10.0.0.2"),
            member_flow("10.0.0.2", "10.0.0.1"),
        ]
        ruleset = generalize(
            extract_service_flows(records, two_groups(), scope_with())
        )
        assert len(ruleset.rules) == 2

    def test_empty(self):
        ruleset = generalize({})
        assert ruleset.rules == ()

    def test_all_pairs_of_two_groups(self):
        records = [
            member_flow(src, dst)
            for src in ("10.0.0.1", "10.0.0.2")
            for dst in ("10.0.0.1", "10.0.0.2")
        ]
        ruleset = generalize(
            extract_service_flows(records, two_groups(), scope_with())
        )
        assert len(ruleset.rules) == 4

    def test_canonical_order_and_determinism(self):
        records = [
            member_flow("10.0.0.2", "10.0.0.1", dst_port=22),
            member_flow("10.0.0.1", "10.0.0.2", dst_port=443),
            member_flow("10.0.0.1", "10.0.0.2", dst_port=80),
        ]
        tuples = extract_service_flows(records, two_groups(), scope_with())
        csv1 = ruleset_to_csv(generalize(tuples))
        csv2 = ruleset_to_csv(generalize(dict(reversed(list(tuples.items())))))
        assert csv1 == csv2
        ports = [line.split(",")[3] for line in csv1.strip().split("\n")[1:]]
        assert ports == ["80", "443", "22"]  # src group 1 rules first


class TestCheckRuleset:
    def test_any_to_any_flagged(self):
        scope = scope_with(("0.0.0.0/0", "internet"))
        rule = FirewallRule(
            src=EntityRef.network_object("internet"),
            dst=EntityRef.network_object("internet"),
            service=ServiceTuple("TCP", 80),
            evidence_count=1,
        )
        report = check_ruleset(RuleSet.from_rules([rule]), two_groups(), scope)
        assert report.any_to_any == [rule]

    def test_clean_group_ruleset(self):
        records = [member_flow("10.0.0.1", "10.0.0.2")]
        ruleset = generalize(
            extract_service_flows(records, two_groups(), scope_with())
        )
        report = check_ruleset(ruleset, two_groups(), scope_with())
        assert report.clean

    def test_cidr_containment_redundancy(self):
        scope = scope_with(("10.1.0.0/16", "narrow"), ("10.0.0.0/8", "wide"))
        wide = FirewallRule(
            src=EntityRef.group(1),
            dst=EntityRef.network_object("wide"),
            service=ServiceTuple("TCP", 22),
            evidence_count=1,
        )
        narrow = FirewallRule(
            src=EntityRef.group(1),
            dst=EntityRef.network_object("narrow"),
            service=ServiceTuple("TCP", 22),
            evidence_count=1,
        )
        report = check_ruleset(
            RuleSet.from_rules([wide, narrow]), two_groups(), scope
        )
        assert report.redundant == [(narrow, wide)]

    def test_empty_group_reference_flagged(self):
        rule = FirewallRule(
            src=EntityRef.group(1),
            dst=EntityRef.group(99),
            service=ServiceTuple("TCP", 443),
            evidence_count=1,
        )
        report = check_ruleset(RuleSet.from_rules([rule]), two_groups(), scope_with())
        assert report.empty_group_refs == [rule]

    def test_report_text_shape(self):
        report = check_ruleset(RuleSet.from_rules([]), two_groups(), scope_with())
        text = report.to_text()
        assert "any_to_any: 0" in text and "redundant_pairs: 0" in text


class TestMatch:
    def _setup(self):
        scope = scope_with(("0.0.0.0/0", "internet"))
        records = [member_flow("10.0.0.1", "10.0.0.2")]
        ruleset = generalize(extract_service_flows(records, two_groups(), scope))
        return ruleset, two_groups(), scope

    def test_existing_rule_allows(self):
        ruleset, groups, scope = self._setup()
        matcher = make_matcher(ruleset, groups, scope)
        assert matcher(flow("10.0.0.1", "10.0.0.2")) == ALLOW

    def test_default_deny_between_grouped_members(self):
        ruleset, groups, scope = self._setup()
        matcher = make_matcher(ruleset, groups, scope)
        assert matcher(flow("10.0.0.2", "10.0.0.1")) == DENY

    def test_unknown_peer_denied(self):
        scope = scope_with()  # no objects: externals are unknown
        records = [member_flow("10.0.0.1", "10.0.0.2")]
        ruleset = generalize(extract_service_flows(records, two_groups(), scope))
        matcher = make_matcher(ruleset, two_groups(), scope)
        assert matcher(flow("10.0.0.1", "8.8.8.8")) == DENY

    def test_service_must_match(self):
        ruleset, groups, scope = self._setup()
        matcher = make_matcher(ruleset, groups, scope)
        assert matcher(flow("10.0.0.1", "10.0.0.2", dst_port=80)) == DENY


class TestRuleSetInvariants:
    def test_duplicate_keys_rejected(self):
        rule = FirewallRule(
            src=EntityRef.group(1),
            dst=EntityRef.group(2),
            service=ServiceTuple("TCP", 443),
            evidence_count=1,
        )
        with pytest.raises(ValueError, match="duplicate"):
            RuleSet.from_rules([rule, rule])

    def test_evidence_count_positive(self):
        with pytest.raises(ValueError):
            FirewallRule(
                src=EntityRef.group(1),
                dst=EntityRef.group(2),
                service=ServiceTuple("TCP", 443),
                evidence_count=0,
            )

    def test_service_tuple_portless_iff_zero(self):
        with pytest.raises(ValueError):
            ServiceTuple("ICMP", 8)
        with pytest.raises(ValueError):
            ServiceTuple("TCP", 0)
        assert ServiceTuple("ICMP", 0).dst_port == 0

    def test_completeness_over_synthesis_records(self):
        scope = scope_with(("0.0.0.0/0", "internet"))
        raw = [
            flow("10.0.0.1", "10.0.0.2", dst_port=443),
            flow("10.0.0.2", "10.0.0.1", dst_port=22),
            flow("10.0.0.1", "8.8.8.8", protocol="UDP", dst_port=53),
        ]
        kept, _ = filter_flows(raw, scope, MAP_TO_OBJECTS)
        groups = two_groups()
        ruleset = generalize(extract_service_flows(kept, groups, scope))
        matcher = make_matcher(ruleset, groups, scope)
        assert all(matcher(c.flow) == ALLOW for c in kept)
        report = check_ruleset(ruleset, groups, scope)
        assert not report.any_to_any and not report.duplicates


class TestRulesetCsv:
    def test_round_trip(self, tmp_path):
        scope = scope_with(("0.0.0.0/0", "internet"))
        records = [
            member_flow("10.0.0.1", "10.0.0.2"),
            object_flow("10.0.0.2", "9.9.9.9", "internet", protocol="UDP", dst_port=53),
        ]
        ruleset = generalize(extract_service_flows(records, two_groups(), scope))
        path = tmp_path / "rules.csv"
        path.write_text(ruleset_to_csv(ruleset))
        loaded = load_ruleset(path)
        assert loaded == ruleset

    def test_form_feed_does_not_split_a_line(self, tmp_path):
        records = [member_flow("10.0.0.1", "10.0.0.2")]
        t = extract_service_flows(records, two_groups(), scope_with())
        header, rule = ruleset_to_csv(generalize(t)).strip().split("\n")
        path = tmp_path / "rules.csv"
        path.write_text(f"{header}\n{rule}\x0c{rule}\n")
        with pytest.raises(DataError, match="line 2: expected 6 fields"):
            load_ruleset(path)

    def test_byte_identical_export(self):
        records = [member_flow("10.0.0.1", "10.0.0.2")]
        t = extract_service_flows(records, two_groups(), scope_with())
        assert ruleset_to_csv(generalize(t)) == ruleset_to_csv(generalize(t))
