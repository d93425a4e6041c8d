import ipaddress
import re

import pytest

from microseg.core import DataError, MemberScope, SecurityGroups
from microseg.rules import (
    ALLOW,
    DENY,
    RULESET_HEADER,
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

from conftest import flow, kept_table, line


def extract(lines, groups, scope):
    """``extract_service_flows`` over the table ``filter_flows`` keeps."""
    return extract_service_flows(kept_table(lines, scope), groups, scope)


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
        tuples = extract(
            [line("10.0.0.1", "10.0.0.2")], two_groups(), scope_with()
        )
        key = (EntityRef.group(1), EntityRef.group(2), ServiceTuple("TCP", 443))
        assert tuples == {key: 1}

    def test_dedup_sums_evidence(self):
        records = [line("10.0.0.1", "10.0.0.2") for _ in range(2)]
        tuples = extract(records, two_groups(), scope_with())
        assert list(tuples.values()) == [2]

    def test_object_peer_substitution(self):
        scope = scope_with(("0.0.0.0/0", "internet"))
        records = [
            line("10.0.0.1", "8.8.8.8", protocol="UDP", dst_port=53)
        ]
        tuples = extract(records, two_groups(), scope)
        key = (
            EntityRef.group(1),
            EntityRef.network_object("internet"),
            ServiceTuple("UDP", 53),
        )
        assert tuples == {key: 1}

    def test_ungrouped_member_rejected(self):
        with pytest.raises(ValueError, match="10.0.0.9"):
            extract(
                [line("10.0.0.9", "10.0.0.2")], two_groups(), scope_with()
            )

    def test_undeclared_object_rejected(self):
        # Filtered under a scope that declares "mystery", extracted under
        # one that does not.
        kept = kept_table([line("10.0.0.1", "8.8.8.8")], scope_with(("0.0.0.0/0", "mystery")))
        with pytest.raises(ValueError, match="address 8.8.8.8 "):
            extract_service_flows(kept, two_groups(), scope_with())


class TestGeneralize:
    def test_dedup(self):
        records = [
            line("10.0.0.1", "10.0.0.2"),
            line("10.0.0.1", "10.0.0.2"),
            line("10.0.0.2", "10.0.0.1"),
        ]
        ruleset = generalize(
            extract(records, two_groups(), scope_with())
        )
        assert len(ruleset.rules) == 2

    def test_empty(self):
        ruleset = generalize({})
        assert ruleset.rules == ()

    def test_all_pairs_of_two_groups(self):
        records = [
            line(src, dst)
            for src in ("10.0.0.1", "10.0.0.2")
            for dst in ("10.0.0.1", "10.0.0.2")
        ]
        ruleset = generalize(
            extract(records, two_groups(), scope_with())
        )
        assert len(ruleset.rules) == 4

    def test_canonical_order_and_determinism(self):
        records = [
            line("10.0.0.2", "10.0.0.1", dst_port=22),
            line("10.0.0.1", "10.0.0.2", dst_port=443),
            line("10.0.0.1", "10.0.0.2", dst_port=80),
        ]
        tuples = extract(records, two_groups(), scope_with())
        csv1 = ruleset_to_csv(generalize(tuples))
        csv2 = ruleset_to_csv(generalize(dict(reversed(list(tuples.items())))))
        assert csv1 == csv2
        ports = [line.split(",")[3] for line in csv1.strip().split("\n")[1:]]
        assert ports == ["80", "443", "22"]  # src group 1 rules first


def rule(src, dst, port=443):
    return FirewallRule(src, dst, ServiceTuple("TCP", port), evidence_count=1)


def verdict(ruleset, scope, src, dst, port=443):
    return make_matcher(ruleset, two_groups(), scope)(flow(src, dst, dst_port=port))


class TestCheckRuleset:
    """The shim bench/trace.py calls: its report is empty by construction."""

    def test_clean_group_ruleset(self):
        records = [line("10.0.0.1", "10.0.0.2")]
        ruleset = generalize(
            extract(records, two_groups(), scope_with())
        )
        report = check_ruleset(ruleset, two_groups(), scope_with())
        assert report.any_to_any == report.duplicates == report.redundant == []

    def test_report_text_shape(self):
        report = check_ruleset(RuleSet.from_rules([]), two_groups(), scope_with())
        assert report.to_text() == "any_to_any: 0\nduplicates: 0\nredundant: 0\n"


class TestMatch:
    def _setup(self):
        scope = scope_with(("0.0.0.0/0", "internet"))
        records = [line("10.0.0.1", "10.0.0.2")]
        ruleset = generalize(extract(records, two_groups(), scope))
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
        records = [line("10.0.0.1", "10.0.0.2")]
        ruleset = generalize(extract(records, two_groups(), scope))
        matcher = make_matcher(ruleset, two_groups(), scope)
        assert matcher(flow("10.0.0.1", "8.8.8.8")) == DENY

    def test_service_must_match(self):
        ruleset, groups, scope = self._setup()
        matcher = make_matcher(ruleset, groups, scope)
        assert matcher(flow("10.0.0.1", "10.0.0.2", dst_port=80)) == DENY

    # First-match resolution gives every address one ref, so a rule for one
    # ref never covers another's addresses, however their CIDRs nest.
    def test_cidr_containment_is_no_cover(self):
        # 10.1/16 goes to "narrow", the rest of 10/8 outside the member
        # range to "wide".
        scope = scope_with(("10.1.0.0/16", "narrow"), ("10.0.0.0/8", "wide"))
        wide = rule(EntityRef.group(1), EntityRef.network_object("wide"), port=22)
        assert verdict(RuleSet.from_rules([wide]), scope, "10.0.0.1", "10.1.0.5", 22) == DENY

    def test_object_covering_member_range_is_no_cover(self):
        scope = scope_with(("10.0.0.0/8", "corp"))
        corp_rule = rule(EntityRef.network_object("corp"), EntityRef.group(1))
        assert verdict(RuleSet.from_rules([corp_rule]), scope, "10.0.0.2", "10.0.0.1") == DENY

    def test_narrow_object_listed_first_is_no_cover(self):
        scope = scope_with(("198.51.100.5/32", "b"), ("198.51.100.0/24", "a"))
        a_rule = rule(EntityRef.network_object("a"), EntityRef.group(1))
        assert verdict(RuleSet.from_rules([a_rule]), scope, "198.51.100.5", "10.0.0.1") == DENY


class TestRuleSetInvariants:
    def test_duplicate_keys_rejected(self):
        rule = FirewallRule(
            src=EntityRef.group(1),
            dst=EntityRef.group(2),
            service=ServiceTuple("TCP", 443),
            evidence_count=1,
        )
        message = "^rule group:1,group:2,TCP,443,allow,1 repeats the key of the rule before it$"
        with pytest.raises(ValueError, match=message):
            RuleSet.from_rules([rule, rule])

    def test_duplicate_keys_rejected_without_from_rules(self):
        # The check is the RuleSet's own, so no constructor skips it; the
        # evidence count is not part of the key.
        first = rule(EntityRef.group(1), EntityRef.group(2))
        again = FirewallRule(first.src, first.dst, first.service, evidence_count=2)
        message = "^rule group:1,group:2,TCP,443,allow,2 repeats the key of the rule before it$"
        with pytest.raises(ValueError, match=message):
            RuleSet(rules=(first, again))

    def test_unsorted_rules_rejected_without_from_rules(self):
        # Only from_rules sorts; the RuleSet itself holds canonical order.
        low = rule(EntityRef.group(1), EntityRef.group(2))
        high = rule(EntityRef.group(2), EntityRef.group(1))
        assert RuleSet.from_rules([high, low]) == RuleSet(rules=(low, high))
        message = "^rule group:1,group:2,TCP,443,allow,1 sorts before the rule before it$"
        with pytest.raises(ValueError, match=message):
            RuleSet(rules=(high, low))

    def test_rule_of_two_objects_rejected(self):
        a, b = EntityRef.network_object("a"), EntityRef.network_object("b")
        message = "^rule object:a -> object:b names no security group$"
        with pytest.raises(ValueError, match=message):
            rule(a, b)
        # One group side is enough, either way round.
        rule(a, EntityRef.group(1))
        rule(EntityRef.group(1), b)

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
        kept = kept_table(
            [
                line("10.0.0.1", "10.0.0.2", dst_port=443),
                line("10.0.0.2", "10.0.0.1", dst_port=22),
                line("10.0.0.1", "8.8.8.8", protocol="UDP", dst_port=53),
            ],
            scope,
        )
        groups = two_groups()
        ruleset = generalize(extract_service_flows(kept, groups, scope))
        matcher = make_matcher(ruleset, groups, scope)
        assert all(matcher(c.flow) == ALLOW for c in kept)
        report = check_ruleset(ruleset, groups, scope)
        assert not report.any_to_any and not report.duplicates


RULE = "group:1,group:2,TCP,443,allow,3"


class TestRulesetCsv:
    def test_round_trip(self, tmp_path):
        scope = scope_with(("0.0.0.0/0", "internet"))
        records = [
            line("10.0.0.1", "10.0.0.2"),
            line("10.0.0.2", "9.9.9.9", protocol="UDP", dst_port=53),
        ]
        ruleset = generalize(extract(records, two_groups(), scope))
        path = tmp_path / "rules.csv"
        path.write_text(ruleset_to_csv(ruleset))
        loaded = load_ruleset(path)
        assert loaded == ruleset

    def test_form_feed_does_not_split_a_line(self, tmp_path):
        records = [line("10.0.0.1", "10.0.0.2")]
        t = extract(records, two_groups(), scope_with())
        header, rule = ruleset_to_csv(generalize(t)).strip().split("\n")
        path = tmp_path / "rules.csv"
        path.write_text(f"{header}\n{rule}\x0c{rule}\n")
        with pytest.raises(DataError, match="line 2: expected 6 fields"):
            load_ruleset(path)

    @pytest.mark.parametrize(
        "field, cell",
        [
            (0, "group:+5"),
            (0, "group:1_0"),
            (1, "group:-1"),
            (1, "group: 7"),
            (0, "group:\u0663"),  # ARABIC-INDIC DIGIT THREE
            (0, "group:01"),
            (3, "+443"),
            (3, "0443"),
            (3, "4_43"),
            (5, " 3"),
            (5, "+3"),
            (5, "\u0663"),
        ],
    )
    def test_integer_cells_in_written_form_only(self, tmp_path, field, cell):
        # Each integer cell is a canonical decimal, as ruleset_to_csv writes
        # it and as load_groups requires of a group id.
        fields = RULE.split(",")
        path = tmp_path / "rules.csv"
        path.write_text(f"{RULESET_HEADER}\n" + ",".join(fields) + "\n")
        assert len(load_ruleset(path).rules) == 1
        fields[field] = cell
        path.write_text(f"{RULESET_HEADER}\n" + ",".join(fields) + "\n")
        message = f"ruleset {re.escape(str(path))} line 2: .*not a canonical decimal"
        with pytest.raises(DataError, match=message):
            load_ruleset(path)

    @pytest.mark.parametrize(
        "lines, message",
        [
            ([RULESET_HEADER, f"  {RULE}  ", ""], " line 2: bad entity reference '  group:1'"),
            ([RULESET_HEADER, f"{RULE}\r", ""],
             " line 2: '3\\r' is not a canonical decimal integer"),
            ([RULESET_HEADER, RULE.replace("TCP", "tcp"), ""],
             f" line 2: not the written form '{RULE}'"),
            ([RULESET_HEADER, RULE.replace("allow", "deny"), ""],
             f" line 2: not the written form '{RULE}'"),
            ([RULE, ""], f" line 1: expected the header '{RULESET_HEADER}'"),
            ([RULESET_HEADER, "", RULE, ""], " line 2: expected 6 fields"),
            ([RULESET_HEADER, RULE, RULESET_HEADER, ""], " line 3: bad entity reference 'src_ref'"),
            ([RULESET_HEADER, RULE], " line 2: no line end"),
            ([RULESET_HEADER, RULE, "object:a,object:b,UDP,53,allow,1", ""],
             " line 3: rule object:a -> object:b names no security group"),
            ([RULESET_HEADER, "group:2,group:1,TCP,443,allow,3", RULE, ""],
             f": rule {RULE} sorts before the rule before it"),
            ([RULESET_HEADER, RULE, RULE.replace(",3", ",4"), ""],
             ": rule group:1,group:2,TCP,443,allow,4 repeats the key of the rule before it"),
        ],
        ids=["padded", "crlf", "lower-case-protocol", "deny-action", "no-header", "blank-line",
             "repeated-header", "no-final-line-end", "no-group-side", "out-of-order",
             "repeated-key"],
    )
    def test_unwritten_forms_refused(self, tmp_path, lines, message):
        # ruleset_to_csv writes none of these forms, so none loads; what it
        # writes loads and writes back byte for byte. A fault in one line
        # names its number; a fault in the order names the later line by its
        # text.
        path = tmp_path / "rules.csv"
        path.write_text(f"{RULESET_HEADER}\n{RULE}\n")
        assert ruleset_to_csv(load_ruleset(path)) == path.read_text()
        path.write_text("\n".join(lines))
        with pytest.raises(DataError, match=f"^{re.escape(f'ruleset {path}{message}')}$"):
            load_ruleset(path)

    def test_byte_identical_export(self):
        records = [line("10.0.0.1", "10.0.0.2")]
        t = extract(records, two_groups(), scope_with())
        assert ruleset_to_csv(generalize(t)) == ruleset_to_csv(generalize(t))
