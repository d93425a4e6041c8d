import ipaddress

import pytest

from microseg.flows import (
    COLUMNS,
    DROP_UNKNOWN,
    MAP_TO_OBJECTS,
    DataError,
    FlowRecord,
    MemberScope,
    classify_peer,
    filter_flows,
    load_scope,
    parse_flow_log,
    scope_to_text,
)

from conftest import flow, line


def parsed(*lines):
    """The table of log lines that all parse."""
    table, malformed = parse_flow_log("\n".join(lines))
    assert malformed == 0
    return table


class TestParseFlowLog:
    def test_single_line(self):
        records, malformed = parse_flow_log("1700000000,10.0.0.1,10.0.0.2,TCP,443,12,9000")
        assert malformed == 0
        assert len(records) == 1
        assert list(records) == [
            FlowRecord(
                timestamp=1700000000,
                src_addr="10.0.0.1",
                dst_addr="10.0.0.2",
                protocol="TCP",
                dst_port=443,
                packet_count=12,
                byte_count=9000,
            )
        ]

    def test_columns_own_their_data(self):
        # A view into the parse's row buffer would keep all seven int64 rows
        # alive for as long as the table.
        records, _ = parse_flow_log(
            "10,10.0.0.1,10.0.0.2,TCP,443,1,80\n11,10.0.0.2,10.0.0.1,UDP,53,2,90\n"
        )
        for name in COLUMNS:
            assert getattr(records, name).base is None, name

    def test_portless_protocol(self):
        [record] = parsed("5,10.0.0.1,10.0.0.2,ICMP,0,3,240")
        assert record.protocol == "ICMP"
        assert record.dst_port == 0

    def test_empty_input(self):
        records, malformed = parse_flow_log("")
        assert len(records) == 0 and list(records) == []
        assert malformed == 0

    def test_header_detected_and_skipped(self):
        text = "timestamp,src_addr,dst_addr,protocol,dst_port,packets,bytes\n" \
               "10,10.0.0.1,10.0.0.2,udp,53,1,80\n"
        records, malformed = parse_flow_log(text)
        assert len(records) == 1
        assert malformed == 0
        assert records.protocols == ("UDP",)  # protocol tokens case-insensitive

    def test_malformed_lines_counted_not_fatal(self):
        text = "10,10.0.0.1,10.0.0.2,TCP,443,1,80\n" \
               "garbage line\n" \
               "11,10.0.0.1,10.0.0.2,TCP,443,1,80\n"
        records, malformed = parse_flow_log(text)
        assert len(records) == 2
        assert malformed == 1

    def test_strict_mode_fails_fast(self):
        text = "10,10.0.0.1,10.0.0.2,TCP,443,1,80\nnot,a,flow\n"
        with pytest.raises(DataError, match="line 2"):
            parse_flow_log(text, strict=True)

    def test_mostly_malformed_is_fatal(self):
        text = "1,bad\n2,bad\n3,bad\n10,10.0.0.1,10.0.0.2,TCP,443,1,80\n"
        with pytest.raises(DataError, match="corrupt"):
            parse_flow_log(text)

    def test_portless_with_port_is_malformed(self):
        records, malformed = parse_flow_log(
            "10,10.0.0.1,10.0.0.2,ICMP,8,1,80\n10,10.0.0.1,10.0.0.2,TCP,22,1,80\n"
        )
        assert malformed == 1
        assert len(records) == 1

    def test_zero_packets_is_malformed(self):
        _, malformed = parse_flow_log(
            "10,10.0.0.1,10.0.0.2,TCP,443,0,80\n10,10.0.0.1,10.0.0.2,TCP,443,1,80\n"
        )
        assert malformed == 1

    @pytest.mark.parametrize(
        "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_newline_ends_a_line(self, sep):
        # str.splitlines() would also break at sep, making line 2 two
        # malformed lines: 3 of 5 malformed aborts the parse.
        text = (
            "10,10.0.0.1,10.0.0.2,TCP,443,1,80\n"
            f"11,10.0.0.1,{sep}10.0.0.2,TCP,443,1,80\n"
            "12,10.0.0.1,10.0.0.2,TCP,443,1,80\n"
            "13,10.0.0.1,10.0.0.300,TCP,443,1,80\n"
        )
        records, malformed = parse_flow_log(text)
        assert records.timestamp.tolist() == [10, 11, 12]
        assert malformed == 1
        with pytest.raises(DataError, match="^line 4: "):
            parse_flow_log(text, strict=True)


class TestFlowRecordInvariants:
    def test_port_out_of_range(self):
        with pytest.raises(ValueError):
            flow("10.0.0.1", "10.0.0.2", dst_port=70000)

    def test_negative_bytes(self):
        with pytest.raises(ValueError):
            flow("10.0.0.1", "10.0.0.2", nbytes=-1)

    @pytest.mark.parametrize("field", ["timestamp", "packets", "nbytes"])
    def test_int64_overflow_rejected_by_record_and_parse(self, field):
        # One rule for both: a count an int64 column cannot hold.
        with pytest.raises(ValueError, match="exceeds int64"):
            flow("10.0.0.1", "10.0.0.2", **{field: 2**63})
        text = line("10.0.0.1", "10.0.0.2", **{field: 2**63})
        with pytest.raises(DataError, match=f"^line 1: {2**63} exceeds int64$"):
            parse_flow_log(text, strict=True)
        table, _ = parse_flow_log(text + "\n" + line("10.0.0.1", "10.0.0.2", **{field: 2**63 - 1}))
        assert len(table) == 1


class TestClassifyPeer:
    def test_member(self, scope_10_24):
        pc = classify_peer("10.0.0.5", scope_10_24)
        assert pc.is_member and pc.value == "10.0.0.5"

    def test_catch_all_object(self, scope_10_24):
        pc = classify_peer("8.8.8.8", scope_10_24)
        assert pc.is_object and pc.value == "internet"

    def test_unknown_when_nothing_matches(self):
        scope = MemberScope(member_cidrs=(ipaddress.IPv4Network("10.0.0.0/24"),))
        assert classify_peer("192.168.1.1", scope).kind == "unknown"

    def test_member_beats_object_table(self):
        scope = MemberScope(
            member_cidrs=(ipaddress.IPv4Network("10.0.0.0/24"),),
            object_table=((ipaddress.IPv4Network("0.0.0.0/0"), "internet"),),
        )
        assert classify_peer("10.0.0.7", scope).is_member

    def test_first_object_match_wins(self):
        scope = MemberScope(
            member_cidrs=(ipaddress.IPv4Network("10.0.0.0/24"),),
            object_table=(
                (ipaddress.IPv4Network("198.51.100.0/24"), "partner"),
                (ipaddress.IPv4Network("0.0.0.0/0"), "internet"),
            ),
        )
        assert classify_peer("198.51.100.9", scope).value == "partner"
        assert classify_peer("203.0.113.1", scope).value == "internet"


class TestMemberScope:
    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            MemberScope(member_cidrs=())

    def test_shadowing_object_table_rejected(self):
        with pytest.raises(ValueError, match="shadows"):
            MemberScope(
                member_cidrs=(ipaddress.IPv4Network("10.0.0.0/24"),),
                object_table=(
                    (ipaddress.IPv4Network("0.0.0.0/0"), "internet"),
                    (ipaddress.IPv4Network("198.51.100.0/24"), "partner"),
                ),
            )

    def test_equal_later_entry_rejected(self):
        # "b" could never match: the first entry wins every address.
        with pytest.raises(ValueError, match="shadows"):
            MemberScope(
                member_cidrs=(ipaddress.IPv4Network("10.0.0.0/24"),),
                object_table=(
                    (ipaddress.IPv4Network("198.51.100.0/24"), "a"),
                    (ipaddress.IPv4Network("198.51.100.0/24"), "b"),
                ),
            )

    def test_narrow_before_wide_is_valid(self):
        scope = MemberScope(
            member_cidrs=(ipaddress.IPv4Network("10.0.0.0/24"),),
            object_table=(
                (ipaddress.IPv4Network("198.51.100.0/24"), "partner"),
                (ipaddress.IPv4Network("0.0.0.0/0"), "internet"),
            ),
        )
        assert {name for _, name in scope.object_table} == {"partner", "internet"}


class TestFilterFlows:
    def test_drop_unknown_policy(self, scope_10_24):
        scope = MemberScope(member_cidrs=(ipaddress.IPv4Network("10.0.0.0/24"),))
        records = parsed(line("10.0.0.1", "10.0.0.2"), line("10.0.0.1", "192.168.1.1"))
        kept, report = filter_flows(records, scope, DROP_UNKNOWN)
        assert [c.flow for c in kept] == list(records)[:1]
        assert report.records_dropped_unknown == 1
        assert report.records_read == 2

    def test_map_to_objects_policy(self, scope_10_24):
        records = parsed(line("10.0.0.1", "8.8.8.8", protocol="UDP", dst_port=53))
        kept, report = filter_flows(records, scope_10_24, MAP_TO_OBJECTS)
        [rec] = kept
        assert rec.dst_class.is_object and rec.dst_class.value == "internet"
        assert report.records_mapped_to_objects == 1

    def test_neither_side_member_always_dropped(self):
        scope = MemberScope(member_cidrs=(ipaddress.IPv4Network("10.0.0.0/24"),))
        records = parsed(line("192.168.1.1", "192.168.1.2"))
        for policy in (DROP_UNKNOWN, MAP_TO_OBJECTS):
            kept, report = filter_flows(records, scope, policy)
            assert len(kept) == 0
            assert report.records_dropped_unknown == 1

    def test_map_to_objects_drops_unknown_side(self):
        scope = MemberScope(member_cidrs=(ipaddress.IPv4Network("10.0.0.0/24"),))
        kept, report = filter_flows(
            parsed(line("10.0.0.1", "192.168.1.1")), scope, MAP_TO_OBJECTS
        )
        assert len(kept) == 0
        assert report.records_dropped_unknown == 1

    def test_counters_balance(self, scope_10_24):
        records = parsed(
            line("10.0.0.1", "10.0.0.2"),
            line("10.0.0.1", "8.8.8.8"),
            line("192.168.1.1", "192.168.1.2"),
        )
        for policy in (DROP_UNKNOWN, MAP_TO_OBJECTS):
            _, report = filter_flows(records, scope_10_24, policy)
            assert report.records_read == report.records_kept + report.records_dropped_unknown

    def test_idempotent_on_kept_set(self, scope_10_24):
        records = parsed(
            line("10.0.0.1", "10.0.0.2"),
            line("10.0.0.3", "8.8.8.8"),
            line("192.168.1.1", "192.168.1.2"),
        )
        kept1, _ = filter_flows(records, scope_10_24, MAP_TO_OBJECTS)
        kept2, report2 = filter_flows(kept1, scope_10_24, MAP_TO_OBJECTS)
        assert list(kept1) == list(kept2)
        assert report2.records_dropped_unknown == 0

    def test_records_never_altered(self, scope_10_24):
        records = parsed(line("10.0.0.1", "8.8.8.8", timestamp=7, packets=3, nbytes=90))
        kept, _ = filter_flows(records, scope_10_24, MAP_TO_OBJECTS)
        assert [c.flow for c in kept] == list(records)

    def test_distinct_endpoints_counts_members_only(self, scope_10_24):
        records = parsed(line("10.0.0.1", "10.0.0.2"), line("10.0.0.2", "8.8.8.8"))
        _, report = filter_flows(records, scope_10_24, MAP_TO_OBJECTS)
        assert report.distinct_endpoints == 2

    def test_bad_policy_rejected(self, scope_10_24):
        with pytest.raises(ValueError, match="policy"):
            filter_flows(parsed(), scope_10_24, "keep_everything")


class TestScopeFile:
    def test_round_trip(self, scope_10_24):
        text = scope_to_text(scope_10_24)
        loaded = load_scope(text)
        assert loaded == scope_10_24

    def test_comments_and_blanks(self):
        text = "# comment\n\nmember 10.0.0.0/24  # trailing\nobject 0.0.0.0/0 internet\n"
        scope = load_scope(text)
        assert len(scope.member_cidrs) == 1
        assert {name for _, name in scope.object_table} == {"internet"}

    def test_bad_line_reports_number(self):
        with pytest.raises(DataError, match="line 2"):
            load_scope("member 10.0.0.0/24\nobject nonsense\n")

    def test_bad_cidr(self):
        with pytest.raises(DataError):
            load_scope("member 10.0.0.0/99\n")
