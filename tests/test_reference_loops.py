"""The memoized parse, rule extraction and row encoding against the plain
per-line, per-record and per-flow loops in ``oracles``, by exact equality."""

import numpy as np
import pytest

from microseg.clustering import SecurityGroups
from microseg.features import build_schema, encode, encode_windows, windowize
from microseg.flows import MAP_TO_OBJECTS, DataError, filter_flows, parse_flow_log
from microseg.rules import extract_service_flows
from microseg.synth import generate, random_scenario

from oracles import (
    reference_encode,
    reference_extract_service_flows,
    reference_parse_flow_log,
)

BAD_ADDRESS = "3600,10.0.0.300,10.0.0.1,TCP,443,1,100"


@pytest.fixture(scope="module")
def scenario():
    spec = random_scenario(
        6, 3, 4, 20,
        services_per_group=4,
        port_pool=32,
        external_fraction=0.3,
        object_count=4,
        noise_rate=0.05,
        seed=11,
    )
    return generate(spec)


@pytest.fixture(scope="module")
def kept(scenario):
    records, _ = parse_flow_log(scenario.log_text)
    flows, _ = filter_flows(records, scenario.scope, MAP_TO_OBJECTS)
    return flows


def truth_groups(scenario):
    groups: dict[int, set[str]] = {}
    for endpoint, gid in scenario.truth.items():
        groups.setdefault(gid, set()).add(endpoint)
    return SecurityGroups(
        groups={gid: frozenset(members) for gid, members in groups.items()},
        suggested_qty=len(groups),
    )


class TestParse:
    def test_scenario_matches_reference(self, scenario):
        lines = list(scenario.log_lines)
        # Malformed lines among valid ones, including a repeated bad address.
        lines[5:5] = [BAD_ADDRESS]
        lines[10:10] = [BAD_ADDRESS, "1,2,3"]
        text = "\n".join(lines) + "\n"
        assert parse_flow_log(text) == reference_parse_flow_log(text)

    def test_repeated_invalid_address_counts_every_line(self):
        good = "0,10.0.0.1,10.0.0.2,TCP,443,1,100"
        text = "\n".join([good, BAD_ADDRESS, good, BAD_ADDRESS, good, good]) + "\n"
        records, malformed = parse_flow_log(text)
        assert malformed == 2
        assert (records, malformed) == reference_parse_flow_log(text)

    def test_strict_names_first_invalid_line(self):
        good = "0,10.0.0.1,10.0.0.2,TCP,443,1,100"
        text = "\n".join([good, BAD_ADDRESS, good, BAD_ADDRESS]) + "\n"
        with pytest.raises(DataError, match="^line 2: ") as got:
            parse_flow_log(text, strict=True)
        with pytest.raises(DataError) as want:
            reference_parse_flow_log(text, strict=True)
        assert str(got.value) == str(want.value)

    def test_padded_address_equals_bare(self):
        padded, _ = parse_flow_log("0, 10.0.0.1 ,10.0.0.2,TCP,443,1,100\n")
        bare, _ = parse_flow_log("0,10.0.0.1,10.0.0.2,TCP,443,1,100\n")
        assert padded == bare
        assert padded[0].src_addr == "10.0.0.1"


class TestExtract:
    def test_scenario_matches_reference(self, scenario, kept):
        groups = truth_groups(scenario)
        got = extract_service_flows(kept, groups, scenario.scope)
        want = reference_extract_service_flows(kept, groups, scenario.scope)
        assert list(got.items()) == list(want.items())

    def test_ungrouped_member_on_several_records_raises(self, scenario, kept):
        groups = truth_groups(scenario)
        missing = kept[len(kept) // 2].flow.src_addr
        assert sum(rec.flow.src_addr == missing for rec in kept) > 1
        partial = SecurityGroups(
            groups={gid: members - {missing} for gid, members in groups.groups.items()},
            suggested_qty=groups.suggested_qty,
        )
        with pytest.raises(DataError, match=f"member endpoint {missing} ") as got:
            extract_service_flows(kept, partial, scenario.scope)
        with pytest.raises(DataError) as want:
            reference_extract_service_flows(kept, partial, scenario.scope)
        assert str(got.value) == str(want.value)


class TestEncode:
    def test_every_row_matches_reference(self, kept):
        schema = build_schema(kept, top_k_ports=8)
        buckets = windowize(kept, 3600)
        assert any(
            rec.src_class.is_object or rec.dst_class.is_object
            for bucket in buckets.values()
            for _, rec in bucket
        )
        for bucket in buckets.values():
            assert np.array_equal(encode(bucket, schema), reference_encode(bucket, schema))

    def test_encode_windows_matches_reference(self, kept):
        matrix, schema = encode_windows(kept, 3600, 8)
        buckets = windowize(kept, 3600)
        want = np.stack([reference_encode(buckets[key], schema) for key in sorted(buckets)])
        assert np.array_equal(matrix.values, want)
