"""The memoized parse and rule extraction and the tallied sample matrix
against the plain per-line, per-record and per-flow loops in ``oracles``,
the k-means fit against the straightforward fit there, and the ruleset
hygiene lookup against the pairwise check, by exact equality."""

import ipaddress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import microseg.clustering as clustering
from microseg.clustering import SecurityGroups, kmeans_fit
from microseg.features import encode_windows, standardize
from microseg.flows import (
    MAP_TO_OBJECTS,
    DataError,
    MemberScope,
    filter_flows,
    parse_flow_log,
)
from microseg.pca import fit_pca, project
from microseg.rules import (
    EntityRef,
    FirewallRule,
    RuleSet,
    ServiceTuple,
    check_ruleset,
    extract_service_flows,
    generalize,
)
from microseg.synth import generate, random_scenario

from oracles import (
    reference_check_ruleset,
    reference_encode,
    reference_encode_windows,
    reference_extract_service_flows,
    reference_kmeans_fit,
    reference_parse_flow_log,
    reference_schema,
    reference_windowize,
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
        groups={gid: frozenset(members) for gid, members in groups.items()}
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
            groups={gid: members - {missing} for gid, members in groups.groups.items()}
        )
        with pytest.raises(DataError, match=f"member endpoint {missing} ") as got:
            extract_service_flows(kept, partial, scenario.scope)
        with pytest.raises(DataError) as want:
            reference_extract_service_flows(kept, partial, scenario.scope)
        assert str(got.value) == str(want.value)


class TestEncode:
    def test_every_row_matches_reference(self, kept):
        matrix, schema = encode_windows(kept, 3600, 8)
        assert schema == reference_schema(kept, top_k_ports=8)
        buckets = reference_windowize(kept, 3600)
        assert any(
            rec.src_class.is_object or rec.dst_class.is_object
            for bucket in buckets.values()
            for _, rec in bucket
        )
        keys = list(zip(matrix.endpoints, matrix.windows))
        assert keys == sorted(buckets)
        for key, row in zip(keys, matrix.values):
            assert row.tobytes() == reference_encode(buckets[key], schema).tobytes()

    def test_encode_windows_matches_reference(self, kept):
        keys, want, schema = reference_encode_windows(kept, 3600, 8)
        for records in (kept, kept[::-1]):
            matrix, got_schema = encode_windows(records, 3600, 8)
            assert list(zip(matrix.endpoints, matrix.windows)) == keys
            assert matrix.values.tobytes() == want.tobytes()
            assert got_schema == schema


def assert_same_fit(X, k, seed, **kwargs):
    model = kmeans_fit(X, k, seed, **kwargs)
    centroids, inertia, iterations, history = reference_kmeans_fit(X, k, seed, **kwargs)
    assert model.centroids.tobytes() == centroids.tobytes()
    assert model.inertia == inertia
    assert model.iterations_run == iterations
    assert model.inertia_history == tuple(history)


class TestKmeans:
    def test_projected_scenario_matches_reference(self, kept):
        matrix, _ = encode_windows(kept, 3600, 8)
        std = standardize(matrix)
        projected = project(fit_pca(std, 0.95), std.values)
        k = len(set(std.endpoints))
        for seed in range(4):
            assert_same_fit(projected, k, seed, restarts=2)

    def test_duplicate_rows_and_tied_distances(self):
        # A 4x4 integer grid: repeated rows, and centroids equidistant from
        # many samples, so every argmin tie must break the same way.
        X = np.random.default_rng(3).integers(0, 4, size=(60, 2)).astype(float)
        for seed in range(5):
            assert_same_fit(X, 6, seed, restarts=2)

    @pytest.fixture
    def spy(self, monkeypatch):
        seen = {"reseeds": 0, "polish_moves": []}
        update, polish = clustering._update_centroids, clustering._hartigan_polish

        def update_spy(X, labels, k, point_sq):
            seen["reseeds"] += int(np.bincount(labels, minlength=k).min() == 0)
            return update(X, labels, k, point_sq)

        def polish_spy(*args, **kwargs):
            result = polish(*args, **kwargs)
            seen["polish_moves"].append(result[2])
            return result

        monkeypatch.setattr(clustering, "_update_centroids", update_spy)
        monkeypatch.setattr(clustering, "_hartigan_polish", polish_spy)
        return seen

    def test_empty_cluster_reseed_matches_reference(self, spy):
        X = np.random.default_rng(11).normal(size=(12, 1))
        reseeded = []
        for seed in range(10):
            spy["reseeds"] = 0
            assert_same_fit(X, 5, seed, restarts=1)
            reseeded.append(spy["reseeds"] > 0)
        assert any(reseeded)

    def test_polish_moves_then_lloyd_again_matches_reference(self, spy):
        X = np.random.default_rng(0).normal(size=(12, 1))
        rerun = []
        for seed in range(10):
            spy["polish_moves"] = []
            assert_same_fit(X, 5, seed, restarts=1)
            moves = spy["polish_moves"]
            rerun.append(len(moves) >= 2 and moves[0] > 0)
        assert any(rerun)


MEMBERS = [f"10.0.0.{i}" for i in range(8)]
# Object CIDRs: /32s equal to member addresses, nested and overlapping blocks
# around them, the universe, and blocks outside the member range.
CIDRS = (
    [f"{ep}/32" for ep in MEMBERS]
    + ["10.0.0.0/30", "10.0.0.2/31", "10.0.0.4/30", "10.0.0.0/29", "10.0.0.0/24"]
    + ["0.0.0.0/0", "192.168.1.0/24", "192.168.0.0/16"]
)
SERVICES = [ServiceTuple("TCP", 22), ServiceTuple("TCP", 443), ServiceTuple("UDP", 53)]


@st.composite
def hygiene_cases(draw):
    """A scope, groups and ruleset. Groups may be empty, missing (referenced
    but absent) or, unlike learned groups, overlapping or nested; objects
    may have several CIDRs or none in the scope; one rule may appear
    twice."""
    disjoint = draw(st.booleans())
    groups, used = {}, set()
    for gid in range(draw(st.integers(1, 4))):
        members = draw(st.frozensets(st.sampled_from(MEMBERS), max_size=3))
        if disjoint:
            members -= used
        elif gid and draw(st.booleans()):
            members |= groups[gid - 1]
        groups[gid] = members
        used |= members
    entries = draw(
        st.lists(
            st.tuples(
                st.sampled_from(CIDRS).map(ipaddress.IPv4Network),
                st.sampled_from(["o0", "o1", "o2", "o3"]),
            ),
            max_size=8,
        )
    )
    # Narrowest first, so no entry shadows a later one.
    scope = MemberScope(
        (ipaddress.IPv4Network("10.0.0.0/24"),),
        tuple(sorted(entries, key=lambda entry: -entry[0].prefixlen)),
    )
    refs = st.one_of(
        st.integers(0, len(groups)).map(EntityRef.group),
        st.sampled_from(["o0", "o1", "o2", "o3", "o4"]).map(EntityRef.network_object),
    )
    keys = draw(st.sets(st.tuples(refs, refs, st.sampled_from(SERVICES)), max_size=24))
    rules = RuleSet.from_rules(
        [FirewallRule(src, dst, svc, evidence_count=1) for src, dst, svc in keys]
    ).rules
    if rules and draw(st.booleans()):
        i = draw(st.integers(0, len(rules) - 1))
        rules = rules[: i + 1] + rules[i:]
    return RuleSet(rules=rules), SecurityGroups(groups=groups), scope


def assert_same_hygiene(ruleset, groups, scope):
    got = check_ruleset(ruleset, groups, scope)
    want = reference_check_ruleset(ruleset, groups, scope)
    assert got.any_to_any == want.any_to_any
    assert got.duplicates == want.duplicates
    assert got.empty_group_refs == want.empty_group_refs
    assert got.redundant == want.redundant
    assert got.to_text() == want.to_text()
    return got


class TestCheckRuleset:
    def test_scenario_matches_reference(self, scenario, kept):
        # The learned rules plus, for every service, one rule from group 0
        # to an object that covers every external object.
        groups = truth_groups(scenario)
        tuples = extract_service_flows(kept, groups, scenario.scope)
        wide = EntityRef.network_object("wide")
        for _, _, svc in list(tuples):
            tuples[(EntityRef.group(0), wide, svc)] = 1
        scope = MemberScope(
            scenario.scope.member_cidrs,
            scenario.scope.object_table
            + ((ipaddress.IPv4Network("198.51.100.0/24"), "wide"),),
        )
        report = assert_same_hygiene(generalize(tuples), groups, scope)
        assert len(report.redundant) > 1

    @settings(max_examples=400, deadline=None)
    @given(hygiene_cases())
    def test_generated_rulesets_match_reference(self, case):
        assert_same_hygiene(*case)
