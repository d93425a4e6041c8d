"""The column parse, filter, rule extraction and sample matrix against the
plain per-line, per-record and per-flow loops in ``oracles``,
the k-means fit against the straightforward fit there, by exact equality,
and the ruleset hygiene check against removing each rule and comparing the
matcher's verdicts, and that no ruleset built from a log has a finding."""

import ipaddress
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import microseg.clustering as clustering
import microseg.features as features
import microseg.flows as flows
from microseg.clustering import kmeans_fit
from microseg.core import MAP_TO_OBJECTS, POLICIES, DataError, MemberScope, SecurityGroups
from microseg.features import encode_windows, standardize
from microseg.flows import COLUMNS, conversations, distinct_rows, filter_flows, parse_flow_log
from microseg.pca import fit_pca, project
from microseg.rules import (
    UNIVERSE,
    EntityRef,
    FirewallRule,
    RuleSet,
    ServiceTuple,
    check_ruleset,
    extract_service_flows,
    generalize,
    tally_conversations,
)
from microseg.synth import generate, random_scenario

from conftest import as_records
from oracles import (
    reference_encode,
    reference_encode_windows,
    reference_extract_service_flows,
    reference_filter_flows,
    reference_kmeans_fit,
    reference_parse_flow_log,
    reference_schema,
    reference_windowize,
    semantic_redundant_rules,
)

BAD_ADDRESS = "3600,10.0.0.300,10.0.0.1,TCP,443,1,100"
# encode_windows' block sizes: the default, and sizes so small that every
# case's row keys, services and byte sums are merged across blocks.
BLOCK_SIZES = (features.BLOCK_ROWS, 1, 2, 7)
# k-means' row blocks: the default width-dependent size, then 1 and 7 rows,
# so Lloyd's own distances and open distance rows span many blocks.
FIT_BLOCK_ROWS = (clustering._block_rows, lambda width: 1, lambda width: 7)


def assert_encode_matches(flows, window_seconds, top_k, keys, want, schema):
    """encode_windows at every block size gives the reference's row keys,
    matrix bytes and schema."""
    for rows in BLOCK_SIZES:
        with mock.patch.object(features, "BLOCK_ROWS", rows):
            matrix, got_schema = encode_windows(flows, window_seconds, top_k)
        assert list(zip(matrix.endpoints, matrix.windows)) == keys
        assert matrix.values.tobytes() == want.tobytes()
        assert got_schema == schema


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
        assert as_records(parse_flow_log(text)) == reference_parse_flow_log(text)

    def test_repeated_invalid_address_counts_every_line(self):
        good = "0,10.0.0.1,10.0.0.2,TCP,443,1,100"
        text = "\n".join([good, BAD_ADDRESS, good, BAD_ADDRESS, good, good]) + "\n"
        records, malformed = as_records(parse_flow_log(text))
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
        padded, _ = as_records(parse_flow_log("0, 10.0.0.1 ,10.0.0.2,TCP,443,1,100\n"))
        bare, _ = as_records(parse_flow_log("0,10.0.0.1,10.0.0.2,TCP,443,1,100\n"))
        assert padded == bare
        assert padded[0].src_addr == "10.0.0.1"


GOOD_ADDRESSES = st.sampled_from(["10.0.0.1", "10.0.0.2", "8.8.8.8", "255.255.255.255"])
GOOD_SERVICES = st.one_of(
    st.tuples(st.sampled_from(["TCP", "udp", "Udp"]), st.sampled_from(["22", "0443", "65535"])),
    st.tuples(st.sampled_from(["Icmp", "GRE", "P0", "X" * 12]), st.just("0")),
)
COUNTS = st.integers(0, 2**63 - 1).map(str)
# Lines in canonical form that pass every check.
VALID_LINE = st.tuples(
    COUNTS, GOOD_ADDRESSES, GOOD_ADDRESSES, GOOD_SERVICES,
    st.integers(1, 2**63 - 1).map(str), COUNTS,
).map(lambda f: ",".join([*f[:3], *f[3], *f[4:]]))
# Lines in canonical form, some of which a check rejects.
NUMBERS = st.one_of(
    COUNTS,
    st.sampled_from(["0", "007", "9" * 19, str(2**63), "1" + "0" * 19, str(2**64 + 1)]),
)
CANONICAL = st.tuples(
    NUMBERS,
    st.one_of(GOOD_ADDRESSES, st.sampled_from(
        ["10.0.0.300", "1.2.3", "1.2.3.4.5", "01.2.3.4", "1..2.3", "1" * 16]
    )),
    GOOD_ADDRESSES,
    st.one_of(GOOD_SERVICES, st.tuples(
        st.sampled_from(["TCP", "Icmp", "X" * 13, "Q" * 40]), st.sampled_from(["0", "22", "65536"])
    )),
    NUMBERS,
    NUMBERS,
).map(lambda f: ",".join([*f[:3], *f[3], *f[4:]]))


def _set_field(line, index, value):
    fields = line.split(",")
    fields[index] = value
    return ",".join(fields)


# A valid canonical line taken out of canonical form: some stay valid.
BENT_LINE = st.tuples(VALID_LINE, st.sampled_from([
    lambda line: line + "\r",
    lambda line: " " + line,
    lambda line: line.replace(",", " , ", 1),
    lambda line: "+" + line,
    lambda line: "-" + line,
    lambda line: _set_field(line, 4, "1_0"),
    lambda line: _set_field(line, 5, "\u0661"),  # ARABIC-INDIC DIGIT ONE
    lambda line: line + ",1",
    lambda line: line.replace(",", "\t,", 2),
])).map(lambda case: case[1](case[0]))
FLOW_LINE = st.one_of(
    VALID_LINE,
    VALID_LINE,
    CANONICAL,
    BENT_LINE,
    st.sampled_from(
        ["timestamp,src_addr,dst_addr,protocol,dst_port,packets,bytes", "", "   ", "\r",
         "garbage", "1,2,3", ",,,,,,", "5,10.0.0.1,10.0.0.2,TCP,443,1," + "9" * 60]
    ),
)


def _outcome(text, strict):
    try:
        return as_records(parse_flow_log(text, strict=strict))
    except DataError as exc:
        return str(exc)


class TestColumnarParse:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(FLOW_LINE, max_size=14),
        st.sampled_from(["", "\n"]),
        st.one_of(st.integers(1, 40), st.just(flows.CHUNK_CHARS)),
    )
    # Rows one check rejects: a port that does not fit the protocol, a
    # number past int64 or uint64, a bad address beside a good one that
    # must stay out of the vocabulary, and a non-numeric line after a
    # columnar line in one chunk, which is malformed, not a header.
    @example(
        ["1,10.0.0.1,10.0.0.2,TCP,0,1,1", "2,10.0.0.1,10.0.0.2,ICMP,8,1,1",
         "3,10.0.0.1,10.0.0.2,TCP,22,1,1", "4,10.0.0.1,10.0.0.2,ICMP,0,1,1",
         "5,10.0.0.1,10.0.0.2,UDP,53,1,1"],
        "", flows.CHUNK_CHARS,
    )
    @example(
        ["1,10.0.0.1,10.0.0.2,TCP,22,1,1", "9223372036854775808,10.0.0.1,10.0.0.2,TCP,22,1,1",
         "2,10.0.0.1,10.0.0.2,TCP,22,18446744073709551617,1", "3,10.0.0.1,10.0.0.2,TCP,22,1,1",
         "4,10.0.0.1,10.0.0.2,TCP,22,1,1"],
        "\n", 1,
    )
    @example(
        ["1,10.0.0.300,10.0.0.9,TCP,22,1,1", "2,10.0.0.1,10.0.0.2,TCP,22,1,1",
         "3,10.0.0.1,10.0.0.2,TCP,22,1,1"],
        "\n", flows.CHUNK_CHARS,
    )
    @example(
        ["1,10.0.0.1,10.0.0.2,TCP,22,1,1", "garbage", "2,10.0.0.1,10.0.0.2,TCP,22,1,1"],
        "\n", flows.CHUNK_CHARS,
    )
    def test_matches_per_line_parse_across_chunks(self, lines, end, chunk):
        # Chunks of a few characters put lines of every form across chunk
        # ends; one chunk puts canonical and other lines side by side.
        text = "\n".join(lines) + end
        with mock.patch.object(flows, "CHUNK_CHARS", chunk):
            # CRLF line ends keep canonical lines canonical.
            for log in (text, text.replace("\n", "\r\n")):
                for strict in (False, True):
                    got = _outcome(log, strict)
                    try:
                        want = reference_parse_flow_log(log, strict=strict)
                    except DataError as exc:
                        want = str(exc)
                    assert got == want
            # A space before every line sends every line to the per-line
            # parse, which strips it: the same table, vocabularies and dtypes.
            try:
                table, _ = parse_flow_log(text)
            except DataError:
                return
            per_line, _ = parse_flow_log("\n".join(" " + line for line in lines) + end)
        assert (table.addrs, table.protocols) == (per_line.addrs, per_line.protocols)
        for name in COLUMNS:
            got, want = getattr(table, name), getattr(per_line, name)
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), name

    def test_synth_log_takes_no_per_line_parse(self, scenario, monkeypatch):
        # Timing-free guard: a log in the form synth writes never reaches
        # the per-line parse, whatever the chunking.
        calls = []
        parse_line = flows._parse_line

        def spy(line, *codes):
            calls.append(line)
            return parse_line(line, *codes)

        monkeypatch.setattr(flows, "_parse_line", spy)
        monkeypatch.setattr(flows, "CHUNK_CHARS", 1000)
        table, malformed = parse_flow_log(scenario.log_text)
        assert calls == [] and malformed == 0
        assert len(table) == len(scenario.log_lines)
        # Nor does its CRLF copy, which parses to the same table.
        crlf, crlf_malformed = parse_flow_log(scenario.log_text.replace("\n", "\r\n"))
        assert calls == [] and crlf_malformed == 0
        assert (crlf.addrs, crlf.protocols) == (table.addrs, table.protocols)
        for name in COLUMNS:
            assert getattr(crlf, name).tolist() == getattr(table, name).tolist(), name
        # The spy does see lines out of canonical form.
        parse_flow_log("".join(" " + line + "\n" for line in scenario.log_lines))
        assert len(calls) == len(scenario.log_lines)


class TestExtract:
    def test_scenario_matches_reference(self, scenario, kept):
        groups = truth_groups(scenario)
        got = extract_service_flows(kept, groups, scenario.scope)
        want = reference_extract_service_flows(kept, groups, scenario.scope)
        assert list(got.items()) == list(want.items())

    def test_ungrouped_member_on_several_records_raises(self, scenario, kept):
        groups = truth_groups(scenario)
        missing = list(kept)[len(kept) // 2].flow.src_addr
        assert sum(rec.flow.src_addr == missing for rec in kept) > 1
        partial = SecurityGroups(
            groups={gid: members - {missing} for gid, members in groups.groups.items()}
        )
        with pytest.raises(ValueError, match=f"member endpoint {missing} ") as got:
            extract_service_flows(kept, partial, scenario.scope)
        with pytest.raises(ValueError) as want:
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
        reference = reference_encode_windows(kept, 3600, 8)
        for records in (kept, kept.take(slice(None, None, -1))):
            assert_encode_matches(records, 3600, 8, *reference)


def net(cidr):
    return ipaddress.IPv4Network(cidr)


MEMBER_NET = net("10.0.0.0/24")
MEMBERS = ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.200"]
OTHERS = ["10.0.1.5", "198.51.100.7", "198.51.100.200", "203.0.113.9", "192.168.1.1"]
FLOW_SCOPES = [
    # Every non-member is unknown.
    MemberScope((MEMBER_NET,)),
    # An object around the member range: members still win.
    MemberScope((MEMBER_NET,), ((net("10.0.0.0/8"), "corp"),)),
    MemberScope(
        (MEMBER_NET,),
        (
            (net("198.51.100.0/25"), "partner"),
            (net("10.0.0.0/8"), "corp"),
            (net("0.0.0.0/0"), "internet"),
        ),
    ),
    # Two entries share a name; the narrow one is listed first.
    MemberScope(
        (MEMBER_NET,),
        (
            (net("198.51.100.7/32"), "a"),
            (net("203.0.113.0/24"), "a"),
            (net("198.51.100.0/24"), "b"),
        ),
    ),
]
MALFORMED = [
    "garbage",
    "1,2,3",
    BAD_ADDRESS,
    "5,10.0.0.1,10.0.0.2,ICMP,8,1,1",
    "5,10.0.0.1,10.0.0.2,TCP,443,0,1",
    f"5,10.0.0.1,10.0.0.2,TCP,443,1,{2**63}",
    "5,10.0.0.1,10.0.0.2,TCP,0,1,1",
]
SMALL_OR_INT64 = st.one_of(st.integers(0, 5000), st.integers(0, 2**63 - 1))


@st.composite
def flow_lines(draw):
    """A valid flow-log line; addresses may be padded, protocols in any
    case."""
    addrs = st.sampled_from(MEMBERS + OTHERS)
    src, dst = draw(addrs), draw(addrs)
    if draw(st.booleans()):
        src = f" {src} "
    proto, port = draw(
        st.one_of(
            st.tuples(st.sampled_from(["TCP", "udp"]), st.sampled_from([22, 53, 443, 8080])),
            st.tuples(st.sampled_from(["ICMP", "gre", "Esp"]), st.just(0)),
        )
    )
    ts, nbytes = draw(SMALL_OR_INT64), draw(SMALL_OR_INT64)
    return f"{ts},{src},{dst},{proto},{port},{draw(st.integers(1, 9))},{nbytes}"


@st.composite
def table_cases(draw):
    """(log text, scope, policy, window seconds, top-k ports, groups): at
    most as many malformed lines as valid ones, so the parse never aborts;
    groups may miss a member."""
    valid = draw(st.lists(flow_lines(), min_size=1, max_size=25))
    bad = draw(st.lists(st.sampled_from(MALFORMED), max_size=len(valid)))
    text = "\n".join(draw(st.permutations(valid + bad)))
    grouped = draw(st.lists(st.sampled_from(MEMBERS), min_size=1, unique=True))
    groups = {}
    for addr in grouped:
        groups.setdefault(draw(st.integers(0, 2)), set()).add(addr)
    return (
        text,
        draw(st.sampled_from(FLOW_SCOPES)),
        draw(st.sampled_from(POLICIES)),
        draw(st.sampled_from([1, 60, 3600])),
        draw(st.integers(1, 4)),
        SecurityGroups(groups={gid: frozenset(m) for gid, m in groups.items()}),
    )


def both_filtered(text, scope, policy):
    """(package kept table, report) and (reference kept flows, report)."""
    records, malformed = reference_parse_flow_log(text)
    table, got_malformed = parse_flow_log(text)
    assert got_malformed == malformed
    return filter_flows(table, scope, policy), reference_filter_flows(records, scope, policy)


def extract_outcome(extract, flows, groups, scope):
    try:
        return list(extract(flows, groups, scope).items())
    except (DataError, ValueError) as exc:
        return type(exc), str(exc)


def assert_table_path_matches_reference(text, scope, policy, window_seconds, top_k, groups):
    (kept, report), (want_kept, want_report) = both_filtered(text, scope, policy)
    assert list(kept) == want_kept
    assert report == want_report
    assert extract_outcome(extract_service_flows, kept, groups, scope) == extract_outcome(
        reference_extract_service_flows, want_kept, groups, scope
    )
    if not want_kept:
        with pytest.raises(ValueError, match="zero records"):
            encode_windows(kept, window_seconds, top_k)
        return
    reference = reference_encode_windows(want_kept, window_seconds, top_k)
    assert_encode_matches(kept, window_seconds, top_k, *reference)


class TestTablePath:
    @settings(max_examples=300, deadline=None)
    @given(table_cases())
    def test_generated_logs_match_reference(self, case):
        assert_table_path_matches_reference(*case)

    def test_wide_vocabularies_and_spans_match_reference(self):
        # 300 protocol tokens, a 400-entry object table, timestamps across
        # the int64 range in 1 s windows and byte counts near 2**62: packed
        # keys and byte sums that would wrap an int64 taken at face value,
        # also where encode merges the row keys of blocks of 1, 2 and 7 rows.
        rng = np.random.default_rng(7)
        members = [f"10.0.0.{i}" for i in range(1, 41)]
        objects = [f"198.51.{i // 200}.{i % 200 + 1}" for i in range(400)]
        scope = MemberScope(
            (MEMBER_NET,),
            tuple((net(f"{addr}/32"), f"o{i}") for i, addr in enumerate(objects)),
        )
        lines = []
        for _ in range(3000):
            src = members[rng.integers(40)]
            dst = (members + objects)[rng.integers(440)]
            if rng.random() < 0.5:
                service = f"P{rng.integers(300)},0"
            else:
                service = f"TCP,{rng.integers(1, 65536)}"
            ts, nbytes = rng.integers(0, 2**63 - 1), rng.integers(2**61, 2**62)
            lines.append(f"{ts},{src},{dst},{service},1,{nbytes}")
        groups = SecurityGroups(
            groups={g: frozenset(members[g::7]) for g in range(7)}
        )
        text = "\n".join(lines)
        assert len(parse_flow_log(text)[0].protocols) > 250
        for policy in POLICIES:
            assert_table_path_matches_reference(text, scope, policy, 1, 50, groups)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(SMALL_OR_INT64, st.integers(0, 3), SMALL_OR_INT64),
            min_size=1,
            max_size=30,
        )
    )
    def test_distinct_rows_matches_sorted_set(self, rows):
        first, inverse, counts = distinct_rows(
            *(np.array(col, dtype=np.int64) for col in zip(*rows))
        )
        want = sorted(set(rows))
        assert [rows[i] for i in first.tolist()] == want
        assert first.tolist() == [rows.index(row) for row in want]
        assert [want[j] for j in inverse.tolist()] == rows
        assert counts.tolist() == [rows.count(row) for row in want]


def assert_same_fit(X, k, seed, block_rows=(clustering._block_rows,), **kwargs):
    """kmeans_fit at each of ``block_rows`` gives the reference's fit."""
    centroids, inertia, iterations, history = reference_kmeans_fit(X, k, seed, **kwargs)
    for rows in block_rows:
        with mock.patch.object(clustering, "_block_rows", rows):
            model = kmeans_fit(X, k, seed, **kwargs)
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

    def test_many_blobs_with_skipped_rows_matches_reference(self, spy):
        # 100 blobs and k = 300: the Hamerly bounds settle many rows, so
        # some Lloyd steps compute distance rows for a subset only, over
        # however many row blocks.
        rng = np.random.default_rng(7)
        centers = rng.normal(scale=8.0, size=(100, 20))
        X = centers[rng.integers(100, size=3000)] + rng.normal(size=(3000, 20))
        assert_same_fit(X, 300, 0, FIT_BLOCK_ROWS, restarts=2)
        assert any(0 < rows < X.shape[0] for rows in spy["assigned_rows"])

    def test_near_tie_fallback_matches_reference(self, spy):
        # On the integer grid some rows sit at equal distance from two
        # centroids, so a row-subset product cannot decide their label and
        # the full product does. Each restart also takes it once after
        # seeding.
        X = np.random.default_rng(3).integers(0, 4, size=(60, 2)).astype(float)
        for rows in FIT_BLOCK_ROWS:
            fallbacks = 0
            for seed in range(5):
                spy["full_assigns"] = 0
                assert_same_fit(X, 6, seed, (rows,), restarts=2)
                fallbacks += spy["full_assigns"] - 2
            assert fallbacks > 0

    def test_rows_one_ulp_apart_match_reference(self):
        X = np.array([[1.0, 2.0], [np.nextafter(1.0, 2.0), 2.0]])
        for seed in range(4):
            assert_same_fit(X, 2, seed, FIT_BLOCK_ROWS, restarts=2)

    @pytest.fixture
    def spy(self, monkeypatch):
        # The spies count in this process only, so the fit must not fork.
        monkeypatch.setattr(clustering, "_cpus", lambda: 1)
        seen = {
            "reseeds": 0, "polish_moves": [], "full_assigns": 0,
            "distance_rows": [], "assigned_rows": [],
        }
        update, polish = clustering._update_centroids, clustering._hartigan_polish
        full_assign, sq_dists = clustering._full_assign, clustering._sq_dists
        assign = clustering._assign

        def full_assign_spy(*args):
            seen["full_assigns"] += 1
            return full_assign(*args)

        def assign_spy(*args):
            # The distance rows one Lloyd assignment computed, in all blocks.
            before = len(seen["distance_rows"])
            result = assign(*args)
            seen["assigned_rows"].append(sum(seen["distance_rows"][before:]))
            return result

        def sq_dists_spy(X, C, xx):
            if C.shape[0] > 1:
                seen["distance_rows"].append(X.shape[0])
            return sq_dists(X, C, xx)

        def update_spy(X, labels, k, point_sq):
            seen["reseeds"] += int(np.bincount(labels, minlength=k).min() == 0)
            return update(X, labels, k, point_sq)

        def polish_spy(*args, **kwargs):
            result = polish(*args, **kwargs)
            seen["polish_moves"].append(result[2])
            return result

        monkeypatch.setattr(clustering, "_update_centroids", update_spy)
        monkeypatch.setattr(clustering, "_hartigan_polish", polish_spy)
        monkeypatch.setattr(clustering, "_full_assign", full_assign_spy)
        monkeypatch.setattr(clustering, "_sq_dists", sq_dists_spy)
        monkeypatch.setattr(clustering, "_assign", assign_spy)
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


BLOCK = ipaddress.IPv4Network("10.0.0.0/27")
# Every scope CIDR lies inside BLOCK or is the universe, so every address
# outside BLOCK resolves like OUTSIDE and the oracle's address set is exact.
OUTSIDE = "192.0.2.1"
ADDRESSES = [str(addr) for addr in BLOCK] + [OUTSIDE]
INSIDE = [net for plen in range(27, 33) for net in BLOCK.subnets(new_prefix=plen)]
SERVICES = [ServiceTuple("TCP", 22), ServiceTuple("TCP", 443), ServiceTuple("UDP", 53)]
NAMES = ["o0", "o1", "o2"]


def in_range(scope):
    """Every address of the scope's member CIDRs."""
    return sorted({str(addr) for net in scope.member_cidrs for addr in net})


@st.composite
def hygiene_scopes(draw):
    """One or two member CIDRs inside BLOCK and an object table whose
    objects may have several CIDRs, be nested, lie inside the member CIDRs,
    equal a member or be the universe."""
    members = draw(
        st.lists(st.sampled_from(INSIDE[1:15]), min_size=1, max_size=2, unique=True)
    )
    entries = draw(
        st.lists(
            st.tuples(
                st.one_of(
                    st.just(UNIVERSE),
                    st.sampled_from(INSIDE[:15]),  # /27 to /30
                    st.sampled_from(INSIDE[15:]),  # /31 and /32
                ),
                st.sampled_from(NAMES),
            ),
            min_size=2,
            max_size=8,
        )
    )
    if draw(st.booleans()):
        # A block and its sibling, then the parent that they fill.
        block = draw(st.one_of(st.sampled_from(members), st.sampled_from(INSIDE[1:])))
        parent = block.supernet()
        for net in (*parent.subnets(), parent):
            entries.append((net, draw(st.sampled_from(NAMES))))
    # One entry per CIDR, narrowest first, so none contains or equals a later one.
    return MemberScope(
        tuple(members),
        tuple(sorted(dict(entries).items(), key=lambda entry: -entry[0].prefixlen)),
    )


@st.composite
def hygiene_cases(draw):
    """A scope, groups and ruleset. Groups may be empty, missing (referenced
    but absent), outside the member CIDRs or, unlike learned groups,
    overlapping or nested; a rule may name an object the scope lacks; one
    rule may appear twice."""
    scope = draw(hygiene_scopes())
    addrs = st.one_of(st.sampled_from(in_range(scope)), st.sampled_from(ADDRESSES[:-1]))
    disjoint = draw(st.booleans())
    groups, used = {}, set()
    for gid in range(draw(st.integers(2, 4))):
        group = draw(st.frozensets(addrs, min_size=1, max_size=3))
        if disjoint:
            group -= used
        elif gid and draw(st.booleans()):
            group |= groups[gid - 1]
        groups[gid] = group
        used |= group
    refs = st.one_of(
        st.integers(0, len(groups)).map(EntityRef.group),
        st.sampled_from(NAMES + ["o3"]).map(EntityRef.network_object),
    )
    keys = draw(st.sets(st.tuples(refs, refs, st.sampled_from(SERVICES)), max_size=16))
    rules = RuleSet.from_rules(
        [FirewallRule(src, dst, svc, evidence_count=1) for src, dst, svc in keys]
    ).rules
    if rules and draw(st.booleans()):
        i = draw(st.integers(0, len(rules) - 1))
        rules = rules[: i + 1] + rules[i:]
    return RuleSet(rules=rules), SecurityGroups(groups=groups), scope


@st.composite
def built_cases(draw):
    """A flow log, a scope and groups as the rules stage may meet them: the
    groups partition every member the log names plus extra addresses, as a
    hand-edited groups.json may."""
    scope = draw(hygiene_scopes())
    addrs = st.one_of(st.sampled_from(in_range(scope)), st.sampled_from(ADDRESSES))
    lines = draw(st.lists(st.tuples(addrs, addrs, st.sampled_from(SERVICES)), max_size=20))
    named = {addr for src, dst, _ in lines for addr in (src, dst)}
    grouped = sorted((named & set(in_range(scope))) | draw(st.sets(st.sampled_from(ADDRESSES))))
    gids = draw(st.lists(st.integers(0, 3), min_size=len(grouped), max_size=len(grouped)))
    groups = {}
    for addr, gid in zip(grouped, gids):
        groups.setdefault(gid, set()).add(addr)
    text = "".join(
        f"{ts},{src},{dst},{svc.protocol},{svc.dst_port},1,100\n"
        for ts, (src, dst, svc) in enumerate(lines)
    )
    return text, scope, SecurityGroups(groups={g: frozenset(m) for g, m in groups.items()})


def assert_semantic_hygiene(ruleset, groups, scope, addresses):
    got = check_ruleset(ruleset, groups, scope)
    assert got.redundant == semantic_redundant_rules(ruleset, groups, scope, addresses)
    universal = {
        EntityRef.network_object(name)
        for cidr, name in scope.object_table
        if cidr == UNIVERSE
    }
    assert got.any_to_any == [
        rule for rule in ruleset.rules if {rule.src, rule.dst} <= universal
    ]
    assert got.duplicates == [
        rule for i, rule in enumerate(ruleset.rules) if rule in ruleset.rules[:i]
    ]
    return got


class TestCheckRuleset:
    def test_scenario_matches_reference(self, scenario, kept):
        # The learned rules plus, for every service, one rule from group 0
        # to an object around the scenario's objects and one to an object
        # inside the member range, and one rule from a missing group.
        groups = truth_groups(scenario)
        tuples = extract_service_flows(kept, groups, scenario.scope)
        extra = {}
        for _, _, svc in tuples:
            extra[(EntityRef.group(0), EntityRef.network_object("wide"), svc)] = 1
            extra[(EntityRef.group(0), EntityRef.network_object("inner"), svc)] = 1
            extra[(EntityRef.group(99), EntityRef.group(0), svc)] = 1
        scope = MemberScope(
            scenario.scope.member_cidrs,
            scenario.scope.object_table
            + (
                (ipaddress.IPv4Network("198.51.100.0/24"), "wide"),
                (ipaddress.IPv4Network("10.0.0.0/30"), "inner"),
            ),
        )
        # One address of every set the scope and groups resolve alike: each
        # grouped member, an ungrouped member, each object entry's network
        # address, a "wide" address no narrower entry holds, and an outsider.
        addresses = sorted(groups.endpoints) + [str(cidr.network_address)
                                                 for cidr, _ in scope.object_table]
        addresses += ["10.0.255.254", "198.51.100.250", OUTSIDE]
        report = assert_semantic_hygiene(
            generalize({**tuples, **extra}), groups, scope, addresses
        )
        assert set(report.redundant) == {
            rule for rule in generalize(extra).rules if rule.dst.name != "wide"
        }

    @settings(max_examples=300, deadline=None)
    @given(hygiene_cases())
    def test_generated_rulesets_match_reference(self, case):
        assert_semantic_hygiene(*case, ADDRESSES)

    @settings(max_examples=200, deadline=None)
    @given(built_cases())
    def test_built_rulesets_have_no_finding(self, case):
        # Every ref a built rule names is an observed address's resolution,
        # so it is live; every kept row has a member side, so no rule joins
        # two objects; and tally keys are unique. So the rules stage never
        # writes a finding, whatever the scope, policy or groups.
        text, scope, groups = case
        table, _ = parse_flow_log(text)
        for policy in POLICIES:
            kept, _ = filter_flows(table, scope, policy)
            ruleset = generalize(tally_conversations(conversations(kept), groups, scope))
            report = check_ruleset(ruleset, groups, scope)
            assert (report.any_to_any, report.duplicates, report.redundant) == ([], [], [])
