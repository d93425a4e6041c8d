"""Fuzzing of the input parsers: whatever the input, the only exceptions
that escape are ``DataError`` and ``UsageError``, which the command line
maps to exit codes 2 and 1."""

import ipaddress
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microseg.flows import DataError, load_scope, parse_flow_log
from microseg.pipeline import PipelineConfig, UsageError, parse_config_text
from microseg.rules import (
    EntityRef,
    FirewallRule,
    RuleSet,
    ServiceTuple,
    load_ruleset,
    ruleset_to_csv,
)

from conftest import as_records
from oracles import reference_parse_flow_log

FUZZ = settings(max_examples=150, deadline=None)

TOKENS = st.sampled_from(
    [
        "", " ", "0", "-1", "1", "443", "65535", "65536", "1e3", "0x10", "1_0",
        "²", "١", "9" * 5000, "nan", "inf", "none", "true", "0.5",
        "10.0.0.1", " 10.0.0.1 ", "10.0.0.300", "10.0.0.0/24", "10.0.0.1/24",
        "0.0.0.0/0", "::1", "TCP", "udp", "ICMP", "group:1", "group:x",
        "object:web", "object:", "allow", "deny", "#",
        # Characters str.splitlines() breaks at; only "\n" ends a line.
        "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    ]
)
TOKEN = st.one_of(TOKENS, st.text(max_size=6))


def lines_of(line):
    return st.lists(st.one_of(line, st.text(max_size=20)), max_size=8).map("\n".join)


FLOW_LINES = lines_of(st.lists(TOKEN, min_size=1, max_size=8).map(",".join))


@FUZZ
@given(FLOW_LINES, st.booleans())
def test_parse_flow_log_text(text, strict):
    # Same records, counts and error messages as the per-line reference.
    outcomes = []
    for parse in (parse_flow_log, reference_parse_flow_log):
        try:
            outcomes.append(as_records(parse(text, strict=strict)))
        except DataError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@FUZZ
@given(st.binary(max_size=200), st.booleans())
def test_parse_flow_log_bytes(data, strict):
    # Raw bytes reach the parser the way ingest passes them.
    try:
        parse_flow_log(data.decode("utf-8", errors="replace"), strict=strict)
    except DataError:
        pass


# Octets: plain, leading-zero, signed, padded and non-ASCII-digit forms.
OCTET = st.one_of(
    st.integers(0, 300).map(str),
    st.text(alphabet="0123456789+- \t²١٠１", max_size=4),
)
ADDRESS_TOKENS = st.one_of(TOKEN, st.lists(OCTET, min_size=3, max_size=5).map(".".join))


@settings(max_examples=1000, deadline=None)
@given(ADDRESS_TOKENS)
def test_accepted_address_is_its_canonical_string(token):
    # The parse codes address tokens without converting them, which is
    # exact only because IPv4Address accepts canonical dotted quads alone.
    try:
        addr = ipaddress.IPv4Address(token)
    except ValueError:
        return
    assert str(addr) == token


SCOPE_LINES = lines_of(
    st.tuples(st.sampled_from(["member", "object", "other"]), st.lists(TOKEN, max_size=3))
    .map(lambda parts: " ".join([parts[0], *parts[1]]))
)


@FUZZ
@given(SCOPE_LINES)
def test_load_scope(text):
    try:
        load_scope(text)
    except DataError:
        pass


CONFIG_KEYS = st.one_of(
    st.sampled_from([f.name for f in fields(PipelineConfig)]), st.text(max_size=6)
)
CONFIG_LINES = lines_of(
    st.tuples(CONFIG_KEYS, TOKEN).map(lambda kv: f"{kv[0]} = {kv[1]}")
)


@FUZZ
@given(CONFIG_LINES)
def test_parse_config_text(text):
    try:
        parse_config_text(text)
    except UsageError:
        pass


# Mostly well-formed rule lines, so that repeated keys and bad field values
# are reached, beside lines of arbitrary tokens.
RULE = st.tuples(
    st.sampled_from(["group:1", "object:web"]),
    st.sampled_from(["group:2", "object:"]),
    st.sampled_from(["TCP", "icmp"]),
    st.sampled_from(["443", "0"]),
    st.sampled_from(["allow", "deny"]),
    st.sampled_from(["1", "0"]),
).map(",".join)
RULESET_LINES = st.one_of(
    st.lists(RULE, max_size=6).map("\n".join),
    lines_of(st.lists(TOKEN, min_size=1, max_size=7).map(",".join)),
)


@pytest.fixture(scope="module")
def ruleset_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "ruleset.csv"


@FUZZ
@given(st.one_of(RULESET_LINES.map(str.encode), st.binary(max_size=200)))
def test_load_ruleset(ruleset_path, data):
    ruleset_path.write_bytes(data)
    try:
        load_ruleset(ruleset_path)
    except DataError:
        pass


# Scopes that load_scope mostly accepts, so that the object names vary.
NAMES = st.one_of(TOKEN, st.text(min_size=1, max_size=8), st.sampled_from(["web,proxy", ","]))
NAMED_SCOPES = st.lists(NAMES, max_size=4).map(
    lambda names: "\n".join(
        ["member 10.0.0.0/24"]
        + [f"object 198.51.100.{i}/32 {name}" for i, name in enumerate(names)]
    )
)


@FUZZ
@given(st.one_of(SCOPE_LINES, NAMED_SCOPES))
def test_scope_object_names_survive_ruleset_csv(ruleset_path, text):
    # Whatever name the scope accepts, rules naming it load back unchanged.
    try:
        scope = load_scope(text)
    except DataError:
        return
    service, group = ServiceTuple("TCP", 443), EntityRef.group(1)
    rules = []
    for name in {name for _, name in scope.object_table}:
        ref = EntityRef.network_object(name)
        rules += [FirewallRule(ref, group, service, 1), FirewallRule(group, ref, service, 2)]
    ruleset = RuleSet.from_rules(rules)
    ruleset_path.write_text(ruleset_to_csv(ruleset))
    assert load_ruleset(ruleset_path) == ruleset
