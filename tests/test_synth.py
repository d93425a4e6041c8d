import hashlib
import math

import pytest

from microseg.clustering import GroupingParams, fit_groups
from microseg.flows import DROP_UNKNOWN, filter_flows, parse_flow_log
from microseg.metrics import evaluate
from microseg.synth import (
    MAX_ENDPOINTS,
    MAX_OBJECTS,
    MAX_PORT_POOL,
    ScenarioSpec,
    ServiceTemplate,
    generate,
    random_scenario,
)


def small_spec(**overrides):
    base = dict(
        group_count=2,
        endpoints_per_group=2,
        windows=1,
        flows_per_endpoint_window=10,
        profiles={
            0: (ServiceTemplate("group", 1, "TCP", 2000, 1.0),),
            1: (ServiceTemplate("group", 0, "UDP", 2010, 1.0),),
        },
        noise_rate=0.0,
        seed=9,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestGenerate:
    def test_line_and_truth_counts(self):
        scenario = generate(small_spec())
        assert len(scenario.log_lines) == 40  # 4 endpoints x 1 window x 10 flows
        assert len(scenario.truth) == 4
        assert scenario.total_flows == 40

    def test_byte_identical_for_same_seed(self):
        a = generate(small_spec())
        b = generate(small_spec())
        assert a.log_text == b.log_text
        assert a.truth == b.truth

    def test_log_bytes_pinned(self):
        # Several weighted templates per group, noise and external objects
        # cover every draw generate makes; changing how any of them is
        # drawn changes the log.
        spec = random_scenario(
            6, 2, 3, 12, services_per_group=4, port_pool=32, external_fraction=0.4,
            object_count=2, noise_rate=0.2, seed=11,
        )
        assert all(len(templates) == 4 for templates in spec.profiles.values())
        scenario = generate(spec)
        assert scenario.noise_flows > 0
        assert any(line.split(",")[2].startswith("198.51.100.") for line in scenario.log_lines)
        assert hashlib.sha256(scenario.log_text.encode()).hexdigest() == (
            "81b598a575af69fbee7f2238a9ceddaa924a049b6787397170e96bd159481d2d"
        )

    def test_different_seed_changes_noise_draws(self):
        spec1 = small_spec(noise_rate=0.5, seed=1)
        spec2 = small_spec(noise_rate=0.5, seed=2)
        assert generate(spec1).log_text != generate(spec2).log_text

    def test_record_count_formula(self):
        spec = small_spec(windows=3, flows_per_endpoint_window=7)
        scenario = generate(spec)
        assert scenario.total_flows == 4 * 3 * 7

    def test_every_source_is_member(self):
        scenario = generate(small_spec(noise_rate=0.3))
        records, _ = parse_flow_log(scenario.log_text)
        member_net = scenario.scope.member_cidrs[0]
        import ipaddress

        for rec in records:
            assert ipaddress.IPv4Address(rec.src_addr) in member_net

    def test_truth_covers_each_endpoint_once(self):
        scenario = generate(small_spec())
        assert sorted(scenario.truth.values()) == [0, 0, 1, 1]

    def test_parses_cleanly(self):
        scenario = generate(small_spec(noise_rate=0.2, windows=3))
        records, malformed = parse_flow_log(scenario.log_text)
        assert malformed == 0
        assert len(records) == scenario.total_flows

    def test_noise_fraction_within_three_sigma(self):
        spec = small_spec(
            group_count=4,
            endpoints_per_group=5,
            windows=10,
            flows_per_endpoint_window=25,
            profiles={
                g: (ServiceTemplate("group", (g + 1) % 4, "TCP", 2000 + g, 1.0),)
                for g in range(4)
            },
            noise_rate=0.1,
            seed=123,
        )
        scenario = generate(spec)
        n, p = scenario.total_flows, 0.1
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(scenario.noise_flows - n * p) <= 3 * sigma

    def test_bad_profile_reference_rejected(self):
        with pytest.raises(ValueError, match="nonexistent group"):
            small_spec(
                profiles={
                    0: (ServiceTemplate("group", 5, "TCP", 2000, 1.0),),
                    1: (ServiceTemplate("group", 0, "TCP", 2001, 1.0),),
                }
            )

    def test_undeclared_object_rejected(self):
        with pytest.raises(ValueError, match="undeclared object"):
            small_spec(
                profiles={
                    0: (ServiceTemplate("object", "ext9", "TCP", 2000, 1.0),),
                    1: (ServiceTemplate("group", 0, "TCP", 2001, 1.0),),
                }
            )

    def test_noise_rate_bounds(self):
        with pytest.raises(ValueError):
            small_spec(noise_rate=1.0)

    def test_truth_csv_format(self):
        scenario = generate(small_spec())
        lines = scenario.truth_csv.strip().split("\n")
        assert lines[0] == "endpoint,true_group"
        assert len(lines) == 5


class TestRandomScenario:
    def test_disjoint_templates_when_cap_is_zero(self):
        spec = random_scenario(6, 2, 2, 5, services_per_group=1, port_pool=16, seed=3)
        ports = [t.dst_port for g in range(6) for t in spec.profiles[g]]
        assert len(set(ports)) == len(ports)

    def test_overlap_cap_respected(self):
        spec = random_scenario(
            20, 2, 2, 5, services_per_group=5, port_pool=128, seed=3
        )
        templates = [
            {t.dst_port for t in spec.profiles[g]} for g in range(20)
        ]
        for i in range(20):
            for j in range(i + 1, 20):
                assert len(templates[i] & templates[j]) <= 1  # 20% of 5

    def test_pool_too_small_rejected(self):
        with pytest.raises(ValueError, match="pool too small"):
            random_scenario(10, 2, 2, 5, services_per_group=1, port_pool=5, seed=0)

    def test_external_fraction_targets_objects(self):
        spec = random_scenario(
            20, 2, 2, 5,
            services_per_group=5,
            port_pool=128,
            external_fraction=0.5,
            object_count=2,
            seed=3,
        )
        kinds = [t.peer_kind for g in range(20) for t in spec.profiles[g]]
        assert kinds.count("object") > 0
        assert {name for name, _ in spec.objects} == {"ext0", "ext1"}

    def test_ranges_hold_at_their_largest_values(self):
        spec = random_scenario(
            1, MAX_ENDPOINTS, 1, 1,
            services_per_group=MAX_PORT_POOL,
            port_pool=MAX_PORT_POOL,
            object_count=MAX_OBJECTS,
        )
        assert max(t.dst_port for t in spec.profiles[0]) == 65532
        assert spec.objects[-1] == ("ext254", "198.51.100.255/32")
        # Members are numbered in order, so the last one is the network's last.
        assert "10.0.255.255" in generate(random_scenario(1, MAX_ENDPOINTS, 1, 1)).truth

    def test_endpoints_beyond_member_network_rejected(self):
        with pytest.raises(ValueError, match="65536 endpoints do not fit in 10.0.0.0/16"):
            random_scenario(2, 32768, 1, 1)

    def test_deterministic(self):
        a = random_scenario(5, 2, 2, 5, seed=11, port_pool=64)
        b = random_scenario(5, 2, 2, 5, seed=11, port_pool=64)
        assert a == b


class TestPerfectSeparationEndToEnd:
    def test_disjoint_noise_free_scenario_scores_one(self):
        spec = random_scenario(
            6, 3, 4, 15, services_per_group=1, port_pool=32, noise_rate=0.0, seed=21
        )
        scenario = generate(spec)
        records, _ = parse_flow_log(scenario.log_text)
        kept, _ = filter_flows(records, scenario.scope, DROP_UNKNOWN)
        result = fit_groups(kept, GroupingParams(seed=2, top_k_ports=32))
        report = evaluate(result.groups, scenario.truth)
        assert report.homogeneity == 1.0
        assert report.completeness == 1.0
        assert report.v_measure == 1.0
        assert result.groups.suggested_qty == 6
