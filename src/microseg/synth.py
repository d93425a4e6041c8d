"""Synthetic flow-log generation with planted ground-truth groups.

Each planted group gets a service-usage template (weighted (peer, protocol,
port) entries); its endpoints emit flows per time window by drawing from
the template with a seeded generator. A configurable fraction of flows is
replaced by uniform-random noise draws. Packet and byte counts are fixed
functions of the service so that a noise-free scenario with single-service
disjoint templates produces exactly identical in-group sample vectors,
which the pipeline must recover perfectly.

Members are allocated sequentially from 10.0.0.0/16; external objects get
addresses from the 198.51.100.0/24 documentation range.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Union

import numpy as np

from .flows import MemberScope

#: Members are numbered from the first host address of this network.
MEMBER_NET = ipaddress.IPv4Network("10.0.0.0/16")
#: External object ``i`` is the /32 at host address ``i + 1`` of this network.
OBJECT_NET = ipaddress.IPv4Network("198.51.100.0/24")
#: Port ``i`` of the template port pool is ``PORT_BASE + PORT_STEP * i``.
PORT_BASE, PORT_STEP = 2000, 7

MAX_ENDPOINTS = MEMBER_NET.num_addresses - 1
MAX_OBJECTS = OBJECT_NET.num_addresses - 1
MAX_PORT_POOL = (65535 - PORT_BASE) // PORT_STEP + 1

NOISE_PROTOCOLS = ("TCP", "UDP", "ICMP")

PEER_GROUP = "group"
PEER_OBJECT = "object"


@dataclass(frozen=True)
class ServiceTemplate:
    """One weighted service in a group's behavior profile."""

    peer_kind: str
    peer: Union[int, str]
    protocol: str
    dst_port: int
    weight: float


@dataclass(frozen=True)
class ScenarioSpec:
    group_count: int
    endpoints_per_group: int
    windows: int
    flows_per_endpoint_window: int
    profiles: dict[int, tuple[ServiceTemplate, ...]]
    objects: tuple[tuple[str, str], ...] = ()
    noise_rate: float = 0.0
    seed: int = 0
    window_seconds: int = 3600

    def __post_init__(self) -> None:
        if self.group_count < 1:
            raise ValueError("group_count must be >= 1")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError("noise_rate must be in [0, 1)")
        object_names = {name for name, _ in self.objects}
        for gid in range(self.group_count):
            templates = self.profiles.get(gid)
            if not templates:
                raise ValueError(f"group {gid} has no behavior profile")
            for t in templates:
                if t.weight <= 0:
                    raise ValueError("template weights must be positive")
                if t.peer_kind == PEER_GROUP:
                    if not 0 <= int(t.peer) < self.group_count:
                        raise ValueError(f"profile references nonexistent group {t.peer}")
                elif t.peer_kind == PEER_OBJECT:
                    if t.peer not in object_names:
                        raise ValueError(f"profile references undeclared object {t.peer}")
                else:
                    raise ValueError(f"unknown peer kind {t.peer_kind!r}")


@dataclass
class GeneratedScenario:
    log_lines: list[str]
    truth: dict[str, int]
    scope: MemberScope
    noise_flows: int

    @property
    def total_flows(self) -> int:
        return len(self.log_lines)

    @property
    def log_text(self) -> str:
        return "\n".join(self.log_lines) + "\n"

    @property
    def truth_csv(self) -> str:
        lines = ["endpoint,true_group"]
        lines.extend(f"{ep},{gid}" for ep, gid in sorted(self.truth.items()))
        return "\n".join(lines) + "\n"


def _service_packets(port: int) -> int:
    return 1 + port % 8


def _service_bytes(protocol: str, port: int) -> int:
    per_packet = 64 + (port * 31) % 1408 + (8 if protocol == "UDP" else 0)
    return _service_packets(port) * per_packet


def generate(spec: ScenarioSpec) -> GeneratedScenario:
    """Emit a deterministic flow log, ground truth and scope for a scenario.

    Every endpoint emits exactly ``flows_per_endpoint_window`` flows per
    window. Member peers inside a target group are chosen round-robin so
    inbound traffic spreads evenly; noise replaces a flow with a uniform
    draw over (all endpoints + declared objects, protocol, port).
    """
    size = spec.endpoints_per_group
    base = int(MEMBER_NET.network_address) + 1
    group_members: list[list[str]] = []
    truth: dict[str, int] = {}
    for gid in range(spec.group_count):
        first = base + gid * size
        members = [str(ipaddress.IPv4Address(first + i)) for i in range(size)]
        group_members.append(members)
        for ep in members:
            truth[ep] = gid

    object_addr = {name: str(ipaddress.IPv4Network(cidr).network_address)
                   for name, cidr in spec.objects}
    scope = MemberScope(
        member_cidrs=(MEMBER_NET,),
        object_table=tuple(
            (ipaddress.IPv4Network(cidr), name) for name, cidr in spec.objects
        ),
    )

    all_endpoints = [ep for members in group_members for ep in members]
    noise_peers = all_endpoints + [object_addr[name] for name, _ in spec.objects]

    rng = np.random.default_rng(spec.seed)
    # Template CDFs built as Generator.choice builds them from p, so one
    # uniform draw picks what rng.choice(len(p), p=p) picks.
    cdfs: dict[int, np.ndarray] = {}
    for gid in range(spec.group_count):
        w = np.array([t.weight for t in spec.profiles[gid]], dtype=np.float64)
        cdf = cdfs[gid] = (w / w.sum()).cumsum()
        cdf /= cdf[-1]

    round_robin: dict[int, int] = {gid: 0 for gid in range(spec.group_count)}
    lines: list[str] = []
    noise_count = 0
    ws = spec.window_seconds
    fpw = spec.flows_per_endpoint_window
    for w in range(spec.windows):
        ep_index = 0
        for gid, members in enumerate(group_members):
            templates, cdf = spec.profiles[gid], cdfs[gid]
            for src in members:
                for j in range(fpw):
                    ts = w * ws + (ep_index * fpw + j) % ws
                    if spec.noise_rate > 0 and rng.random() < spec.noise_rate:
                        noise_count += 1
                        dst = noise_peers[int(rng.integers(len(noise_peers)))]
                        protocol = NOISE_PROTOCOLS[int(rng.integers(len(NOISE_PROTOCOLS)))]
                        port = 0 if protocol == "ICMP" else int(rng.integers(1, 65536))
                    else:
                        pick = cdf.searchsorted(rng.random(), side="right") if len(cdf) > 1 else 0
                        t = templates[int(pick)]
                        if t.peer_kind == PEER_GROUP:
                            peer_members = group_members[int(t.peer)]
                            dst = peer_members[round_robin[int(t.peer)] % len(peer_members)]
                            round_robin[int(t.peer)] += 1
                        else:
                            dst = object_addr[str(t.peer)]
                        protocol = t.protocol
                        port = t.dst_port
                    packets = _service_packets(port)
                    nbytes = _service_bytes(protocol, port)
                    lines.append(f"{ts},{src},{dst},{protocol},{port},{packets},{nbytes}")
                ep_index += 1
    return GeneratedScenario(
        log_lines=lines,
        truth=truth,
        scope=scope,
        noise_flows=noise_count,
    )


def random_scenario(
    group_count: int,
    endpoints_per_group: int,
    windows: int,
    flows_per_endpoint_window: int,
    *,
    services_per_group: int = 5,
    port_pool: int = 128,
    external_fraction: float = 0.0,
    object_count: int = 3,
    noise_rate: float = 0.0,
    seed: int = 0,
    window_seconds: int = 3600,
) -> ScenarioSpec:
    """Build a scenario whose group templates overlap pairwise by at most
    20% of their services.

    Templates draw ``services_per_group`` distinct ports from a shared pool;
    candidate draws are rejected until the shared-port count with every
    previous template is within the cap. A cap of zero (small templates)
    falls back to disjoint consecutive pool slices. Each service targets a
    random group, or one of ``object_count`` external objects with
    probability ``external_fraction``.
    """
    if services_per_group < 1:
        raise ValueError("services_per_group must be >= 1")
    if group_count * endpoints_per_group > MAX_ENDPOINTS:
        raise ValueError(
            f"{group_count * endpoints_per_group} endpoints do not fit in {MEMBER_NET} "
            f"(at most {MAX_ENDPOINTS})"
        )
    overlap_cap = int(0.2 * services_per_group)
    if overlap_cap == 0 and group_count * services_per_group > port_pool:
        raise ValueError(
            "port pool too small for disjoint templates: need "
            f"{group_count * services_per_group}, have {port_pool}"
        )
    rng = np.random.default_rng([seed, 52075])
    pool = [PORT_BASE + PORT_STEP * i for i in range(port_pool)]
    objects = tuple(
        (f"ext{i}", f"{OBJECT_NET.network_address + i + 1}/32") for i in range(object_count)
    )
    chosen: list[set[int]] = []
    profiles: dict[int, tuple[ServiceTemplate, ...]] = {}
    for gid in range(group_count):
        if overlap_cap == 0:
            ports = set(pool[gid * services_per_group : (gid + 1) * services_per_group])
        else:
            for _ in range(10_000):
                cand = set(
                    int(pool[i])
                    for i in rng.choice(port_pool, size=services_per_group, replace=False)
                )
                if all(len(cand & prev) <= overlap_cap for prev in chosen):
                    ports = cand
                    break
            else:
                raise ValueError("could not place templates within the overlap cap")
        chosen.append(ports)
        templates = []
        for port in sorted(ports):
            if external_fraction > 0 and rng.random() < external_fraction:
                peer_kind, peer = PEER_OBJECT, f"ext{int(rng.integers(object_count))}"
            else:
                peer_kind, peer = PEER_GROUP, int(rng.integers(group_count))
            templates.append(
                ServiceTemplate(
                    peer_kind=peer_kind,
                    peer=peer,
                    protocol="TCP" if rng.random() < 0.7 else "UDP",
                    dst_port=port,
                    weight=0.5 + float(rng.random()),
                )
            )
        profiles[gid] = tuple(templates)
    return ScenarioSpec(
        group_count=group_count,
        endpoints_per_group=endpoints_per_group,
        windows=windows,
        flows_per_endpoint_window=flows_per_endpoint_window,
        profiles=profiles,
        objects=objects if object_count else (),
        noise_rate=noise_rate,
        seed=seed,
        window_seconds=window_seconds,
    )
