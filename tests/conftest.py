import ipaddress
import os

# One BLAS thread before numpy loads, as the CLI sets: k-means runs its
# restarts in one process per CPU, and a multi-threaded BLAS in each would
# put more busy threads than cores on the box.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402

from microseg.core import MAP_TO_OBJECTS, FlowRecord, MemberScope  # noqa: E402
from microseg.flows import filter_flows, parse_flow_log  # noqa: E402


@pytest.fixture
def scope_10_24() -> MemberScope:
    """Members in 10.0.0.0/24 plus a catch-all internet object."""
    return MemberScope(
        member_cidrs=(ipaddress.IPv4Network("10.0.0.0/24"),),
        object_table=((ipaddress.IPv4Network("0.0.0.0/0"), "internet"),),
    )


def flow(
    src: str,
    dst: str,
    protocol: str = "TCP",
    dst_port: int = 443,
    timestamp: int = 0,
    packets: int = 1,
    nbytes: int = 100,
) -> FlowRecord:
    return FlowRecord(
        timestamp=timestamp,
        src_addr=src,
        dst_addr=dst,
        protocol=protocol,
        dst_port=dst_port,
        packet_count=packets,
        byte_count=nbytes,
    )


def line(
    src: str,
    dst: str,
    protocol: str = "TCP",
    dst_port: int = 443,
    timestamp: int = 0,
    packets: int = 1,
    nbytes: int = 100,
) -> str:
    """The flow-log line of ``flow`` with the same arguments."""
    return f"{timestamp},{src},{dst},{protocol},{dst_port},{packets},{nbytes}"


def kept_table(lines, scope: MemberScope, policy: str = MAP_TO_OBJECTS):
    """The table ``filter_flows`` keeps from log lines that all parse."""
    table, malformed = parse_flow_log("\n".join(lines))
    assert malformed == 0
    return filter_flows(table, scope, policy)[0]


def as_records(parsed):
    """A ``parse_flow_log`` result with the table as a list of records, the
    form the per-line reference parse returns."""
    table, malformed = parsed
    return list(table), malformed
