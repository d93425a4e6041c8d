import ipaddress
import math
import tracemalloc

import numpy as np
import pytest

from microseg import features
from microseg.core import MemberScope
from microseg.features import CONST_EPS, SampleMatrix, encode_windows, standardize

from conftest import kept_table, line
from oracles import reference_schema, reference_windowize

# Members in 10.0.0.0/24; any other address (8.8.8.8 here) is "internet".
SCOPE = MemberScope(
    member_cidrs=(ipaddress.IPv4Network("10.0.0.0/24"),),
    object_table=((ipaddress.IPv4Network("0.0.0.0/0"), "internet"),),
)


def table(lines):
    return kept_table(lines, SCOPE)


def schema_of(lines, top_k_ports):
    """The schema ``encode_windows`` discovers, checked against the oracle."""
    flows = table(lines)
    _, schema = encode_windows(flows, 60, top_k_ports)
    assert schema == reference_schema(flows, top_k_ports)
    return schema


def rows_of(lines, window_seconds=60, top_k_ports=8):
    """{(endpoint, window): row} from ``encode_windows``, whose keys must be
    the oracle's buckets, plus the schema."""
    flows = table(lines)
    matrix, schema = encode_windows(flows, window_seconds, top_k_ports)
    keys = list(zip(matrix.endpoints, matrix.windows))
    assert keys == sorted(reference_windowize(flows, window_seconds))
    return dict(zip(keys, matrix.values)), schema


class TestBuildSchema:
    def test_frequency_ranked_ports(self):
        records = (
            [line("10.0.0.1", "10.0.0.2", dst_port=443) for _ in range(10)]
            + [line("10.0.0.1", "10.0.0.2", dst_port=53, protocol="UDP") for _ in range(5)]
            + [line("10.0.0.1", "10.0.0.2", dst_port=8080)]
        )
        schema = schema_of(records, top_k_ports=2)
        assert schema.protocol_vocab == ("TCP", "UDP")
        assert schema.port_vocab == (53, 443)

    def test_singleton(self):
        records = [line("10.0.0.1", "8.8.8.8")]
        schema = schema_of(records, top_k_ports=8)
        assert schema.protocol_vocab == ("TCP",)
        assert schema.port_vocab == (443,)
        assert schema.peer_vocab == ("internet",)

    def test_tie_breaks_to_lower_port(self):
        records = [
            line("10.0.0.1", "10.0.0.2", dst_port=8080),
            line("10.0.0.1", "10.0.0.2", dst_port=80),
        ]
        schema = schema_of(records, top_k_ports=1)
        assert schema.port_vocab == (80,)

    def test_empty_records_error(self):
        with pytest.raises(ValueError):
            encode_windows(table([]), 60, 4)
        with pytest.raises(ValueError):
            encode_windows(table([line("10.0.0.1", "10.0.0.2")]), 60, 0)

    def test_order_invariant(self):
        records = [
            line("10.0.0.1", "10.0.0.2", dst_port=p, protocol=proto)
            for p, proto in [(443, "TCP"), (53, "UDP"), (22, "TCP"), (443, "TCP")]
        ]
        schema1 = schema_of(records, top_k_ports=2)
        schema2 = schema_of(list(reversed(records)), top_k_ports=2)
        assert schema1 == schema2

    def test_dimension_formula(self):
        records = [line("10.0.0.1", "8.8.8.8")]
        schema = schema_of(records, top_k_ports=8)
        # 2*(1+1) + 2*(1+1) + (1+1) + 3
        assert schema.dimension == 13


class TestWindowize:
    def test_single_window(self):
        records = [line("10.0.0.1", "10.0.0.2", timestamp=t) for t in range(60)]
        rows, _ = rows_of(records, 60)
        assert set(w for _, w in rows) == {0}

    def test_boundary(self):
        records = [
            line("10.0.0.1", "10.0.0.2", timestamp=0),
            line("10.0.0.1", "10.0.0.2", timestamp=60),
        ]
        rows, _ = rows_of(records, 60)
        assert ("10.0.0.1", 0) in rows and ("10.0.0.1", 1) in rows

    def test_dual_attribution(self):
        records = [line("10.0.0.1", "10.0.0.2", timestamp=5)]
        rows, schema = rows_of(records, 60)
        p = len(schema.protocol_vocab) + 1
        out_row, in_row = rows[("10.0.0.1", 0)], rows[("10.0.0.2", 0)]
        assert (out_row[0], out_row[p]) == (1.0, 0.0)  # outbound TCP
        assert (in_row[0], in_row[p]) == (0.0, 1.0)  # inbound TCP

    def test_object_side_gets_no_bucket(self):
        records = [line("10.0.0.1", "8.8.8.8")]
        rows, _ = rows_of(records, 60)
        assert list(rows) == [("10.0.0.1", 0)]

    def test_bad_window_size(self):
        with pytest.raises(ValueError):
            encode_windows(table([line("10.0.0.1", "10.0.0.2")]), 0, 4)


class TestEncode:
    def test_hand_accumulated_vector(self):
        # Three outbound TCP/443 flows to members, 1000 bytes each, against
        # vocabularies [TCP], [443], []: layout is
        # [outTCP,outOVF, inTCP,inOVF, out443,outOVF, in443,inOVF, member,
        #  uniq, flows, log1p(bytes)]
        records = [
            line("10.0.0.1", "10.0.0.2", nbytes=1000) for _ in range(3)
        ]
        rows, _ = rows_of(records, top_k_ports=4)
        expected = [3, 0, 0, 0, 3, 0, 0, 0, 3, 1, 3, math.log1p(3000)]
        assert rows[("10.0.0.1", 0)].tolist() == pytest.approx(expected)

    def test_unique_tuples_distinguish_ports(self):
        records = [
            line("10.0.0.1", "10.0.0.2", dst_port=443),
            line("10.0.0.1", "10.0.0.2", dst_port=53, protocol="UDP"),
        ]
        rows, schema = rows_of(records, top_k_ports=4)
        uniq_index = schema.dimension - 3
        assert rows[("10.0.0.1", 0)][uniq_index] == 2.0

    def test_permutation_invariant(self):
        records = [
            line("10.0.0.1", "10.0.0.2", dst_port=p, nbytes=b)
            for p, b in [(443, 100), (53, 200), (443, 300), (22, 400)]
        ]
        m1, _ = encode_windows(table(records), 60, 4)
        m2, _ = encode_windows(table(reversed(records)), 60, 4)
        assert m1.values.tobytes() == m2.values.tobytes()

    def test_protocol_block_sums_equal_flow_counts(self):
        out = [line("10.0.0.1", "10.0.0.2", dst_port=p) for p in (443, 80, 22)]
        inbound = [line("10.0.0.9", "10.0.0.1", dst_port=53, protocol="UDP")]
        rows, schema = rows_of(out + inbound, top_k_ports=8)
        vec = rows[("10.0.0.1", 0)]
        p = len(schema.protocol_vocab) + 1
        assert vec[:p].sum() == len(out)
        assert vec[p : 2 * p].sum() == len(inbound)

    def test_raw_values_non_negative(self):
        matrix, _ = encode_windows(table([line("10.0.0.1", "10.0.0.2")]), 60, 2)
        assert (matrix.values >= 0).all()


class TestStandardize:
    def _matrix(self, columns):
        values = np.array(columns, dtype=float).T
        return SampleMatrix(
            endpoints=tuple(f"10.0.0.{i+1}" for i in range(values.shape[0])),
            windows=tuple(0 for _ in range(values.shape[0])),
            values=values,
        )

    def test_two_point_column(self):
        std = standardize(self._matrix([[0.0, 10.0]]))
        assert std.values[:, 0].tolist() == [-1.0, 1.0]

    def test_constant_column_guard(self):
        std = standardize(self._matrix([[7.0, 7.0, 7.0]]))
        assert std.values[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_idempotent_on_standardized_data(self):
        # standardize overwrites its input: compare against a snapshot.
        std = standardize(self._matrix([[0.0, 10.0, 20.0], [3.0, 1.0, 2.0]]))
        once = std.values.copy()
        again = standardize(std)
        assert np.allclose(once, again.values, atol=1e-12)

    def test_round_trip_within_tolerance(self):
        rng = np.random.default_rng(5)
        raw = self._matrix(rng.normal(size=(4, 30)) * 100)
        values = raw.values.copy()
        std = standardize(raw)
        mean, scale = values.mean(axis=0), values.std(axis=0)
        assert np.allclose(std.values * scale + mean, values, atol=1e-12, rtol=0)

    def test_overwrites_its_input_with_the_formula(self):
        # One buffer from encode to PCA: the result is the input's, and its
        # bytes are (x - mean) / scale computed on a copy.
        rng = np.random.default_rng(6)
        values = np.hstack([rng.normal(size=(300, 4)) * 50, np.full((300, 1), 7.0)])
        raw = SampleMatrix(("10.0.0.1",) * 300, tuple(range(300)), values.copy())
        std = standardize(raw)
        assert np.shares_memory(std.values, raw.values)
        scale = values.std(axis=0)
        want = (values - values.mean(axis=0)) / np.where(scale < CONST_EPS, 1.0, scale)
        assert std.values.tobytes() == want.tobytes()
        assert not std.values[:, -1].any()

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            standardize(self._matrix([[1.0]]))


class TestEncodeWindows:
    def test_matrix_row_per_endpoint_window(self):
        records = [
            line("10.0.0.1", "10.0.0.2", timestamp=0),
            line("10.0.0.2", "10.0.0.1", timestamp=70),
        ]
        matrix, schema = encode_windows(table(records), window_seconds=60, top_k_ports=4)
        assert matrix.n_rows == 4  # both endpoints in both windows
        assert matrix.dimension == schema.dimension

    def test_workers_do_not_change_output(self):
        records = [
            line("10.0.0.1", "10.0.0.2", timestamp=t, dst_port=400 + t % 3)
            for t in range(0, 240, 10)
        ]
        m1, _ = encode_windows(table(records), 60, 4, workers=1)
        m2, _ = encode_windows(table(records), 60, 4, workers=4)
        assert np.array_equal(m1.values, m2.values)
        assert m1.endpoints == m2.endpoints


class TestEncodeMemory:
    def test_peak_grows_with_the_block_not_the_table(self, monkeypatch):
        # Aim 3: memory stays bounded as the scenario grows. Encode holds the
        # matrix plus one block's contribution arrays, not about fifteen
        # arrays over every contribution of the table, so its peak neither
        # nears that nor grows when the same keys and services carry 4x the
        # flows.
        monkeypatch.setattr(features, "BLOCK_ROWS", 8192)
        rng = np.random.default_rng(0)
        addrs = [f"10.0.0.{i}" for i in range(1, 33)] + ["8.8.8.8"]
        draws = (rng.integers(k, size=8 * 8192).tolist() for k in (32, 33, 2, 4, 960, 10**6))
        lines = [
            line(addrs[src], addrs[dst], ("TCP", "UDP")[proto], (22, 53, 443, 8080)[port], t, 1, b)
            for src, dst, proto, port, t, b in zip(*draws)
        ]
        # One int64 array over a block's contributions: a flow has two sides.
        column = 2 * 8192 * 8
        peaks, matrices = [], []
        for copies in (1, 4):
            flows = table(rng.permutation(lines * copies).tolist())
            tracemalloc.start()
            try:
                matrices.append(encode_windows(flows, 60, 4)[0])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert matrices[0].endpoints == matrices[1].endpoints
        assert matrices[0].windows == matrices[1].windows
        assert peaks[0] < matrices[0].values.nbytes + 64 * column
        assert peaks[1] < peaks[0] + column
