"""Direct tests for mDFG containers and their validation error paths."""

import pickle

import pytest

from repro.dfg import (
    ComputeNode,
    InputPortNode,
    MDFG,
    MdfgError,
    StreamKind,
)
from repro.ir import F64, Op


def empty_mdfg():
    return MDFG(
        workload="t",
        variant="u1",
        unroll=1,
        dtype=F64,
        iterations=100.0,
        inner_trip=10,
        tile_parallelism=4.0,
    )


def minimal_mdfg():
    m = empty_mdfg()
    ip = m.add_input_port(width_bytes=8)
    stream = m.add_stream(
        kind=StreamKind.MEMORY_READ,
        array="a",
        dtype=F64,
        port=ip,
        lanes=1,
        traffic=100,
        footprint=50,
    )
    compute = m.add_compute(Op.ADD, F64, lanes=1, operands=(ip,))
    op = m.add_output_port(width_bytes=8)
    m.add_edge(compute, op)
    wstream = m.add_stream(
        kind=StreamKind.MEMORY_WRITE,
        array="b",
        dtype=F64,
        port=op,
        lanes=1,
        traffic=100,
        footprint=100,
    )
    for name, sids in (("a", (stream,)), ("b", (wstream,))):
        node = m.add_array(
            array=name,
            dtype=F64,
            size_elems=100,
            footprint_bytes=800,
            traffic_bytes=800,
        )
        m.attach_streams(node, sids)
    return m


class TestConstruction:
    def test_minimal_validates(self):
        minimal_mdfg().validate()

    def test_edge_to_unknown_node_rejected(self):
        m = empty_mdfg()
        with pytest.raises(MdfgError, match="unknown node"):
            m.add_edge(0, 1)

    def test_read_stream_needs_input_port(self):
        m = empty_mdfg()
        op = m.add_output_port(width_bytes=8)
        m.add_stream(
            kind=StreamKind.GENERATE,
            array=None,
            dtype=F64,
            port=op,
            traffic=10,
            footprint=10,
        )
        with pytest.raises(MdfgError, match="input port"):
            m.validate()

    def test_memory_stream_needs_array_name(self):
        m = empty_mdfg()
        ip = m.add_input_port(width_bytes=8)
        m.add_stream(
            kind=StreamKind.MEMORY_READ,
            array=None,
            dtype=F64,
            port=ip,
            traffic=10,
            footprint=10,
        )
        with pytest.raises(MdfgError, match="no array"):
            m.validate()

    def test_asymmetric_recurrence_rejected(self):
        m = empty_mdfg()
        ip = m.add_input_port(width_bytes=8)
        rec = m.add_stream(
            kind=StreamKind.RECURRENCE,
            array="c",
            dtype=F64,
            port=ip,
            traffic=10,
            footprint=10,
        )
        m.node(rec).recurrent_pair = 12345
        with pytest.raises(MdfgError, match="asymmetric"):
            m.validate()

    def test_array_with_unknown_stream_rejected(self):
        m = minimal_mdfg()
        m.arrays[0].streams = (999,)
        with pytest.raises(MdfgError, match="unknown stream"):
            m.validate()

    def test_array_node_accessor_type_check(self):
        m = minimal_mdfg()
        compute = m.compute_nodes[0]
        with pytest.raises(MdfgError, match="not an array node"):
            m.array_node(compute.node_id)


class TestMetrics:
    def test_insts_counts_lanes(self):
        m = empty_mdfg()
        ip = m.add_input_port(width_bytes=32)
        m.add_stream(
            kind=StreamKind.MEMORY_READ, array="a", dtype=F64, port=ip,
            lanes=4, traffic=100, footprint=100,
        )
        m.add_compute(Op.MUL, F64, lanes=4, operands=(ip,))
        assert m.insts_per_cycle == 8.0  # 4 compute + 4 memory lanes

    def test_total_instructions_consistent_with_firings(self):
        m = minimal_mdfg()
        firings = m.iterations / m.unroll
        assert m.total_instructions == pytest.approx(
            m.insts_per_cycle * firings
        )

    def test_config_words_scale_with_entities(self):
        small = minimal_mdfg()
        big = minimal_mdfg()
        extra_ip = big.add_input_port(width_bytes=8)
        big.add_stream(
            kind=StreamKind.MEMORY_READ, array="a", dtype=F64,
            port=extra_ip, traffic=10, footprint=10,
        )
        assert big.config_words > small.config_words

    def test_general_reuse_floor_is_one(self):
        m = minimal_mdfg()
        stream = m.streams[0]
        assert stream.general_reuse >= 1.0

    def test_fabric_edges_exclude_stream_edges(self):
        m = minimal_mdfg()
        for edge in m.fabric_edges():
            for endpoint in (edge.src, edge.dst):
                node = m.node(endpoint)
                assert isinstance(
                    node, (ComputeNode, InputPortNode)
                ) or node.__class__.__name__ == "OutputPortNode"

    def test_index_follows_every_mutator_and_is_never_pickled(self):
        m = minimal_mdfg()
        (ip,) = [p.node_id for p in m.input_ports]
        compute = m.compute_nodes[0].node_id
        assert m.fabric_in_edges(compute) == ((ip, compute, 0),)
        extra = m.add_input_port(width_bytes=8)
        assert [p.node_id for p in m.input_ports] == [ip, extra]
        m.add_edge(extra, compute, 1)
        assert m.fabric_in_edges(compute) == (
            (ip, compute, 0),
            (extra, compute, 1),
        )
        listed = m.compute_nodes
        listed.clear()
        assert len(m.compute_nodes) == 1
        assert "_index" not in pickle.loads(pickle.dumps(m)).__dict__

    def test_insts_per_cycle_follows_an_edit_after_a_read(self):
        """The cached peak counts compute lanes and memory-stream lanes,
        and an add after a read shows in the next read."""
        m = minimal_mdfg()
        assert m.insts_per_cycle == 3.0  # one add, one read, one write
        ip = m.input_ports[0].node_id
        m.add_compute(Op.MUL, F64, lanes=4, operands=(ip,))
        assert m.insts_per_cycle == 7.0
        extra = m.add_input_port(width_bytes=16)
        m.add_stream(
            kind=StreamKind.MEMORY_READ, array="a", dtype=F64,
            port=extra, lanes=2, traffic=10, footprint=10,
        )
        assert m.insts_per_cycle == 9.0

    def test_predecessors_successors(self):
        m = minimal_mdfg()
        compute = m.compute_nodes[0]
        preds = m.predecessors(compute.node_id)
        succs = m.successors(compute.node_id)
        assert preds and succs

    def test_summary_mentions_counts(self):
        text = minimal_mdfg().summary()
        assert "compute=1" in text
        assert "streams=2" in text
