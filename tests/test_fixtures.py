"""Synthetic fixture generation."""

import numpy as np
import pytest

from nbcontrast.fixtures import planted_partition_graph


def reference_planted_partition(nodes, blocks, p_in, p_out, seed):
    """The per-pair loop: one scalar draw per unordered pair, in row order."""
    rng = np.random.default_rng(seed)
    block_of = [i * blocks // nodes for i in range(nodes)]
    edges = []
    for i in range(nodes):
        for j in range(i + 1, nodes):
            p = p_in if block_of[i] == block_of[j] else p_out
            if rng.random() < p:
                edges.append((i, j))
                edges.append((j, i))
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2), block_of


class TestPlantedPartition:
    @pytest.mark.parametrize("nodes, blocks, p_in, p_out", [
        (200, 2, 0.10, 0.01),
        (2000, 3, 0.02, 0.002),
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_edges_byte_equal_to_per_pair_loop(self, nodes, blocks, p_in, p_out, seed):
        graph, block_of = planted_partition_graph(nodes, blocks, p_in, p_out, seed)
        expect, expect_blocks = reference_planted_partition(
            nodes, blocks, p_in, p_out, seed
        )
        assert graph.edges.dtype == np.int64
        assert graph.edges.tobytes() == expect.tobytes()
        assert block_of == expect_blocks
        assert graph.ids[0] == "n00000" and len(graph.ids) == nodes
        assert not graph.directed

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_tiny_graphs(self, nodes):
        graph, _ = planted_partition_graph(nodes, 1, 1.0, 0.0, seed=0)
        expect, _ = reference_planted_partition(nodes, 1, 1.0, 0.0, seed=0)
        assert graph.edges.shape == expect.shape == (nodes * (nodes - 1), 2)
        assert graph.edges.tobytes() == expect.tobytes()

    def test_nodes_fewer_than_blocks_rejected(self):
        with pytest.raises(ValueError):
            planted_partition_graph(1, 2, 0.1, 0.01, seed=0)
