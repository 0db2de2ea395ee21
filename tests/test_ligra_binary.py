"""Ligra binary format parity (reference graph.rs:322-357 / 383-457):
byte-level layout, round trips through our partitioned build, and the
hub-spill re-assembly path."""

import numpy as np
import pyarrow as pa

import oracle
from ligrust_ray.pipelines.build import build_graph_from_edges
from ligrust_ray.sources.adjacency_text import (adjacency_text_to_edges,
                                                edges_to_csr,
                                                read_adjacency_text)
from ligrust_ray.sources.ligra_binary import (binary_to_graph_dir,
                                              dump_graph_dir,
                                              read_ligra_binary,
                                              write_ligra_binary)
from ligrust_ray.state.graph import DistGraph


def _csr_both(n, src, dst):
    out_ip, out_t = edges_to_csr(n, src, dst)
    in_ip, in_t = edges_to_csr(n, dst, src)     # in-lists src-ascending
    return out_ip, out_t, in_ip, in_t


def test_binary_layout_bytes(tmp_path):
    # 2 nodes: 0->1, 1->0, 1->1
    src = np.array([0, 1, 1], dtype=np.int64)
    dst = np.array([1, 0, 1], dtype=np.int64)
    f = str(tmp_path / "g.bin")
    write_ligra_binary(f, *_csr_both(2, src, dst))
    raw = np.fromfile(f, dtype="<u8")
    # header [n, m]
    assert raw[0] == 2 and raw[1] == 3
    # out nodes: (degree, offset) pairs — Node field order graph.rs:140-143
    assert raw[2:6].tolist() == [1, 0, 2, 1]
    # out targets
    assert raw[6:9].tolist() == [1, 0, 1]
    # in nodes + targets (node0 <- {1}; node1 <- {0, 1}, src-ascending)
    assert raw[9:13].tolist() == [1, 0, 2, 1]
    assert raw[13:16].tolist() == [1, 0, 1]


def test_roundtrip_arrays(tmp_path):
    src, dst = oracle.random_digraph(80, 4.0, seed=3)
    arrays = _csr_both(80, src, dst)
    f = str(tmp_path / "g.bin")
    write_ligra_binary(f, *arrays)
    n, m, *got = read_ligra_binary(f)
    assert n == 80 and m == len(src)
    for a, b in zip(arrays, got):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


def test_dump_from_graph_dir_matches_direct(ray_session, tmp_path):
    """dump(build(edges)) must equal write(csr(edges)) byte-for-byte."""
    e = adjacency_text_to_edges(oracle.ADJACENCY_FIXTURE)
    n = read_adjacency_text(oracle.ADJACENCY_FIXTURE)[0]
    gdir = str(tmp_path / "g")
    build_graph_from_edges(e, gdir, n=n, num_partitions=3)
    f1 = str(tmp_path / "dumped.bin")
    dump_graph_dir(gdir, f1)
    src = e.column("src").to_numpy()
    dst = e.column("dst").to_numpy()
    f2 = str(tmp_path / "direct.bin")
    write_ligra_binary(f2, *_csr_both(n, src, dst))
    assert open(f1, "rb").read() == open(f2, "rb").read()


def test_dump_with_hub_spill(ray_session, tmp_path):
    """A hub-split build (empty local in-lists + spill files) must dump the
    SAME bytes as the unsplit build."""
    src, dst = oracle.random_digraph(60, 3.0, seed=8)
    src = np.concatenate([src, np.arange(60, dtype=np.int64)])
    dst = np.concatenate([dst, np.full(60, 5, dtype=np.int64)])
    t = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    plain = str(tmp_path / "plain")
    split = str(tmp_path / "split")
    build_graph_from_edges(t, plain, n=60, num_partitions=4)
    build_graph_from_edges(t, split, n=60, num_partitions=4,
                           hub_in_threshold=8)
    assert DistGraph.load(split).has_hubs
    f1, f2 = str(tmp_path / "p.bin"), str(tmp_path / "s.bin")
    dump_graph_dir(plain, f1)
    dump_graph_dir(split, f2)
    assert open(f1, "rb").read() == open(f2, "rb").read()


def test_import_bin_runs_algorithms(ray_session, tmp_path):
    """bin -> graph dir -> DistGraph: CC/BFS match the oracle."""
    from ligrust_ray.algos.bfs import bfs
    from ligrust_ray.algos.cc import cc

    src, dst = oracle.random_digraph(70, 4.0, seed=12)
    f = str(tmp_path / "g.bin")
    write_ligra_binary(f, *_csr_both(70, src, dst))
    gdir = str(tmp_path / "imported")
    man = binary_to_graph_dir(f, gdir, num_partitions=4)
    assert man["n"] == 70
    g = DistGraph.load(gdir)
    cc(g)
    np.testing.assert_array_equal(g.collect_state(["ids"])["ids"],
                                  oracle.cc_oracle(70, src, dst))
    bfs(g, root=0)
    exp_par, exp_lvl = oracle.bfs_oracle(70, src, dst, 0)
    np.testing.assert_array_equal(g.collect_state(["level"])["level"],
                                  exp_lvl)
