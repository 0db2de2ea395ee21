"""Graph-build pipeline correctness: extraction -> ids -> edges -> CSR."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import oracle
from ligrust_ray.functions.extract import ExtractLinks
from ligrust_ray.pipelines import build as B
from ligrust_ray.sources.synth import generate_pages
from ligrust_ray.sources.adjacency_text import (
    adjacency_text_to_edges, edges_to_csr, read_adjacency_text,
    write_adjacency_text)


def _read_csr_edges(graph_dir, direction, nparts):
    """CSR parquet -> (key, other) edge array, plus per-list sortedness."""
    ks, vs, sorted_ok = [], [], True
    for p in range(nparts):
        t = pq.read_table(f"{graph_dir}/{direction}/part-{p:05d}.parquet")
        nid = t.column("node_id").to_numpy()
        col = t.column("neighbors").combine_chunks()
        off = col.offsets.to_numpy()
        val = col.values.to_numpy() if len(col.values) else np.zeros(0, np.int64)
        deg = np.diff(off)
        for i in range(len(nid)):
            seg = val[off[i]:off[i + 1]]
            if np.any(np.diff(seg) < 0):
                sorted_ok = False
        ks.append(np.repeat(nid, deg))
        vs.append(val)
    return np.concatenate(ks), np.concatenate(vs), sorted_ok


def test_build_from_pages_roundtrip(ray_session, tmp_path):
    import ray.data

    pages = generate_pages(200, seed=11)
    gd = str(tmp_path / "g")
    man = B.build_graph_from_pages(ray.data.from_arrow(pages), gd,
                                   num_partitions=4)
    # expected edges: direct extraction + (bucket, url) id order
    eu = ExtractLinks()(pages)
    src_u = eu.column("src_url").to_pylist()
    dst_u = eu.column("dst_url").to_pylist()
    universe = sorted(set(pages.column("url").to_pylist()) | set(dst_u),
                      key=lambda u: (B._crc_bucket([u], 64)[0], u))
    ids = {u: i for i, u in enumerate(universe)}
    assert man["n"] == len(universe)
    assert man["m"] == len(src_u)
    exp = np.array(sorted((ids[a], ids[b]) for a, b in zip(src_u, dst_u)))
    out_k, out_v, out_sorted = _read_csr_edges(gd, "out", 4)
    got = np.stack([out_k, out_v], axis=1)
    got = got[np.lexsort((got[:, 1], got[:, 0]))]
    np.testing.assert_array_equal(got, exp)
    assert out_sorted
    # in-CSR: same multiset transposed, lists sorted by source (graph.rs:280)
    in_k, in_v, in_sorted = _read_csr_edges(gd, "in", 4)
    got_in = np.stack([in_v, in_k], axis=1)
    got_in = got_in[np.lexsort((got_in[:, 1], got_in[:, 0]))]
    np.testing.assert_array_equal(got_in, exp)
    assert in_sorted
    # url_map persisted
    um = pq.read_table(f"{gd}/url_map")
    assert um.num_rows == len(universe)


def test_build_from_edges_gap_partitions(ray_session, tmp_path):
    # nodes 50..59 have no edges at all; their partition must still exist
    src = np.array([0, 1, 2], dtype=np.int64)
    dst = np.array([1, 2, 0], dtype=np.int64)
    gd = str(tmp_path / "g")
    man = B.build_graph_from_edges(pa.table({"src": src, "dst": dst}), gd,
                                   n=60, num_partitions=6)
    assert man["n"] == 60 and man["m"] == 3
    for p in range(6):
        t = pq.read_table(f"{gd}/out/part-{p:05d}.parquet")
        assert t.num_rows == 10  # all ranges fully materialised (gap filling)


def test_adjacency_text_parity(tmp_path):
    # the reference fixture: n=4, m=2, offsets [0,1,1,2], targets [1,3]
    p = tmp_path / "g.input"
    write_adjacency_text(str(p), np.array([0, 1, 1, 2]), np.array([1, 3]))
    n, m, off, tgt = read_adjacency_text(str(p))
    assert (n, m) == (4, 2)
    np.testing.assert_array_equal(off, [0, 1, 1, 2])
    np.testing.assert_array_equal(tgt, [1, 3])
    e = adjacency_text_to_edges(str(p))
    assert list(zip(e["src"].to_pylist(), e["dst"].to_pylist())) == [(0, 1), (2, 3)]
    # CSR helper round-trip incl. zero-degree gap nodes
    indptr, flat = edges_to_csr(4, e["src"].to_numpy(), e["dst"].to_numpy())
    np.testing.assert_array_equal(indptr, [0, 1, 1, 2, 2])
    np.testing.assert_array_equal(flat, [1, 3])


def test_reference_fixture_file():
    e = adjacency_text_to_edges(oracle.ADJACENCY_FIXTURE)
    assert list(zip(e["src"].to_pylist(), e["dst"].to_pylist())) == [(0, 1), (2, 3)]


_REFERENCE_INPUT = "/root/reference/test-graph.input"


@pytest.mark.skipif(not os.path.exists(_REFERENCE_INPUT),
                    reason="reference checkout not present")
def test_vendored_fixture_matches_reference():
    """The in-repo fixture must parse exactly as the reference's own file."""
    n, m, off, tgt = read_adjacency_text(oracle.ADJACENCY_FIXTURE)
    rn, rm, roff, rtgt = read_adjacency_text(_REFERENCE_INPUT)
    assert (n, m) == (rn, rm)
    np.testing.assert_array_equal(off, roff)
    np.testing.assert_array_equal(tgt, rtgt)


def test_streaming_adjacency_reader_parity(ray_session, tmp_path):
    """The chunked tokenizer (bounded memory) must produce the exact edge
    stream of the slurp reader, across chunk/batch boundaries, zero-degree
    gaps and the reference fixture."""
    import oracle
    from ligrust_ray.sources.adjacency_text import (
        adjacency_text_to_edges_stream, edges_to_csr, stream_edges_dataset,
        write_adjacency_text)

    # random graph with zero-degree nodes, tiny chunk sizes to force splits
    src, dst = oracle.random_digraph(50, 3.0, seed=13)
    indptr, flat = edges_to_csr(50, src, dst)
    p = str(tmp_path / "g.txt")
    write_adjacency_text(p, indptr[:-1], flat)
    ref = adjacency_text_to_edges(p)
    for batch_edges, chunk in ((7, 64), (1000, 16), (13, 4096)):
        tables = list(adjacency_text_to_edges_stream(
            p, batch_edges=batch_edges, chunk_bytes=chunk))
        got = pa.concat_tables(tables)
        assert got.equals(ref)
    ds = stream_edges_dataset(p, batch_edges=17)
    got = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    df = got.to_pandas().sort_values(["src", "dst"]).reset_index(drop=True)
    rdf = ref.to_pandas().sort_values(["src", "dst"]).reset_index(drop=True)
    assert df.equals(rdf)

    tables = list(adjacency_text_to_edges_stream(
        oracle.ADJACENCY_FIXTURE, batch_edges=1))
    got = pa.concat_tables(tables)
    assert list(zip(got["src"].to_pylist(), got["dst"].to_pylist())) == \
        [(0, 1), (2, 3)]


def test_bucketed_join_matches_broadcast(ray_session, tmp_path):
    """edges_with_ids broadcast path vs the bucketed hash-join scale path
    (forced via broadcast_max=0) must produce the same edge multiset."""
    import pandas as pd
    import ray.data

    from ligrust_ray.pipelines.build import (assign_ids, edges_with_ids,
                                             extract_edge_urls)
    from ligrust_ray.sources.synth import generate_pages

    pages = ray.data.from_arrow(generate_pages(300, seed=7))
    edge_urls = extract_edge_urls(
        pages.select_columns(["url", "html"])).materialize()
    universe = pages.select_columns(["url"]).union(
        edge_urls.select_columns(["dst_url"]).rename_columns(
            {"dst_url": "url"}))
    mapping, n = assign_ids(universe)
    mapping = mapping.materialize()

    def norm(ds):
        df = ds.to_pandas().sort_values(["src", "dst"]).reset_index(drop=True)
        return df.astype({"src": "int64", "dst": "int64"})

    bc = norm(edges_with_ids(edge_urls, mapping))
    bk = norm(edges_with_ids(edge_urls, mapping, broadcast_max=0))
    pd.testing.assert_frame_equal(bc, bk)


def test_hashed_resolver_matches_index_in(ray_session, monkeypatch):
    """The broadcast resolver's 'hashed' layout (md5-u64 searchsorted +
    string verify, used above INDEX_IN_MAX urls) must resolve the same
    edges as the small-map 'index_in' layout — forced by dropping the
    threshold to 0."""
    import pandas as pd
    import ray.data

    from ligrust_ray.pipelines import build
    from ligrust_ray.pipelines.build import (assign_ids, edges_with_ids,
                                             extract_edge_urls)
    from ligrust_ray.sources.synth import generate_pages

    pages = ray.data.from_arrow(generate_pages(300, seed=11))
    edge_urls = extract_edge_urls(
        pages.select_columns(["url", "html"])).materialize()
    universe = pages.select_columns(["url"]).union(
        edge_urls.select_columns(["dst_url"]).rename_columns(
            {"dst_url": "url"}))
    mapping, _ = assign_ids(universe)
    mapping = mapping.materialize()

    def norm(ds):
        df = ds.to_pandas().sort_values(["src", "dst"]).reset_index(drop=True)
        return df.astype({"src": "int64", "dst": "int64"})

    small = norm(edges_with_ids(edge_urls, mapping))
    monkeypatch.setattr(build, "INDEX_IN_MAX", 0)
    hashed = norm(edges_with_ids(edge_urls, mapping))
    pd.testing.assert_frame_equal(small, hashed)


def test_pages_domain_pagerank_matches_oracle(ray_session):
    """Host-level PageRank vs its contract SQL at sf0.001: the engine
    runs PageRankDelta over the re-id'd domain CSR; the oracle scores the
    closed form on domain strings — id assignment must cancel out.
    Also pins the no-in-edge fixed point (0.15 -> 150000 ppm)."""
    import duckdb

    import __ray_entry__ as E
    from ligrust_ray.pipelines import queries as Q

    sf = "/root/testdata/sf0.001"
    got = (Q.q_pages_domain_pagerank(sf).to_pandas()
           .sort_values("domain").reset_index(drop=True))
    exp = (duckdb.connect().execute(E.oracle_sql()["pages_domain_pagerank"])
           .df().sort_values("domain").reset_index(drop=True))
    assert list(got["domain"]) == list(exp["domain"])
    np.testing.assert_array_equal(got["rank_ppm"].to_numpy(np.int64),
                                  exp["rank_ppm"].to_numpy(np.int64))
    assert (got["rank_ppm"] >= 150000).all()
