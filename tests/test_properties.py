"""Property-based conformance (SURVEY.md §5.2 #3-4, mirroring the
reference's quickcheck usage at src/ligra.rs:308-340):
random digraphs -> engine == oracle invariants, idempotence, and
determinism across partition counts."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from ligrust_ray.algos.cc import cc
from ligrust_ray.algos.pagerank import page_rank_delta
from ligrust_ray.pipelines.build import build_graph_from_edges
from ligrust_ray.state.graph import DistGraph


def _graph(tmp, src, dst, n, nparts):
    t = pa.table({"src": pa.array(src, type=pa.int64()),
                  "dst": pa.array(dst, type=pa.int64())})
    build_graph_from_edges(t, tmp, n=n, num_partitions=nparts)
    return DistGraph.load(tmp)


edge_lists = st.integers(5, 40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=120)))


@settings(max_examples=12, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(edge_lists)
def test_cc_matches_oracle_and_idempotent(ray_session, tmp_path_factory, ne):
    n, edges = ne
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    tmp = tmp_path_factory.mktemp("hypcc")
    g = _graph(str(tmp / "g"), src, dst, n, nparts=3)
    cc(g)
    got = g.collect_state(["ids"])["ids"]
    exp = oracle.cc_oracle(n, src, dst)
    np.testing.assert_array_equal(got, exp)
    # idempotent under re-run (fresh state, same graph)
    cc(g)
    np.testing.assert_array_equal(g.collect_state(["ids"])["ids"], exp)


@settings(max_examples=8, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(edge_lists)
def test_pagerank_residual_and_tolerance(ray_session, tmp_path_factory, ne):
    n, edges = ne
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    tmp = tmp_path_factory.mktemp("hyppr")
    g = _graph(str(tmp / "g"), src, dst, n, nparts=3)
    page_rank_delta(g, max_iterations=100)
    got = g.collect_state(["page_rank"])["page_rank"]
    exp, _, _ = oracle.page_rank_delta_oracle(n, src, dst, max_iterations=100)
    np.testing.assert_allclose(got, exp, atol=1e-6)


@pytest.mark.parametrize("nparts", [1, 2, 5, 8])
def test_determinism_across_partition_counts(ray_session, tmp_path, nparts):
    """SURVEY §5.2 #4: identical components/labels/ranks at every
    parallelism level (partition count is the engine's unit of
    parallelism)."""
    from ligrust_ray.algos.labelprop import label_propagation

    src, dst = oracle.random_digraph(120, 3.0, seed=77)
    g = _graph(str(tmp_path / f"p{nparts}"), src, dst, 120, nparts)
    cc(g)
    ids = g.collect_state(["ids"])["ids"]
    np.testing.assert_array_equal(ids, oracle.cc_oracle(120, src, dst))
    label_propagation(g, max_iterations=8)
    labels = g.collect_state(["labels"])["labels"]
    np.testing.assert_array_equal(
        labels, oracle.label_prop_oracle(120, src, dst, max_iterations=8))
    page_rank_delta(g, max_iterations=60)
    pr = g.collect_state(["page_rank"])["page_rank"]
    exp, _, _ = oracle.page_rank_delta_oracle(120, src, dst, max_iterations=60)
    np.testing.assert_allclose(pr, exp, atol=1e-6)


# ---- round 3: salted two-phase plans == single-pass plans ----------------

event_streams = st.lists(
    st.tuples(st.integers(0, 4),                       # user
              st.integers(0, 60 * 3600),               # ts seconds
              st.booleans()),                          # is-click
    min_size=1, max_size=120)


@settings(max_examples=15, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(event_streams, st.sampled_from([600, 3600, 7200]))
def test_salted_windows_match_single_pass(ray_session, evs, slab_s):
    """Random event streams, random slab sizes: the two-phase salted
    sessionize and as-of plans must equal the single-pass sweeps exactly
    (boundary joins, equal timestamps, empty slabs, single-event users)."""
    import pandas as pd
    import ray.data

    from ligrust_ray.dataops import windows

    us = 1_000_000
    t = pa.table({
        "event_id": pa.array(range(len(evs)), type=pa.int64()),
        "ts": pa.array(np.array([e[1] for e in evs], dtype=np.int64) * us
                       ).cast(pa.timestamp("us")),
        "user_id": pa.array([e[0] for e in evs], type=pa.int64()),
        "event_type": pa.array(["click" if e[2] else "view" for e in evs],
                               type=pa.string()),
    })
    plain_s = windows.sessionize(ray.data.from_arrow(t)).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    salt_s = windows.sessionize(ray.data.from_arrow(t),
                                salt_slab_us=slab_s * us).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(plain_s, salt_s)

    plain_a = windows.asof_last_match(ray.data.from_arrow(t)).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    salt_a = windows.asof_last_match(ray.data.from_arrow(t),
                                     salt_slab_us=slab_s * us).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(plain_a, salt_a)


# random multi-line corpora: engine line_dedup == the DuckDB oracle SQL
# (the synthetic sf documents are single-line, so this property test is
# where the removal/reassembly semantics actually get exercised)
_line = st.sampled_from(
    ["", "cookie banner", "nav", "footer (c) corp", "unique-",
     "body text", "A", "the end"])
_doc = st.lists(_line, min_size=0, max_size=6).map("\n".join)
_corpus = st.lists(_doc, min_size=1, max_size=12)


@settings(max_examples=15, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(_corpus, st.integers(2, 4))
def test_line_dedup_matches_duckdb_oracle(ray_session, texts, k):
    import sys

    import duckdb
    import ray.data

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as E
    from ligrust_ray.dataops.dedup import line_dedup

    docs = pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, type=pa.string())})
    got = (line_dedup(ray.data.from_arrow(docs), min_count=k)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents", docs)
    exp = (con.execute(E._line_dedup_sql(k)).fetchdf()
           .sort_values("doc_id").reset_index(drop=True))
    assert got["doc_id"].tolist() == exp["doc_id"].tolist()
    assert got["text_clean"].tolist() == exp["text_clean"].tolist()
    assert got["n_removed"].tolist() == exp["n_removed"].tolist()


_join_frames = st.tuples(
    st.lists(st.tuples(st.integers(0, 15), st.integers(-20, 20)),
             max_size=60),
    st.lists(st.integers(0, 15), max_size=25))


@settings(max_examples=10, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(_join_frames)
def test_semi_anti_join_property(ray_session, lr):
    """semi(L, R) + anti(L, R) partitions L exactly, matching pandas
    isin on arbitrary key multisets (dup keys both sides, empties)."""
    import pandas as pd
    import ray.data

    from ligrust_ray.stages import shuffle

    lrows, rkeys = lr
    left = pd.DataFrame({"k": np.array([a for a, _ in lrows] or [0],
                                       dtype=np.int64)[: len(lrows)],
                         "v": np.array([b for _, b in lrows] or [0],
                                       dtype=np.int64)[: len(lrows)]})
    right = pd.DataFrame({"k": np.array(rkeys, dtype=np.int64)})
    lds = ray.data.from_pandas(left).repartition(3)
    rds = ray.data.from_pandas(right).repartition(2)
    import pyarrow as pa

    sch = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    semi = shuffle.semi_join(lds, rds, l_on="k", r_on="k",
                             l_schema=sch, r_key_type=pa.int64()) \
        .to_pandas()
    anti = shuffle.semi_join(lds, rds, l_on="k", r_on="k", anti=True,
                             l_schema=sch, r_key_type=pa.int64()) \
        .to_pandas()
    m = left["k"].isin(set(rkeys))
    exp_semi = left[m].sort_values(["k", "v"]).reset_index(drop=True)
    exp_anti = left[~m].sort_values(["k", "v"]).reset_index(drop=True)

    def norm(df):
        return df.sort_values(["k", "v"]).reset_index(drop=True) \
            if len(df) else exp_semi.iloc[:0]

    pd.testing.assert_frame_equal(norm(semi), exp_semi.astype(np.int64))
    pd.testing.assert_frame_equal(norm(anti), exp_anti.astype(np.int64))
    assert len(semi) + len(anti) == len(left)


@settings(max_examples=60, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.lists(st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=0x2060),
    max_size=40), min_size=1, max_size=8))
def test_dsir_tokenize_hash_matches_duckdb(texts):
    """The DSIR per-token (bucket) stream — pyarrow RE2 whitespace split
    + md5 bucket hash — equals DuckDB's regexp_extract_all('\\S+') +
    md5_number_lower on arbitrary unicode text (both engines are RE2, so
    exotic whitespace must tokenize identically). Pure-kernel property:
    no Ray job per example."""
    import duckdb
    import pyarrow as pa

    from ligrust_ray.dataops import dsir

    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    parents, bucket = dsir._doc_token_buckets(t, "text")
    got = sorted(zip(parents.tolist(), bucket.tolist()))

    con = duckdb.connect()
    con.register("d", t)
    exp = sorted(map(tuple, con.execute(
        "SELECT doc_id, CAST(md5_number_lower(tk) % 8192 AS BIGINT) "
        "FROM (SELECT doc_id, "
        "UNNEST(regexp_extract_all(text, '\\S+')) AS tk FROM d)"
    ).fetchall()))
    assert got == exp


def test_adamic_adar_term_matches_duckdb_ln():
    """The Adamic-Adar fixed-point term round(AA_SCALE/ln(d)) computed
    with numpy float64 equals DuckDB's FLOOR(AA_SCALE/LN(d)+0.5) for
    EVERY degree the wedge generator can emit (2..CN_DEGREE_CAP) and two
    orders of magnitude beyond — the engine-vs-oracle parity the summed
    aa_ppm hash compare rests on."""
    import duckdb

    from ligrust_ray.pipelines.queries import AA_SCALE

    d = np.arange(2, 100_001, dtype=np.float64)
    py = np.floor(AA_SCALE / np.log(d) + 0.5).astype(np.int64)
    db = duckdb.sql(
        f"SELECT CAST(FLOOR({AA_SCALE}.0/LN(d)+0.5) AS BIGINT) AS v "
        "FROM (SELECT UNNEST(range(2, 100001)) AS d) ORDER BY d"
    ).df()["v"].to_numpy()
    assert (py == db).all()


@given(st.lists(st.text(max_size=60), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_char_entropy_matches_slow_mirror(texts):
    import math

    import pyarrow as pa

    from ligrust_ray.dataops.textstats import char_entropy_batch

    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    r = char_entropy_batch(t)
    got = dict(zip(r.column("doc_id").to_pylist(),
                   r.column("entropy_ubits").to_pylist()))
    for i, s in enumerate(texts):
        if not s:
            assert i not in got
            continue
        n_by = {}
        for ch in s:
            n_by[ch] = n_by.get(ch, 0) + 1
        nn = float(len(s))
        exp = sum(int(math.floor((n / nn)
                                 * (math.log2(nn) - math.log2(float(n)))
                                 * 1e6 + 0.5)) for n in n_by.values())
        assert got[i] == exp, (i, s)
