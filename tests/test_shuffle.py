"""stages/shuffle.py — two-phase hash aggregate vs pandas ground truth.

These helpers replace Ray Data's built-in Aggregate everywhere in the repo
(the built-in reduces rows in a Python loop; see stages/shuffle.py
docstring), so their correctness underpins every SQL-checked query.
"""

import numpy as np
import pandas as pd
import pytest
import ray.data

from ligrust_ray.stages import shuffle


def _df(n=5000, seed=0):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "k1": rng.integers(0, 97, n),
        "k2": rng.choice(["alpha", "beta", "gamma", "delta"], n),
        "v": rng.integers(-1000, 1000, n),
    })


@pytest.fixture()
def ds(ray_session):
    # multiple blocks so partial combine + shuffle both do real work
    pdf = _df()
    return ray.data.from_pandas([pdf.iloc[i::4].reset_index(drop=True)
                                 for i in range(4)]), pdf


def test_grouped_agg_count_sum_min_max(ds):
    d, pdf = ds
    got = (shuffle.grouped_agg(
        d, ["k1", "k2"],
        {"n": (None, "count"), "s": ("v", "sum"),
         "lo": ("v", "min"), "hi": ("v", "max")})
        .to_pandas().sort_values(["k1", "k2"]).reset_index(drop=True))
    exp = (pdf.groupby(["k1", "k2"], as_index=False)
           .agg(n=("v", "size"), s=("v", "sum"),
                lo=("v", "min"), hi=("v", "max"))
           .sort_values(["k1", "k2"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got.astype({"n": np.int64}), exp.astype({"n": np.int64}))


def test_grouped_agg_string_key(ds):
    d, pdf = ds
    got = (shuffle.grouped_agg(d, ["k2"], {"s": ("v", "sum")})
           .to_pandas().sort_values("k2").reset_index(drop=True))
    exp = (pdf.groupby("k2", as_index=False).agg(s=("v", "sum"))
           .sort_values("k2").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, exp)


def test_distinct(ds):
    d, pdf = ds
    got = (shuffle.distinct(d, ["k1", "k2"]).to_pandas()
           .sort_values(["k1", "k2"]).reset_index(drop=True))
    exp = (pdf[["k1", "k2"]].drop_duplicates()
           .sort_values(["k1", "k2"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, exp)


def test_grouped_apply(ds):
    d, pdf = ds
    def topv(part):
        return (part.groupby("k1", as_index=False)
                .agg(top=("v", "max")))
    got = (shuffle.grouped_apply(d.map_batches(
        lambda t: t[["k1", "v"]], batch_format="pandas"), ["k1"], topv)
        .to_pandas().sort_values("k1").reset_index(drop=True))
    exp = (pdf.groupby("k1", as_index=False).agg(top=("v", "max"))
           .sort_values("k1").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, exp)


def test_grouped_agg_unsupported_kind(ds):
    d, _ = ds
    with pytest.raises(ValueError, match="unsupported agg kind"):
        shuffle.grouped_agg(d, ["k1"], {"x": ("v", "mean")})


def test_empty_input(ray_session):
    d = ray.data.from_pandas(pd.DataFrame({"k": pd.Series([], dtype=np.int64),
                                           "v": pd.Series([], dtype=np.int64)}))
    out = shuffle.grouped_agg(d, ["k"], {"n": (None, "count")}).to_pandas()
    assert len(out) == 0


def test_agg_co_group_matches_two_step(ray_session):
    """Fused aggregate-into-join == grouped_agg followed by co_group."""
    import pyarrow as pa

    rng = np.random.default_rng(3)
    left = pd.DataFrame({
        "k": rng.integers(0, 40, 3000).astype(np.int64),
        "g": rng.integers(0, 3, 3000).astype(np.int64),
        "v": rng.integers(-50, 50, 3000).astype(np.int64)})
    right = pd.DataFrame({"k": np.arange(40, dtype=np.int64),
                          "name": [f"n{i}" for i in range(40)]})
    lds = ray.data.from_pandas([left.iloc[i::5].reset_index(drop=True)
                                for i in range(5)])
    rds = ray.data.from_pandas(right)

    def merge(lf, rf):
        return lf.merge(rf, on="k")[["k", "g", "s", "n", "name"]]

    got = shuffle.agg_co_group(
        lds, rds, keys=["k", "g"], l_on="k", r_on="k",
        aggs={"s": ("v", "sum"), "n": (None, "count")}, fn=merge,
        l_schema=pa.schema([("k", pa.int64()), ("g", pa.int64()),
                            ("s", pa.int64()), ("n", pa.int64())]),
        r_schema=pa.schema([("k", pa.int64()), ("name", pa.string())])) \
        .to_pandas().sort_values(["k", "g"]).reset_index(drop=True)
    exp = (left.groupby(["k", "g"], as_index=False)
           .agg(s=("v", "sum"), n=("v", "size"))
           .merge(right, on="k")[["k", "g", "s", "n", "name"]]
           .sort_values(["k", "g"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got.astype({"n": np.int64}),
                                  exp.astype({"n": np.int64}))


def test_semi_and_anti_join(ray_session):
    import pyarrow as pa

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 2, 3, 5], type=pa.int64()),
        "lv": pa.array([10.0, 20.0, 21.0, 30.0, 50.0]),
    }))
    # right keys repeat (2 appears twice) and carry a payload column —
    # semi must neither duplicate left rows nor leak right columns
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([2, 2, 3, 7], type=pa.int64()),
        "junk": pa.array(["a", "b", "c", "d"], type=pa.string()),
    }))
    semi = shuffle.semi_join(left.repartition(3), right.repartition(2),
                             l_on="k", r_on="k") \
        .to_pandas().sort_values(["k", "lv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(semi, pd.DataFrame({
        "k": pd.Series([2, 2, 3], dtype=np.int64),
        "lv": [20.0, 21.0, 30.0]}))
    anti = shuffle.semi_join(left.repartition(3), right.repartition(2),
                             l_on="k", r_on="k", anti=True) \
        .to_pandas().sort_values(["k", "lv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(anti, pd.DataFrame({
        "k": pd.Series([1, 5], dtype=np.int64),
        "lv": [10.0, 50.0]}))


def test_semi_join_lazy_right_schema(ray_session):
    # r_key_type must let semi_join build the plan without executing the
    # right side's schema; string keys route through the same hash fn
    left = ray.data.from_pandas(pd.DataFrame({"k": ["a", "b", "c", "d"],
                                              "v": [1, 2, 3, 4]}))
    right = ray.data.from_pandas(pd.DataFrame({"k": ["b", "d", "x"]})) \
        .map_batches(lambda df: df, batch_format="pandas")
    import pyarrow as pa
    got = shuffle.semi_join(
        left, right, l_on="k", r_on="k",
        l_schema=pa.schema([("k", pa.string()), ("v", pa.int64())]),
        r_key_type=pa.string()) \
        .to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, pd.DataFrame({"k": ["b", "d"],
                                                     "v": [2, 4]}))


def test_hash_join_inner(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ligrust_ray.stages.shuffle import hash_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 2, 3, 5], type=pa.int64()),
        "lv": pa.array([10.0, 20.0, 21.0, 30.0, 50.0]),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([2, 3, 3, 4], type=pa.int64()),
        "rs": pa.array(["a", "b", "c", "d"], type=pa.string()),
    }))
    got = hash_join(left.repartition(3), right.repartition(2),
                    on="k", l_cols=["lv"], r_cols=["rs"]) \
        .to_pandas().sort_values(["k", "lv", "rs"]).reset_index(drop=True)
    exp = pd.DataFrame({
        "k": [2, 2, 3, 3],
        "lv": [20.0, 21.0, 30.0, 30.0],
        "rs": ["a", "a", "b", "c"],
    })
    pd.testing.assert_frame_equal(got[["k", "lv", "rs"]], exp)
    assert got["k"].dtype == "int64"


def test_hash_join_left_with_fill(ray_session):
    import pyarrow as pa

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 5], type=pa.int64()),
        "lv": pa.array(["a", "b", "c", "d"], type=pa.string()),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([2, 3], type=pa.int64()),
        "rn": pa.array([20, 30], type=pa.int64()),
    }))
    got = shuffle.hash_join(left.repartition(3), right, on="k",
                            l_cols=["lv"], r_cols=["rn"], how="left",
                            fill={"rn": 0}) \
        .to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, pd.DataFrame({
        "k": pd.Series([1, 2, 3, 5], dtype=np.int64),
        "lv": ["a", "b", "c", "d"],
        "rn": pd.Series([0, 20, 30, 0], dtype=np.int64)}))
    assert got["rn"].dtype == np.int64          # no NaN widening
    with pytest.raises(ValueError, match="requires fill"):
        shuffle.hash_join(left, right, on="k", l_cols=["lv"],
                          r_cols=["rn"], how="left")


def test_hash_join_left_preserves_big_int64(ray_session):
    """Matched rows keep int64 values above 2^53 exactly even when the
    same partition contains unmatched rows (the NaN-widening round-trip
    would silently round them)."""
    import pyarrow as pa

    big = 4611686018427400249        # loses low bits through float64
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2], type=pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([1], type=pa.int64()),
        "rv": pa.array([big], type=pa.int64())}))
    got = shuffle.hash_join(left, right, on="k", l_cols=[],
                            r_cols=["rv"], how="left", fill={"rv": 0},
                            num_partitions=1) \
        .to_pandas().sort_values("k").reset_index(drop=True)
    assert got["rv"].tolist() == [big, 0]
    assert got["rv"].dtype == np.int64


def test_coalesce_blocks_bounds_block_count(ray_session):
    """Small carried sets collapse to one block; sets past the minimum
    block size keep several, never more than ``max_blocks``. Row order
    and typed columns survive both."""
    import pyarrow as pa

    sch = pa.schema([("x", pa.int64())])
    small = ray.data.from_arrow([
        pa.table({"x": pa.array(np.arange(i * 10, i * 10 + 10))},
                 schema=sch) for i in range(40)]).materialize()
    got = shuffle.coalesce_blocks(small, sch).materialize()
    assert got.num_blocks() == 1
    assert got.to_pandas()["x"].tolist() == list(range(400))

    rows = 1 << 20                  # 8 MiB of int64 across 64 blocks
    big = ray.data.from_arrow([
        pa.table({"x": pa.array(np.arange(rows // 64) + i * (rows // 64))},
                 schema=sch) for i in range(64)]).materialize()
    got = shuffle.coalesce_blocks(big, sch, max_blocks=32).materialize()
    assert 1 < got.num_blocks() <= 32
    out = got.to_pandas()["x"].to_numpy()
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, np.arange(rows))
