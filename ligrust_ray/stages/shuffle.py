"""Two-phase hash-shuffle aggregation helpers.

Ray Data's built-in ``groupby().count()/min()/sum()`` (sort-based Aggregate)
reduces rows in a Python loop (~10k rows/s measured in-sandbox) — unusable
as a building block. These helpers express the same associative aggregations
as the canonical distributed plan instead:

1. **partial combine** inside ``map_batches`` (vectorised pandas groupby per
   batch — the map-side combiner that bounds shuffle volume at scale);
2. route each partially-combined group to ``part = hash(key) % P``;
3. ``groupby("__part").map_groups`` (P small ⇒ few groups ⇒ sort-shuffle
   cost only; no per-row Python) with a vectorised final combine.

This IS a hash-shuffle aggregate — identical wire shape to what a 100 TB
run needs (partial aggregates move, not raw rows; P scales with cluster
size), while being ~100x faster than the built-in at sandbox scale.

Supported kinds: "count", "sum", "min", "max" (associative ⇒ partial+final
compose exactly).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

_FINAL_KIND = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}


def _arrow_agg(t: pa.Table, keys: list[str],
               specs: dict[str, tuple[str | None, str]]) -> pa.Table:
    """One Arrow hash-aggregate over ``t``: specs = {out: (col, kind)}
    with kind in count/sum/min/max. Null-KEY rows are dropped first
    (pandas-groupby dropna parity — Arrow would otherwise keep a null
    group). Output columns: keys + outs, in that order."""
    for k in keys:
        col = t.column(k)
        if col.null_count:
            t = t.filter(pc.is_valid(col))
    gspec, producers = [], {}
    for out, (col, kind) in specs.items():
        src = ([], "count_all") if kind == "count" else (col, kind)
        name = "count_all" if kind == "count" else f"{col}_{kind}"
        if name not in producers:
            producers[name] = []
            gspec.append(src)
        producers[name].append(out)
    g = t.group_by(keys).aggregate(gspec)
    cols = {k: g.column(k) for k in keys}
    for name, outs in producers.items():
        for out in outs:
            cols[out] = g.column(name)
    return pa.table(cols)


def _empty_agg_table(t: pa.Table, keys: list[str],
                     specs: dict[str, tuple[str | None, str]],
                     with_part: bool) -> pa.Table:
    """Typed empty result for zero-column empty blocks (upstream
    map_groups emits those): column type from ``t`` when present, int64
    fallback (zero rows — concat takes dtype from the real blocks)."""
    def typ(c):
        return t.column(c).type if c in t.column_names else pa.int64()

    cols = {k: pa.array([], type=typ(k)) for k in keys}
    for out, (col, kind) in specs.items():
        cols[out] = pa.array([], type=(pa.int64() if kind == "count"
                                       else typ(col)))
    if with_part:
        cols["__part"] = pa.array([], type=pa.int64())
    return pa.table(cols)


def grouped_agg(ds: ray.data.Dataset, keys: list[str],
                aggs: dict[str, tuple[str | None, str]],
                num_partitions: int = 32) -> ray.data.Dataset:
    """Group ``ds`` by ``keys`` computing ``aggs`` = {out_col: (src_col, kind)}.

    ``src_col`` is ignored for kind="count". Output columns: keys + out
    columns, one row per distinct key combination.

    Both the map-side partial and the in-partition final combine run
    Arrow's C++ hash aggregate (``Table.group_by``) — no Arrow->pandas
    hop on the wide step, which for string-keyed aggregates (tokens,
    urls) used to copy every key into a Python-object column per batch.
    Only the already-combined key rows (one per distinct key per block)
    touch pandas, for the partition hash.
    """
    for out, (_, kind) in aggs.items():
        if kind not in _FINAL_KIND:
            raise ValueError(f"unsupported agg kind {kind!r} for {out!r}")
    needed = set(keys) | {c for c, k in aggs.values() if k != "count"}
    finals = {out: (out, _FINAL_KIND[kind])
              for out, (_, kind) in aggs.items()}

    def partial(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            # Ray's group-less empty blocks arrive zero-column — pass a
            # TYPED empty through so concat keeps the schema
            return _empty_agg_table(t, keys, aggs, with_part=True)
        if not needed <= set(t.column_names):
            # a NON-empty block missing a needed column is an upstream
            # schema bug — dropping it would silently corrupt the totals
            raise KeyError(
                f"grouped_agg: block missing columns "
                f"{sorted(needed - set(t.column_names))} "
                f"(has {t.column_names})")
        r = _arrow_agg(t, keys, aggs)
        # partition id from the COMBINED key rows (small) — the only
        # pandas touch on the wide path
        h = pd.util.hash_pandas_object(
            r.select(keys).to_pandas(), index=False).to_numpy()
        return r.append_column(
            "__part", pa.array((h % num_partitions).astype(np.int64)))

    def final(t: pa.Table) -> pa.Table:
        if not t.num_rows or not set(keys) <= set(t.column_names):
            return _empty_agg_table(t, keys, aggs, with_part=False)
        return _arrow_agg(t.drop_columns(["__part"]), keys, finals)

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("__part").map_groups(final, batch_format="pyarrow"))


def _empty_like(df: pd.DataFrame, keys: list[str],
                aggs: dict[str, tuple[str | None, str]]) -> pd.DataFrame:
    # upstream map_groups emits ZERO-COLUMN empty pandas blocks for
    # partitions with no groups — those reach this partial too, so a
    # missing column falls back to an int64 empty (zero rows: the final
    # concat takes dtype from the real blocks)
    def col(c):
        return df[c] if c in df.columns else pd.Series([], dtype=np.int64)

    cols = {k: col(k) for k in keys}
    for out, (src_col, kind) in aggs.items():
        cols[out] = pd.Series([], dtype=(np.int64 if kind == "count"
                                         else col(src_col).dtype))
    cols["__part"] = pd.Series([], dtype=np.int64)
    return pd.DataFrame(cols)


def distinct(ds: ray.data.Dataset, keys: list[str],
             num_partitions: int = 32) -> ray.data.Dataset:
    """Distinct rows over ``keys`` (hash-partitioned exact dedup)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df) and not set(keys) <= set(df.columns):
            # zero-column empty block (map_groups, see _empty_like)
            return pd.DataFrame({**{k: pd.Series([], dtype=np.int64)
                                    for k in keys},
                                 "__part": pd.Series([], dtype=np.int64)})
        r = df[keys].drop_duplicates()
        h = pd.util.hash_pandas_object(r[keys], index=False).to_numpy()
        r = r.assign(__part=(h % num_partitions).astype(np.int64))
        return r

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop(columns="__part").drop_duplicates()

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby("__part").map_groups(final, batch_format="pandas"))


def _part_of(key_arr: pa.ChunkedArray | pa.Array, num_partitions: int
             ) -> pa.Array:
    """Deterministic partition id for a key column: int keys use value
    modulo (cheap, stable); strings use pandas' vectorised siphash. Both
    sides of a co-partition MUST run the same function."""
    if pa.types.is_integer(key_arr.type):
        k = key_arr.cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.array(k % num_partitions)
    h = pd.util.hash_pandas_object(
        key_arr.to_pandas(), index=False).to_numpy()
    return pa.array((h % num_partitions).astype(np.int64))


def _sentinel_fill(n: int, typ: pa.DataType) -> pa.Array:
    """Typed non-null filler column (zeros / empty strings / empty lists)
    for the absent side of a co_group union block — see tag() for why
    nulls are unsafe here."""
    if pa.types.is_integer(typ) or pa.types.is_floating(typ):
        return pa.array(np.zeros(n, dtype=typ.to_pandas_dtype()), type=typ)
    if pa.types.is_boolean(typ):
        return pa.array(np.zeros(n, dtype=bool))
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        return pa.array([""] * n, type=typ)
    if pa.types.is_list(typ) or pa.types.is_large_list(typ):
        off_t = pa.int64() if pa.types.is_large_list(typ) else pa.int32()
        cls = pa.LargeListArray if pa.types.is_large_list(typ) \
            else pa.ListArray
        return cls.from_arrays(
            pa.array(np.zeros(n + 1, dtype=off_t.to_pandas_dtype()),
                     type=off_t),
            pa.array([], type=typ.value_type))
    return pa.nulls(n, typ)        # exotic types: fall back (documented)


def co_group(left: ray.data.Dataset, right: ray.data.Dataset,
             l_on: str, r_on: str, fn, num_partitions: int = 32,
             l_schema: pa.Schema | None = None,
             r_schema: pa.Schema | None = None,
             arrow_fn: bool = False) -> ray.data.Dataset:
    """Hash co-partition two datasets on a key column and apply
    ``fn(l_part: pd.DataFrame, r_part: pd.DataFrame) -> DataFrame|Table``
    once per partition — the shared machinery under every bucketed
    join/verify/propagate stage in this repo. With ``arrow_fn=True``
    the partition fn receives zero-copy ``pa.Table`` slices instead
    (use pyarrow joins / C++ hash aggregates inside — the wide verify
    stages skip the Arrow->pandas copy entirely).

    Both sides ride ONE dataset through a single groupby shuffle: blocks
    keep a fixed Arrow union schema (side-prefixed columns, typed nulls
    for the absent side — a pandas round trip would re-infer dtypes per
    block), and each side is re-extracted null-free before ``fn`` sees
    it, so dtypes survive exactly. Pass ``l_schema``/``r_schema``
    (pyarrow) when known — deriving them via ``ds.schema()`` may execute
    part of the upstream plan."""
    def _as_arrow(s) -> pa.Schema:
        if isinstance(s, pa.Schema):
            return s
        # pandas-backed datasets expose Ray's PandasBlockSchema
        # (names/types of numpy dtypes) instead of a pyarrow schema
        fields = []
        for n, t in zip(s.names, s.types):
            if isinstance(t, pa.DataType):
                fields.append((n, t))
            elif getattr(t, "kind", None) == "O":
                fields.append((n, pa.string()))
            else:
                fields.append((n, pa.from_numpy_dtype(t)))
        return pa.schema(fields)

    l_schema = _as_arrow(l_schema or left.schema().base_schema)
    r_schema = _as_arrow(r_schema or right.schema().base_schema)
    l_cols = [f.name for f in l_schema]
    r_cols = [f.name for f in r_schema]
    # the two key columns MUST route through the same partition function —
    # an int/string (or int/float) mismatch would silently co-locate
    # nothing and return an empty join instead of erroring
    lk, rk = l_schema.field(l_on).type, r_schema.field(r_on).type
    if pa.types.is_integer(lk) != pa.types.is_integer(rk):
        raise TypeError(
            f"co_group key type mismatch: {l_on}:{lk} vs {r_on}:{rk} "
            "(both must be integer, or both non-integer)")
    union_schema = pa.schema(
        [(f"l_{c}", l_schema.field(c).type) for c in l_cols]
        + [(f"r_{c}", r_schema.field(c).type) for c in r_cols]
        + [("__side", pa.int8()), ("__part", pa.int64())])

    def tag(cols, prefix, other_cols, other_prefix, on, side):
        def f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            arrays = {}
            for c in cols:
                arrays[f"{prefix}{c}"] = t.column(c)
            for c in other_cols:
                # SENTINEL fill, not nulls: Ray passes rare zero-column
                # empty blocks (map_groups partitions with no groups)
                # through shuffles untouched, which forces the union onto
                # the pandas block format — and int64-with-null would then
                # widen to float64 corpus-wide. Sentinels survive any
                # format coercion; apply() never reads the absent side.
                arrays[f"{other_prefix}{c}"] = _sentinel_fill(
                    n, union_schema.field(f"{other_prefix}{c}").type)
            arrays["__side"] = pa.array(np.full(n, side, dtype=np.int8))
            arrays["__part"] = _part_of(t.column(on), num_partitions)
            return pa.table({f.name: arrays[f.name]
                             for f in union_schema}, schema=union_schema)
        return f

    def apply(part: pa.Table) -> "pd.DataFrame | pa.Table":
        import pyarrow.compute as pc

        side = part.column("__side")
        lf = part.filter(pc.equal(side, 0)) \
            .select([f"l_{c}" for c in l_cols]) \
            .rename_columns(l_cols)
        rf = part.filter(pc.equal(side, 1)) \
            .select([f"r_{c}" for c in r_cols]) \
            .rename_columns(r_cols)
        if arrow_fn:
            # Acero joins reject ChunkedArray inputs spanning chunks
            # inconsistently across versions — combine first (cheap,
            # still no pandas conversion)
            return fn(lf.combine_chunks(), rf.combine_chunks())
        return fn(lf.to_pandas(), rf.to_pandas())

    both = (left.map_batches(tag(l_cols, "l_", r_cols, "r_", l_on, 0),
                             batch_format="pyarrow")
            .union(right.map_batches(tag(r_cols, "r_", l_cols, "l_",
                                         r_on, 1),
                                     batch_format="pyarrow")))
    return both.groupby("__part").map_groups(apply, batch_format="pyarrow")


def hash_join(left: ray.data.Dataset, right: ray.data.Dataset,
              on: str, l_cols: list[str], r_cols: list[str],
              how: str = "inner", num_partitions: int = 32,
              fill: dict | None = None) -> ray.data.Dataset:
    """Big x big equi-join on an int64 key: BOTH sides hash-partition by
    ``key % P`` and merge per partition (pandas C merge) — the general
    shuffle join; the broadcast join in pipelines/queries.py covers the
    small-side case. ``l_cols``/``r_cols`` are the carried columns
    (names must be disjoint).

    ``how="left"`` requires ``fill`` = {right_col: scalar} covering
    EVERY ``r_cols`` entry: unmatched left rows take those typed fill
    values instead of NaN. Since r5 the per-partition merge is an Acero
    join over zero-copy Arrow slices (``co_group(arrow_fn=True)``) —
    no pandas conversion on either side of the wide step, and the left
    join's misses stay typed (Arrow int64-with-null never widens to
    float64, so 63-bit md5-derived ids survive; ``fill_null`` then
    restores the non-null contract). Built on ``co_group`` (the shared
    co-partition machinery)."""
    import pyarrow.compute as _pc

    all_cols = [on] + list(l_cols) + list(r_cols)
    if len(set(all_cols)) != len(all_cols):
        raise ValueError("join columns must be disjoint")
    if how not in ("inner", "left"):
        raise ValueError(f"unsupported how={how!r}")
    if how == "left":
        if fill is None or set(fill) != set(r_cols):
            raise ValueError("how='left' requires fill values for "
                             f"exactly {sorted(r_cols)}")

    def merge(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if how == "inner":
            return lt.join(rt, keys=[on], join_type="inner")
        j = lt.join(rt, keys=[on], join_type="left outer")
        cols = []
        for name in j.column_names:
            c = j.column(name)
            if name in fill and c.null_count:
                c = _pc.fill_null(c, pa.scalar(fill[name], type=c.type))
            cols.append(c)
        return pa.table(dict(zip(j.column_names, cols)))

    return co_group(left.select_columns([on] + list(l_cols)),
                    right.select_columns([on] + list(r_cols)),
                    l_on=on, r_on=on, fn=merge,
                    num_partitions=num_partitions, arrow_fn=True)


def semi_join(left: ray.data.Dataset, right: ray.data.Dataset,
              l_on: str, r_on: str, anti: bool = False,
              num_partitions: int = 32,
              l_schema: pa.Schema | None = None,
              r_key_type: pa.DataType | None = None) -> ray.data.Dataset:
    """EXISTS / NOT EXISTS filter: keep left rows whose ``l_on`` key
    appears (``anti=False``) or does not appear (``anti=True``) in
    ``right[r_on]`` — the big x big semi/anti join. The right side is
    collapsed to map-side-DISTINCT keys before the shuffle (the
    semi-join combiner: only distinct keys move, never right payload
    rows), then both sides hash co-partition on the key and membership
    is one vectorised ``isin`` per partition. Unlike an inner join,
    left rows are never duplicated when right keys repeat. Pass
    ``r_key_type`` when the right plan should not execute early just
    to derive its schema."""

    empty_dtype = (object if r_key_type is not None
                   and not pa.types.is_integer(r_key_type) else np.int64)

    def key_partial(df: pd.DataFrame) -> pd.DataFrame:
        if r_on not in df.columns:      # zero-column empty block
            return pd.DataFrame({r_on: pd.Series([], dtype=empty_dtype)})
        return df[[r_on]].drop_duplicates()

    rk = right.select_columns([r_on]).map_batches(
        key_partial, batch_format="pandas")
    r_schema = pa.schema([(r_on, r_key_type)]) if r_key_type else None

    def fn(lf: pd.DataFrame, rf: pd.DataFrame) -> pd.DataFrame:
        m = lf[l_on].isin(rf[r_on]).to_numpy()
        return lf[~m if anti else m]

    return co_group(left, rk, l_on=l_on, r_on=r_on, fn=fn,
                    num_partitions=num_partitions,
                    l_schema=l_schema, r_schema=r_schema)


def agg_co_group(left: ray.data.Dataset, right: ray.data.Dataset,
                 keys: list[str], l_on: str, r_on: str,
                 aggs: dict[str, tuple[str | None, str]], fn,
                 num_partitions: int = 32,
                 l_schema: pa.Schema | None = None,
                 r_schema: pa.Schema | None = None) -> ray.data.Dataset:
    """``grouped_agg(left, keys, aggs)`` fused into a ``co_group`` with
    ``right`` — the aggregate-below-the-join plan with ONE wide step
    instead of two: left batches partial-combine map-side (one row per
    key per block — same shuffle volume as grouped_agg's partial), the
    final combine runs inside the join partition right before ``fn``
    sees it. ``keys`` must contain ``l_on`` (co-partitioning by ``l_on``
    co-locates every partial of a key group because the other keys ride
    along). ``l_schema`` describes the PARTIAL layout: keys + agg
    outputs — identical to grouped_agg's output schema."""
    if l_on not in keys:
        raise ValueError(f"l_on {l_on!r} must be one of keys {keys}")
    for out, (_, kind) in aggs.items():
        if kind not in _FINAL_KIND:
            raise ValueError(f"unsupported agg kind {kind!r} for {out!r}")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            e = _empty_like(df, keys, aggs)
            return e.drop(columns="__part")
        g = df.groupby(keys, as_index=False, sort=False)
        named = {
            out: pd.NamedAgg(column=(col if kind != "count" else keys[0]),
                             aggfunc=("size" if kind == "count" else kind))
            for out, (col, kind) in aggs.items()
        }
        return g.agg(**named)

    def final_then_fn(lf: pd.DataFrame, rf: pd.DataFrame):
        if len(lf):
            g = lf.groupby(keys, as_index=False, sort=False)
            named = {out: pd.NamedAgg(column=out,
                                      aggfunc=_FINAL_KIND[kind])
                     for out, (_, kind) in aggs.items()}
            lf = g.agg(**named)
        return fn(lf, rf)

    return co_group(left.map_batches(partial, batch_format="pandas"),
                    right, l_on=l_on, r_on=r_on, fn=final_then_fn,
                    num_partitions=num_partitions,
                    l_schema=l_schema, r_schema=r_schema)


def grouped_apply(ds: ray.data.Dataset, keys: list[str], fn,
                  num_partitions: int = 32,
                  pre=None) -> ray.data.Dataset:
    """Hash-partition by ``keys`` then apply ``fn(partition_df)`` once per
    partition (NOT per group — ``fn`` sees every row of every group whose
    key hashes to that partition and must do its own in-partition grouping,
    vectorised). ``pre`` optionally maps each batch before the shuffle."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if pre is not None:
            df = pre(df)
        if not len(df):
            return df.assign(__part=pd.Series([], dtype=np.int64))
        h = pd.util.hash_pandas_object(df[keys], index=False).to_numpy()
        return df.assign(__part=(h % num_partitions).astype(np.int64))

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return fn(df.drop(columns="__part"))

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby("__part").map_groups(final, batch_format="pandas"))


@ray.remote(num_cpus=0)
def _concat_block_group(blocks: list, names: list, types_ser: bytes
                        ) -> pa.Table:
    import pickle

    sch = pa.schema(list(zip(names, pickle.loads(types_ser))))
    tabs = []
    for b in ray.get(list(blocks)):
        t = (pa.Table.from_pandas(b, preserve_index=False)
             if isinstance(b, pd.DataFrame) else b)
        if t.num_columns:
            tabs.append(t.select(sch.names).cast(sch))
    return pa.concat_tables(tabs) if tabs else sch.empty_table()


def coalesce_blocks(ds: ray.data.Dataset, schema: pa.Schema,
                    max_blocks: int = 32) -> ray.data.Dataset:
    """Rebuild a MATERIALIZED dataset as <= max_blocks Arrow blocks via
    raw block-ref concat tasks (no executor job) — the truss-loop
    block-count fix as a shared utility: iterative co_group/semi_join
    loops otherwise compound block counts ~3x per round, which measures
    EXPONENTIAL wall time (each round's fixed per-block dispatch scales
    with the inflated count). Call once per loop round on the carried
    datasets.

    Blocks are also merged while they are under Ray's
    ``target_min_block_size``: a small carried set becomes ONE block, so
    the next round's sort shuffles run one map/reduce task each instead
    of ``max_blocks`` near-empty ones."""
    import pickle

    bundles = list(ds.iter_internal_ref_bundles())
    refs = [r for bu in bundles for r in bu.block_refs]
    size = sum(bu.size_bytes() for bu in bundles)
    min_block = ray.data.DataContext.get_current().target_min_block_size
    target = max(1, min(max_blocks, -(-size // min_block)))
    if len(refs) <= target:
        return ds
    groups = np.array_split(np.arange(len(refs)), target)
    types_ser = pickle.dumps([f.type for f in schema])
    return ray.data.from_arrow_refs(
        [_concat_block_group.remote([refs[i] for i in g],
                                    schema.names, types_ser)
         for g in groups if len(g)])
