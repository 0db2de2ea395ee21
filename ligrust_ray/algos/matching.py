"""Maximal matching over an undirected simple edge list — the classic
Ligra-family app (local-max matching, Blelloch/Fineman/Shun SPAA'12)
missing from the reference's shipped trio (reference kernel surface:
/root/reference/src/algos.rs; same edgeMap/filter algebra as the
repo's MIS and truss peels).

Deterministic shared-priority spec (DuckDB-replicable, see
``__ray_entry__._matching_sql``): every undirected edge (a < b) gets

    h = md5_number_lower(a || ':' || b) % 2^63

Each round, an active edge is MATCHED iff ``h`` equals the per-endpoint
MAX over still-active incident edges at BOTH endpoints; matched
endpoints leave the graph and their incident edges deactivate.
Local-max matching drains in O(log m) rounds in expectation; because
the priority sequence is deterministic and shared with the SQL oracle,
both engines produce the EXACT same matched set (including the
measure-zero equal-hash tie, which both resolve the same way).

Scale shape (distributed mode): per round, the per-node max is ONE
partial-combine hash aggregate over the exploded endpoints (max is
associative — partials move, never edges twice), both endpoint checks
are bucketed ``co_group`` joins against that bounded (node, mh) table,
and deactivation is two hash anti semi-joins against the matched-vertex
keys. Each round materializes only the shrinking active set — never
O(n) driver state. Single-task fast path below
``MATCH_SINGLE_TASK_MAX`` edges runs the identical rounds vectorised in
one Ray task (same economics as algos/truss.py / the walks fast path).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ligrust_ray.dataops.hashing import md5_u64_lower_arrow
from ligrust_ray.stages import shuffle

MATCH_SINGLE_TASK_MAX = 1 << 22
_MASK63 = np.uint64((1 << 63) - 1)   # & mask == % 2^63 for uint64

_EDGE_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                          ("h", pa.int64())])
_NM_SCHEMA = pa.schema([("node", pa.int64()), ("mh", pa.int64())])
_OUT_SCHEMA = pa.schema([("u", pa.int64()), ("v", pa.int64()),
                         ("rnd", pa.int64())])


def _with_priority(t: pa.Table) -> pa.Table:
    """Attach h = md5_number_lower('a:b') % 2^63 (int64, non-negative)."""
    import pyarrow.compute as pc

    a = t.column("a").to_numpy().astype(np.int64)
    b = t.column("b").to_numpy().astype(np.int64)
    if not len(a):
        return _EDGE_SCHEMA.empty_table()
    s = pc.binary_join_element_wise(
        pc.cast(pa.array(a), pa.string()),
        pc.cast(pa.array(b), pa.string()), ":")
    h = (md5_u64_lower_arrow(s) & _MASK63).astype(np.int64)
    return pa.table({"a": pa.array(a), "b": pa.array(b),
                     "h": pa.array(h)}, schema=_EDGE_SCHEMA)


def _explode(t: pa.Table) -> pa.Table:
    a = t.column("a").to_numpy().astype(np.int64)
    b = t.column("b").to_numpy().astype(np.int64)
    h = t.column("h").to_numpy().astype(np.int64)
    return pa.table({"node": pa.array(np.concatenate([a, b])),
                     "h": pa.array(np.concatenate([h, h]))})


def _match_round_arrays(a: np.ndarray, b: np.ndarray, h: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """One local-max round: (matched_mask, keep_mask) over active edges."""
    nodes = np.concatenate([a, b])
    uniq, inv = np.unique(nodes, return_inverse=True)
    mh = np.zeros(len(uniq), dtype=np.int64)      # h >= 0 always
    np.maximum.at(mh, inv, np.concatenate([h, h]))
    ia, ib = inv[:len(a)], inv[len(a):]
    sel = (h == mh[ia]) & (h == mh[ib])
    dead = np.zeros(len(uniq), dtype=bool)
    dead[ia[sel]] = True
    dead[ib[sel]] = True
    keep = ~sel & ~dead[ia] & ~dead[ib]
    return sel, keep


@ray.remote
def _match_task(blocks: list, max_rounds: int) -> pa.Table:
    # blocks arrive as a list of object refs (driver never materializes
    # the edge set); fetched zero-copy from the local object store
    blocks = ray.get(list(blocks))
    tabs = [t.select(["a", "b", "h"]) for t in blocks if t.num_rows]
    if not tabs:
        return _OUT_SCHEMA.empty_table()
    t = pa.concat_tables(tabs)
    a = t.column("a").to_numpy().astype(np.int64)
    b = t.column("b").to_numpy().astype(np.int64)
    h = t.column("h").to_numpy().astype(np.int64)
    out_u, out_v, out_r = [], [], []
    rnd = 0
    while len(a):
        rnd += 1
        if rnd > max_rounds:
            raise RuntimeError(
                f"maximal_matching: no fixed point in {max_rounds} rounds")
        sel, keep = _match_round_arrays(a, b, h)
        out_u.append(a[sel])
        out_v.append(b[sel])
        out_r.append(np.full(int(sel.sum()), rnd, dtype=np.int64))
        a, b, h = a[keep], b[keep], h[keep]

    def cat(xs):
        return np.concatenate(xs) if xs else np.array([], dtype=np.int64)

    return pa.table({"u": pa.array(cat(out_u)), "v": pa.array(cat(out_v)),
                     "rnd": pa.array(cat(out_r))}, schema=_OUT_SCHEMA)


def _keep_max(key: str):
    """co_group fn: keep active edges whose h equals the per-node max on
    the ``key`` endpoint (vectorised pandas merge per partition)."""
    def fn(lf: pd.DataFrame, rf: pd.DataFrame) -> pd.DataFrame:
        j = lf.merge(rf, left_on=key, right_on="node")
        return j[j["h"] == j["mh"]][["a", "b", "h"]]
    return fn


def maximal_matching(edges: "ray.data.Dataset | pa.Table",
                     mode: str = "auto", max_rounds: int = 64,
                     num_partitions: int = 32) -> ray.data.Dataset:
    """Matched edges (u, v, rnd) of the deterministic local-max maximal
    matching; ``edges`` is the distinct simple undirected pair list
    (columns a < b, no loops). ``mode``: "auto" picks the single-task
    fast path below MATCH_SINGLE_TASK_MAX edges; "distributed" forces
    the per-round shuffle plan (tests use it for parity)."""
    if mode not in ("auto", "single", "distributed"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(edges, pa.Table):
        edges = ray.data.from_arrow(edges)
    prio = edges.map_batches(_with_priority, batch_format="pyarrow") \
        .materialize()
    m = prio.count()
    if mode == "single" or (mode == "auto" and m <= MATCH_SINGLE_TASK_MAX):
        return ray.data.from_arrow(
            ray.get(_match_task.remote(prio.to_arrow_refs(), max_rounds)))

    active = prio
    matched: list[ray.data.Dataset] = []
    for rnd in range(1, max_rounds + 1):
        if not active.count():
            break
        # materialized: nm feeds TWO co_groups (cand_a and won) — a lazy
        # plan would re-run the explode + max shuffle per consumer
        nm = shuffle.grouped_agg(
            active.map_batches(_explode, batch_format="pyarrow"),
            ["node"], {"mh": ("h", "max")},
            num_partitions=num_partitions).materialize()
        cand_a = shuffle.co_group(
            active, nm, l_on="a", r_on="node", fn=_keep_max("a"),
            num_partitions=num_partitions,
            l_schema=_EDGE_SCHEMA, r_schema=_NM_SCHEMA)
        won = shuffle.co_group(
            cand_a, nm, l_on="b", r_on="node", fn=_keep_max("b"),
            num_partitions=num_partitions,
            l_schema=_EDGE_SCHEMA, r_schema=_NM_SCHEMA).materialize()
        matched.append(won.map_batches(
            lambda t, _r=rnd: pa.table(
                {"u": t.column("a").cast(pa.int64()),
                 "v": t.column("b").cast(pa.int64()),
                 "rnd": pa.array(np.full(t.num_rows, _r, dtype=np.int64))},
                schema=_OUT_SCHEMA),
            batch_format="pyarrow").materialize())
        mv = shuffle.distinct(
            won.map_batches(_explode, batch_format="pyarrow")
            .map_batches(lambda t: t.select(["node"]),
                         batch_format="pyarrow"),
            ["node"], num_partitions=num_partitions).materialize()
        surv = shuffle.semi_join(
            active, mv, l_on="a", r_on="node", anti=True,
            num_partitions=num_partitions, l_schema=_EDGE_SCHEMA,
            r_key_type=pa.int64())
        active = shuffle.semi_join(
            surv, mv, l_on="b", r_on="node", anti=True,
            num_partitions=num_partitions, l_schema=_EDGE_SCHEMA,
            r_key_type=pa.int64()).materialize()
        # each co_group/semi_join round multiplies the carried block
        # count (~7x here), and every sort shuffle pays per block pair —
        # coalesce the carried set so round cost stays bounded
        active = shuffle.coalesce_blocks(active, _EDGE_SCHEMA).materialize()
    else:
        if active.count():
            raise RuntimeError(
                f"maximal_matching: no fixed point in {max_rounds} rounds")
    if not matched:
        return ray.data.from_arrow(_OUT_SCHEMA.empty_table())
    out = matched[0]
    for d in matched[1:]:
        out = out.union(d)
    return out
