"""Onion decomposition (Hebert-Dufresne, Grochow & Allard 2016): peel
the simple undirected graph in synchronous layers — round r raises the
running core threshold k to max(k, min alive degree) and removes EVERY
alive node with degree <= k; layer(v) = r at removal, core(v) = k at
removal (= the k-core number). The layer index is the standard
centre-vs-periphery readout for web graphs — one extra column over
plain k-core peeling (algos/kcore.py), and the per-node core number
falls out for free.

Distributed plan: per round one grouped degree count over the alive
symmetric edges, one typed-fill left join onto the alive node set (so
edge-less survivors keep degree 0 instead of vanishing), a per-block
folded MIN (O(#blocks) driver rows), and two semi-joins dropping dead
endpoints' edges — every shuffle keyed and sized to the ALIVE subgraph.
Below ONION_SINGLE_TASK_MAX pair edges the identical rounds run
vectorised in one Ray task (coloring/truss/temporal precedent); the
distributed path is parity-forced in tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ligrust_ray.stages import shuffle

ONION_SQL_ROUNDS = 64            # oracle unroll depth; engine raises past it
# (sf0.1's 1500-node graph peels in 43 rounds; 24 was sf0.01-sized)
ONION_SINGLE_TASK_MAX = 1 << 22

_OUT_SCHEMA = pa.schema([("node_id", pa.int64()), ("layer", pa.int64()),
                         ("core", pa.int64())])


@ray.remote
def _onion_task(blocks: list, max_rounds: int) -> pa.Table:
    blocks = ray.get(list(blocks))
    tabs = [pa.Table.from_pandas(b, preserve_index=False)
            if isinstance(b, pd.DataFrame) else b for b in blocks]
    tabs = [t.select(["lo", "hi"]) for t in tabs if t.num_rows]
    if not tabs:
        return _OUT_SCHEMA.empty_table()
    t = pa.concat_tables(tabs)
    lo = t.column("lo").to_numpy().astype(np.int64)
    hi = t.column("hi").to_numpy().astype(np.int64)
    nodes = np.unique(np.concatenate([lo, hi]))
    li = np.searchsorted(nodes, lo)
    hj = np.searchsorted(nodes, hi)
    n = len(nodes)
    alive = np.ones(n, dtype=bool)
    ealive = np.ones(len(lo), dtype=bool)
    layer = np.zeros(n, dtype=np.int64)
    core = np.zeros(n, dtype=np.int64)
    k = 0
    for r in range(1, max_rounds + 1):
        if not alive.any():
            break
        deg = (np.bincount(li[ealive], minlength=n)
               + np.bincount(hj[ealive], minlength=n))
        k = max(k, int(deg[alive].min()))
        rm = alive & (deg <= k)
        layer[rm] = r
        core[rm] = k
        alive &= ~rm
        ealive &= alive[li] & alive[hj]
    if alive.any():
        raise RuntimeError(
            f"onion_layers: no fixed point in {max_rounds} rounds")
    return pa.table({"node_id": pa.array(nodes), "layer": pa.array(layer),
                     "core": pa.array(core)}, schema=_OUT_SCHEMA)


def _both(t: pa.Table) -> pa.Table:
    lo = t.column("lo").to_numpy()
    hi = t.column("hi").to_numpy()
    return pa.table({"v": pa.array(np.concatenate([lo, hi]))})


def _pairs_fp(pairs: ray.data.Dataset) -> int:
    """Order-free content fingerprint of the (lo, hi) pair set (the
    truss._edge_fp convention) — stale-checkpoint guard."""
    mod = (1 << 61) - 1

    def part(t: pa.Table) -> pa.Table:
        a = t.column("lo").to_numpy().astype(np.int64)
        b = t.column("hi").to_numpy().astype(np.int64)
        v = ((a % mod) * 1_000_003 + b) % mod
        return pa.table({"x": pa.array([int(v.sum() % mod)],
                                       type=pa.int64())})

    s = pairs.map_batches(part, batch_format="pyarrow").to_pandas()
    return int(s["x"].sum() % mod)


def _onion_ckpt_latest(root: str) -> dict | None:
    import json
    import os
    import re

    if not os.path.isdir(root):
        return None
    best = None
    for name in os.listdir(root):
        mm = re.fullmatch(r"round_(\d{6})", name)
        if not mm:
            continue
        mf = os.path.join(root, name, "manifest.json")
        if os.path.exists(mf):
            with open(mf) as f:
                man = json.load(f)
            if man.get("complete") and (best is None
                                        or man["round"] > best["round"]):
                best = man
    return best


def _onion_ckpt_write(root: str, r: int, alive: ray.data.Dataset,
                      nodes: ray.data.Dataset, out_r: ray.data.Dataset,
                      k: int, m: int, fp: int
                      ) -> tuple[ray.data.Dataset, ray.data.Dataset,
                                 ray.data.Dataset]:
    """Persist one peel round (surviving pairs + alive node set + this
    round's output rows), manifest last; dirs cleared first
    (write_parquet appends). Returns disk-anchored datasets."""
    import json
    import os
    import shutil

    d = os.path.join(root, f"round_{r:06d}")
    if os.path.isdir(d):
        shutil.rmtree(d)
    dirs = {n: os.path.join(d, n) for n in ("alive", "nodes", "out")}
    for p in dirs.values():
        os.makedirs(p, exist_ok=True)
    alive.write_parquet(dirs["alive"])
    nodes.write_parquet(dirs["nodes"])
    out_r.write_parquet(dirs["out"])
    manifest = {"round": int(r), "k": int(k), "m": int(m),
                "fp": int(fp), "alive_dir": dirs["alive"],
                "nodes_dir": dirs["nodes"],
                "out_dirs": [os.path.join(root, f"round_{i:06d}", "out")
                             for i in range(1, r + 1)],
                "complete": True}
    tmp = os.path.join(d, ".manifest.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, os.path.join(d, "manifest.json"))
    i64 = pa.int64()

    def rd(path: str, sch: pa.Schema) -> ray.data.Dataset:
        return ray.data.read_parquet(path).map_batches(
            lambda t, _s=sch: t.select(_s.names).cast(_s),
            batch_format="pyarrow")

    pair_s = pa.schema([("lo", i64), ("hi", i64)])
    node_s = pa.schema([("v", i64)])
    return (rd(dirs["alive"], pair_s), rd(dirs["nodes"], node_s),
            rd(dirs["out"], _OUT_SCHEMA))


def _onion_distributed(pairs: ray.data.Dataset, max_rounds: int,
                       checkpoint_dir: str | None = None
                       ) -> ray.data.Dataset:
    i64 = pa.int64()
    alive = pairs.materialize()
    m = alive.count()
    nodes = shuffle.distinct(
        alive.map_batches(_both, batch_format="pyarrow"), ["v"]
    ).materialize()
    outs: list[ray.data.Dataset] = []
    k = 0
    start = 1
    fp = _pairs_fp(alive) if checkpoint_dir is not None else 0
    if checkpoint_dir is not None:
        man = _onion_ckpt_latest(checkpoint_dir)
        if man is not None and man["m"] == m and man.get("fp") == fp:
            pair_s = pa.schema([("lo", i64), ("hi", i64)])
            node_s = pa.schema([("v", i64)])
            alive = ray.data.read_parquet(man["alive_dir"]).map_batches(
                lambda t: t.select(pair_s.names).cast(pair_s),
                batch_format="pyarrow").materialize()
            nodes = ray.data.read_parquet(man["nodes_dir"]).map_batches(
                lambda t: t.select(node_s.names).cast(node_s),
                batch_format="pyarrow").materialize()
            outs = [ray.data.read_parquet(p).map_batches(
                lambda t: t.select(_OUT_SCHEMA.names).cast(_OUT_SCHEMA),
                batch_format="pyarrow") for p in man["out_dirs"]]
            k = man["k"]
            start = man["round"] + 1
    for r in range(start, max_rounds + 1):
        if nodes.count() == 0:
            break
        deg = shuffle.grouped_agg(
            alive.map_batches(_both, batch_format="pyarrow"),
            ["v"], {"d": (None, "count")})
        degf = shuffle.hash_join(nodes, deg, on="v", l_cols=[],
                                 r_cols=["d"], how="left",
                                 fill={"d": 0}).materialize()
        mins = degf.map_batches(
            lambda t: pa.table({"m": pa.array(
                [int(t.column("d").to_numpy().min())] if t.num_rows
                else [], type=pa.int64())}),
            batch_format="pyarrow").to_pandas()
        k = max(k, int(mins["m"].min()))

        def tag(t: pa.Table, _r=r, _k=k) -> pa.Table:
            sub = t.filter(pc.less_equal(t.column("d"), _k))
            nn = sub.num_rows
            return pa.table({
                "node_id": sub.column("v").cast(pa.int64()),
                "layer": pa.array(np.full(nn, _r, dtype=np.int64)),
                "core": pa.array(np.full(nn, _k, dtype=np.int64))},
                schema=_OUT_SCHEMA)

        outs.append(degf.map_batches(tag, batch_format="pyarrow")
                    .materialize())
        nodes = degf.map_batches(
            lambda t, _k=k: pa.table(
                {"v": t.filter(pc.greater(t.column("d"), _k)).column("v")}),
            batch_format="pyarrow").materialize()
        alive = shuffle.semi_join(
            shuffle.semi_join(alive, nodes, l_on="lo", r_on="v",
                              r_key_type=pa.int64()),
            nodes, l_on="hi", r_on="v",
            r_key_type=pa.int64()).materialize()
        if checkpoint_dir is not None:
            alive, nodes, out_r = _onion_ckpt_write(
                checkpoint_dir, r, alive, nodes, outs[-1], k, m, fp)
            outs[-1] = out_r
        # the truss-loop lesson applied here: the per-round co_group/
        # semi_join outputs compound block counts ~3x per round, which
        # measured EXPONENTIAL wall time on >3-round peels — coalesce
        # the carried datasets to bounded blocks every round (after the
        # checkpoint re-read too: read_parquet splits each file into
        # several blocks)
        alive = shuffle.coalesce_blocks(
            alive.materialize(),
            pa.schema([("lo", pa.int64()), ("hi", pa.int64())])
        ).materialize()
        nodes = shuffle.coalesce_blocks(
            nodes.materialize(), pa.schema([("v", pa.int64())])
        ).materialize()
    if nodes.count():
        raise RuntimeError(
            f"onion_layers: no fixed point in {max_rounds} rounds")
    if not outs:
        return ray.data.from_arrow(_OUT_SCHEMA.empty_table())
    return outs[0].union(*outs[1:]) if len(outs) > 1 else outs[0]


def onion_layers(pairs: ray.data.Dataset,
                 rounds: int = ONION_SQL_ROUNDS,
                 force_distributed: bool = False,
                 checkpoint_dir: str | None = None) -> ray.data.Dataset:
    """(node_id, layer, core) over distinct undirected pairs (lo, hi).
    ``checkpoint_dir`` (forces the distributed path): round manifests +
    resume, the truss convention — surviving pairs, alive nodes and
    per-round output rows persist each round, guarded by
    (pair count, content fingerprint)."""
    if checkpoint_dir is not None or force_distributed:
        return _onion_distributed(pairs, rounds,
                                  checkpoint_dir=checkpoint_dir)
    pairs = pairs.materialize()
    if pairs.count() <= ONION_SINGLE_TASK_MAX:
        from ligrust_ray.dataops.dedup import _block_refs

        return ray.data.from_arrow_refs(
            [_onion_task.remote(_block_refs(pairs), rounds)])
    return _onion_distributed(pairs, rounds)
