"""Pure-NumPy golden oracle implementing the reference semantics verbatim
(SURVEY.md §5.2: the Rust reference cannot be compiled in this sandbox, so
conformance golden data comes from this module; semantics cited per
function). All functions take a flat edge list (src, dst) over dense ids.
"""

from __future__ import annotations

import os

import numpy as np

# In-repo copy of the reference's `test-graph.input` (FIXTURES.md §F2).
ADJACENCY_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                                 "test-graph.input")

DAMPING = 0.85
TOLERANCE = 1e-7
DELTA_THRESHOLD = 1e-2
ALPHA = 1.0 - DAMPING


def out_degrees(n: int, src: np.ndarray) -> np.ndarray:
    return np.bincount(src, minlength=n).astype(np.int64)


def cc_oracle(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Reference src/algos.rs:48-122 — min-label propagation along
    OUT-edges to fixed point (directed reachability minimum)."""
    ids = np.arange(n, dtype=np.int64)
    while True:
        new = ids.copy()
        if len(src):
            np.minimum.at(new, dst, ids[src])
        if np.array_equal(new, ids):
            return ids
        ids = new


def bfs_oracle(n: int, src: np.ndarray, dst: np.ndarray, root: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Reference src/algos.rs:124-167 — level-synchronous BFS along
    out-edges; parent = min same-level in-neighbor (deterministic refinement
    of the reference's CAS race, SURVEY.md §5.3)."""
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    parent[root] = root
    level[root] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[root] = True
    k = 0
    sent = np.iinfo(np.int64).max
    while frontier.any():
        k += 1
        cand = frontier[src] & (parent[dst] == -1) if len(src) else np.zeros(0, bool)
        claim = np.full(n, sent, dtype=np.int64)
        if cand.any():
            np.minimum.at(claim, dst[cand], src[cand])
        newly = claim < sent
        parent[newly] = claim[newly]
        level[newly] = k
        frontier = newly
    return parent, level


def page_rank_delta_oracle(n: int, src: np.ndarray, dst: np.ndarray,
                           max_iterations: int = 100
                           ) -> tuple[np.ndarray, int, float]:
    """Reference src/algos.rs:169-295 semantics verbatim (see
    ligrust_ray/algos/pagerank.py for the rule-by-rule citation).
    Returns (page_rank, iterations_run, last_error)."""
    outdeg = out_degrees(n, src)
    deltas = np.full(n, 1.0 / n)
    page_rank = np.zeros(n)
    one_over_n = 1.0 / n

    def gather(frontier: np.ndarray) -> np.ndarray:
        if not len(src):
            return np.zeros(n)
        w = np.where(frontier[src], deltas[src] / outdeg[src], 0.0)
        return np.bincount(dst, weights=w, minlength=n)

    frontier = np.ones(n, dtype=bool)
    nbr = gather(frontier)                       # round-1 edgeMap (full)
    delta = nbr * DAMPING + ALPHA                # FirstRound (algos.rs:194-205)
    page_rank = page_rank + delta
    current = page_rank
    delta = delta - one_over_n
    deltas = delta
    pending_error = float(delta.sum())
    frontier = np.abs(delta) > (current + DELTA_THRESHOLD)
    iteration = 1
    while True:
        error = pending_error
        max_iterations -= 1
        if error < TOLERANCE or max_iterations == 0:
            break
        nbr = gather(frontier)
        delta = nbr * DAMPING                    # later rounds (algos.rs:207-222)
        deltas = delta
        pending_error = float(delta.sum())
        current = page_rank
        upd = np.abs(current) > current * DELTA_THRESHOLD
        page_rank = page_rank.copy()
        page_rank[upd] += delta[upd]
        frontier = upd
        iteration += 1
    return page_rank, iteration, error


def label_prop_oracle(n: int, src: np.ndarray, dst: np.ndarray,
                      max_iterations: int = 20) -> np.ndarray:
    """ligrust_ray/algos/labelprop.py semantics: per round every vertex with
    in-neighbors takes the most frequent in-neighbor label (multiplicity
    counts; smallest label wins ties)."""
    labels = np.arange(n, dtype=np.int64)
    for _ in range(max_iterations):
        new = labels.copy()
        if len(src):
            lab = labels[src]
            order = np.lexsort((lab, dst))
            d_s, l_s = dst[order], lab[order]
            run = np.empty(d_s.size, dtype=bool)
            run[0] = True
            run[1:] = (d_s[1:] != d_s[:-1]) | (l_s[1:] != l_s[:-1])
            starts = np.flatnonzero(run)
            run_d, run_l = d_s[starts], l_s[starts]
            run_c = np.diff(np.append(starts, d_s.size))
            wo = np.lexsort((run_l, -run_c, run_d))
            uniq, first = np.unique(run_d[wo], return_index=True)
            new[uniq] = run_l[wo][first]
        if np.array_equal(new, labels):
            return new
        labels = new
    return labels


def triangles_oracle(src: np.ndarray, dst: np.ndarray) -> int:
    """Triangle count on the undirected simplification (dedup, drop self
    loops): number of vertex triangles."""
    edges = set()
    for s, d in zip(src.tolist(), dst.tolist()):
        if s != d:
            edges.add((min(s, d), max(s, d)))
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    count = 0
    for a, b in edges:
        count += len(adj[a] & adj[b])
    return count // 3


def random_digraph(n: int, avg_deg: float, seed: int,
                   zipf: bool = False) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    if zipf:
        deg = np.minimum(rng.zipf(1.3, size=n), n - 1)
    else:
        deg = rng.poisson(avg_deg, size=n)
    m = int(deg.sum())
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    dst = rng.integers(0, n, size=m).astype(np.int64)
    return src, dst


def page_rank_classic_oracle(n: int, src: np.ndarray, dst: np.ndarray,
                             max_iterations: int = 100, tol: float = 1e-7
                             ) -> tuple[np.ndarray, int, float]:
    """Mirror of ligrust_ray.algos.pagerank.page_rank_classic."""
    outdeg = out_degrees(n, src)
    deltas = np.full(n, ALPHA)
    pr = np.full(n, ALPHA)
    frontier = np.ones(n, dtype=bool)
    it = 0
    error = float("inf")
    while it < max_iterations and frontier.any():
        it += 1
        if len(src):
            w = np.where(frontier[src], deltas[src] / outdeg[src], 0.0)
            nbr = np.bincount(dst, weights=w, minlength=n)
        else:
            nbr = np.zeros(n)
        delta = nbr * DAMPING
        pr = pr + delta
        deltas = delta
        frontier = np.abs(delta) > np.abs(pr) * DELTA_THRESHOLD
        error = float(np.abs(delta).sum())
        if error < tol:
            break
    return pr, it, error


def scc_oracle(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Exact SCC ids: scc(v) = min{u : u ->* v and v ->* u} (v included).
    Dense boolean closure by repeated squaring — fine at test n."""
    reach = np.eye(n, dtype=bool)
    if len(src):
        reach[src, dst] = True
    for _ in range(int(np.ceil(np.log2(max(n, 2)))) + 1):
        new = reach | (reach @ reach)
        if np.array_equal(new, reach):
            break
        reach = new
    both = reach & reach.T        # both[u, v] = same SCC
    return np.argmax(both, axis=0).astype(np.int64)  # first True = min id


def hits_oracle(n: int, src: np.ndarray, dst: np.ndarray, rounds: int = 3
                ) -> tuple[np.ndarray, np.ndarray]:
    """Mirror of ligrust_ray.algos.hits.hits: unnormalised integer HITS."""
    a = np.ones(n, dtype=np.int64)
    h = np.zeros(n, dtype=np.int64)
    for _ in range(rounds):
        h = np.zeros(n, dtype=np.int64)
        if len(src):
            np.add.at(h, src, a[dst])
        a = np.zeros(n, dtype=np.int64)
        if len(src):
            np.add.at(a, dst, h[src])
    return h, a


def truss_oracle(src: np.ndarray, dst: np.ndarray, rounds: int = 16,
                 threshold: int | None = None) -> "pd.DataFrame":
    """Independent mirror of ligrust_ray.algos.truss.truss_peel: support
    via per-edge neighbor-set intersection (no orientation machinery),
    threshold = lower median of initial supports, synchronous peel."""
    import pandas as pd

    keep = src != dst
    a = np.minimum(src[keep], dst[keep])
    b = np.maximum(src[keep], dst[keep])
    edges = sorted(set(zip(a.tolist(), b.tolist())))
    if not edges:
        return pd.DataFrame({"a": pd.Series([], dtype=np.int64),
                             "b": pd.Series([], dtype=np.int64),
                             "died_round": pd.Series([], dtype=np.int64)})
    died = {e: 0 for e in edges}
    alive = set(edges)

    def supports():
        nbrs: dict[int, set] = {}
        for (x, y) in alive:
            nbrs.setdefault(x, set()).add(y)
            nbrs.setdefault(y, set()).add(x)
        return {(x, y): len(nbrs[x] & nbrs[y]) for (x, y) in alive}

    T = threshold
    for r in range(1, rounds + 1):
        sup = supports()
        if T is None:
            svals = sorted(sup[e] for e in edges)   # round 1: all alive
            T = svals[(len(svals) - 1) // 2]
        kill = {e for e in alive if sup[e] < T}
        if not kill:
            break
        for e in kill:
            died[e] = r
        alive -= kill
        if not alive:
            break
    return pd.DataFrame({"a": [e[0] for e in edges],
                         "b": [e[1] for e in edges],
                         "died_round": [died[e] for e in edges]}) \
        .astype(np.int64)


def ppr_oracle(n: int, src: np.ndarray, dst: np.ndarray, source: int = 0,
               rounds: int = 4) -> np.ndarray:
    """Mirror of ligrust_ray.algos.ppr.personalized_page_rank."""
    outdeg = out_degrees(n, src)
    p = np.zeros(n)
    p[source] = 1.0
    e_s = (np.arange(n) == source).astype(np.float64)
    for _ in range(rounds):
        contrib = np.zeros(n)
        if len(src):
            np.add.at(contrib, dst, p[src] / np.maximum(outdeg[src], 1))
        p = 0.15 * e_s + 0.85 * contrib
    return p


def walks_oracle(n: int, src: np.ndarray, dst: np.ndarray, length: int = 4,
                 walks: int = 1, no_backtrack: bool = False
                 ) -> "pd.DataFrame":
    """Independent mirror of ligrust_ray.algos.walks.random_walks: dict-of-
    sorted-neighbor-lists adjacency, per-step chooser hash, dead ends
    terminate."""
    import pandas as pd

    adj: dict[int, list] = {}
    for a, b in sorted(set(zip(src.tolist(), dst.tolist()))):
        adj.setdefault(int(a), []).append(int(b))
    rows = []
    for start in range(n):
        for wid in range(walks):
            cur, prev = start, None
            for t in range(1, length + 1):
                nbrs = adj.get(cur) or []
                cand = ([x for x in nbrs if x != prev]
                        if no_backtrack else nbrs)
                if not cand:
                    break
                h = (start * 2654435761 + cur * 40503 + t * 104729
                     + wid * 7919) % (1 << 32)
                prev, cur = cur, cand[h % len(cand)]
                rows.append((start, wid, t, cur))
    return pd.DataFrame(rows, columns=["start", "wid", "step", "node"]) \
        .astype(np.int64) if rows else pd.DataFrame(
        {c: pd.Series([], dtype=np.int64)
         for c in ("start", "wid", "step", "node")})


def skipgrams_oracle(walks: "pd.DataFrame", window: int = 2
                     ) -> "pd.DataFrame":
    """Mirror of ligrust_ray.algos.walks.skipgram_pairs over a walks
    (start, step, node) frame: per-walk ordered position pairs within
    ``window``, counted."""
    import pandas as pd
    from collections import Counter

    cnt: Counter = Counter()
    keys = ["start", "wid"] if "wid" in walks.columns else ["start"]
    for _, g in walks.groupby(keys):
        steps = g["step"].to_numpy()
        nodes = g["node"].to_numpy()
        for i in range(len(g)):
            for j in range(len(g)):
                if i != j and abs(int(steps[i]) - int(steps[j])) <= window:
                    cnt[(int(nodes[i]), int(nodes[j]))] += 1
    if not cnt:
        return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                             for c in ("center", "context", "n")})
    rows = [(a, b, n) for (a, b), n in cnt.items()]
    return pd.DataFrame(rows, columns=["center", "context", "n"]) \
        .astype(np.int64)


def katz_oracle(n: int, src: np.ndarray, dst: np.ndarray,
                rounds: int = 4, alpha: float = 0.05) -> np.ndarray:
    """Mirror of ligrust_ray.algos.ppr.katz."""
    x = np.ones(n)
    for _ in range(rounds):
        contrib = np.zeros(n)
        if len(src):
            np.add.at(contrib, dst, x[src])
        x = 1.0 + alpha * contrib
    return x


def trustrank_oracle(n: int, src: np.ndarray, dst: np.ndarray,
                     seed_mod: int = 16, rounds: int = 4) -> np.ndarray:
    """Mirror of ligrust_ray.algos.ppr.trust_rank."""
    outdeg = out_degrees(n, src)
    n_seeds = (n + seed_mod - 1) // seed_mod
    e_s = np.where(np.arange(n) % seed_mod == 0, 1.0 / n_seeds, 0.0)
    p = e_s.copy()
    for _ in range(rounds):
        contrib = np.zeros(n)
        if len(src):
            np.add.at(contrib, dst, p[src] / np.maximum(outdeg[src], 1))
        p = 0.15 * e_s + 0.85 * contrib
    return p


def eigencentrality_oracle(n: int, src: np.ndarray, dst: np.ndarray,
                           rounds: int = 4) -> np.ndarray:
    """Mirror of ligrust_ray.algos.ppr.eigencentrality."""
    x = np.ones(n)
    for _ in range(rounds):
        raw = np.zeros(n)
        if len(src):
            np.add.at(raw, dst, x[src])
        tot = np.abs(raw).sum()
        x = raw / (tot if tot > 0.0 else 1.0)
    return x


def pr_std_oracle(n: int, src: np.ndarray, dst: np.ndarray,
                  rounds: int = 6, d: float = 0.85) -> np.ndarray:
    """Mirror of ligrust_ray.algos.pagerank.page_rank_standard."""
    outdeg = out_degrees(n, src)
    x = np.full(n, 1.0 / n)
    for _ in range(rounds):
        dm = float(x[outdeg == 0].sum())
        contrib = np.zeros(n)
        if len(src):
            np.add.at(contrib, dst, x[src] / outdeg[src])
        x = (1.0 - d) / n + d * (contrib + dm / n)
    return x


def salsa_oracle(n: int, src: np.ndarray, dst: np.ndarray,
                 rounds: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Mirror of ligrust_ray.algos.hits.salsa."""
    outdeg = out_degrees(n, src)
    indeg = np.zeros(n, dtype=np.int64)
    if len(dst):
        np.add.at(indeg, dst, 1)
    a = np.ones(n)
    h = np.zeros(n)
    for _ in range(rounds):
        h = np.zeros(n)
        if len(src):
            np.add.at(h, src, a[dst] / np.maximum(indeg[dst], 1))
        a = np.zeros(n)
        if len(src):
            np.add.at(a, dst, h[src] / np.maximum(outdeg[src], 1))
    return h, a
