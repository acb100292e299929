"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow way (python loops, fsum,
float64) and must stay decoupled from the library's own vectorized paths.
"""

import math

import numpy as np


def cosine(a, b) -> float:
    """Scalar cosine with the zero-norm -> -1 convention."""
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    na = math.sqrt(math.fsum(v * v for v in a))
    nb = math.sqrt(math.fsum(v * v for v in b))
    if na == 0.0 or nb == 0.0:
        return -1.0
    return math.fsum((x / na) * (y / nb) for x, y in zip(a, b))


def brute_force_match(metric, src, dst, r):
    """Top-r best-edge selection by exhaustive enumeration.

    Per SRC token keep the max-similarity DST edge (ties: lower global DST
    index), then pick the r largest best-edges (ties: lower global SRC
    index). Returns (idx_src, idx_dst, scores). Similarities come from the
    scalar cosine above, so only use this on continuous data: mathematically
    tied scores can round differently here than in any other float
    implementation, making exact tie order between them undefined.
    """
    sims = [[cosine(metric[s], metric[d]) for d in dst] for s in src]
    return brute_force_select(sims, src, dst, r)


def brute_force_select(sims, src, dst, r):
    """The selection rule alone, brute-forced over a full similarity matrix."""
    edges = []
    for i, s in enumerate(src):
        best_score, best_d = None, None
        for j, d in enumerate(dst):
            c = float(sims[i][j])
            if best_score is None or c > best_score:
                best_score, best_d = c, int(d)
        edges.append((best_score, int(s), best_d))
    edges.sort(key=lambda e: (-e[0], e[1]))
    chosen = edges[: min(r, len(edges))]
    return ([s for _, s, _ in chosen],
            [d for _, _, d in chosen],
            [sc for sc, _, _ in chosen])


def group_mean(rows) -> np.ndarray:
    """Arithmetic mean of a list of vectors, channel-by-channel fsum."""
    rows = [np.asarray(r, dtype=np.float64) for r in rows]
    c = len(rows[0])
    return np.array([math.fsum(r[j] for r in rows) / len(rows) for j in range(c)])


def group_mlerp(rows) -> np.ndarray:
    """Mean direction of a vector group rescaled to the group max norm."""
    mean = group_mean(rows)
    norm_mean = math.sqrt(math.fsum(v * v for v in mean))
    max_norm = max(math.sqrt(math.fsum(float(v) * float(v) for v in r)) for r in rows)
    if norm_mean < 1e-12:
        return mean
    return mean * (max_norm / norm_mean)


def reference_attention(x, w, n_heads):
    """Loop-based float64 multi-head attention; returns (out, head-mean keys)."""
    x = np.asarray(x, dtype=np.float64)
    b, n, c = x.shape
    dh = c // n_heads
    qkv_w = w.qkv_weight.astype(np.float64)
    qkv_b = w.qkv_bias.astype(np.float64)
    proj_w = w.proj_weight.astype(np.float64)
    proj_b = w.proj_bias.astype(np.float64)

    out = np.zeros((b, n, c))
    keys_mean = np.zeros((b, n, dh))
    for bi in range(b):
        qkv = np.array([[math.fsum(x[bi, i, k] * qkv_w[k, j] for k in range(c))
                         + qkv_b[j] for j in range(3 * c)] for i in range(n)])
        q, k, v = qkv[:, :c], qkv[:, c:2 * c], qkv[:, 2 * c:]
        merged = np.zeros((n, c))
        for h in range(n_heads):
            qs = q[:, h * dh:(h + 1) * dh]
            ks = k[:, h * dh:(h + 1) * dh]
            vs = v[:, h * dh:(h + 1) * dh]
            keys_mean[bi] += ks / n_heads
            scores = qs @ ks.T / math.sqrt(dh)
            for i in range(n):
                row = scores[i] - scores[i].max()
                e = np.exp(row)
                attn = e / math.fsum(e)
                merged[i, h * dh:(h + 1) * dh] = attn @ vs
        out[bi] = merged @ proj_w + proj_b
    return out, keys_mean


def uniform_draws(shapes, seed, bound):
    """One float32 array per shape, in order, each numpy's float64
    uniform(-bound, bound) draw from one seeded stream, cast to float32."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(-bound, bound, size=s).astype(np.float32) for s in shapes]


def token_decay(n0: int, r: int, depth: int):
    """Clamped linear decay of token counts, one entry per layer output."""
    counts = []
    n = n0
    for _ in range(depth):
        n = n - (min(r, n // 2) if n >= 2 else 0)
        counts.append(n)
    return counts


def replay_reduce(local, match, method_name):
    """Re-execute a recorded reduce with independent merge arithmetic.

    SRC/DST are the odd/even positions of local. Returns (new local rows,
    step map old-local-index -> new-local-row).
    """
    src = list(range(1, len(local), 2))
    dst = list(range(0, len(local), 2))
    sel_src = match.idx_src.tolist()
    sel_dst = match.idx_dst.tolist()
    unchanged = [s for s in src if s not in set(sel_src)]

    groups = {d: [local[d]] for d in dst}
    for s, d in zip(sel_src, sel_dst):
        groups[d].append(local[s])

    new_rows = [local[i] for i in unchanged]
    for d in dst:
        if method_name == "pruned" or len(groups[d]) == 1:
            new_rows.append(local[d])
        elif method_name == "average":
            new_rows.append(group_mean(groups[d]).astype(np.float32))
        elif method_name == "mlerp":
            new_rows.append(group_mlerp(groups[d]).astype(np.float32))
        else:
            raise ValueError(method_name)

    step = {}
    for pos, i in enumerate(unchanged):
        step[i] = pos
    for pos, d in enumerate(dst):
        step[d] = len(unchanged) + pos
    for s, d in zip(sel_src, sel_dst):
        step[s] = step[d]
    return np.stack(new_rows), step


def naive_highway(x, model, method_names, traces_per_block,
                  mbm_enabled=False, mbm_t=1.0):
    """From-scratch dual-path forward used to check the composed fast path.

    One batch item at a time: dict-based index composition, python-loop
    distribution and masking, and merge replay through the group oracles
    above. Reuses only the attention/MLP/norm kernels (they have their own
    reference checks); everything the highway module adds is recomputed
    independently here. Recorded matches pin the pair selection so both
    sides reduce identically.

    Returns (x_full, x_local list) per batch item stacked.
    """
    from tofu import vit
    from tofu.tensor import layernorm

    x = np.asarray(x, dtype=np.float32)
    b, n, _ = x.shape
    heads = model.config.heads
    fulls, locals_ = [], []
    for bi in range(b):
        x_full = x[bi].copy()
        local = x[bi].copy()
        imap = {i: i for i in range(n)}
        affected = set()
        for l, w in enumerate(model.blocks):
            traces = traces_per_block[l]
            if traces is not None:
                m = traces[bi].match
                touched = set(m.idx_src.tolist()) | set(m.idx_dst.tolist())
                for p in range(n):
                    if imap[p] in touched:
                        affected.add(p)
                local, step = replay_reduce(local, m, method_names[l])
                imap = {p: step[imap[p]] for p in range(n)}

            f_a = vit.attention(
                layernorm(local[None], w.norm1_gamma, w.norm1_beta),
                w, heads)[0][0]
            x_full = _distribute_add_loop(
                x_full, f_a, imap, affected, mbm_enabled, mbm_t)
            local = local + f_a

            f_m = vit.mlp_map(
                layernorm(local[None], w.norm2_gamma, w.norm2_beta), w)[0]
            x_full = _distribute_add_loop(
                x_full, f_m, imap, affected, mbm_enabled, mbm_t)
            local = local + f_m
        fulls.append(x_full)
        locals_.append(local)
    return np.stack(fulls), np.stack(locals_)


def _distribute_add_loop(x_full, f_local, imap, affected, enabled, t):
    out = x_full.copy()
    n, c = x_full.shape
    for i in range(n):
        contrib = f_local[imap[i]]
        for j in range(c):
            v = contrib[j]
            if enabled and i in affected and abs(float(x_full[i, j])) >= t:
                v = np.float32(0.0)
            out[i, j] = x_full[i, j] + v
    return out
