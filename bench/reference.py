"""Independent float64 references the benchmark checks the program against.

Nothing here imports tofu. Each function is written from the method's
definition (the ViT block, bipartite matching, the three fusions, the
dual-path highway and functional linearity), in float64 and with plain
loops where a loop states the rule more directly than a vectorised form.
Weights are read from the model object's attributes only.
"""

from __future__ import annotations

import math

import numpy as np

F64 = np.float64


def cos64(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two rows in float64; a zero row scores -1 (sorts last)."""
    a = np.asarray(a, dtype=F64)
    b = np.asarray(b, dtype=F64)
    na, nb = math.sqrt(float(a @ a)), math.sqrt(float(b @ b))
    if na == 0.0 or nb == 0.0:
        return -1.0
    return float(a @ b) / (na * nb)


def cosine_matrix(metric: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    m = np.asarray(metric, dtype=F64)
    norms = np.sqrt((m * m).sum(axis=1))
    unit = m / np.where(norms == 0.0, 1.0, norms)[:, None]
    sims = unit[rows] @ unit[cols].T
    sims[norms[rows] == 0.0, :] = -1.0
    sims[:, norms[cols] == 0.0] = -1.0
    return sims


def layernorm(x, gamma, beta, eps=1e-6):
    x = np.asarray(x, dtype=F64)
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * np.asarray(gamma, F64) + np.asarray(beta, F64)


def gelu(x):
    x = np.asarray(x, dtype=F64)
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def attention(x, w, heads):
    """One sequence (N, C) -> (projected output, keys averaged over heads)."""
    x = np.asarray(x, dtype=F64)
    n, c = x.shape
    dh = c // heads
    qkv = x @ np.asarray(w.qkv_weight, F64) + np.asarray(w.qkv_bias, F64)
    out = np.empty((n, c))
    keys = np.zeros((n, dh))
    for h in range(heads):
        q = qkv[:, h * dh:(h + 1) * dh]
        k = qkv[:, c + h * dh:c + (h + 1) * dh]
        v = qkv[:, 2 * c + h * dh:2 * c + (h + 1) * dh]
        s = q @ k.T / math.sqrt(dh)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        out[:, h * dh:(h + 1) * dh] = (e / e.sum(axis=1, keepdims=True)) @ v
        keys += k / heads
    return out @ np.asarray(w.proj_weight, F64) + np.asarray(w.proj_bias, F64), keys


def mlp(v, w):
    h = gelu(np.asarray(v, F64) @ np.asarray(w.fc1_weight, F64) + np.asarray(w.fc1_bias, F64))
    return h @ np.asarray(w.fc2_weight, F64) + np.asarray(w.fc2_bias, F64)


def classify(x, model):
    """Full-length forward of one (N, C) sequence, then the CLS-pooled head."""
    x = np.asarray(x, dtype=F64)
    for w in model.blocks:
        x = x + attention(layernorm(x, w.norm1_gamma, w.norm1_beta), w,
                          model.config.heads)[0]
        x = x + mlp(layernorm(x, w.norm2_gamma, w.norm2_beta), w)
    h = model.head
    pooled = layernorm(x, h.norm_gamma, h.norm_beta)[0]
    return pooled @ np.asarray(h.weight, F64) + np.asarray(h.bias, F64)


def fuse(x, method: str, idx_src, idx_dst):
    """Reduce one (N, C) sequence given its matched pairs.

    Returns (rows in float64, output row of every input position). The
    layout is the documented one: unmatched sources in ascending position,
    then every destination in ascending position. A destination that took
    sources becomes: itself (pruned), the group mean (average), or the group
    mean direction at the group's largest norm (mlerp).
    """
    x = np.asarray(x, dtype=F64)
    n = x.shape[0]
    matched = {int(s): int(d) for s, d in zip(idx_src, idx_dst)}
    kept = [i for i in range(1, n, 2) if i not in matched] + list(range(0, n, 2))
    row_of = {pos: row for row, pos in enumerate(kept)}
    out = x[kept].copy()
    groups: dict[int, list[int]] = {}
    for s, d in matched.items():
        groups.setdefault(d, [d]).append(s)
    for d, members in groups.items():
        if method == "pruned":
            continue
        mean = x[members].mean(axis=0)
        if method == "average":
            out[row_of[d]] = mean
        elif method == "mlerp":
            top = max(float(np.linalg.norm(x[m])) for m in members)
            out[row_of[d]] = mean * (top / np.linalg.norm(mean))
        else:
            raise ValueError(f"unknown method {method!r}")
    out_map = np.array([row_of[matched.get(i, i)] for i in range(n)], dtype=np.int64)
    return out, out_map


def highway(x, model, methods, matches, mbm_t=None, ambiguity=1e-3):
    """Dual-path forward of one (N, C) sequence from given per-layer matches.

    matches[l] is (idx_src, idx_dst) in the local rows of layer l, or None
    when layer l did not reduce. The local path shrinks by fusion; every
    sub-layer output is added to the local path and, through each full
    position's current local row, to the full path. With mbm_t set, a
    position that ever took part in a merge skips the entries whose full
    path magnitude is at or above mbm_t.

    Returns (x_full, ambiguous): ambiguous marks entries where some masking
    decision had a magnitude within `ambiguity` of the threshold, where a
    float32 program and this float64 loop may decide differently.
    """
    x_full = np.asarray(x, dtype=F64).copy()
    x_local = x_full.copy()
    n = x_full.shape[0]
    index = list(range(n))
    affected = [False] * n
    ambiguous = np.zeros(x_full.shape, dtype=bool)
    heads = model.config.heads
    for l, w in enumerate(model.blocks):
        if matches[l] is not None:
            idx_src, idx_dst = matches[l]
            touched = {int(i) for i in idx_src} | {int(i) for i in idx_dst}
            x_local, out_map = fuse(x_local, methods[l], idx_src, idx_dst)
            for i in range(n):
                affected[i] = affected[i] or index[i] in touched
                index[i] = int(out_map[index[i]])
        for sub in ("attn", "mlp"):
            if sub == "attn":
                f = attention(layernorm(x_local, w.norm1_gamma, w.norm1_beta), w, heads)[0]
            else:
                f = mlp(layernorm(x_local, w.norm2_gamma, w.norm2_beta), w)
            for i in range(n):
                d = f[index[i]].copy()
                if mbm_t is not None and affected[i]:
                    mag = np.abs(x_full[i])
                    ambiguous[i] |= np.abs(mag - mbm_t) <= ambiguity * max(1.0, mbm_t)
                    d[mag >= mbm_t] = 0.0
                x_full[i] += d
            x_local = x_local + f
    return x_full, ambiguous


def functional_linearity(f, x1, x2, steps: int) -> float:
    """Chord over path length of f along the segment x1 -> x2, in float64."""
    pts = [f((1.0 - i / (steps - 1)) * np.asarray(x1, F64)
             + (i / (steps - 1)) * np.asarray(x2, F64)) for i in range(steps)]
    path = math.fsum(float(np.linalg.norm(b - a)) for a, b in zip(pts, pts[1:]))
    return float(np.linalg.norm(pts[-1] - pts[0])) / path
