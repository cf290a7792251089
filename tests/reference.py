"""Scalar-loop reference implementations used as oracles by the tests.

Everything here is written directly from the merge-rule definitions and stays
independent of the engine's vectorized kernels: plain Python loops, sorted()
for ranking, and a from-scratch splitmix64 for the drop masks. Arithmetic uses
float32 scalars to mirror the engine's stated precision contract.
"""

import hashlib
import math

import numpy as np

F = np.float32
_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    x &= _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


def stream_key(seed: int, origin: str, name: str) -> int:
    digest = hashlib.sha256(
        b"dare\x00" + seed.to_bytes(8, "little") + b"\x00"
        + origin.encode("utf-8") + b"\x00" + name.encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")


def uniform(key: int, i: int) -> float:
    return (mix64((key + i * _GAMMA) & _M64) >> 11) * 2.0 ** -53


def keep_decisions(seed: int, origin: str, name: str, n: int, density: float) -> list[bool]:
    key = stream_key(seed, origin, name)
    return [uniform(key, i) < density for i in range(n)]


def retained_count(density: float, n: int) -> int:
    if n == 0:
        return 0
    return min(max(math.ceil(density * n - 1e-9), 1), n)


def linear(lvlm: list, rm: list, lam: float) -> list:
    if lam == 1.0:
        return [F(a) for a in lvlm]
    if lam == 0.0:
        return [F(b) for b in rm]
    w1, w0 = F(lam), F(1.0 - lam)
    return [F(w1 * F(a)) + F(w0 * F(b)) for a, b in zip(lvlm, rm)]


def task_vector(model: list, pre: list) -> list:
    return [F(a) - F(b) for a, b in zip(model, pre)]


def task_arithmetic(pre: list, tau_l: list, tau_r: list, lam: float) -> list:
    if lam == 0.0:
        return [F(p) for p in pre]
    w = F(lam)
    return [F(p) + w * (F(a) + F(b)) for p, a, b in zip(pre, tau_l, tau_r)]


def trim(values: list, density: float) -> list:
    n = len(values)
    k = retained_count(density, n)
    ranked = sorted(range(n), key=lambda i: (-abs(F(values[i])), i))
    kept = set(ranked[:k])
    return [F(values[i]) if i in kept else F(0.0) for i in range(n)]


def elect(task_values: list[list]) -> list:
    signs = []
    for column in zip(*task_values):
        pos, neg = F(0.0), F(0.0)
        for v in column:
            v = F(v)
            if v > 0:
                pos = F(pos + v)
            elif v < 0:
                neg = F(neg + F(-v))
        signs.append(1.0 if pos >= neg else -1.0)
    return signs


def disjoint(task_values: list[list], signs: list) -> list:
    out = []
    for sign, column in zip(signs, zip(*task_values)):
        total, count = F(0.0), 0
        for v in column:
            v = F(v)
            if (v > 0 and sign > 0) or (v < 0 and sign < 0):
                total = F(total + v)
                count += 1
        out.append(F(total / F(count)) if count else F(0.0))
    return out


def apply_delta(pre: list, delta: list, lam: float) -> list:
    if lam == 0.0:
        return [F(p) for p in pre]
    w = F(lam)
    return [F(p) + w * F(d) for p, d in zip(pre, delta)]


def ties(pre: list, tau_l: list, tau_r: list, lam: float, density: float) -> list:
    a = trim(tau_l, density)
    b = trim(tau_r, density)
    merged = disjoint([a, b], elect([a, b]))
    return apply_delta(pre, merged, lam)


def drop_and_rescale(values: list, density: float, seed: int, origin: str, name: str) -> list:
    if density == 1.0:
        return [F(v) for v in values]
    keep = keep_decisions(seed, origin, name, len(values), density)
    scale = F(1.0 / density)
    return [F(F(v) * scale) if k else F(0.0) for v, k in zip(values, keep)]


def dare(pre, tau_l, tau_r, lam, density, seed, mode, name):
    a = drop_and_rescale(tau_l, density, seed, "lvlm", name)
    b = drop_and_rescale(tau_r, density, seed, "rm", name)
    if mode == "ta":
        return task_arithmetic(pre, a, b, lam)
    merged = disjoint([a, b], elect([a, b]))
    return apply_delta(pre, merged, lam)


def merge_reference(method: str, pre, lvlm, rm, lam, density=None, seed=None, name="t"):
    """End-to-end reference for one named tensor, from stored f32 values."""
    pre = [F(v) for v in pre]
    lvlm = [F(v) for v in lvlm]
    rm = [F(v) for v in rm]
    if method == "linear":
        return linear(lvlm, rm, lam)
    tau_l = task_vector(lvlm, pre)
    tau_r = task_vector(rm, pre)
    if method == "task-arithmetic":
        return task_arithmetic(pre, tau_l, tau_r, lam)
    if method == "ties":
        return ties(pre, tau_l, tau_r, lam, density)
    if method == "dare-task-arithmetic":
        return dare(pre, tau_l, tau_r, lam, density, seed, "ta", name)
    if method == "dare-ties":
        return dare(pre, tau_l, tau_r, lam, density, seed, "ties", name)
    raise ValueError(method)


def embedding_rows(method: str, pre_vocab, lvlm_vocab, rm_vocab, pre_emb, lvlm_emb, rm_emb):
    """The merged embedding matrix, one output token at a time.

    Returns (tokens, rows). The output tokens are the lvlm vocabulary in row
    order, then the rm-only tokens in rm row order. For each token the first
    rule that applies wins: the base row if the base knows the token (not for
    linear); the row of the one fine-tuned model that knows it; the mean of
    the two fine-tuned rows.
    """
    tokens = sorted(lvlm_vocab, key=lambda t: lvlm_vocab[t])
    for token in sorted(rm_vocab, key=lambda t: rm_vocab[t]):
        if token not in lvlm_vocab:
            tokens.append(token)
    rows = []
    for token in tokens:
        if method != "linear" and token in pre_vocab:
            row = [F(v) for v in pre_emb[pre_vocab[token]]]
        elif token not in rm_vocab:
            row = [F(v) for v in lvlm_emb[lvlm_vocab[token]]]
        elif token not in lvlm_vocab:
            row = [F(v) for v in rm_emb[rm_vocab[token]]]
        else:
            pairs = zip(lvlm_emb[lvlm_vocab[token]], rm_emb[rm_vocab[token]])
            row = [F(F(F(a) * F(0.5)) + F(F(b) * F(0.5))) for a, b in pairs]
        rows.append(row)
    return tokens, rows


def assert_close(actual: np.ndarray, expected: list, rtol: float = 1e-6) -> None:
    """Elementwise |a - e| <= rtol * max(1, |e|)."""
    actual = np.asarray(actual, dtype=np.float64).ravel()
    expected = np.asarray([float(v) for v in expected], dtype=np.float64)
    bound = rtol * np.maximum(1.0, np.abs(expected))
    errors = np.abs(actual - expected)
    worst = int(np.argmax(errors - bound)) if len(errors) else 0
    assert np.all(errors <= bound), (
        f"element {worst}: got {actual[worst]!r}, expected {expected[worst]!r}, "
        f"error {errors[worst]:.3e} > bound {bound[worst]:.3e}"
    )
