"""Output checks: every merged file is re-read and compared against the scalar oracles.

A merged checkpoint passes when it re-reads with ``read_checkpoint``, passes
``check_merged_structure`` against its inputs, holds exactly the expected
tensors and recipe metadata, and when every 1-D transformer tensor, the
smallest 2-D one and a sample of embedding rows from each of the four token
rules equal, bit for bit after bf16 rounding, what the loop oracles in
``tests/reference.py`` compute from the stored inputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import reference
from gen import bf16_bits
from vlrmerge import classify_triple, load_manifest_config, read_checkpoint
from vlrmerge.assembly import check_merged_structure
from vlrmerge.components import Role

ROWS_PER_RULE = 12


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def widen(tensor) -> np.ndarray:
    """bf16 payload to float32, independently of the program's own widening."""
    bits = np.frombuffer(tensor.data, dtype="<u2").astype(np.uint32) << np.uint32(16)
    return bits.view(np.float32).reshape(tensor.shape)


def stored_bits(tensor) -> np.ndarray:
    return np.frombuffer(tensor.data, dtype="<u2").reshape(tensor.shape)


class Inputs:
    """The classified input triple a merged file is checked against."""

    def __init__(self, paths: dict[str, Path]):
        ckpts = {kind: read_checkpoint(path) for kind, path in paths.items()}
        self.triple = classify_triple(ckpts["pre"], ckpts["lvlm"], ckpts["rm"], load_manifest_config())
        lvlm, rm = self.triple.lvlm, self.triple.rm
        self.expected_names = {
            n for n, role in lvlm.cmap.assignments.items() if role is not Role.LM_HEAD
        } | set(rm.cmap.names(Role.RM_HEAD))
        pre_vocab, lv_vocab, rm_vocab = (m.ckpt.vocab for m in (self.triple.pre, lvlm, rm))
        order = list(lv_vocab) + [t for t in rm_vocab if t not in lv_vocab]
        self.expected_vocab = {token: i for i, token in enumerate(order)}
        rules = {
            "base": [t for t in order if t in pre_vocab],
            "shared": [t for t in order if t not in pre_vocab and t in lv_vocab and t in rm_vocab],
            "lvlm_only": [t for t in order if t not in pre_vocab and t not in rm_vocab],
            "rm_only": [t for t in order if t not in pre_vocab and t not in lv_vocab],
        }
        # the loop oracles are slow, so 2-D tensors are represented by the smallest one
        trans = {n: lvlm.ckpt.tensors[n] for n in lvlm.cmap.names(Role.TRANSFORMER)}
        matrices = sorted((t.numel, n) for n, t in trans.items() if len(t.shape) == 2)
        self.oracle_names = [n for n, t in trans.items() if len(t.shape) == 1] + [matrices[0][1]]
        self.sample_tokens = []
        for tokens in rules.values():
            picks = np.linspace(0, len(tokens) - 1, min(ROWS_PER_RULE, len(tokens))).astype(int)
            self.sample_tokens += [tokens[i] for i in sorted(set(picks))]


def _row(model, name: str, token: str) -> np.ndarray | None:
    if token not in model.ckpt.vocab:
        return None
    tensor = model.ckpt.tensors[name]
    width = tensor.shape[1]
    start = model.ckpt.vocab[token] * width * 2
    bits = np.frombuffer(tensor.data[start:start + width * 2], dtype="<u2").astype(np.uint32)
    return (bits << np.uint32(16)).view(np.float32)


def _expected_row(inputs: Inputs, name: str, token: str, method: str) -> np.ndarray:
    pre, lv, rm = (_row(m, name, token) for m in (inputs.triple.pre, inputs.triple.lvlm, inputs.triple.rm))
    if pre is not None and method != "linear":
        return pre
    if lv is not None and rm is not None:
        return np.asarray(reference.linear(list(lv), list(rm), 0.5), dtype=np.float32)
    return lv if lv is not None else rm


def check_merged(inputs: Inputs, path: Path, method: str, lam: float,
                 density: float | None, seed: int | None) -> list[str]:
    """Problems found in one merged checkpoint; empty when it is correct."""
    merged = read_checkpoint(path)
    problems = check_merged_structure(merged, inputs.triple)
    if set(merged.tensors) != inputs.expected_names:
        problems.append(f"tensor set differs: {sorted(set(merged.tensors) ^ inputs.expected_names)[:5]}")
        return problems
    meta = merged.metadata
    if meta.get("recipe.method") != method or meta.get("recipe.lambda") != repr(lam):
        problems.append(f"recipe metadata {meta.get('recipe.method')} {meta.get('recipe.lambda')}")
    if merged.vocab != inputs.expected_vocab:
        problems.append("merged vocabulary is not the lvlm order followed by rm-only tokens")
        return problems

    t = inputs.triple
    for name in inputs.oracle_names:
        pre, lv, rm = (list(widen(m.ckpt.tensors[name]).ravel()) for m in (t.pre, t.lvlm, t.rm))
        oracle = reference.merge_reference(method, pre, lv, rm, lam, density, seed, name)
        if not np.array_equal(bf16_bits(np.asarray(oracle, dtype=np.float32)),
                              stored_bits(merged.tensors[name]).ravel()):
            problems.append(f"transformer tensor {name} differs from the reference oracle")

    for name in t.lvlm.cmap.names(Role.EMBEDDING):
        got = stored_bits(merged.tensors[name])
        for token in inputs.sample_tokens:
            want = bf16_bits(_expected_row(inputs, name, token, method))
            if not np.array_equal(want, got[merged.vocab[token]]):
                problems.append(f"embedding row {token!r} of {name} breaks its token rule")
    return problems


def check_sweep_manifest(path: Path, expected: dict) -> list[str]:
    """Accuracies, tie-break scores and winner against the planned transcripts."""
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    entries = [r for r in records if r["record"] == "entry"]
    winners = [r for r in records if r["record"] == "winner"]
    problems = []
    slugs = []
    for entry in entries:
        parts = [entry["method"], f"l{entry['lambda']:g}", f"d{entry['density']:g}"]
        slug = "-".join(parts)
        slugs.append(slug)
        if entry["status"] != "ok":
            problems.append(f"{slug}: status {entry['status']}")
        if entry["primary_accuracy"] != expected["primary"].get(slug):
            problems.append(f"{slug}: primary accuracy {entry['primary_accuracy']}")
        if entry["tiebreak_accuracy"] != expected["tiebreak"].get(slug):
            problems.append(f"{slug}: tie-break accuracy {entry['tiebreak_accuracy']}")
        if not (path.parent / entry["variant"]).exists():
            problems.append(f"{slug}: variant file missing")
    if sorted(slugs) != sorted(expected["primary"]):
        problems.append(f"manifest covers {len(slugs)} recipes, expected {len(expected['primary'])}")
    if len(winners) != 1:
        problems.append("manifest has no single winner record")
    else:
        w = winners[0]
        if f"{w['method']}-l{w['lambda']:g}-d{w['density']:g}" != expected["winner"]:
            problems.append(f"winner is {w['method']} l{w['lambda']} d{w['density']}")
    return problems
