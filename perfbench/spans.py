"""Spans around the calls each vlrmerge module makes into the others.

The tracer replaces functions at the names their callers look them up by
(``vlrmerge.assembly.merge_transformer``, ``vlrmerge.cli.read_checkpoint``, ...),
so the program itself is unchanged. Spans (name, start, end, parent, run id)
are kept in memory and written out when the traced command ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import resource
import threading
import time
from contextlib import contextmanager

LAYERS = ("tensorstore", "components", "merging", "embeddings", "assembly",
          "sweep", "evaluation", "scoring", "cli")


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _file_mib(*paths) -> float:
    return sum(os.path.getsize(p) for p in paths if p is not None and os.path.exists(p)) / (1 << 20)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        # method -> (recipe, tensor names) of its first merge_transformer call; the
        # arrays are not kept, so the tracer holds no memory the program has freed
        self.merge_calls: dict[str, tuple] = {}
        self._originals: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                # pool workers' spans hang under the span the main thread has open
                stack = self._main_stack[-1:]
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = {"id": next(self._ids), "parent": stack[-1] if stack else None,
                  "name": name, "run": self.run_id}
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        except Exception as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)  # list.append is atomic under the interpreter lock

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                if annotate is not None:
                    annotate(record, args, kwargs, None, before=True)
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(record, args, kwargs, result, before=False)
                return result

        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Put back every function that ``wrap`` replaced."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def install(self) -> None:
        """Wrap every cross-module call of the vlrmerge pipeline."""
        from vlrmerge import assembly, cli, scoring, sweep, tensorstore

        def read_bytes(record, args, kwargs, result, before):
            if not before:
                path = args[0]
                vocab = args[1] if len(args) > 1 else None
                record["mib"] = _file_mib(path, vocab or tensorstore.default_vocab_path(path))

        def written_bytes(record, args, kwargs, result, before):
            if not before:
                record["mib"] = _file_mib(args[1])

        def merge_call(record, args, kwargs, result, before):
            recipe, pre = args[0], args[1]
            if before:
                record["method"] = recipe.method.value
                record["numel"] = sum(int(a.size) for a in pre.values())
                self.merge_calls.setdefault(recipe.method.value, (recipe, list(pre)))

        def rss(record, args, kwargs, result, before):
            record["rss_before" if before else "rss_after"] = _maxrss_mib()

        def rows(record, args, kwargs, result, before):
            if not before:
                record["rows"] = int(result.shape[0])

        def pairs(record, args, kwargs, result, before):
            if before:
                record["pairs"] = len(args[0])

        def requests(record, args, kwargs, result, before):
            if before:
                record["requests"] = len(args[1])

        self.wrap(cli, "read_checkpoint", "tensorstore.read_checkpoint", read_bytes)
        self.wrap(cli, "file_digest", "assembly.file_digest")
        self.wrap(cli, "load_manifest_config", "components.load_manifest_config")
        self.wrap(cli, "classify_triple", "components.classify_triple")
        self.wrap(cli, "classify_tensors", "components.classify_tensors")
        self.wrap(cli, "load_pairwise_dataset", "evaluation.load_pairwise_dataset")
        self.wrap(cli, "run_sweep", "sweep.run_sweep")
        for module in (cli, assembly):
            self.wrap(module, "validate_triple", "components.validate_triple")
        for module in (cli, sweep):
            self.wrap(module, "assemble_vlrm", "assembly.assemble_vlrm", rss)
            self.wrap(module, "write_merged", "assembly.write_merged")
            self.wrap(module, "evaluate_pairwise", "evaluation.evaluate_pairwise", pairs)
        self.wrap(assembly, "merge_transformer", "merging.merge_transformer", merge_call)
        self.wrap(assembly, "align_vocab", "embeddings.align_vocab")
        self.wrap(assembly, "merge_embedding_rows", "embeddings.merge_embedding_rows", rows)
        self.wrap(assembly, "check_merged_structure", "assembly.check_merged_structure")
        self.wrap(assembly, "write_checkpoint", "tensorstore.write_checkpoint", written_bytes)
        self.wrap(assembly, "write_vocab", "tensorstore.write_vocab", written_bytes)
        self.wrap(tensorstore.Tensor, "to_f32", "tensorstore.to_f32")
        self.wrap(tensorstore.Tensor, "from_f32", "tensorstore.from_f32")
        self.wrap(scoring.ReplayScorer, "__init__", "scoring.load_transcript")
        self.wrap(scoring.ReplayScorer, "score", "scoring.score", requests)


# ---------------------------------------------------------------------------
# analysis


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, cursor = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["run"], s["parent"]), []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = [(max(a, s["start"]), min(b, s["end"]))
                for a, b in children.get((s["run"], s["id"]), [])]
        out[id(s)] = (s["end"] - s["start"]) - _covered(kids)
    return out


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    selfs = self_times(spans)
    totals = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        totals[s["name"].split(".", 1)[0]] += selfs[id(s)]
    return totals


def total(spans: list[dict], *names: str, key: str | None = None) -> float:
    """Sum of durations (or of attribute ``key``) over spans with one of ``names``."""
    picked = [s for s in spans if s["name"] in names]
    if key is None:
        return sum(s["end"] - s["start"] for s in picked)
    return sum(s.get(key, 0) for s in picked)


def count(spans: list[dict], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)
