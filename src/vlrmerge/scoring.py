"""Bridge to external reward scorers over a line-delimited JSON protocol.

Requests go to the scorer process's stdin, one JSON object per line:
``{"id", "instruction", "response", "image_path"?}``. The scorer answers on
stdout with ``{"id", "reward"}`` lines, in any order; replies are matched by
id. Transcripts of (request, reward) pairs can be recorded and replayed so
whole pipelines run without any model inference.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import threading
from collections.abc import Sequence
from pathlib import Path

from .errors import ScorerError, VlrmergeError

Request = dict  # {"id": str, "instruction": str, "response": str, "image_path"?: str}


def stub_reward(response: str) -> float:
    """Deterministic hash-of-text reward in [0, 1)."""
    digest = hashlib.sha256(response.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") / 2.0**64


class StubScorer:
    """In-process deterministic scorer used by tests and dry runs."""

    def score(self, requests: list[Request]) -> dict[str, float]:
        return {req["id"]: stub_reward(req["response"]) for req in requests}


def _validate_replies(requests: list[Request], rewards: dict[str, float], source: str) -> None:
    wanted = {req["id"] for req in requests}
    missing = sorted(wanted - rewards.keys())
    if missing:
        raise ScorerError(f"{source}: no reward for id(s): {', '.join(missing[:5])}")
    for rid in wanted:
        reward = rewards[rid]
        if not isinstance(reward, (int, float)) or isinstance(reward, bool) or not math.isfinite(reward):
            raise ScorerError(f"{source}: non-finite or non-numeric reward for id {rid!r}")


def check_timeout(seconds: float) -> float:
    """``seconds`` if it is a finite number above 0; VlrmergeError otherwise."""
    if not (math.isfinite(seconds) and seconds > 0):
        raise VlrmergeError(f"timeout per record must be a finite number > 0, got {seconds}")
    return seconds


class SubprocessScorer:
    """Runs a scorer command, given as its argv, once per batch, feeding requests over stdin."""

    def __init__(self, argv: Sequence[str], timeout_per_record: float = 30.0):
        self.argv = list(argv)
        self.timeout_per_record = check_timeout(timeout_per_record)

    def score(self, requests: list[Request]) -> dict[str, float]:
        payload = "".join(json.dumps(req, sort_keys=True) + "\n" for req in requests)
        timeout = max(30.0, self.timeout_per_record * max(1, len(requests)))
        try:
            proc = subprocess.run(
                self.argv,
                input=payload.encode("utf-8"),
                capture_output=True,
                timeout=timeout,
            )
        except FileNotFoundError as exc:
            raise ScorerError(f"scorer command not found: {self.argv[0]}") from exc
        except OSError as exc:  # a command that is not executable, or a directory
            raise ScorerError(f"scorer command cannot start: {self.argv[0]}: {exc.strerror or exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise ScorerError(f"scorer timed out after {timeout:.0f}s") from exc
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
            raise ScorerError(
                f"scorer exited with status {proc.returncode}: " + " | ".join(tail)
            )
        try:
            replies = proc.stdout.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScorerError(f"scorer output is not UTF-8 text: {exc.reason}") from exc
        rewards: dict[str, float] = {}
        for line_no, line in enumerate(replies.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                reply = json.loads(line)
                rid, reward = reply["id"], reply["reward"]
            except (json.JSONDecodeError, TypeError, KeyError) as exc:
                raise ScorerError(f"scorer reply line {line_no} is malformed: {line!r}") from exc
            if rid in rewards:
                raise ScorerError(f"scorer replied twice for id {rid!r}")
            rewards[rid] = reward
        _validate_replies(requests, rewards, "scorer")
        return {req["id"]: float(rewards[req["id"]]) for req in requests}


class RecordingScorer:
    """Wraps a scorer and appends every (request, reward) pair to a transcript."""

    def __init__(self, inner, transcript_path: str | Path):
        self.inner = inner
        self.transcript_path = Path(transcript_path)
        self._lock = threading.Lock()

    def score(self, requests: list[Request]) -> dict[str, float]:
        rewards = self.inner.score(requests)
        with self._lock, open(self.transcript_path, "a", encoding="utf-8") as f:
            for req in requests:
                record = {"request": req, "reward": rewards[req["id"]]}
                f.write(json.dumps(record, sort_keys=True) + "\n")
        return rewards


class ReplayScorer:
    """Serves rewards from a recorded transcript; requests must match it.

    An id may be recorded more than once only with the same request and
    reward; two records that differ raise ScorerError naming both lines.
    """

    def __init__(self, transcript_path: str | Path):
        self.transcript_path = Path(transcript_path)
        self._rewards: dict[str, float] = {}
        self._requests: dict[str, Request] = {}
        first_line: dict[str, int] = {}
        try:
            with open(self.transcript_path, encoding="utf-8") as f:
                lines = f.readlines()
        except UnicodeDecodeError as exc:
            raise ScorerError(f"{self.transcript_path}: not UTF-8 text: {exc.reason}") from exc
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                req, reward = record["request"], record["reward"]
                rid = req["id"]
            except (json.JSONDecodeError, TypeError, KeyError) as exc:
                raise ScorerError(
                    f"{self.transcript_path}:{line_no}: malformed transcript record"
                ) from exc
            seen = first_line.setdefault(rid, line_no)
            if seen != line_no and (self._requests[rid], self._rewards[rid]) != (req, reward):
                raise ScorerError(
                    f"{self.transcript_path}: lines {seen} and {line_no} record id {rid!r} "
                    "with a different request or reward"
                )
            self._rewards[rid] = reward
            self._requests[rid] = req

    def score(self, requests: list[Request]) -> dict[str, float]:
        for req in requests:
            rid = req["id"]
            recorded = self._requests.get(rid)
            if recorded is not None and recorded != req:
                raise ScorerError(
                    f"transcript request for id {rid!r} does not match the live request"
                )
        _validate_replies(requests, self._rewards, str(self.transcript_path))
        return {req["id"]: float(self._rewards[req["id"]]) for req in requests}


def stub_scorer_loop(stdin, stdout) -> None:
    """Serve the wire protocol with hash-of-text rewards (used by the CLI)."""
    for line in stdin:
        if not line.strip():
            continue
        req = json.loads(line)
        stdout.write(json.dumps({"id": req["id"], "reward": stub_reward(req["response"])}) + "\n")
    stdout.flush()
