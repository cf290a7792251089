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


def _finite_rewards(requests: list[Request], rewards: dict[str, object], source: str) -> dict[str, float]:
    """Each request's reward in ``rewards`` as a float; ScorerError if one is missing or is no finite float.

    A JSON number that converts to no finite float (NaN, an infinity, an
    integer past the float range) is as malformed as a non-number.
    """
    missing = sorted({req["id"] for req in requests} - rewards.keys())
    if missing:
        raise ScorerError(f"{source}: no reward for id(s): {', '.join(missing[:5])}")
    out = {}
    for req in requests:
        reward = rewards[req["id"]]
        try:
            value = float(reward) if isinstance(reward, (int, float)) and not isinstance(reward, bool) else math.nan
        except OverflowError:  # an integer past the float range
            value = math.nan
        if not math.isfinite(value):
            raise ScorerError(f"{source}: non-finite or non-numeric reward for id {req['id']!r}")
        out[req["id"]] = value
    return out


def _quoted(line: str, limit: int = 200) -> str:
    """``line`` quoted for an error; past ``limit`` characters, its start and its length."""
    return repr(line) if len(line) <= limit else f"{line[:limit]!r}... ({len(line)} characters)"


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
        rewards: dict[str, object] = {}
        for line_no, line in enumerate(replies.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                reply = json.loads(line)
                rid, reward = reply["id"], reply["reward"]
            except (ValueError, RecursionError, TypeError, KeyError) as exc:  # RecursionError: deep nesting
                raise ScorerError(f"scorer reply line {line_no} is malformed: {_quoted(line)}") from exc
            if not isinstance(rid, str):
                raise ScorerError(f"scorer reply line {line_no} is malformed: its id is not a string: {_quoted(line)}")
            if rid in rewards:
                raise ScorerError(f"scorer replied twice for id {rid!r}")
            rewards[rid] = reward
        return _finite_rewards(requests, rewards, "scorer")


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
        self._rewards: dict[str, object] = {}
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
            except (ValueError, RecursionError, TypeError, KeyError) as exc:  # RecursionError: deep nesting
                raise ScorerError(
                    f"{self.transcript_path}:{line_no}: malformed transcript record"
                ) from exc
            if not isinstance(rid, str):
                raise ScorerError(
                    f"{self.transcript_path}:{line_no}: malformed transcript record: its id is not a string"
                )
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
        return _finite_rewards(requests, self._rewards, str(self.transcript_path))


def stub_scorer_loop(stdin, stdout) -> None:
    """Serve the wire protocol with hash-of-text rewards (used by the CLI)."""
    for line in stdin:
        if not line.strip():
            continue
        req = json.loads(line)
        stdout.write(json.dumps({"id": req["id"], "reward": stub_reward(req["response"])}) + "\n")
    stdout.flush()
