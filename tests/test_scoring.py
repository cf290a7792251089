import json
import sys

import pytest

from vlrmerge import RecordingScorer, ReplayScorer, StubScorer, SubprocessScorer
from vlrmerge.errors import ScorerError
from vlrmerge.scoring import stub_reward


def requests(n=3):
    return [
        {"id": f"r{i}", "instruction": "describe", "response": f"text number {i}"}
        for i in range(n)
    ]


LENGTH_SCORER = [
    sys.executable,
    "-c",
    (
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    if not line.strip():\n"
        "        continue\n"
        "    req = json.loads(line)\n"
        "    print(json.dumps({'id': req['id'], 'reward': float(len(req['response']))}))\n"
    ),
]


class TestStub:
    def test_reward_is_deterministic_hash_of_text(self):
        assert stub_reward("abc") == stub_reward("abc")
        assert stub_reward("abc") != stub_reward("abd")
        assert 0.0 <= stub_reward("abc") < 1.0

    def test_scorer_maps_ids(self):
        rewards = StubScorer().score(requests())
        assert set(rewards) == {"r0", "r1", "r2"}

    def test_cli_stub_scorer_speaks_the_protocol(self):
        import subprocess

        payload = "".join(json.dumps(r) + "\n" for r in requests())
        proc = subprocess.run(
            [sys.executable, "-m", "vlrmerge", "stub-scorer"],
            input=payload.encode(),
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0
        replies = [json.loads(line) for line in proc.stdout.decode().splitlines()]
        assert {r["id"]: r["reward"] for r in replies} == StubScorer().score(requests())


class TestSubprocessScorer:
    def test_length_scorer_end_to_end(self):
        rewards = SubprocessScorer(LENGTH_SCORER).score(requests())
        assert rewards == {f"r{i}": float(len(f"text number {i}")) for i in range(3)}

    def test_out_of_order_replies_are_matched_by_id(self):
        reversing = [
            sys.executable,
            "-c",
            (
                "import sys, json\n"
                "lines = [json.loads(l) for l in sys.stdin if l.strip()]\n"
                "for req in reversed(lines):\n"
                "    print(json.dumps({'id': req['id'], 'reward': 1.0 + len(req['response'])}))\n"
            ),
        ]
        rewards = SubprocessScorer(reversing).score(requests())
        assert rewards["r0"] == 1.0 + len("text number 0")

    def test_missing_id_reported(self):
        dropper = [
            sys.executable,
            "-c",
            (
                "import sys, json\n"
                "for line in sys.stdin:\n"
                "    if not line.strip():\n"
                "        continue\n"
                "    req = json.loads(line)\n"
                "    if req['id'] != 'r1':\n"
                "        print(json.dumps({'id': req['id'], 'reward': 0.5}))\n"
            ),
        ]
        with pytest.raises(ScorerError, match="no reward for id.*r1"):
            SubprocessScorer(dropper).score(requests())

    def test_duplicate_reply_reported(self):
        duplicator = [
            sys.executable,
            "-c",
            (
                "import sys, json\n"
                "for line in sys.stdin:\n"
                "    if not line.strip():\n"
                "        continue\n"
                "    req = json.loads(line)\n"
                "    print(json.dumps({'id': req['id'], 'reward': 0.5}))\n"
                "    print(json.dumps({'id': req['id'], 'reward': 0.5}))\n"
            ),
        ]
        with pytest.raises(ScorerError, match="twice"):
            SubprocessScorer(duplicator).score(requests())

    def test_nonzero_exit_reported_with_stderr(self):
        failing = [sys.executable, "-c", "import sys; sys.stderr.write('boom\\n'); sys.exit(3)"]
        with pytest.raises(ScorerError, match="status 3.*boom"):
            SubprocessScorer(failing).score(requests())

    def test_missing_command_reported(self):
        with pytest.raises(ScorerError, match="not found"):
            SubprocessScorer(["/nonexistent/scorer"]).score(requests())

    def test_non_finite_reward_rejected(self):
        nan_scorer = [
            sys.executable,
            "-c",
            (
                "import sys, json\n"
                "for line in sys.stdin:\n"
                "    if not line.strip():\n"
                "        continue\n"
                "    req = json.loads(line)\n"
                "    print(json.dumps({'id': req['id'], 'reward': float('nan')}))\n"
            ),
        ]
        with pytest.raises(ScorerError, match="non-finite"):
            SubprocessScorer(nan_scorer).score(requests())

    def test_output_that_is_not_utf8_reported(self):
        garbling = [sys.executable, "-c", "import sys; sys.stdin.read(); sys.stdout.buffer.write(b'\\xff\\n')"]
        with pytest.raises(ScorerError, match="scorer output is not UTF-8 text: invalid start byte"):
            SubprocessScorer(garbling).score(requests())


class TestRecordReplay:
    def test_replay_reproduces_recorded_rewards(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        recorded = RecordingScorer(StubScorer(), transcript).score(requests())
        replayed = ReplayScorer(transcript).score(requests())
        assert replayed == recorded

    def test_replay_rejects_unknown_id(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        RecordingScorer(StubScorer(), transcript).score(requests(2))
        with pytest.raises(ScorerError, match="no reward for id.*r2"):
            ReplayScorer(transcript).score(requests(3))

    def test_replay_rejects_mismatched_request_content(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        RecordingScorer(StubScorer(), transcript).score(requests())
        tampered = requests()
        tampered[0]["response"] = "different text"
        with pytest.raises(ScorerError, match="does not match"):
            ReplayScorer(transcript).score(tampered)

    def test_malformed_transcript_cited_by_line(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        transcript.write_text('{"request": {"id": "a"}, "reward": 1.0}\n{nope\n', encoding="utf-8")
        with pytest.raises(ScorerError, match="t.jsonl:2"):
            ReplayScorer(transcript)

    def test_transcript_that_is_not_utf8_reported(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        transcript.write_bytes(b'{"request": {"id": "a"}, "reward": 1.0}\n\xff\n')
        with pytest.raises(ScorerError, match="t.jsonl: not UTF-8 text: invalid start byte"):
            ReplayScorer(transcript)
