import json
import sys

import pytest

from vlrmerge import RecordingScorer, ReplayScorer, StubScorer, SubprocessScorer
from vlrmerge.errors import ScorerError, VlrmergeError
from vlrmerge.scoring import stub_reward

from helpers import JSON_PAST_THE_PARSER


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


def replying(path):
    """A scorer command that reads the requests and answers with the text of the file at ``path``."""
    code = "import sys; sys.stdin.read(); sys.stdout.write(open(sys.argv[1], encoding='utf-8').read())"
    return [sys.executable, "-c", code, str(path)]


# a reward of 1 followed by 400 zeros: a JSON integer past the float range
HUGE = 10**400


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

    @pytest.mark.parametrize("timeout", [float("inf"), float("nan"), -5.0, 0.0])
    def test_timeout_must_be_finite_and_positive(self, timeout):
        with pytest.raises(VlrmergeError, match=f"must be a finite number > 0, got {timeout}"):
            SubprocessScorer(["true"], timeout_per_record=timeout)

    def test_missing_command_reported(self):
        with pytest.raises(ScorerError, match="not found"):
            SubprocessScorer(["/nonexistent/scorer"]).score(requests())

    @pytest.mark.parametrize("kind", ["not-executable", "directory"])
    def test_command_that_cannot_start_reported(self, tmp_path, kind):
        command = tmp_path / "scorer.sh"
        if kind == "directory":
            command.mkdir()
        else:
            command.write_text("#!/bin/sh\n", encoding="utf-8")
            command.chmod(0o644)
        with pytest.raises(ScorerError, match=f"^scorer command cannot start: {command}: Permission denied$"):
            SubprocessScorer([str(command)]).score(requests())

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

    @pytest.mark.parametrize("text", list(JSON_PAST_THE_PARSER))
    def test_a_reply_past_the_json_parsers_limits_is_malformed(self, tmp_path, text):
        path = tmp_path / "replies.jsonl"
        path.write_text(JSON_PAST_THE_PARSER[text] + "\n", encoding="utf-8")
        with pytest.raises(ScorerError, match="^scorer reply line 1 is malformed: ") as raised:
            SubprocessScorer(replying(path)).score(requests())
        # the line is quoted in part, with its length
        message = str(raised.value)
        assert len(message) < 300 and f"({len(JSON_PAST_THE_PARSER[text])} characters)" in message

    def test_a_reply_whose_id_is_no_string_is_malformed(self, tmp_path):
        path = tmp_path / "replies.jsonl"
        path.write_text('{"id": "r0", "reward": 0.5}\n{"id": ["r1"], "reward": 0.5}\n', encoding="utf-8")
        with pytest.raises(ScorerError, match="^scorer reply line 2 is malformed: its id is not a string: "):
            SubprocessScorer(replying(path)).score(requests())

    def test_a_reward_past_the_float_range_is_malformed(self, tmp_path):
        path = tmp_path / "replies.jsonl"
        replies = "".join(json.dumps({"id": r["id"], "reward": HUGE}) + "\n" for r in requests())
        path.write_text(replies, encoding="utf-8")
        with pytest.raises(ScorerError, match="^scorer: non-finite or non-numeric reward for id 'r0'$"):
            SubprocessScorer(replying(path)).score(requests())

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

    @pytest.mark.parametrize("text", list(JSON_PAST_THE_PARSER))
    def test_a_record_past_the_json_parsers_limits_cited_by_line(self, tmp_path, text):
        transcript = tmp_path / "t.jsonl"
        good = '{"request": {"id": "a"}, "reward": 1.0}\n'
        transcript.write_text(good + JSON_PAST_THE_PARSER[text] + "\n", encoding="utf-8")
        with pytest.raises(ScorerError, match="t.jsonl:2: malformed transcript record$"):
            ReplayScorer(transcript)

    def test_a_record_whose_id_is_no_string_cited_by_line(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        records = [{"request": {"id": "a"}, "reward": 1.0}, {"request": {"id": ["a"]}, "reward": 1.0}]
        transcript.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(ScorerError, match="t.jsonl:2: malformed transcript record: its id is not a string$"):
            ReplayScorer(transcript)

    def test_a_recorded_reward_past_the_float_range_is_malformed(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        transcript.write_text("".join(json.dumps({"request": r, "reward": HUGE}) + "\n" for r in requests()),
                              encoding="utf-8")
        with pytest.raises(ScorerError, match="t.jsonl: non-finite or non-numeric reward for id 'r0'$"):
            ReplayScorer(transcript).score(requests())

    def test_transcript_that_is_not_utf8_reported(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        transcript.write_bytes(b'{"request": {"id": "a"}, "reward": 1.0}\n\xff\n')
        with pytest.raises(ScorerError, match="t.jsonl: not UTF-8 text: invalid start byte"):
            ReplayScorer(transcript)

    @pytest.mark.parametrize("change", ["reward", "request"])
    def test_conflicting_records_for_one_id_cited_by_both_lines(self, tmp_path, change):
        transcript = tmp_path / "t.jsonl"
        RecordingScorer(StubScorer(), transcript).score(requests())
        lines = transcript.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        if change == "reward":
            record["reward"] += 0.5
        else:
            record["request"]["response"] = "different text"
        transcript.write_text("\n".join([*lines, "", json.dumps(record)]) + "\n", encoding="utf-8")
        rid = record["request"]["id"]
        with pytest.raises(ScorerError, match=f"t.jsonl: lines 1 and {len(lines) + 2} record id '{rid}' with a different"):
            ReplayScorer(transcript)

    def test_repeated_identical_record_is_accepted(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        recorded = RecordingScorer(StubScorer(), transcript).score(requests())
        RecordingScorer(StubScorer(), transcript).score(requests())  # the same pairs, appended again
        assert ReplayScorer(transcript).score(requests()) == recorded
