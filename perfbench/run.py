"""vlrmerge benchmark: real CLI merges and sweeps on synthetic bf16 triples.

    python3 perfbench/run.py --workload merge-sparse --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout. Set-up generates the workload's
inputs from the seed. Then, for ``--seconds``, the workload's commands are
repeated in passes, each command in a fresh child process that times click's
``main(..., standalone_mode=False)`` in-process with ``--jobs 2``, and every
output is checked. Before each command the input files are read once, untimed,
and dirty pages are flushed, so that neither an evicted page cache nor the
previous command's writeback lands in its time. After each pass the set-up is
timed once more, into a scratch directory, and ``setup_s`` is the median of all
set-ups of the run.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The metric names,
units and directions are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench-work"
MIB = 1 << 20

JOBS = 2  # every command runs with --jobs 2, the core count of the machine the bounds were set on
LAM, DENSITY, DARE_SEED = 0.7, 0.4, 7
METHODS = ("linear", "task-arithmetic", "ties", "dare-task-arithmetic", "dare-ties")


def _require_checkout() -> None:
    missing = [p for p in ("src/vlrmerge/__init__.py", "tests/reference.py", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: not a vlrmerge checkout (missing {', '.join(missing)}); "
              "run it from the repository root", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]


@dataclass
class Step:
    label: str
    argv: Callable[["Run"], list[str]]
    # problems in the command's output; ``full`` is false when the same command's
    # first run already passed the slow checks and wrote the same bytes
    check: Callable[["Run", str, bool], list[str]]
    repeat: int = 1  # commands each time the step comes up in a pass
    # files the command writes, by a label that does not change between passes
    outputs: Callable[["Run"], dict[str, Path]] = lambda run: {}


def warm_page_cache(directory: Path) -> None:
    """Read every input file once, untimed, so that no command pays for a page
    cache that other tenants of the machine have evicted since set-up."""
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            with open(path, "rb") as f:
                while f.read(MIB << 3):
                    pass


class Launcher:
    """child.py, which forks one fresh process per command from a pre-imported interpreter."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "child.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, spec: dict, spec_path: Path) -> int:
        """The command's wait status; child.py kills a command that outlives its timeout."""
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        self.proc.stdin.write(f"{spec_path}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        return int(line) if line.strip() else -1

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Run:
    """One benchmark invocation: its inputs, working files and tallies."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.dir = WORK / f"{workload}-s{seed}-{time.time_ns()}"
        self.inputs_dir = self.dir / "in"
        self.golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8")).get(workload, {})
        self.digests: dict[str, str] = {}
        # path -> (inode, size, mtime_ns) and sha256 when last hashed; a file the
        # program has not written since keeps its stamp and is not read again
        self.stamped: dict[Path, tuple[tuple[int, int, int], str]] = {}
        self.verified: dict[str, dict[str, str]] = {}  # step label -> digests of checked outputs
        self.attempted = self.failed = self.commands = 0
        self.expected: dict = {}  # planned sweep outcome, from set-up
        self.inputs = None  # check.Inputs for the current triple
        self.sweep_dir: Path | None = None
        self.winner: dict = {}  # recipe and variant file name of the sweep winner
        self.hits: dict[str, int] = {}  # sweep variants reused by the last pass of each kind
        self.launcher = Launcher()

    def path(self, kind: str) -> Path:
        return self.inputs_dir / f"{kind}.safetensors"

    def triple_args(self) -> list[str]:
        return ["--pre", str(self.path("pre")), "--lvlm", str(self.path("lvlm")), "--rm", str(self.path("rm"))]

    def command(self, argv: list[str], trace: bool) -> tuple[dict, str]:
        """Run one CLI command in a fresh process; returns its result and stdout."""
        self.commands += 1
        stem = self.dir / "cmd" / f"{self.commands:04d}"
        stem.parent.mkdir(parents=True, exist_ok=True)
        spec = {"argv": argv, "trace": trace, "run": f"{self.workload}-s{self.seed}-{self.commands}"}
        if trace:
            spec["inputs"] = {kind: str(self.path(kind)) for kind in ("pre", "lvlm", "rm")}
        for key, suffix in (("result", ".result.json"), ("stdout", ".out"), ("stderr", ".err")):
            spec[key] = str(stem.with_suffix(suffix))
        os.sync()
        warm_page_cache(self.inputs_dir)
        status = self.launcher.run(spec, stem.with_suffix(".spec.json"))
        if status != 0 or not Path(spec["result"]).exists():
            tail = Path(spec["stderr"]).read_text(encoding="utf-8", errors="replace")[-2000:]
            return {"error": f"command ended with wait status {status}: {tail}"}, ""
        return (json.loads(Path(spec["result"]).read_text(encoding="utf-8")),
                Path(spec["stdout"]).read_text(encoding="utf-8"))

    def sha256(self, path: Path) -> str:
        import check
        st = path.stat()
        stamp = (st.st_ino, st.st_size, st.st_mtime_ns)
        if self.stamped.get(path, (None,))[0] != stamp:
            self.stamped[path] = stamp, check.sha256(path)
        return self.stamped[path][1]

    def verify(self, step: Step, stdout: str) -> list[str]:
        """Check a command's outputs; a repeat must write the bytes its first run wrote."""
        import check
        digests = {label: self.sha256(path) for label, path in step.outputs(self).items()}
        self.digests.update(digests)
        if step.label in self.verified and self.verified[step.label] != digests:
            return ["output bytes differ from the first run of the same command"]
        try:
            problems = step.check(self, stdout, step.label not in self.verified)
        except Exception:  # unreadable output fails the operation, not the run
            problems = [traceback.format_exc()]
        if self.seed == 0:
            # the full digest is printed so that an intended byte change can be
            # pinned by editing golden.json
            problems += [f"{label}: sha256 {value} is not the pinned {self.golden.get(label)}"
                         for label, value in digests.items() if self.golden.get(label) != value]
        if not problems:
            self.verified[step.label] = digests
        return problems

    def operation(self, step: Step, trace: bool = False) -> dict | None:
        """One command and its output check; the child's result, or None when either failed."""
        self.attempted += 1
        try:
            argv = step.argv(self)
        except Exception:  # e.g. a resumed sweep whose cold pass left no manifest
            argv, problems = None, [traceback.format_exc()]
        if argv is not None:
            result, stdout = self.command(argv, trace)
            problems = [result["error"]] if result.get("error") else self.verify(step, stdout)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"[{self.workload}] {step.label}: {problem}", file=sys.stderr)
            return None
        return result


# ---------------------------------------------------------------------------
# workloads


def setup_merge(scale: str) -> Callable[[Path, int], dict]:
    def setup(d: Path, seed: int) -> dict:
        import gen
        gen.write_triple(d, gen.SCALES[scale], seed)
        return {}
    return setup


def setup_sweep(d: Path, seed: int) -> dict:
    """The triple, data, config and transcripts; returns the planned sweep outcome."""
    import gen
    import replay
    gen.write_triple(d, gen.SCALES["sweep-ties"], seed)
    gen.write_pairwise(d / "pairwise.jsonl", seed)
    (d / "sweep.json").write_text(json.dumps({"method": "ties", "sampling_seed": seed}), encoding="utf-8")
    return replay.record_sweep_transcripts(d / "sweep.json", d / "pairwise.jsonl", d / "replay", seed)


def merge_step(method: str, lam: float = LAM, density: float | None = DENSITY, jobs: int = JOBS,
               name: str | None = None) -> Step:
    sparse = method not in ("linear", "task-arithmetic")
    density = density if sparse else None
    seed = DARE_SEED if method.startswith("dare") else None
    name = name or method

    def out(run: Run) -> Path:
        return run.dir / "out" / f"{name}-j{jobs}.safetensors"

    def argv(run: Run) -> list[str]:
        out(run).parent.mkdir(parents=True, exist_ok=True)
        args = ["merge", *run.triple_args(), "--method", method, "--lambda", repr(lam)]
        if density is not None:
            args += ["--density", repr(density)]
        if seed is not None:
            args += ["--seed", str(seed)]
        return args + ["--out", str(out(run)), "--jobs", str(jobs)]

    def check_output(run: Run, stdout: str, full: bool) -> list[str]:
        import check
        return check.check_merged(run.inputs, out(run), method, lam, density, seed) if full else []

    def outputs(run: Run) -> dict[str, Path]:
        return {f"{name}.safetensors": out(run), f"{name}.safetensors.vocab": Path(f"{out(run)}.vocab")}

    return Step(f"merge {name} --jobs {jobs}", argv, check_output, outputs=outputs)


def inspect_step(method: str) -> Step:
    def argv(run: Run) -> list[str]:
        return ["inspect", str(run.dir / "out" / f"{method}-j{JOBS}.safetensors"), "--json"]

    def check_output(run: Run, stdout: str, full: bool) -> list[str]:
        report = json.loads(stdout)
        problems = []
        if {t["name"] for t in report["tensors"]} != run.inputs.expected_names:
            problems.append("inspect lists another tensor set")
        if report["vocab_size"] != len(run.inputs.expected_vocab):
            problems.append(f"inspect reports {report['vocab_size']} vocabulary rows")
        if report["metadata"].get("recipe.method") != method:
            problems.append("inspect metadata lacks the recipe")
        return problems

    return Step(f"inspect {method}", argv, check_output, repeat=3)


def _variants(directory: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size) for p in directory.glob("*.safetensors")}


def _manifest(run: Run) -> list[dict]:
    text = (run.sweep_dir / "sweep-manifest.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()]


def sweep_step(phase: str) -> Step:
    """``cold``: a fresh --out-dir; ``warm``: the same dir again; ``resume``: the same dir
    after the variants of the largest lambda, the last four recipes of the grid, were lost,
    as when a sweep is interrupted."""
    label = f"sweep {phase}"
    before: dict[str, tuple[int, int]] = {}

    def argv(run: Run) -> list[str]:
        if phase == "cold":
            if run.sweep_dir is not None:
                shutil.rmtree(run.sweep_dir, ignore_errors=True)
            run.sweep_dir = run.dir / f"sweep-{run.commands}"
        elif phase == "resume":
            entries = [r for r in _manifest(run) if r["record"] == "entry"]
            top = max(r["lambda"] for r in entries)
            for r in entries:
                if r["lambda"] == top:
                    for path in run.sweep_dir.glob(f"{r['variant']}*"):
                        path.unlink()
        before.clear()
        before.update(_variants(run.sweep_dir) if run.sweep_dir.exists() else {})
        d = run.inputs_dir
        return ["sweep", *run.triple_args(), "--config", str(d / "sweep.json"),
                "--data", str(d / "pairwise.jsonl"), "--replay-dir", str(d / "replay"),
                "--out-dir", str(run.sweep_dir), "--jobs", str(JOBS)]

    def outputs(run: Run) -> dict[str, Path]:
        # variant names end in a digest of the inputs, which differs between seeds
        files = {re.sub(r"-[0-9a-f]{12}(?=\.safetensors)", "", p.name): p for p in run.sweep_dir.iterdir()}
        return dict(sorted(files.items()))

    def check_output(run: Run, stdout: str, full: bool) -> list[str]:
        import check
        # a cache hit is a variant file that the pass found and left untouched
        run.hits[label] = sum(before.get(k) == v for k, v in _variants(run.sweep_dir).items())
        problems = check.check_sweep_manifest(run.sweep_dir / "sweep-manifest.jsonl", run.expected)
        if f"winner: {run.expected['winner']}" not in stdout.splitlines():
            problems.append("the command did not print the planned winner")
        if phase != "cold":
            if run.hits[label] != len(before):
                problems.append(f"the pass reused {run.hits[label]} of the {len(before)} variants it found")
            cold = run.verified.get("sweep cold", {})
            if {k: run.digests[k] for k in cold} != cold:
                problems.append("the pass left other bytes than the cold pass wrote")
        if problems or phase != "cold" or not full:
            return problems
        records = _manifest(run)
        w = next(r for r in records if r["record"] == "winner")
        variant = next(r["variant"] for r in records if r["record"] == "entry"
                       and (r["lambda"], r["density"]) == (w["lambda"], w["density"]))
        run.winner = {"lambda": w["lambda"], "density": w["density"], "variant": variant}
        return check.check_merged(run.inputs, run.sweep_dir / variant, "ties", w["lambda"], w["density"], None)

    return Step(label, argv, check_output, repeat=6 if phase == "warm" else 1, outputs=outputs)


def jobs1_step(method: str) -> Step:
    """``method`` merged with --jobs 1; must equal the --jobs 2 output byte for byte."""
    def argv(run: Run) -> list[str]:
        return merge_step(method, jobs=1).argv(run)

    def check_output(run: Run, stdout: str, full: bool) -> list[str]:
        import check
        one, two = (run.dir / "out" / f"{method}-j{j}.safetensors" for j in (1, JOBS))
        if check.sha256(one) != check.sha256(two):
            return [f"--jobs 1 and --jobs {JOBS} {method} merges differ"]
        return []

    return Step(f"merge {method} --jobs 1", argv, check_output)


def winner_jobs1_step() -> Step:
    """The sweep winner merged with --jobs 1; must equal the sweep's variant byte for byte."""
    def step(run: Run) -> Step:
        return merge_step("ties", run.winner["lambda"], run.winner["density"], jobs=1, name="winner")

    def check_output(run: Run, stdout: str, full: bool) -> list[str]:
        import check
        one = run.dir / "out" / "winner-j1.safetensors"
        if check.sha256(one) != check.sha256(run.sweep_dir / run.winner["variant"]):
            return ["--jobs 1 merge of the winner differs from the sweep's --jobs 2 variant"]
        return []

    return Step("merge winner --jobs 1", lambda run: step(run).argv(run), check_output)


@dataclass
class Workload:
    setup: Callable[[Path, int], dict]  # writes the inputs of a seed into a directory
    steps: list[Step]  # cmd1_s, cmd2_s, cmd3_s, in this order
    jobs1: Step  # run once with --jobs 1 after the traced passes
    # indices into ``steps`` in the order a timed pass runs them; a short command
    # comes up more than once so that its samples are spread over the run
    order: tuple[int, ...] = (0, 1, 2)


WORKLOADS = {
    "merge-sparse": Workload(
        setup_merge("merge-sparse"),
        [merge_step("ties"), merge_step("dare-ties"), merge_step("dare-task-arithmetic")],
        jobs1_step("ties")),
    "merge-dense": Workload(
        setup_merge("merge-dense"),
        [merge_step("linear"), merge_step("task-arithmetic"), inspect_step("linear")],
        jobs1_step("linear")),
    "sweep-ties": Workload(
        setup_sweep,
        [sweep_step("cold"), sweep_step("warm"), sweep_step("resume")],
        winner_jobs1_step(), order=(0, 1, 2, 1)),
}


# ---------------------------------------------------------------------------
# measurement


def timed_setup(workload: Workload, directory: Path, seed: int) -> tuple[float, dict]:
    """Build a seed's inputs into an empty directory; returns the seconds and the set-up's result."""
    shutil.rmtree(directory, ignore_errors=True)
    started = time.perf_counter()
    expected = workload.setup(directory, seed)
    return time.perf_counter() - started, expected


def set_up(run: Run, workload: Workload) -> float:
    """Build the run's inputs; returns the seconds it took."""
    import check
    seconds, run.expected = timed_setup(workload, run.inputs_dir, run.seed)
    run.inputs = check.Inputs({kind: run.path(kind) for kind in ("pre", "lvlm", "rm")})
    return seconds


def setup_sample(run: Run, workload: Workload) -> float:
    """Seconds for one more set-up, built and removed beside the run's inputs."""
    sample = run.dir / "setup-sample"
    seconds, _ = timed_setup(workload, sample, run.seed)
    shutil.rmtree(sample)
    return seconds


def one_pass(run: Run, workload: Workload, trace: bool = False) -> dict[str, list[dict]]:
    """Each step of the workload once; the successful results per step."""
    results: dict[str, list[dict]] = {}
    for step in workload.steps:
        result = run.operation(step, trace)
        results[step.label] = [result] if result is not None else []
    return results


def end_to_end(run: Run, workload: Workload, seconds: float) -> dict[str, float]:
    """Passes over the workload's order until ``seconds`` are used up.

    The first pass always ends; after it a command starts only when its last
    time, checks included, and the slowest set-up sample still fit, so the last
    pass may stop part way. Set-ups are spread over the run, like the
    commands, so that a slow spell of the machine weighs on setup_s no more
    than on the command times.
    """
    setups = [set_up(run, workload)]
    per_step: dict[str, list[float]] = {step.label: [] for step in workload.steps}
    last: dict[str, float] = {}  # each step's latest command, its checks included
    peaks = []  # per whole pass, the highest ru_maxrss of its commands
    deadline = time.perf_counter() + seconds

    def fits(label: str) -> bool:
        return not peaks or time.perf_counter() + last[label] + max(setups) < deadline

    whole = True
    while whole:
        peak, walls = 0.0, []
        for step in (workload.steps[i] for i in workload.order):
            for _ in range(step.repeat):
                whole = whole and fits(step.label)
                if not whole:
                    break
                started = time.perf_counter()
                result = run.operation(step)
                last[step.label] = time.perf_counter() - started
                if result is not None:
                    per_step[step.label].append(result["wall_s"])
                    peak = max(peak, result["maxrss_mib"])
                    walls.append(f"{step.label} {result['wall_s']:.3f}")
        if whole:
            peaks.append(peak)
        if walls:
            setups.append(setup_sample(run, workload))
            print(f"[{run.workload}] pass {len(peaks) + (not whole)}: {', '.join(walls)}; "
                  f"set-up {setups[-1]:.3f}", file=sys.stderr)
    metrics = {"setup_s": statistics.median(setups)}
    for i, step in enumerate(workload.steps, start=1):
        metrics[f"cmd{i}_s"] = statistics.median(per_step[step.label]) if per_step[step.label] else 0.0
    metrics["peak_rss_mib"] = statistics.median(peaks)
    return metrics


def per_layer(run: Run, workload: Workload) -> dict[str, float]:
    import spans as sp
    set_up(run, workload)
    # untraced and traced passes alternate in order, so that neither always runs
    # first; the layer metrics come from the first traced pass
    passes: dict[bool, list[dict[str, list[dict]]]] = {False: [], True: []}
    for order in ((False, True), (True, False), (False, True)):
        for trace in order:
            passes[trace].append(one_pass(run, workload, trace=trace))
    traced = passes[True][0]
    jobs1 = run.operation(workload.jobs1)

    all_spans = [s for rs in traced.values() for r in rs for s in r["spans"]]
    by_step = {label: [s for r in rs for s in r["spans"]] for label, rs in traced.items()}
    selfs = sp.self_times(all_spans)

    def tot(*names: str, key: str | None = None, within: list[dict] = all_spans) -> float:
        return sp.total(within, *names, key=key)

    m: dict[str, float] = {
        "tensorstore.read_s": tot("tensorstore.read_checkpoint"),
        "tensorstore.read_mib": tot("tensorstore.read_checkpoint", key="mib"),
        "tensorstore.widen_s": tot("tensorstore.to_f32"),
        "tensorstore.narrow_s": tot("tensorstore.from_f32"),
        "tensorstore.write_s": tot("tensorstore.write_checkpoint", "tensorstore.write_vocab"),
        "tensorstore.write_mib": tot("tensorstore.write_checkpoint", "tensorstore.write_vocab", key="mib"),
        "assembly.hash_s": tot("assembly.file_digest"),
        "assembly.check_s": tot("assembly.check_merged_structure"),
        "assembly.rss_growth_mib": max(
            (s["rss_after"] - s["rss_before"] for s in all_spans if "rss_after" in s), default=0.0),
        "components.classify_s": tot("components.classify_triple", "components.classify_tensors"),
        "components.validate_s": tot("components.validate_triple"),
        "components.validate_calls": sp.count(by_step[workload.steps[0].label], "components.validate_triple"),
        "embeddings.align_s": tot("embeddings.align_vocab"),
        "embeddings.merge_rows_s": tot("embeddings.merge_embedding_rows"),
        "embeddings.rows": tot("embeddings.merge_embedding_rows", key="rows"),
        "evaluation.pairwise_s": tot("evaluation.evaluate_pairwise"),
        "evaluation.pairs": tot("evaluation.evaluate_pairwise", key="pairs"),
        "scoring.score_s": tot("scoring.score", "scoring.load_transcript"),
        "scoring.requests": tot("scoring.score", key="requests"),
        "scoring.failed": sum(1 for s in all_spans if s["name"] == "scoring.score" and "error" in s),
        "merging.jobs1_s": jobs1["wall_s"] if jobs1 else 0.0,
    }
    class_s: dict[str, dict[str, float]] = {}
    for r in (r for rs in traced.values() for r in rs):
        for method, classes in r.get("class_s", {}).items():
            class_s.setdefault(method, classes)
    for method in METHODS:
        calls = [s for s in all_spans if s["name"] == "merging.merge_transformer" and s["method"] == method]
        kernel = sum(selfs[id(s)] for s in calls)
        numel = sum(s["numel"] for s in calls)
        m[f"merging.{method}.kernel_s"] = kernel
        for cls in ("attention", "mlp", "norm"):
            m[f"merging.{method}.{cls}_s"] = class_s.get(method, {}).get(cls, 0.0)
        m[f"merging.{method}.melem_per_s"] = numel / kernel / 1e6 if kernel else 0.0
        m[f"merging.{method}.mib_moved"] = numel * 16 / MIB  # computed: 3 f32 reads + 1 f32 write per element
    for phase in ("cold", "warm", "resume"):
        within = by_step.get(f"sweep {phase}", [])
        m[f"sweep.{phase}.merges"] = sp.count(within, "merging.merge_transformer")
        m[f"sweep.{phase}.cache_hits"] = run.hits.get(f"sweep {phase}", 0)
        m[f"sweep.{phase}.assemble_s"] = tot("assembly.assemble_vlrm", within=within)
        m[f"sweep.{phase}.score_s"] = tot("evaluation.evaluate_pairwise", within=within)
    m["sweep.recipes"] = len(run.expected.get("primary", {}))
    for layer, value in sp.layer_self_times(all_spans).items():
        m[f"{layer}.self_s"] = value
    def wall(results: dict[str, list[dict]]) -> float:
        return sum(r["wall_s"] for rs in results.values() for r in rs)

    overheads = [wall(t) / wall(u) - 1.0 for t, u in zip(passes[True], passes[False])]
    m["trace.overhead_frac"] = statistics.median(overheads) if run.failed == 0 else 0.0

    WORK.mkdir(exist_ok=True)
    with open(WORK / f"trace-{run.workload}-s{run.seed}.jsonl", "w", encoding="utf-8") as f:
        for s in all_spans:
            f.write(json.dumps(s, sort_keys=True) + "\n")
    return m


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _require_checkout()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    # imported before anything is timed, so that no set-up time includes imports
    import check  # noqa: F401
    import gen  # noqa: F401
    import replay  # noqa: F401
    run = Run(args.workload, args.seed)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            values = per_layer(run, workload)
        else:
            values = end_to_end(run, workload, args.seconds)
    finally:
        run.launcher.close()
        shutil.rmtree(run.dir, ignore_errors=True)
    if set(values) != {m["name"] for m in declared}:
        print(f"run.py: metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        sys.exit(1)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))


if __name__ == "__main__":
    main()
