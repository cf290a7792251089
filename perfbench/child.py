"""Run vlrmerge CLI commands, each in a fresh process, timed in-process.

    python3 perfbench/child.py

reads one spec path per line on stdin. For each, the process forks; the fork
runs the command through click's ``main(..., standalone_mode=False)`` and
exits, and the exit status is written back as one line on stdout. The
package is imported once, before any fork, so neither interpreter start-up
nor imports (numpy.random included, which numpy loads on first use) fall
inside or between the timed commands. A spec holds
``argv`` (the CLI arguments), ``result``, ``stdout`` and ``stderr`` (files to
write), ``trace`` (wrap the module boundaries and record spans), ``run``
(the trace run id) and, for a traced command, ``inputs`` (the pre, lvlm and
rm checkpoint paths the shape-class probes read).
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy.random  # noqa: E402,F401  (numpy loads it lazily; the program uses it)

from vlrmerge import cli, merging, read_checkpoint  # noqa: E402

from spans import Tracer  # noqa: E402

TIMEOUT_S = 170  # a command still running after this is killed and counts as failed


def shape_class(name: str, shape: tuple[int, ...]) -> str:
    if len(shape) == 1:
        return "norm"
    return "attention" if ".self_attn." in name else "mlp"


def class_probes(merge_calls: dict[str, tuple], inputs: dict[str, str]) -> dict[str, dict[str, float]]:
    """Time merge_transformer with jobs=1 on each shape class of the first call per method.

    The arguments are rebuilt from the stored input files, after the traced
    command has ended, so the probes overlap none of the command's memory.
    """
    ckpts = {kind: read_checkpoint(path) for kind, path in inputs.items()}
    out = {}
    for method, (recipe, names) in merge_calls.items():
        out[method] = {}
        for cls in ("attention", "mlp", "norm"):
            picked = [n for n in names if shape_class(n, ckpts["pre"].tensors[n].shape) == cls]
            subset = [{n: ckpts[kind].tensors[n].to_f32() for n in picked} for kind in ("pre", "lvlm", "rm")]
            started = time.perf_counter()
            merging.merge_transformer(recipe, *subset, jobs=1)
            out[method][cls] = time.perf_counter() - started
    return out


def run(spec: dict) -> None:
    tracer = Tracer(spec["run"]) if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    error = None
    started = time.perf_counter()
    try:
        if tracer is None:
            cli.main(spec["argv"], standalone_mode=False)
        else:
            with tracer.span("cli.main"):
                cli.main(spec["argv"], standalone_mode=False)
    except Exception:  # the parent counts the command as failed
        error = traceback.format_exc()
    wall = time.perf_counter() - started
    result = {
        "wall_s": wall,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error": error,
    }
    if tracer is not None:
        tracer.uninstall()  # the probes below are not part of the command
        result["spans"] = tracer.spans
        result["class_s"] = class_probes(tracer.merge_calls, spec["inputs"]) if error is None else {}
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


def fork_and_run(spec: dict) -> int:
    """Run one spec in a forked process; returns its wait status."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(TIMEOUT_S)
            with open(os.devnull, "rb") as null, open(spec["stdout"], "wb") as out, \
                    open(spec["stderr"], "wb") as err:
                for fd, f in ((0, null), (1, out), (2, err)):
                    os.dup2(f.fileno(), fd)
            run(spec)
            code = 0
        except BaseException:  # nothing may escape the fork; the status reports it
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    return os.waitpid(pid, 0)[1]


def main() -> None:
    for line in sys.stdin:
        spec = json.loads(Path(line.strip()).read_text(encoding="utf-8"))
        print(fork_and_run(spec), flush=True)


if __name__ == "__main__":
    main()
