"""Command-line entry point: merge, sweep, eval and inspect workflows."""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import re
import shlex
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click

from . import __version__
from .assembly import assemble_vlrm, file_digest
from .assembly import write_merged  # noqa: F401  (the benchmark's tracer wraps it by this name)
from .components import MODEL_KINDS, Role, classify_tensors, classify_triple, load_manifest_config
from .components import validate_triple  # noqa: F401  (the benchmark's tracer wraps it by this name)
from .errors import RecipeError, TripleValidationError, VlrmergeError
from .evaluation import evaluate_bon, evaluate_pairwise, load_bon_dataset, load_pairwise_dataset
from .merging import MergeMethod, MergeRecipe, default_jobs
from .scoring import RecordingScorer, ReplayScorer, SubprocessScorer, check_timeout, stub_scorer_loop
from .sweep import MANIFEST_NAME, SweepConfig, run_sweep
from .tensorstore import _replace_when_done, default_vocab_path, read_checkpoint

log = logging.getLogger("vlrmerge")

METHOD_CHOICES = [m.value for m in MergeMethod]
JOBS_HELP = "Worker threads for per-tensor merging [default: the CPUs this process may use]."
_HEX_DIGEST = re.compile("[0-9a-f]{64}")


def _setup_logging(verbose: int) -> None:
    level = logging.WARNING if verbose == 0 else logging.INFO if verbose == 1 else logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")


def _echo_config(name: str, **resolved) -> None:
    # every run states its configuration before acting: the options click parsed, then what it resolved
    config = {**click.get_current_context().params, **resolved}
    click.echo(f"{name} config: {json.dumps(config, sort_keys=True, default=str)}", err=True)


def _parse_scorer(ctx, param, command: str | None) -> list[str] | None:
    """The ``--scorer`` command split into its argv, as a POSIX shell would; it may not be empty."""
    if command is None:
        return None
    try:
        argv = shlex.split(command)
    except ValueError as exc:
        raise click.ClickException(f"cannot parse scorer command {command!r}: {exc}") from exc
    if not argv:
        raise click.ClickException(f"scorer command {command!r} names no program")
    return argv


def _check_timeout(ctx, param, seconds: float) -> float:
    """``--scorer-timeout`` is a finite number of seconds above 0; anything else is a usage error."""
    try:
        return check_timeout(seconds)
    except VlrmergeError as exc:
        raise click.BadParameter(str(exc)) from exc


def _click_error(exc: Exception) -> click.ClickException:
    """The command's failure for ``exc``; a triple's violations are echoed first, one per line."""
    if not isinstance(exc, TripleValidationError):
        return click.ClickException(str(exc))
    for entry in exc.report:
        click.echo(f"validation: {entry}", err=True)
    return click.ClickException(f"triple validation failed with {len(exc.report)} violation(s)")


def _stamp(st: os.stat_result) -> dict[str, int]:
    """What tells one version of a file from another in a digest memo."""
    return {"st_dev": st.st_dev, "st_ino": st.st_ino, "size": st.st_size,
            "mtime_ns": st.st_mtime_ns, "ctime_ns": st.st_ctime_ns}


def _memo_path(path: str | Path) -> Path:
    """The digest memo beside an input checkpoint.

    It holds the file's stamp and whole-file sha256, so an unchanged file is hashed once.
    """
    return Path(f"{path}.sha256.json")


def _recalled_digest(path: str | Path) -> str | None:
    """The sha256 that the digest memo beside ``path`` records, when it may be trusted; else None.

    It is trusted when the file's stamp is the one recorded and the file's
    ``ctime_ns`` is strictly older than the memo's own ``mtime_ns``, both
    from the file system's clock (git's racy-git rule): a file changed in
    the same clock tick as the memo was written could keep its stamp, and
    ``ctime``, which ``utime`` cannot set, moves on any other change.
    """
    try:
        with open(_memo_path(path), "rb") as f:
            written = os.fstat(f.fileno()).st_mtime_ns
            memo = json.loads(f.read())
        st = os.stat(path)
    except (OSError, ValueError, RecursionError) as exc:  # json raises RecursionError for deep nesting
        log.debug("no usable digest memo for %s: %s", path, exc)
        return None
    digest = memo.get("sha256") if isinstance(memo, dict) else None
    if not isinstance(digest, str) or not _HEX_DIGEST.fullmatch(digest) or memo.get("stamp") != _stamp(st):
        log.debug("the digest memo for %s is of another file or version", path)
        return None
    if st.st_ctime_ns >= written:
        log.debug("the digest memo for %s is not newer than the file's last change", path)
        return None
    return digest


def _hash_and_remember(path: str | Path) -> str:
    """``file_digest`` of ``path``, recorded in its digest memo if the file kept its stamp meanwhile.

    A memo that cannot be written, say in a read-only directory, is skipped.
    """
    before = _stamp(os.stat(path))
    digest = file_digest(path)  # looked up here, so the benchmark's tracer sees every call
    after = _stamp(os.stat(path))
    if after == before:
        try:
            with _replace_when_done(_memo_path(path), "w", encoding="utf-8") as f:
                json.dump({"stamp": after, "sha256": digest}, f, sort_keys=True)
        except OSError as exc:
            log.debug("cannot write the digest memo for %s: %s", path, exc)
    return digest


def _digests(paths: list[str], jobs: int) -> list[str]:
    """The whole-file sha256 of each path, in order: from its digest memo, else hashed.

    The files whose memo cannot be trusted are hashed on
    ``min(jobs, misses)`` threads. The calling thread is one of them and the
    others are joined before this returns, on error too; one job hashes
    every file on the calling thread.
    """
    digests = [_recalled_digest(path) for path in paths]
    todo = iter([i for i, digest in enumerate(digests) if digest is None])
    helpers = min(jobs, digests.count(None)) - 1
    todo_lock = threading.Lock()

    def work() -> None:
        while True:
            with todo_lock:
                i = next(todo, None)
            if i is None:
                return
            digests[i] = _hash_and_remember(paths[i])

    with ThreadPoolExecutor(max(helpers, 1), thread_name_prefix="vlrmerge-hash") as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
        for future in futures:
            future.result()
    return digests


def _hash_inputs(inputs: dict[str, tuple[str, str | None]], manifest: str | None, jobs: int) -> dict[str, str]:
    """Digest each checkpoint file, the vocabulary file read with it and any manifest file.

    Each checkpoint's digest comes from its memo when the file is the
    version the memo records, and is otherwise taken in one streamed pass,
    on up to ``jobs`` threads at once (see ``_digests``); the other files
    are always hashed. A checkpoint that changes after it was opened is
    caught when the merge ends (``assemble_vlrm``), so its recorded digest
    is never of other bytes than were merged.
    """
    digests = _digests([path for path, _ in inputs.values()], jobs)
    provenance = {}
    for (label, (path, vocab)), digest in zip(inputs.items(), digests):
        provenance[f"input.{label}.sha256"] = digest
        sidecar = Path(vocab) if vocab is not None else default_vocab_path(path)
        if sidecar.exists():
            provenance[f"input.{label}_vocab.sha256"] = file_digest(sidecar)
    if manifest is not None:
        provenance["input.manifest.sha256"] = file_digest(manifest)
    return provenance


def _load_triple(pre, lvlm, rm, pre_vocab, lvlm_vocab, rm_vocab, manifest, jobs):
    config = load_manifest_config(manifest)
    inputs = {"pre": (pre, pre_vocab), "lvlm": (lvlm, lvlm_vocab), "rm": (rm, rm_vocab)}
    ckpts = {label: read_checkpoint(path, vocab) for label, (path, vocab) in inputs.items()}
    triple = classify_triple(ckpts["pre"], ckpts["lvlm"], ckpts["rm"], config)
    return triple, _hash_inputs(inputs, manifest, jobs)


@click.group()
@click.version_option(version=__version__)
@click.option("-v", "--verbose", count=True, help="-v for progress, -vv for debug.")
def main(verbose: int) -> None:
    """Build and evaluate vision-language reward models by checkpoint merging."""
    _setup_logging(verbose)


triple_options = [
    click.option("--pre", "pre_path", required=True, type=click.Path(exists=True, dir_okay=False)),
    click.option("--lvlm", "lvlm_path", required=True, type=click.Path(exists=True, dir_okay=False)),
    click.option("--rm", "rm_path", required=True, type=click.Path(exists=True, dir_okay=False)),
    click.option("--pre-vocab", type=click.Path(exists=True, dir_okay=False), default=None),
    click.option("--lvlm-vocab", type=click.Path(exists=True, dir_okay=False), default=None),
    click.option("--rm-vocab", type=click.Path(exists=True, dir_okay=False), default=None),
    click.option(
        "--manifest",
        type=click.Path(exists=True, dir_okay=False),
        envvar="VLRMERGE_MANIFEST",
        default=None,
        help="Component classification rules (JSON); built-in defaults if omitted.",
    ),
]


def _with_options(options):
    def wrap(func):
        for option in reversed(options):
            func = option(func)
        return func
    return wrap


@main.command()
@_with_options(triple_options)
@click.option("--method", required=True, type=click.Choice(METHOD_CHOICES))
@click.option("--lambda", "lam", required=True, type=float, help="Merge weight.")
@click.option("--density", type=float, default=None, help="Retained fraction for ties/dare methods.")
@click.option("--seed", type=int, default=None, help="Drop-mask seed for dare methods.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--jobs", type=click.IntRange(min=1), default=None, help=JOBS_HELP)
def merge(pre_path, lvlm_path, rm_path, pre_vocab, lvlm_vocab, rm_vocab, manifest,
          method, lam, density, seed, out_path, jobs):
    """Merge a checkpoint triple into a vision-language reward model."""
    try:
        recipe = MergeRecipe(MergeMethod(method), lam=lam, density=density, seed=seed)
    except RecipeError as exc:
        raise click.UsageError(str(exc)) from exc
    jobs = jobs or default_jobs()
    _echo_config("merge", manifest=manifest or "<builtin>", jobs=jobs)
    try:
        triple, provenance = _load_triple(
            pre_path, lvlm_path, rm_path, pre_vocab, lvlm_vocab, rm_vocab, manifest, jobs
        )
        [merged] = assemble_vlrm([recipe], triple, [out_path], provenance, jobs=jobs)
    except (VlrmergeError, OSError) as exc:
        raise _click_error(exc) from exc
    click.echo(f"validation: ok ({len(merged.tensors)} tensors)")
    for label in ("pre", "lvlm", "rm"):
        click.echo(f"{label} sha256: {provenance[f'input.{label}.sha256']}")
    click.echo(f"wrote {out_path} (+ vocabulary sidecar, {len(merged.vocab)} tokens)")


def _scorer(argv, replay_path, record_path, timeout):
    """Rewards from a transcript at ``replay_path``, else from ``argv``, recorded when asked."""
    if replay_path is not None:
        return ReplayScorer(replay_path)
    scorer = SubprocessScorer(argv, timeout_per_record=timeout)
    if record_path is not None:
        Path(record_path).parent.mkdir(parents=True, exist_ok=True)
        Path(record_path).unlink(missing_ok=True)
        scorer = RecordingScorer(scorer, record_path)
    return scorer


def _make_scorer_factory(scorer_argv, replay_dir, record_dir, timeout):
    def transcript(directory, recipe):
        return None if directory is None else Path(directory) / f"transcript-{recipe.slug()}.jsonl"

    def factory(recipe, variant_path):
        # within each argument, so a path with spaces or quotes stays one argument
        argv = None if scorer_argv is None else [a.replace("{checkpoint}", str(variant_path)) for a in scorer_argv]
        return _scorer(argv, transcript(replay_dir, recipe), transcript(record_dir, recipe), timeout)
    return factory


@main.command()
@_with_options(triple_options)
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Pairwise validation set (JSONL).")
@click.option("--scorer", "scorer_argv", default=None, callback=_parse_scorer,
              help="Scorer command; '{checkpoint}' expands to the variant path.")
@click.option("--replay-dir", type=click.Path(exists=True, file_okay=False), default=None,
              help="Serve rewards from recorded transcripts instead of a live scorer.")
@click.option("--record-dir", type=click.Path(file_okay=False), default=None,
              help="Record one transcript per recipe while scoring live.")
@click.option("--scorer-timeout", type=float, default=30.0, show_default=True, callback=_check_timeout,
              help="Seconds allowed per scored record.")
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--jobs", type=click.IntRange(min=1), default=None, help=JOBS_HELP)
def sweep(pre_path, lvlm_path, rm_path, pre_vocab, lvlm_vocab, rm_vocab, manifest,
          config_path, data_path, scorer_argv, replay_dir, record_dir, scorer_timeout,
          out_dir, jobs):
    """Grid-search merge hyperparameters against a validation set."""
    if (scorer_argv is None) == (replay_dir is None) or (replay_dir is not None and record_dir is not None):
        raise click.UsageError("exactly one of --scorer or --replay-dir is required; --record-dir needs --scorer")
    try:
        config = SweepConfig.from_json(config_path)
        jobs = jobs or default_jobs()
        _echo_config("sweep", manifest=manifest or "<builtin>", jobs=jobs, **dataclasses.asdict(config))
        factory = _make_scorer_factory(scorer_argv, replay_dir, record_dir, scorer_timeout)
        triple, provenance = _load_triple(
            pre_path, lvlm_path, rm_path, pre_vocab, lvlm_vocab, rm_vocab, manifest, jobs
        )
        dataset = load_pairwise_dataset(data_path)
        result = run_sweep(
            config, triple, dataset, factory, out_dir, provenance=provenance, jobs=jobs
        )
    except (VlrmergeError, OSError) as exc:
        raise _click_error(exc) from exc
    failed = [e for e in result.entries if e.status != "ok"]
    for entry in failed:
        click.echo(f"failed: {entry.recipe.slug()}: {entry.error}", err=True)
    if result.winner is None:
        raise click.ClickException("all recipes failed")
    click.echo(f"winner: {result.winner.recipe.slug()}")
    click.echo(f"primary accuracy: {100.0 * result.winner.primary_accuracy:.1f}")
    if result.winner.tiebreak_accuracy is not None:
        click.echo(f"tiebreak accuracy: {100.0 * result.winner.tiebreak_accuracy:.1f}")
    click.echo(f"manifest: {Path(out_dir) / MANIFEST_NAME}")


@main.command("eval")
@click.option("--mode", required=True, type=click.Choice(["pairwise", "bon"]))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--scorer", "scorer_argv", default=None, callback=_parse_scorer, help="Scorer command line.")
@click.option("--replay", "replay_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Serve rewards from a recorded transcript.")
@click.option("--record", "record_path", type=click.Path(dir_okay=False), default=None,
              help="Record the scoring transcript to this file.")
@click.option("--scorer-timeout", type=float, default=30.0, show_default=True, callback=_check_timeout)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report instead of a table.")
def eval_cmd(mode, data_path, scorer_argv, replay_path, record_path, scorer_timeout, out_path, as_json):
    """Score an evaluation file and aggregate accuracies."""
    if (scorer_argv is None) == (replay_path is None) or (replay_path is not None and record_path is not None):
        raise click.UsageError("exactly one of --scorer or --replay is required; --record needs --scorer")
    _echo_config("eval")
    try:
        scorer = _scorer(scorer_argv, replay_path, record_path, scorer_timeout)
        if mode == "pairwise":
            report = evaluate_pairwise(load_pairwise_dataset(data_path), scorer)
            text = json.dumps(report.to_json(), indent=2, sort_keys=True) if as_json else report.render()
        else:
            accuracy = evaluate_bon(load_bon_dataset(data_path), scorer)
            text = json.dumps({"accuracy": accuracy}, sort_keys=True) if as_json else f"accuracy: {100.0 * accuracy:.1f}"
    except (VlrmergeError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(text)
    if out_path is not None:
        Path(out_path).write_text(text + "\n", encoding="utf-8")


@main.command()
@click.argument("ckpt_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--manifest", type=click.Path(exists=True, dir_okay=False),
              envvar="VLRMERGE_MANIFEST", default=None)
@click.option("--kind", type=click.Choice(list(MODEL_KINDS)), default="merged", show_default=True,
              help="Which rule set of the manifest to classify against.")
@click.option("--json", "as_json", is_flag=True)
def inspect(ckpt_path, manifest, kind, as_json):
    """Print a checkpoint's tensor table, component roles and metadata."""
    _echo_config("inspect", manifest=manifest or "<builtin>")
    try:
        ckpt = read_checkpoint(ckpt_path)
        rules = load_manifest_config(manifest)[kind]
        cmap = classify_tensors(ckpt, rules)
    except (VlrmergeError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    rows = [
        {"name": t.name, "dtype": t.dtype.value, "shape": list(t.shape),
         "bytes": t.nbytes, "role": cmap.assignments[t.name].value}
        for t in ckpt.tensors.values()
    ]
    if as_json:
        payload = {
            "tensors": rows,
            "role_counts": {role.value: count for role, count in cmap.counts().items()},
            "metadata": ckpt.metadata,
            "vocab_size": len(ckpt.vocab) if ckpt.vocab is not None else None,
        }
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    table = [("name", "dtype", "shape", "bytes", "role")] + [
        (r["name"], r["dtype"], "x".join(map(str, r["shape"])) or "scalar", str(r["bytes"]), r["role"])
        for r in rows
    ]
    widths = [max(len(line[i]) for line in table) for i in range(len(table[0]))]
    for line in table:
        click.echo("  ".join(c.ljust(w) for c, w in zip(line, widths)))
    counts = cmap.counts()
    summary = ", ".join(f"{role.value}={counts[role]}" for role in Role if counts[role])
    click.echo(f"roles: {summary}")
    if ckpt.vocab is not None:
        click.echo(f"vocabulary: {len(ckpt.vocab)} tokens")
    for key in sorted(ckpt.metadata):
        click.echo(f"metadata {key}: {ckpt.metadata[key]}")


@main.command("stub-scorer")
def stub_scorer():
    """Deterministic hash-of-text scorer speaking the wire protocol on stdin/stdout."""
    stub_scorer_loop(sys.stdin, sys.stdout)


if __name__ == "__main__":
    main()
