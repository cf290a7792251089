"""Hyperparameter grid enumeration, accuracy collection and winner selection.

Selection maximizes accuracy on a primary validation slice; exact ties at the
maximum are re-scored on a disjoint tie-break slice, and any residual tie is
broken by grid order (lambda ascending, then density descending).
"""

from __future__ import annotations

import hashlib
import json
import logging
import numbers
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .assembly import assemble_vlrm, recorded_provenance
from .assembly import write_merged  # noqa: F401  (the benchmark's tracer wraps it by this name)
from .components import ModelTriple, read_json_object
from .errors import CheckpointFormatError, DatasetError, ScorerError, VlrmergeError
from .evaluation import PairwiseExample, evaluate_pairwise
from .merging import MergeMethod, MergeRecipe
from .tensorstore import _replace_when_done, default_vocab_path, read_metadata

log = logging.getLogger(__name__)

DEFAULT_LAMBDA_GRIDS = {
    MergeMethod.LINEAR: tuple(round(0.1 * i, 1) for i in range(11)),
    MergeMethod.TASK_ARITHMETIC: tuple(round(0.1 * i, 1) for i in range(11)),
    MergeMethod.TIES: (0.5, 0.7, 1.0),
    MergeMethod.DARE_TASK_ARITHMETIC: (0.5, 0.7, 1.0),
    MergeMethod.DARE_TIES: (0.5, 0.7, 1.0),
}
DEFAULT_DENSITY_GRID = (0.2, 0.4, 0.6, 0.8)
LAMBDA_CAP = 1.5
MANIFEST_NAME = "sweep-manifest.jsonl"


@dataclass
class SweepConfig:
    method: MergeMethod
    lambda_grid: tuple[float, ...] | None = None
    density_grid: tuple[float, ...] | None = None
    primary_size: int = 400
    tiebreak_size: int = 100
    sampling_seed: int = 0
    tie_rounding_decimals: int | None = None

    def __post_init__(self):
        # an omitted grid takes the defaults; an explicitly empty one is an error
        if self.lambda_grid is None:
            self.lambda_grid = DEFAULT_LAMBDA_GRIDS[self.method]
        if self.method.needs_density and self.density_grid is None:
            self.density_grid = DEFAULT_DENSITY_GRID
        self.validate()

    def validate(self) -> None:
        """Check the sweep's own rules; making the grid checks each lambda and density."""
        _check_grid("lambda", self.lambda_grid)
        if self.density_grid is not None:
            _check_grid("density", self.density_grid)
        if self.method.needs_density:
            if not self.density_grid:
                raise VlrmergeError(f"method {self.method.value} needs a density grid")
        elif self.density_grid is not None:
            raise VlrmergeError(f"method {self.method.value} does not take a density grid")
        if not self.lambda_grid:
            raise VlrmergeError("lambda grid is empty")
        for lam in self.lambda_grid:
            if lam > LAMBDA_CAP:
                raise VlrmergeError(f"lambda {lam} outside [0, {LAMBDA_CAP}]")
        for field in ("primary_size", "tiebreak_size", "sampling_seed", "tie_rounding_decimals"):
            value = getattr(self, field)
            if field == "tie_rounding_decimals" and value is None:
                continue
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise VlrmergeError(f"{field} must be an integer, got {value!r}")
        if self.primary_size <= 0 or self.tiebreak_size < 0:
            raise VlrmergeError("validation slice sizes must be positive")
        if not 0 <= self.sampling_seed < 2**64:
            raise VlrmergeError(f"sampling_seed must be in [0, 2**64), got {self.sampling_seed}")
        generate_grid(self)

    @classmethod
    def from_json(cls, path: str | Path) -> "SweepConfig":
        raw = read_json_object(path, "sweep config")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise VlrmergeError(f"{path}: unknown sweep config key(s): {sorted(unknown)}")
        if "method" not in raw:
            raise VlrmergeError(f"{path}: sweep config needs a 'method'")
        try:
            method = MergeMethod(raw["method"])
        except ValueError:
            raise VlrmergeError(f"{path}: unknown method {raw['method']!r}") from None
        # a JSON list becomes a tuple and an omitted key takes the field's
        # default; validate() rejects any other value
        values = {key: tuple(value) if isinstance(value, list) else value for key, value in raw.items()}
        return cls(**{**values, "method": method})


def _check_grid(label: str, grid) -> None:
    """A grid is a sequence of real numbers that differ in their variant names; a bool is not a number."""
    if not isinstance(grid, (tuple, list)):
        raise VlrmergeError(f"{label} grid must be a list of numbers, got {grid!r}")
    seen: dict[str, numbers.Real] = {}  # each value by its form in a variant name (MergeRecipe.slug)
    for value in grid:
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise VlrmergeError(f"{label} grid values must be numbers, got {value!r}")
        if value in seen.values():
            raise VlrmergeError(f"{label} grid repeats {value!r}")
        named = seen.setdefault(f"{value:g}", value)
        if named is not value:
            raise VlrmergeError(f"{label} grid values {named!r} and {value!r} name one variant ({value:g})")


def derive_recipe_seed(sampling_seed: int) -> int:
    """Stable per-config seed for the random-drop recipes."""
    digest = hashlib.sha256(b"recipe-seed\x00" + int(sampling_seed).to_bytes(8, "little")).digest()
    return int.from_bytes(digest[:8], "little")


def generate_grid(config: SweepConfig) -> list[MergeRecipe]:
    """Cartesian product of the grids: lambda ascending outer, density descending inner."""
    seed = derive_recipe_seed(config.sampling_seed) if config.method.needs_seed else None
    recipes = []
    for lam in sorted(config.lambda_grid):
        if config.method.needs_density:
            for d in sorted(config.density_grid, reverse=True):
                recipes.append(MergeRecipe(config.method, lam=lam, density=d, seed=seed))
        else:
            recipes.append(MergeRecipe(config.method, lam=lam))
    return recipes


@dataclass
class SweepEntry:
    recipe: MergeRecipe
    primary_accuracy: float | None = None
    tiebreak_accuracy: float | None = None
    status: str = "ok"
    variant_path: str | None = None
    error: str | None = None


@dataclass
class SweepResult:
    entries: list[SweepEntry]
    winner: SweepEntry | None  # one of ``entries``; None when no recipe scored


def select_best(
    entries: list[SweepEntry],
    tiebreak: Callable[[SweepEntry], float],
    tie_rounding_decimals: int | None = None,
) -> SweepEntry | None:
    """The winning entry among those whose status is ok; None when none is.

    ``tiebreak`` runs only for exact ties at the top, once per tied entry, and
    its value is written to that entry's ``tiebreak_accuracy``.
    ``tie_rounding_decimals`` switches tie detection from exact equality to
    equality after rounding.
    """
    if not entries:
        raise VlrmergeError("cannot select from an empty entry list")
    scored = [entry for entry in entries if entry.status == "ok"]
    if not scored:
        return None

    def tie_key(acc: float) -> float:
        return acc if tie_rounding_decimals is None else round(acc, tie_rounding_decimals)

    best_key = max(tie_key(entry.primary_accuracy) for entry in scored)
    tied = [entry for entry in scored if tie_key(entry.primary_accuracy) == best_key]
    if len(tied) == 1:
        return tied[0]

    for entry in tied:
        entry.tiebreak_accuracy = tiebreak(entry)
    best_tb = max(entry.tiebreak_accuracy for entry in tied)
    finalists = [entry for entry in tied if entry.tiebreak_accuracy == best_tb]
    # residual ties resolve by grid order: lambda ascending, then density descending
    return min(finalists, key=lambda e: (e.recipe.lam, -(e.recipe.density or 0.0)))


def sample_validation_slices(
    examples: list[PairwiseExample], seed: int, primary_size: int, tiebreak_size: int
) -> tuple[list[PairwiseExample], list[PairwiseExample]]:
    """Deterministic disjoint primary and tie-break slices of the validation set."""
    needed = primary_size + tiebreak_size
    if len(examples) < needed:
        raise DatasetError(
            f"validation set has {len(examples)} examples; "
            f"need {primary_size} + {tiebreak_size}"
        )
    order = np.random.default_rng(seed).permutation(len(examples))
    primary = [examples[i] for i in order[:primary_size]]
    tiebreak = [examples[i] for i in order[primary_size:needed]]
    return primary, tiebreak


def _inputs_digest(triple: ModelTriple, provenance: dict[str, str]) -> str:
    """A short digest naming the variants built from these inputs.

    The input digests of ``provenance`` when it has all three; else each model's
    vocabulary in row order and each tensor's name, dtype, shape, role and bytes.
    """
    hashes = [provenance.get(f"input.{kind}.sha256") for kind in ("pre", "lvlm", "rm")]
    h = hashlib.sha256()
    if all(hashes):
        for value in hashes:
            h.update(value.encode("ascii"))
    else:
        for model in (triple.pre, triple.lvlm, triple.rm):
            vocab = model.ckpt.vocab
            h.update(json.dumps(None if vocab is None else sorted(vocab, key=vocab.get)).encode("utf-8"))
            for name in sorted(model.ckpt.tensors):
                t = model.ckpt.tensors[name]
                role = model.cmap.assignments[name]
                h.update(json.dumps([name, t.dtype.value, t.shape, role.value]).encode("utf-8"))
                for piece in t.chunks():  # a file's payload is streamed, not kept
                    h.update(piece)
    return h.hexdigest()[:12]


def _is_current(variant: Path, recipe: MergeRecipe, provenance: dict[str, str]) -> bool:
    """True when ``variant`` and its vocabulary sidecar exist and it records what this run would record.

    Its inputs' digests and the tool version are in the recorded metadata, so
    a variant built from other inputs or by another version is rebuilt.
    """
    if not variant.exists() or not default_vocab_path(variant).exists():
        return False
    try:
        recorded = read_metadata(variant)
    except CheckpointFormatError as exc:
        log.warning("rebuilding unreadable %s: %s", variant.name, exc)
        return False
    return recorded == recorded_provenance(recipe, provenance)


def run_sweep(
    config: SweepConfig,
    triple: ModelTriple,
    dataset: list[PairwiseExample],
    scorer_factory: Callable[[MergeRecipe, Path], object],
    out_dir: str | Path,
    provenance: dict[str, str] | None = None,
    jobs: int | None = None,
) -> SweepResult:
    """Build the missing variants, score every grid point in grid order, select the winner.

    Variants are cached on disk keyed by (input digest, recipe), and a cached
    one is reused only when its recorded metadata is what this run would
    record. The missing variants are built by one ``assemble_vlrm`` call:
    one merge for the whole grid, which reads each input tensor once and
    streams every lambda's and density's variant from it, so a variant
    costs one tensor-sized output per worker, not a model, and ``jobs`` is
    the thread count of that per-tensor merge. The variants are moved into
    place together when the merge ends, so an interrupted run keeps none of
    them and the next run rebuilds every missing one. A recipe whose scorer
    fails is recorded as failed and excluded from selection.
    """
    provenance = dict(provenance or {})
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = generate_grid(config)
    primary_slice, tiebreak_slice = sample_validation_slices(
        dataset, config.sampling_seed, config.primary_size, config.tiebreak_size
    )
    digest = _inputs_digest(triple, provenance)
    variants = {r: out_dir / f"variant-{r.slug()}-{digest}.safetensors" for r in grid}

    missing = []
    for recipe, variant in variants.items():
        if _is_current(variant, recipe, provenance):
            log.info("reusing cached %s", variant.name)
        else:
            missing.append(recipe)
    # with nothing missing this still validates the triple
    assemble_vlrm(missing, triple, [variants[r] for r in missing], provenance, jobs=jobs)
    for recipe in missing:
        log.info("assembled %s", variants[recipe].name)

    # grid values are distinct, so each recipe keys one scorer
    entries: list[SweepEntry] = []
    scorers: dict[MergeRecipe, object] = {}
    for recipe, variant in variants.items():
        entry = SweepEntry(recipe=recipe, variant_path=variant.name)
        entries.append(entry)
        scorers[recipe] = scorer_factory(recipe, variant)
        try:
            entry.primary_accuracy = evaluate_pairwise(primary_slice, scorers[recipe]).overall_accuracy
        except ScorerError as exc:
            entry.status = "failed"
            entry.error = str(exc)
            log.warning("recipe %s failed: %s", recipe.slug(), exc)

    def tiebreak(entry: SweepEntry) -> float:
        return evaluate_pairwise(tiebreak_slice, scorers[entry.recipe]).overall_accuracy

    result = SweepResult(entries, select_best(entries, tiebreak, config.tie_rounding_decimals))
    _write_manifest(out_dir / MANIFEST_NAME, result)
    return result


def _manifest_record(kind: str, entry: SweepEntry) -> dict:
    """The manifest fields an entry record and the winner record share."""
    return {
        "record": kind,
        "method": entry.recipe.method.value,
        "lambda": entry.recipe.lam,
        "density": entry.recipe.density,
        "seed": entry.recipe.seed,
        "primary_accuracy": entry.primary_accuracy,
        "tiebreak_accuracy": entry.tiebreak_accuracy,
    }


def _write_manifest(path: Path, result: SweepResult) -> None:
    """Write the manifest to a temporary file, moved onto ``path`` when whole.

    So an interrupted write leaves the previous manifest as it was.
    """
    with _replace_when_done(path, "w", encoding="utf-8") as f:
        for entry in result.entries:
            record = _manifest_record("entry", entry)
            record["status"] = entry.status
            record["variant"] = entry.variant_path
            if entry.error is not None:
                record["error"] = entry.error
            f.write(json.dumps(record, sort_keys=True) + "\n")
        if result.winner is not None:
            f.write(json.dumps(_manifest_record("winner", result.winner), sort_keys=True) + "\n")
