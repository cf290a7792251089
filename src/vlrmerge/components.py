"""Classification of checkpoint tensors into model component roles, and the input rules.

Every tensor of the three input models (shared pre-trained base, the
vision-language model built on it, and the text reward model built on it) is
assigned exactly one role via an ordered, first-match-wins list of glob rules.

Each input rule has one implementation here, returning every problem it finds:
``validate_triple`` reports them all and each merge entry point raises the first.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ClassificationError, VlrmergeError
from .tensorstore import Checkpoint, Dtype, Tensor


class Role(str, Enum):
    VISION_ENCODER = "vision_encoder"
    ADAPTER = "adapter"
    EMBEDDING = "embedding"
    TRANSFORMER = "transformer"
    LM_HEAD = "lm_head"
    RM_HEAD = "rm_head"


INPUT_KINDS = ("pre", "lvlm", "rm")
MODEL_KINDS = (*INPUT_KINDS, "merged")

# Each role: the model kinds that hold it (no other may), and what the merged model does with it, in its
# output order: "copy" it from its one holder, "merge" it under the lvlm's names, or "drop" it.
ROLES: dict[Role, tuple[tuple[str, ...], str]] = {
    Role.VISION_ENCODER: (("lvlm",), "copy"),
    Role.ADAPTER: (("lvlm",), "copy"),
    Role.TRANSFORMER: (INPUT_KINDS, "merge"),
    Role.EMBEDDING: (INPUT_KINDS, "merge"),
    Role.RM_HEAD: (("rm",), "copy"),
    Role.LM_HEAD: (("pre", "lvlm"), "drop"),
}

# which roles each model kind must contain, and nothing else
REQUIRED_ROLES = {kind: frozenset(r for r, (holders, _) in ROLES.items() if kind in holders) for kind in INPUT_KINDS}

# The merged model's make-up, in output order: each role it holds, the model
# kind whose tensors of that role give its names (and, unless merged, its
# bytes), and whether they are merged.
MAKEUP: tuple[tuple[Role, str, bool], ...] = tuple(
    (role, "lvlm" if fate == "merge" else holders[0], fate == "merge")
    for role, (holders, fate) in ROLES.items() if fate != "drop"
)


def _compile_pattern(pattern: str) -> re.Pattern:
    # glob-style: '*' matches any run of characters, everything else literal;
    # the pattern must cover the full tensor name
    return re.compile("^" + ".*".join(re.escape(part) for part in pattern.split("*")) + "$")


@dataclass(frozen=True)
class Rule:
    pattern: str
    role: Role


@dataclass
class ComponentMap:
    """Total assignment of tensor names to roles, and the rules that made it (none when built by hand)."""

    assignments: dict[str, Role]
    rules: tuple[Rule, ...] = ()

    def names(self, role: Role) -> list[str]:
        return [name for name, r in self.assignments.items() if r is role]

    def counts(self) -> dict[Role, int]:
        out = {role: 0 for role in Role}
        for r in self.assignments.values():
            out[r] += 1
        return out


def classify_tensors(ckpt: Checkpoint, rules: list[Rule] | tuple[Rule, ...]) -> ComponentMap:
    """Assign every tensor its first matching rule's role.

    Raises ClassificationError naming every unmatched tensor; names are never
    silently defaulted.
    """
    if not rules:
        raise VlrmergeError("classification rule list is empty")
    compiled = _compiled(rules)
    assignments: dict[str, Role] = {}
    unmatched: list[str] = []
    for name in ckpt.tensors:
        role = _role_of(name, compiled)
        if role is None:
            unmatched.append(name)
        else:
            assignments[name] = role
    if unmatched:
        raise ClassificationError(unmatched)
    return ComponentMap(assignments=assignments, rules=tuple(rules))


def _compiled(rules: Sequence[Rule]) -> list[tuple[re.Pattern, Role]]:
    return [(_compile_pattern(rule.pattern), rule.role) for rule in rules]


def _role_of(name: str, compiled: list[tuple[re.Pattern, Role]]) -> Role | None:
    """The role of the first compiled rule that matches ``name``, or None."""
    return next((role for regex, role in compiled if regex.match(name)), None)


# the model kinds the merged model takes tensors from, in MAKEUP order (lvlm, then rm), with the roles it takes
_SOURCES = {kind: {role for role, k, _ in MAKEUP if k == kind} for _, kind, _ in MAKEUP}


def merged_rules(rules: Mapping[str, Sequence[Rule]]) -> list[Rule]:
    """The merged model's rules: each source kind's rules (``rules[kind]``) for the roles ``MAKEUP`` takes from it."""
    return [rule for kind, roles in _SOURCES.items() for rule in rules[kind] if rule.role in roles]


@dataclass
class ClassifiedModel:
    ckpt: Checkpoint
    cmap: ComponentMap


@dataclass
class ModelTriple:
    pre: ClassifiedModel
    lvlm: ClassifiedModel
    rm: ClassifiedModel

    def tensors(self, role: Role) -> dict[str, dict[str, Tensor]]:
        """The one join of the three models by name: each kind's tensors of ``role``, keyed by name."""
        models = {kind: getattr(self, kind) for kind in INPUT_KINDS}
        return {kind: {n: m.ckpt.tensors[n] for n in m.cmap.names(role)} for kind, m in models.items()}


def _role_set_report(kind: str, model: ClassifiedModel) -> list[str]:
    present = {role for role in Role if model.cmap.names(role)}
    required = REQUIRED_ROLES[kind]
    report = []
    for role in sorted(required - present, key=lambda r: r.value):
        report.append(f"{kind}: missing role {role.value}")
    for role in sorted(present - required, key=lambda r: r.value):
        names = model.cmap.names(role)
        report.append(f"{kind}: unexpected role {role.value} ({', '.join(names[:3])})")
    return report


def alignment_problems(tensors: dict[str, Mapping], role: Role = Role.TRANSFORMER) -> list[str]:
    """The alignment rule: each model kind in ``tensors`` holds the same names of ``role``.

    A transformer name has one shape, the first kind's; an embedding name's
    ``Tensor``s pass ``embedding_problems``, as their row counts may differ.
    """
    problems = []
    (first, ref), *others = tensors.items()
    for name in sorted(set().union(*tensors.values())):
        holders = [kind for kind, named in tensors.items() if name in named]
        if len(holders) != len(tensors):
            problems.append(f"{role.value} name-set mismatch: {name} (present in {', '.join(holders)} only)")
        elif role is Role.EMBEDDING:
            problems.extend(embedding_problems({kind: (ts[name].dtype, ts[name].shape) for kind, ts in tensors.items()}))
        else:
            problems.extend(
                f"{role.value} shape mismatch for {name}: {first} {list(ref[name].shape)} vs {kind} {list(ts[name].shape)}"
                for kind, ts in others
                if ts[name].shape != ref[name].shape
            )
    return problems


def vocab_row_problems(kind: str, rows: Collection[int], n_rows: int | None = None) -> list[str]:
    """The vocabulary row rule: a model's row indices are distinct, non-negative and below its embedding's ``n_rows``."""
    ordered = np.sort(rows if isinstance(rows, np.ndarray) else np.fromiter(rows, np.int64, len(rows)))
    problems = []
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        problems.append(f"{kind}: vocabulary row index {repeated[0]} is not unique")
    if ordered.size and ordered[0] < 0:
        problems.append(f"{kind}: vocabulary row index {ordered[0]} is negative")
    if ordered.size and n_rows is not None and ordered[-1] >= n_rows:
        problems.append(
            f"{kind}: vocabulary row index {ordered[-1]} out of range for an embedding with {n_rows} rows"
        )
    return problems


def embedding_problems(matrices: dict[str, tuple[Dtype, tuple[int, ...]]]) -> list[str]:
    """The embedding matrix rule: the (dtype, shape) of each kind's matrix is 2-D, of one width and one dtype."""
    problems = [
        f"{kind}: embedding matrix must have 2 dimensions, got shape {list(shape)}"
        for kind, (_, shape) in matrices.items()
        if len(shape) != 2
    ]
    if not problems and len({shape[1] for _, shape in matrices.values()}) > 1:
        found = ", ".join(f"{kind} {list(shape)}" for kind, (_, shape) in matrices.items())
        problems.append(f"embedding width mismatch: {found}")
    if len({dtype for dtype, _ in matrices.values()}) > 1:
        found = ", ".join(f"{kind} {dtype.value}" for kind, (dtype, _) in matrices.items())
        problems.append(f"embedding dtype mismatch: {found}")
    return problems


def validate_triple(triple: ModelTriple) -> list[str]:
    """Check that the triple is mergeable; returns a list of violations (empty = pass).

    Every rule the merge relies on is checked here, the reward head's name
    included, so a triple that passes assembles without error. Callers treat
    a non-empty report as fatal, before any merge runs.
    """
    report: list[str] = []
    models = {"pre": triple.pre, "lvlm": triple.lvlm, "rm": triple.rm}
    for kind, model in models.items():
        report.extend(_role_set_report(kind, model))

    trans = triple.tensors(Role.TRANSFORMER)
    report.extend(alignment_problems(trans))
    # merge_transformer merges mixed storage dtypes, but a triple keeps one per tensor
    for name, ref in trans["pre"].items():
        for kind in ("lvlm", "rm"):
            t = trans[kind].get(name)
            if t is not None and t.dtype is not ref.dtype:
                report.append(
                    f"transformer dtype mismatch for {name}: pre {ref.dtype.value} vs {kind} {t.dtype.value}"
                )

    emb = triple.tensors(Role.EMBEDDING)
    report.extend(alignment_problems(emb, Role.EMBEDDING))

    # each model needs a vocabulary sidecar consistent with its embedding rows
    for kind, model in models.items():
        if model.ckpt.vocab is None:
            report.append(f"{kind}: missing vocabulary sidecar (required for embedding merge)")
            continue
        n_rows = min((t.shape[0] for t in emb[kind].values() if len(t.shape) == 2), default=None)
        report.extend(vocab_row_problems(kind, model.ckpt.vocab.values(), n_rows))

    # the reward head projects to a single scalar, and sits in the merged model
    # beside every tensor it takes from the lvlm, where the merged rules read it back as the reward head
    lvlm_roles = triple.lvlm.cmap.assignments
    merged = _compiled(merged_rules({kind: getattr(triple, kind).cmap.rules for kind in _SOURCES}))
    for name, t in sorted(triple.tensors(Role.RM_HEAD)["rm"].items()):
        if t.shape and t.shape[0] != 1:
            report.append(
                f"rm: head tensor {name} must have leading dimension 1, got {list(t.shape)}"
            )
        if lvlm_roles.get(name) in _SOURCES["lvlm"]:
            report.append(
                f"rm: head tensor {name} has the name of an lvlm {lvlm_roles[name].value} tensor"
            )
        elif (role := _role_of(name, merged)) not in (None, Role.RM_HEAD):
            report.append(
                f"rm: head tensor {name} is classified {role.value} by the merged model's rules "
                "(an lvlm rule matches it before the rm's)"
            )
    return report


# Defaults for the Llama-3.2-Vision / Tulu naming scheme. The vision model and
# projector carry their own prefixes; cross-attention blocks inside the decoder
# belong to the adapter because only the base model's own layers are shared.
DEFAULT_MANIFEST: dict[str, list[dict[str, str]]] = {
    "pre": [
        {"pattern": "model.embed_tokens.*", "role": "embedding"},
        {"pattern": "lm_head.*", "role": "lm_head"},
        {"pattern": "model.*", "role": "transformer"},
    ],
    "lvlm": [
        {"pattern": "vision_model.*", "role": "vision_encoder"},
        {"pattern": "multi_modal_projector.*", "role": "adapter"},
        {"pattern": "model.layers.*cross_attn*", "role": "adapter"},
        {"pattern": "model.embed_tokens.*", "role": "embedding"},
        {"pattern": "lm_head.*", "role": "lm_head"},
        {"pattern": "model.*", "role": "transformer"},
    ],
    "rm": [
        {"pattern": "model.embed_tokens.*", "role": "embedding"},
        {"pattern": "score.*", "role": "rm_head"},
        {"pattern": "model.*", "role": "transformer"},
    ],
}


def rules_from_config(entries: list[dict[str, str]]) -> list[Rule]:
    rules = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"pattern", "role"}:
            raise VlrmergeError(f"manifest rule #{i}: expected {{'pattern', 'role'}}, got {entry!r}")
        try:
            role = Role(entry["role"])
        except ValueError:
            raise VlrmergeError(
                f"manifest rule #{i}: unknown role {entry['role']!r} "
                f"(expected one of {[r.value for r in Role]})"
            ) from None
        rules.append(Rule(pattern=entry["pattern"], role=role))
    if not rules:
        raise VlrmergeError("manifest rule list is empty")
    return rules


def read_json_object(path: str | Path, what: str) -> tuple[dict, str]:
    """The JSON object held in the file at ``path``, and the sha256 of the bytes it was parsed from.

    ``what`` names the file in errors.
    """
    data = Path(path).read_bytes()
    try:
        raw = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # json raises RecursionError for deep nesting
        raise VlrmergeError(f"{path}: {what} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise VlrmergeError(f"{path}: {what} must be a JSON object")
    return raw, hashlib.sha256(data).hexdigest()


class _KindRules(dict):
    """Rule lists by model kind; a kind the config names no rules for is a VlrmergeError.

    ``sha256`` is the digest of the config file's bytes, None for the shipped defaults.
    """

    sha256: str | None = None

    def __missing__(self, kind: str) -> list[Rule]:
        raise VlrmergeError(f"manifest config: no rules for {kind!r}")


def load_manifest_config(path: str | Path | None = None) -> dict[str, list[Rule]]:
    """Load per-model-kind rule lists from a JSON config, or the shipped defaults.

    A config names input kinds, not necessarily all; asking the result for a
    kind without rules raises VlrmergeError. The "merged" rules are derived:
    each source kind's rules for the roles ``MAKEUP`` takes from it.
    """
    config = _KindRules()
    raw, config.sha256 = (DEFAULT_MANIFEST, None) if path is None else read_json_object(path, "manifest config")
    for kind, entries in raw.items():
        if kind not in INPUT_KINDS:
            raise VlrmergeError(
                f"manifest config: unknown model kind {kind!r} (the merged rules come from the lvlm and rm rules)"
            )
        if not isinstance(entries, list):
            raise VlrmergeError(f"manifest config: rules for {kind!r} must be a list, got {entries!r}")
        config[kind] = rules_from_config(entries)
    if _SOURCES.keys() <= config.keys():
        config["merged"] = merged_rules(config)
    return config


def classify_triple(
    pre: Checkpoint, lvlm: Checkpoint, rm: Checkpoint, config: dict[str, list[Rule]]
) -> ModelTriple:
    return ModelTriple(
        pre=ClassifiedModel(pre, classify_tensors(pre, config["pre"])),
        lvlm=ClassifiedModel(lvlm, classify_tensors(lvlm, config["lvlm"])),
        rm=ClassifiedModel(rm, classify_tensors(rm, config["rm"])),
    )
