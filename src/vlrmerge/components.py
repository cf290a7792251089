"""Classification of checkpoint tensors into model component roles.

Every tensor of the three input models (shared pre-trained base, the
vision-language model built on it, and the text reward model built on it) is
assigned exactly one role via an ordered, first-match-wins list of glob rules.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import ClassificationError, VlrmergeError
from .tensorstore import Checkpoint


class Role(str, Enum):
    VISION_ENCODER = "vision_encoder"
    ADAPTER = "adapter"
    EMBEDDING = "embedding"
    TRANSFORMER = "transformer"
    LM_HEAD = "lm_head"
    RM_HEAD = "rm_head"


# which roles each model kind must contain, and nothing else
REQUIRED_ROLES = {
    "pre": frozenset({Role.EMBEDDING, Role.TRANSFORMER, Role.LM_HEAD}),
    "lvlm": frozenset(
        {Role.VISION_ENCODER, Role.ADAPTER, Role.EMBEDDING, Role.TRANSFORMER, Role.LM_HEAD}
    ),
    "rm": frozenset({Role.EMBEDDING, Role.TRANSFORMER, Role.RM_HEAD}),
}


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
    """Total assignment of tensor names to roles."""

    assignments: dict[str, Role]

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
    compiled = [(_compile_pattern(rule.pattern), rule.role) for rule in rules]
    assignments: dict[str, Role] = {}
    unmatched: list[str] = []
    for name in ckpt.tensors:
        for regex, role in compiled:
            if regex.match(name):
                assignments[name] = role
                break
        else:
            unmatched.append(name)
    if unmatched:
        raise ClassificationError(unmatched)
    return ComponentMap(assignments=assignments)


@dataclass
class ClassifiedModel:
    ckpt: Checkpoint
    cmap: ComponentMap


@dataclass
class ModelTriple:
    pre: ClassifiedModel
    lvlm: ClassifiedModel
    rm: ClassifiedModel


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

    # the merged roles must hold the same names in all three models, each name
    # with one dtype and shape; embeddings are merged row by row, so theirs
    # must be 2-D with one width and may differ in row count
    for role in (Role.TRANSFORMER, Role.EMBEDDING):
        name_sets = {kind: set(model.cmap.names(role)) for kind, model in models.items()}
        for name in sorted(set().union(*name_sets.values())):
            holders = [kind for kind in models if name in name_sets[kind]]
            if len(holders) != 3:
                report.append(
                    f"{role.value} name-set mismatch: {name} (present in {', '.join(holders)} only)"
                )
                continue
            ref = triple.pre.ckpt.tensors[name]
            for kind, model in models.items():
                t = model.ckpt.tensors[name]
                if role is Role.TRANSFORMER and t.shape != ref.shape:
                    report.append(
                        f"transformer shape mismatch for {name}: "
                        f"pre {list(ref.shape)} vs {kind} {list(t.shape)}"
                    )
                if role is Role.EMBEDDING and len(t.shape) != 2:
                    report.append(
                        f"{kind}: embedding tensor {name} must have 2 dimensions, "
                        f"got shape {list(t.shape)}"
                    )
                if role is Role.EMBEDDING and t.shape[1:] != ref.shape[1:]:
                    report.append(
                        f"embedding width mismatch for {name}: "
                        f"pre {list(ref.shape)} vs {kind} {list(t.shape)}"
                    )
                if t.dtype is not ref.dtype:
                    report.append(
                        f"{role.value} dtype mismatch for {name}: "
                        f"pre {ref.dtype.value} vs {kind} {t.dtype.value}"
                    )

    # each model needs a vocabulary sidecar consistent with its embedding rows
    for kind, model in models.items():
        if model.ckpt.vocab is None:
            report.append(f"{kind}: missing vocabulary sidecar (required for embedding merge)")
            continue
        indices = list(model.ckpt.vocab.values())
        if len(set(indices)) != len(indices):
            report.append(f"{kind}: vocabulary row indices are not unique")
        if indices and min(indices) < 0:
            report.append(f"{kind}: vocabulary row index {min(indices)} is negative")
        for name in sorted(model.cmap.names(Role.EMBEDDING)):
            t = model.ckpt.tensors[name]
            if len(t.shape) == 2 and indices and max(indices) >= t.shape[0]:
                report.append(
                    f"{kind}: vocabulary row index {max(indices)} out of range for "
                    f"embedding {name} with {t.shape[0]} rows"
                )

    # the reward head projects to a single scalar, and sits in the merged model
    # beside every lvlm tensor but the language-modeling head
    lvlm_roles = triple.lvlm.cmap.assignments
    kept = (Role.VISION_ENCODER, Role.ADAPTER, Role.TRANSFORMER, Role.EMBEDDING)
    for name in sorted(triple.rm.cmap.names(Role.RM_HEAD)):
        t = triple.rm.ckpt.tensors[name]
        if t.shape and t.shape[0] != 1:
            report.append(
                f"rm: head tensor {name} must have leading dimension 1, got {list(t.shape)}"
            )
        if lvlm_roles.get(name) in kept:
            report.append(
                f"rm: head tensor {name} has the name of an lvlm {lvlm_roles[name].value} tensor"
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
    "merged": [
        {"pattern": "vision_model.*", "role": "vision_encoder"},
        {"pattern": "multi_modal_projector.*", "role": "adapter"},
        {"pattern": "model.layers.*cross_attn*", "role": "adapter"},
        {"pattern": "model.embed_tokens.*", "role": "embedding"},
        {"pattern": "score.*", "role": "rm_head"},
        {"pattern": "model.*", "role": "transformer"},
    ],
}

MODEL_KINDS = ("pre", "lvlm", "rm", "merged")


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


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object held in the file at ``path``; ``what`` names the file in errors."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise VlrmergeError(f"{path}: {what} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise VlrmergeError(f"{path}: {what} must be a JSON object")
    return raw


class _KindRules(dict):
    """Rule lists by model kind; a kind the config names no rules for is a VlrmergeError."""

    def __missing__(self, kind: str) -> list[Rule]:
        raise VlrmergeError(f"manifest config: no rules for {kind!r}")


def load_manifest_config(path: str | Path | None = None) -> dict[str, list[Rule]]:
    """Load per-model-kind rule lists from a JSON config, or the shipped defaults.

    A config need not name every kind; asking the result for one it does
    not name raises VlrmergeError.
    """
    raw = DEFAULT_MANIFEST if path is None else read_json_object(path, "manifest config")
    config = _KindRules()
    for kind, entries in raw.items():
        if kind not in MODEL_KINDS:
            raise VlrmergeError(f"manifest config: unknown model kind {kind!r}")
        if not isinstance(entries, list):
            raise VlrmergeError(f"manifest config: rules for {kind!r} must be a list, got {entries!r}")
        config[kind] = rules_from_config(entries)
    return config


def classify_triple(
    pre: Checkpoint, lvlm: Checkpoint, rm: Checkpoint, config: dict[str, list[Rule]]
) -> ModelTriple:
    return ModelTriple(
        pre=ClassifiedModel(pre, classify_tensors(pre, config["pre"])),
        lvlm=ClassifiedModel(lvlm, classify_tensors(lvlm, config["lvlm"])),
        rm=ClassifiedModel(rm, classify_tensors(rm, config["rm"])),
    )
