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

    Callers treat a non-empty report as fatal.
    """
    report: list[str] = []
    models = {"pre": triple.pre, "lvlm": triple.lvlm, "rm": triple.rm}
    for kind, model in models.items():
        report.extend(_role_set_report(kind, model))

    # transformer tensors must agree in name, shape and dtype across all three
    name_sets = {kind: set(model.cmap.names(Role.TRANSFORMER)) for kind, model in models.items()}
    union = sorted(name_sets["pre"] | name_sets["lvlm"] | name_sets["rm"])
    for name in union:
        holders = [kind for kind in ("pre", "lvlm", "rm") if name in name_sets[kind]]
        if len(holders) != 3:
            report.append(
                f"transformer name-set mismatch: {name} (present in {', '.join(holders)} only)"
            )
    for name in sorted(name_sets["pre"] & name_sets["lvlm"] & name_sets["rm"]):
        ref = triple.pre.ckpt.tensors[name]
        for kind in ("lvlm", "rm"):
            other = models[kind].ckpt.tensors[name]
            if other.shape != ref.shape:
                report.append(
                    f"transformer shape mismatch for {name}: "
                    f"pre {list(ref.shape)} vs {kind} {list(other.shape)}"
                )
            if other.dtype is not ref.dtype:
                report.append(
                    f"transformer dtype mismatch for {name}: "
                    f"pre {ref.dtype.value} vs {kind} {other.dtype.value}"
                )

    # embedding matrices are merged row-by-row, so the three models must expose
    # the same embedding tensor names with equal widths and dtypes
    emb_sets = {kind: set(model.cmap.names(Role.EMBEDDING)) for kind, model in models.items()}
    for name in sorted(emb_sets["pre"] | emb_sets["lvlm"] | emb_sets["rm"]):
        holders = [kind for kind in ("pre", "lvlm", "rm") if name in emb_sets[kind]]
        if len(holders) != 3:
            report.append(
                f"embedding name-set mismatch: {name} (present in {', '.join(holders)} only)"
            )
    for name in sorted(emb_sets["pre"] & emb_sets["lvlm"] & emb_sets["rm"]):
        tensors = {kind: models[kind].ckpt.tensors[name] for kind in models}
        for kind, t in tensors.items():
            if len(t.shape) != 2:
                report.append(
                    f"{kind}: embedding tensor {name} must have 2 dimensions, "
                    f"got shape {list(t.shape)}"
                )
        widths = {kind: t.shape[-1] if len(t.shape) == 2 else None for kind, t in tensors.items()}
        if len(set(widths.values())) > 1:
            report.append(f"embedding width mismatch for {name}: {widths}")
        dtypes = {kind: t.dtype for kind, t in tensors.items()}
        if len(set(dtypes.values())) > 1:
            report.append(
                f"embedding dtype mismatch for {name}: "
                f"{ {k: d.value for k, d in dtypes.items()} }"
            )

    # each model needs a vocabulary sidecar consistent with its embedding rows
    for kind, model in models.items():
        if model.ckpt.vocab is None:
            report.append(f"{kind}: missing vocabulary sidecar (required for embedding merge)")
            continue
        indices = list(model.ckpt.vocab.values())
        if len(set(indices)) != len(indices):
            report.append(f"{kind}: vocabulary row indices are not unique")
        for name in sorted(emb_sets[kind]):
            t = model.ckpt.tensors[name]
            if len(t.shape) == 2 and indices and max(indices) >= t.shape[0]:
                report.append(
                    f"{kind}: vocabulary row index {max(indices)} out of range for "
                    f"embedding {name} with {t.shape[0]} rows"
                )

    # the reward head projects to a single scalar
    for name in sorted(triple.rm.cmap.names(Role.RM_HEAD)):
        t = triple.rm.ckpt.tensors[name]
        if t.shape and t.shape[0] != 1:
            report.append(
                f"rm: head tensor {name} must have leading dimension 1, got {list(t.shape)}"
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


def load_manifest_config(path: str | Path | None = None) -> dict[str, list[Rule]]:
    """Load per-model-kind rule lists from a JSON config, or the shipped defaults."""
    if path is None:
        raw = DEFAULT_MANIFEST
    else:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise VlrmergeError(f"{path}: manifest config must be a JSON object")
    config = {}
    for kind, entries in raw.items():
        if kind not in MODEL_KINDS:
            raise VlrmergeError(f"manifest config: unknown model kind {kind!r}")
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
