"""Golden digests of merged checkpoints: the byte-identity gate for refactors.

A fixed bf16 toy triple is assembled with every merge method and written with
``write_merged``; the sha256 of each checkpoint and of its vocabulary sidecar
is pinned below, both when the recipe is assembled alone and when it is one
lambda of a group. A change that alters any output byte fails here. If the
change is intended, re-pin the digests by hand and say why in the change log.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from vlrmerge import AssemblyPlan, Dtype, MergeMethod, MergeRecipe, assemble_vlrm, write_merged
from vlrmerge.tensorstore import default_vocab_path

from helpers import classified_toy_triple

RECIPES = {
    "linear": MergeRecipe(MergeMethod.LINEAR, lam=0.6),
    "task-arithmetic": MergeRecipe(MergeMethod.TASK_ARITHMETIC, lam=0.9),
    "ties": MergeRecipe(MergeMethod.TIES, lam=0.7, density=0.4),
    "dare-task-arithmetic": MergeRecipe(
        MergeMethod.DARE_TASK_ARITHMETIC, lam=1.0, density=0.6, seed=11
    ),
    "dare-ties": MergeRecipe(MergeMethod.DARE_TIES, lam=0.7, density=0.4, seed=11),
}

CHECKPOINT_SHA256 = {
    "linear": "34fef32d451c949d37cf68458362263b8abad8fe0c7887caa50bb597e0c606cf",
    "task-arithmetic": "0dbb4e6a6eb1a83da86211c2b3bba03409b1127a291312cf043050312beddcfc",
    "ties": "752ba888d80ec36d810dce53273718023854be7c026b512a0e28612e1fe5f877",
    "dare-task-arithmetic": "a72e43b9f055d83abfe8c1035ded6fd7803cb3c6ccbfb9a27aa38200f4ecdbf9",
    "dare-ties": "5ee64e39f1678bb78334f0555c96153842b9278de767c511a13231d466f45573",
}
# the merged vocabulary does not depend on the method
VOCAB_SHA256 = "f16468496da4001c88705450cd3099ea5fd5418cf955476f542f21d0d567f955"


@pytest.fixture(scope="module")
def triple():
    return classified_toy_triple(
        np.random.default_rng(4242),
        hidden=16,
        layers=3,
        trans_dtype=Dtype.BF16,
        emb_dtype=Dtype.BF16,
        tied_output_embedding=True,
    )


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "method,jobs",
    [(method, 1) for method in RECIPES] + [("dare-ties", 4)],
)
def test_merged_bytes_match_golden(triple, tmp_path, method, jobs):
    [merged] = assemble_vlrm(AssemblyPlan(recipes=(RECIPES[method],), triple=triple), jobs=jobs)
    path = write_merged(merged, tmp_path / f"{method}.safetensors")
    assert sha256(path) == CHECKPOINT_SHA256[method]
    assert sha256(default_vocab_path(path)) == VOCAB_SHA256


@pytest.mark.parametrize("method", RECIPES)
def test_grouped_bytes_match_golden(triple, tmp_path, method):
    recipe = RECIPES[method]
    group = (replace(recipe, lam=0.0), recipe, replace(recipe, lam=0.25))
    merged = assemble_vlrm(AssemblyPlan(recipes=group, triple=triple), jobs=2)[1]
    path = write_merged(merged, tmp_path / f"{method}.safetensors")
    assert sha256(path) == CHECKPOINT_SHA256[method]
    assert sha256(default_vocab_path(path)) == VOCAB_SHA256
