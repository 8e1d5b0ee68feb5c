"""Cross-process determinism sweep.

The artifact store assumes every cacheable stage is a pure function of its
fingerprinted inputs. That only holds if the seeded primitives underneath
— down-sampling, forest training, cross-validation, LSH blocking — are
bit-identical
across *fresh processes* (not merely within one process, where dict order
and interning can mask nondeterminism). Each scriptlet below runs twice in
subprocesses with different ``PYTHONHASHSEED`` values and must print the
same SHA-256 digest both times.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

PREAMBLE = """
import hashlib, json
import numpy as np

def emit(obj):
    blob = json.dumps(obj, sort_keys=True)
    print(hashlib.sha256(blob.encode()).hexdigest())
"""

DOWN_SAMPLE = PREAMBLE + """
from repro.blocking import down_sample
from repro.table import Table

rng = np.random.default_rng(45)
a = Table({
    "id": list(range(60)),
    "t": [f"alpha beta w{i % 7} t{i % 11} gamma" for i in range(60)],
}, name="A")
b = Table({
    "id": list(range(40)),
    "t": [f"alpha delta w{i % 5} t{i % 13}" for i in range(40)],
}, name="B")
sa, sb = down_sample(a, b, ["t"], b_size=15, a_size=20, rng=rng)
emit({"a_ids": list(sa["id"]), "b_ids": list(sb["id"])})
"""

FOREST = PREAMBLE + """
from repro.core.serialize import serialize_model
from repro.ml import RandomForestClassifier

rng = np.random.default_rng(7)
X = rng.normal(size=(80, 5))
y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(int).tolist()
model = RandomForestClassifier(n_trees=12, seed=3).fit(X, y)
proba = model.predict_proba(rng.normal(size=(20, 5)))
emit({
    "model": serialize_model(model),
    "proba": [repr(float(p)) for p in np.ravel(proba)],
})
"""

CROSS_VALIDATE = PREAMBLE + """
from repro.ml import RandomForestClassifier
from repro.ml.model_selection import cross_validate

rng = np.random.default_rng(11)
X = rng.normal(size=(90, 4))
y = (X[:, 0] - 0.2 * X[:, 3] > 0).astype(int).tolist()
result = cross_validate(
    RandomForestClassifier(n_trees=8, seed=5), X, y, n_folds=5, seed=9
)
emit({
    "folds": [
        [repr(float(fold.precision)), repr(float(fold.recall)), repr(float(fold.f1))]
        for fold in result.fold_scores
    ]
})
"""

LSH_TABLES = PREAMBLE + """
from repro.blocking import MinHashLSHBlocker, SimHashBlocker
from repro.datasets import ScaleConfig, scale_tables

left, right, _ = scale_tables(ScaleConfig(rows=300, seed=4))

def emit_pairs(*blockers):
    emit([b.block_tables(left, right, "id", "id").pairs for b in blockers])
"""

MINHASH = LSH_TABLES + """
emit_pairs(
    MinHashLSHBlocker("title", "title", threshold=0.3, seed=2),
    MinHashLSHBlocker("title", "title", threshold=0.2, bands=8, rows=3,
                      block_size_policy=2),
)
"""

SIMHASH = LSH_TABLES + """
emit_pairs(
    SimHashBlocker("title", "title", max_hamming=8, seed=5),
    SimHashBlocker("title", "title", max_hamming=8, block_size_policy=3),
)
"""


def run_fresh(script: str, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "name, script",
    [
        ("down_sample", DOWN_SAMPLE),
        ("forest_training", FOREST),
        ("cross_validation", CROSS_VALIDATE),
        ("minhash_lsh", MINHASH),
        ("simhash", SIMHASH),
    ],
)
def test_bit_identical_across_processes(name, script):
    # different hash seeds shuffle set/dict iteration between the two
    # processes, so any order-dependence in the primitives shows up here
    first = run_fresh(script, hash_seed="0")
    second = run_fresh(script, hash_seed="1")
    assert first == second, f"{name} is not deterministic across processes"
    assert len(first) == 64  # a single sha256 line, no stray output
