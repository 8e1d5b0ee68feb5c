"""The three benchmark workloads: batch case study, live serving, blocking at scale.

Each workload generates its inputs from the seed, times its set-up and
its unit of work, then checks the program's outputs outside the timed
region. With a tracer, the same steps run once under the timing shims
and the tracer is active only in the regions the per-layer numbers
describe. README.md says why each workload exists.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.blocking import (
    BlockSizePolicy,
    MinHashLSHBlocker,
    OverlapBlocker,
    ShardedOverlapBlocker,
)
from repro.casestudy import (
    CaseStudyRun,
    base_feature_set,
    preprocess,
    preprocess_extra,
    run_blocking,
    train_workflow_matcher,
)
from repro.casestudy.sampling import make_oracles
from repro.datasets import ScaleConfig, ScenarioConfig, generate_scenario, scale_tables
from repro.matchers import MLMatcher
from repro.ml import RandomForestClassifier
from repro.plan import figure10_spec, figure10_workflow
from repro.runtime import EngineSession, TokenCache
from repro.serving import MatchService
from repro.table import Table

from tracing import Tracer

#: Set-up repeats per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
WORKERS = 2
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: end-to-end metric -> list of samples (the report takes the median)
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: workload-specific metric -> (value, unit, sample count), report only
    detail: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    checks: list[tuple[bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: (start, end) of each timed region, for span coverage
    windows: list[tuple[float, float]] = field(default_factory=list)
    #: workload facts the per-layer metrics need
    extra: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.checks.append((bool(ok), what))
        self.attempted += 1
        self.failed += 0 if ok else 1


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def f1(found, truth) -> float:
    found, truth = set(found), set(truth)
    tp = len(found & truth)
    if not tp:
        return 0.0
    precision, recall = tp / len(found), tp / len(truth)
    return 2 * precision * recall / (precision + recall)


def pairs_digest(pairs) -> str:
    canonical = sorted([str(a), str(b)] for a, b in pairs)
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()[:16]


def timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - start


# ---------------------------------------------------------------------------
# host-speed calibration
# ---------------------------------------------------------------------------

#: Median :meth:`Speed.probe` time on the reference host (the 2-CPU dev box).
REFERENCE_PROBE_S = 0.019

_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = _PROBE_RNG.random((250, 12))
_PROBE_Y = (_PROBE_X[:, 0] > 0.5).astype(int)
_PROBE_DOCS = [
    frozenset(f"w{(i * 7919 + j * 104729) % 500}" for j in range(8))
    for i in range(400)
]


class Speed:
    """The host's speed during one run, from probes between timed regions.

    On the shared dev box the speed of the same code drifts by 20–40%
    over minutes, so raw times from runs made minutes apart mostly
    measure the host. A fixed probe shaped like the program's work runs
    between timed regions, never inside one: interpreted loops, small
    numpy sorts and cumulative sums (tree growth), and set intersections
    (token blocking). All times a run reports are scaled by
    ``REFERENCE_PROBE_S`` over the run's median probe time. The factor
    comes from benchmark code alone, so a change to the program moves
    calibrated and raw times alike. Garbage collection is off during a
    probe, so the program's heap does not slow it. Traced runs do not
    probe: their numbers are shares of one run.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.samples: list[float] = []

    @staticmethod
    def probe() -> float:
        start = perf_counter()
        total = 0
        for i in range(120_000):
            total += i * i % 7
        for column in _PROBE_X.T:
            for _ in range(20):
                order = np.argsort(column, kind="mergesort")
                np.cumsum(_PROBE_Y[order]).argmax()
        for a in _PROBE_DOCS[:60]:
            for b in _PROBE_DOCS:
                total += len(a & b)
        return perf_counter() - start

    def sample(self, n: int = 5) -> None:
        """Probe *n* times now (between timed regions)."""
        if not self.enabled:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.extend(self.probe() for _ in range(n))
        finally:
            if enabled:
                gc.enable()

    def apply(self, out: "Outcome") -> None:
        """Scale every timed sample of *out* to the reference host."""
        if not self.enabled:
            return
        factor = REFERENCE_PROBE_S / statistics.median(self.samples)
        for name in ("setup_s", "work_s"):
            out.samples[name] = [value * factor for value in out.samples[name]]
        out.detail["host_speed"] = (factor, "ratio", len(self.samples))


# ---------------------------------------------------------------------------
# casestudy_full — the paper's Figure-10 case study at full scale
# ---------------------------------------------------------------------------

#: CaseStudyRun stages, in dependency order.
CASESTUDY_STAGES = (
    "projected", "projected_v2", "projected_extra", "blocking", "blocking_v2",
    "labeling", "matching", "updated_workflow", "final_workflow",
    "iris_matches", "accuracy",
)


def casestudy_full(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    out = Outcome()
    config = ScenarioConfig(seed=seed)
    speed = Speed(enabled=tracer is None)
    speed.sample()
    setups, work = [], []
    if tracer is not None:
        tracer.active = True
    while not work or sum(work) < seconds:
        for i in range(1 if tracer is not None or work else SETUP_REPEATS):
            if i:
                session.close()
            start = perf_counter()
            session = EngineSession(workers=WORKERS, seed=seed)
            run = CaseStudyRun(config=config, session=session)
            run.scenario
            setups.append(perf_counter() - start)
            speed.sample()
        with session:
            wall = 0.0
            for name in CASESTUDY_STAGES:
                start = perf_counter()
                getattr(run, name)
                end = perf_counter()
                out.windows.append((start, end))
                wall += end - start
                speed.sample()
        out.attempted += 1
        work.append(wall)
    if tracer is not None:
        tracer.active = False
    out.samples["setup_s"] = setups
    out.samples["work_s"] = work
    out.detail["pipeline_s"] = (statistics.median(work), "s", len(work))
    speed.apply(out)

    # outputs of the last pass
    final = run.final_workflow
    counts = run.labeling.labels.counts()
    quality = f1(final.matches, run.combined_truth)
    out.samples["quality"] = [quality]
    out.detail["final_f1"] = (quality, "ratio", 1)
    out.extra["true_matches"] = len(run.projected.truth)

    out.check(quality >= 0.85, f"learning+rules F1 {quality:.3f} >= 0.85")
    out.check(
        counts.total == len(run.labeling.labels),
        f"Section-8 label counts {counts} sum to the labeled set",
    )
    out.check(
        set(final.matches) <= set(final.consolidated_candidates.pairs),
        "every final match is a consolidated candidate",
    )
    with open(REFERENCE_PATH) as fh:
        reference = json.load(fh).get(str(seed))
    got = {
        "final_matches": len(final.matches),
        "final_digest": pairs_digest(final.matches),
        "labels": [counts.yes, counts.no, counts.unsure],
    }
    if reference is None:
        out.checks.append((True, f"no reference for seed {seed}: {json.dumps(got)}"))
    else:
        for key, value in got.items():
            out.check(
                reference[key] == value,
                f"{key} {value} equals the seed-{seed} reference {reference[key]}",
            )
    return out


# ---------------------------------------------------------------------------
# serve_mixed — one closed-loop client against a live MatchService
# ---------------------------------------------------------------------------

PROBES = 600
#: streams per run; ``work_s`` is their median, robust to one slow pass
SERVE_PASSES = 3
LABEL_SAMPLE = 400
INSERT_BATCHES = (1, 8, 64)
UPDATE_BATCHES, UPDATE_SIZE = 10, 8
DELETE_BATCHES, DELETE_SIZE = 10, 4


def _edited(row: dict) -> dict:
    """An update of *row*: its title loses its last word."""
    words = str(row["AwardTitle"]).split()
    return dict(row, AwardTitle=" ".join(words[:-1] if len(words) > 1 else words))


def _stream(seed: int, v2, extra) -> list[tuple[str, object]]:
    """The seeded request stream: ``match`` probes with writes spread in.

    Writes are the late (Section-10) records in batches cycling through
    1, 8 and 64, plus title edits and deletes of original left rows.
    """
    rng = random.Random(seed)
    key = v2.l_key
    originals = v2.umetrics.to_rows()
    late = extra.umetrics.to_rows()
    writes: list[tuple[str, object]] = []
    i = 0
    while i < len(late):
        for size in INSERT_BATCHES:
            if i < len(late):
                writes.append(("insert", late[i:i + size]))
                i += size
    touched = rng.sample(originals, UPDATE_BATCHES * UPDATE_SIZE
                         + DELETE_BATCHES * DELETE_SIZE)
    for b in range(UPDATE_BATCHES):
        rows = touched[b * UPDATE_SIZE:(b + 1) * UPDATE_SIZE]
        writes.append(("update", [_edited(r) for r in rows]))
    rest = touched[UPDATE_BATCHES * UPDATE_SIZE:]
    for b in range(DELETE_BATCHES):
        writes.append(("delete", [r[key] for r in rest[b * DELETE_SIZE:(b + 1) * DELETE_SIZE]]))
    # shuffle where writes go, but keep the inserts in batch-size order
    inserts = iter([w for w in writes if w[0] == "insert"])
    rng.shuffle(writes)
    writes = [next(inserts) if w[0] == "insert" else w for w in writes]

    probe_pool = originals + late
    stream: list[tuple[str, object]] = []
    every = PROBES // (len(writes) + 1)
    for p in range(PROBES):
        stream.append(("match", probe_pool[rng.randrange(len(probe_pool))]))
        if writes and (p + 1) % every == 0:
            stream.append(writes.pop(0))
    stream.extend(writes)
    return stream


def _serve_pass(out: Outcome, service, stream, v2, tracer: Tracer | None,
                latencies: list, patches: dict) -> tuple[float, dict]:
    """Drive one stream through *service*; return its wall time and the
    live left records it leaves."""
    key = v2.l_key
    live = {row[key]: row for row in v2.umetrics.to_rows()}
    if tracer is not None:
        tracer.active = True
    start = perf_counter()
    for kind, payload in stream:
        out.attempted += 1
        t0 = perf_counter()
        try:
            if kind == "match":
                service.match(payload)
            elif kind == "delete":
                service.apply_patch(deletes=payload)
            else:
                service.apply_patch(upserts=payload)
        except Exception as exc:  # a failed request is counted, not fatal
            out.failed += 1
            out.checks.append((False, f"{kind} raised {exc!r}"))
            continue
        took = perf_counter() - t0
        if kind == "match":
            latencies.append(took)
            continue
        patches.setdefault(kind, []).append((len(payload), took))
        if kind == "delete":
            for lid in payload:
                live.pop(lid, None)
        else:
            for row in payload:
                live.pop(row[key], None)
                live[row[key]] = row
    end = perf_counter()
    if tracer is not None:
        tracer.active = False
    out.windows.append((start, end))

    return end - start, live


def serve_mixed(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    out = Outcome()
    # The service's tables are the full-scale reference scenario; the seed
    # makes its traffic and its matcher's training sample.
    scenario = generate_scenario(ScenarioConfig())
    v2 = preprocess(scenario, include_project_number=True)
    extra = preprocess_extra(scenario, include_project_number=True)
    with EngineSession(workers=1, seed=seed) as session:
        # The harness trains the matcher from authority-oracle labels on a
        # seeded candidate sample: no Section-8 labeling or LOO here.
        candidates = run_blocking(v2, session=session).candidates
        sample = random.Random(seed).sample(list(candidates.pairs), LABEL_SAMPLE)
        authority, _, _ = make_oracles(v2.truth, seed)
        labels = authority.label_pairs(candidates, sample)
        features = base_feature_set(v2)
        matcher = train_workflow_matcher(
            candidates, labels, features,
            MLMatcher(RandomForestClassifier(n_trees=50, min_samples_leaf=2, seed=seed),
                      "Random Forest"),
            session=session,
        )
        stream = _stream(seed, v2, extra)
        setups, work, latencies, patches = [], [], [], {}
        speed = Speed(enabled=tracer is None)
        speed.sample()
        passes = 1 if tracer is not None else SERVE_PASSES
        while len(work) < passes or sum(work) < seconds:
            # each pass streams into a freshly bootstrapped service; the
            # bootstraps are the set-up samples
            service, took = timed(
                MatchService.from_plan, figure10_spec(),
                v2.umetrics, v2.usda, v2.l_key, v2.r_key,
                matcher=matcher, feature_set=features, session=session,
            )
            setups.append(took)
            speed.sample()
            took, live = _serve_pass(out, service, stream, v2, tracer,
                                     latencies, patches)
            work.append(took)
            speed.sample()

        # The passes replay one stream, so checking the last one suffices.
        # delta == rerun: the live match set equals a batch Figure-10 run
        # over the final left table.
        final_left = Table.from_rows(list(live.values()), name="final_left")
        reference = figure10_workflow().run(
            final_left, v2.usda, v2.l_key, v2.r_key, matcher, features
        )
        current = service.current_matches()
        out.check(
            set(current) == set(reference.matches),
            f"live matches ({len(current)}) equal a batch Figure-10 rerun "
            f"over the final left table ({len(reference.matches)})",
        )
        out.check(len(service) == len(live), f"{len(live)} live left records")
        truth = {p for p in v2.truth | extra.truth if p[0] in live}
        out.samples["quality"] = [f1(current, truth)]
        out.extra["true_matches"] = len(truth)
    out.samples["setup_s"] = setups
    out.samples["work_s"] = work
    out.detail["stream_s"] = (statistics.median(work), "s", len(work))
    speed.apply(out)

    latencies.sort()
    n = len(latencies)
    out.detail["match_p50_ms"] = (statistics.median(latencies) * 1e3, "ms", n)
    # the highest percentile reported keeps >= 10 samples beyond it
    out.detail["match_p99_ms"] = (latencies[int(0.99 * n)] * 1e3, "ms", n)
    records = sum(size for done in patches.values() for size, _ in done)
    patch_seconds = sum(took for done in patches.values() for _, took in done)
    out.detail["patch_records_per_s"] = (records / patch_seconds, "rec/s", records)
    for size in INSERT_BATCHES:
        costs = [took for n_rec, took in patches.get("insert", ()) if n_rec == size]
        out.extra[f"patch_ms_per_record_b{size}"] = (
            1e3 * sum(costs) / (size * len(costs)) if costs else 0.0
        )
    return out


# ---------------------------------------------------------------------------
# block_scale — capped sharded overlap vs MinHash LSH at scale, cold caches
# ---------------------------------------------------------------------------

SCALE_ROWS = 50_000
OVERLAP_K, BLOCK_CAP, SHARDS = 3, 40, 8
LSH_THRESHOLD = 0.4
RECALL_FLOOR = 0.95


def _overlap_kwargs() -> dict:
    return dict(threshold=OVERLAP_K,
                block_size_policy=BlockSizePolicy(max_block_size=BLOCK_CAP))


def block_scale(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    out = Outcome()
    config = ScaleConfig(rows=SCALE_ROWS, seed=seed)
    speed = Speed(enabled=tracer is None)
    speed.sample()
    if tracer is not None:
        tracer.active = True
    setups = []
    for _ in range(1 if tracer is not None else SETUP_REPEATS):
        (left, right, truth), took = timed(scale_tables, config)
        setups.append(took)
        speed.sample()
    out.samples["setup_s"] = setups

    def cold(blocker):
        """Block in a fresh session with its own empty token cache, so
        each blocker pays its own tokenization."""
        cache = TokenCache()
        with EngineSession(workers=WORKERS, seed=seed, token_cache=cache) as session:
            start = perf_counter()
            pairs = list(blocker.block_tables(left, right, "id", "id",
                                              session=session).pairs)
            end = perf_counter()
        out.windows.append((start, end))
        out.attempted += 1
        speed.sample()
        return pairs, end - start, cache

    overlap, lsh_times, work = [], [], []
    while not work or sum(overlap) + sum(lsh_times) < seconds:
        sharded, overlap_s, overlap_cache = cold(
            ShardedOverlapBlocker("title", "title", shards=SHARDS, **_overlap_kwargs())
        )
        lsh, lsh_s, _ = cold(
            MinHashLSHBlocker("title", "title", threshold=LSH_THRESHOLD, seed=0)
        )
        work.append(overlap_s + lsh_s)
        overlap.append(overlap_s)
        lsh_times.append(lsh_s)
    if tracer is not None:
        tracer.active = False
    out.samples["work_s"] = work
    out.detail["overlap_block_s"] = (statistics.median(overlap), "s", len(overlap))
    out.detail["lsh_block_s"] = (statistics.median(lsh_times), "s", len(lsh_times))
    speed.apply(out)

    true_pairs = set(truth)
    recall = len(set(lsh) & true_pairs) / len(true_pairs)
    out.samples["quality"] = [recall]
    out.detail["lsh_recall"] = (recall, "ratio", len(true_pairs))
    out.extra["true_matches"] = len(true_pairs)

    # sharded == unsharded, reusing the overlap run's warm cache serially
    with EngineSession(token_cache=overlap_cache) as session:
        unsharded = list(
            OverlapBlocker("title", "title", **_overlap_kwargs())
            .block_tables(left, right, "id", "id", session=session).pairs
        )
    out.check(unsharded == sharded,
              f"sharded pairs ({len(sharded)}) equal unsharded ({len(unsharded)})")
    out.check(recall >= RECALL_FLOOR, f"LSH recall {recall:.4f} >= {RECALL_FLOOR}")
    return out


WORKLOADS = {
    "casestudy_full": casestudy_full,
    "serve_mixed": serve_mixed,
    "block_scale": block_scale,
}
