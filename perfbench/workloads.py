"""The benchmark's three workloads: what each runs, times and checks.

Every workload is a closed loop with one client in one process: the next
operation starts only after the previous one returned.  Inputs come from
the seed alone.  A workload returns a :class:`Measurement`; ``run.py``
turns it into metrics.

* ``alf_train`` — repeated ALF ``compress()`` of ResNet-20 on a seeded
  synthetic CIFAR-geometry set, one training epoch, float64.  The paper's
  workload: it drives the ``repro.nn`` tape and the f64 conv forward and
  backward, and bypasses the store and ``repro.deploy``.
* ``plan_serve`` — set-up submits a cost-only ALF ResNet-20 spec (Table II
  stage fractions, float32) twice through a session on a fresh store,
  compiles a batch-1 plan into the store and loads it back from there;
  the loaded plan then serves batch-1 requests.  The deploy path, where
  per-step dispatch outweighs MACs.
* ``sweep_store`` — a serial ``SweepSession`` over LeNet with a fresh
  ``FileReportCache``; each step submits one cost-only spec, new with
  probability 1/2, else a uniformly chosen earlier one, so store hits and
  misses interleave while the store grows to a few hundred entries.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

clock = time.perf_counter

#: Set-ups per run, at least this many and for at least this long;
#: ``setup_s`` is their median.
SETUP_REPEATS = 9
SETUP_SECONDS = 1.0
#: Samples in the ``alf_train`` set: one 16-image training batch plus a
#: 4-image validation split (``resolve_loaders`` splits 80/20).
ALF_SAMPLES = 20
#: ``alf_train`` set-ups per run: each one is a ``compress()`` call.
ALF_SETUPS = 5
#: Share of ``plan_serve`` requests whose output is checked bit for bit
#: against the eager forward (the first request always is).
CHECK_SHARE = 1 / 32
#: Distinct seeded request inputs ``plan_serve`` draws from.
INPUT_POOL = 256
#: Submissions per ``sweep_store`` episode.  Every episode starts from an
#: empty store, so latency statistics do not depend on how many episodes
#: a run holds.
EPISODE_STEPS = 500
#: Run seconds per ``sweep_store`` episode.  The episode count follows
#: from ``--seconds`` alone, not from how fast episodes finish, so both
#: commits of a comparison do the same work (peak memory grows with it).
EPISODE_SECONDS = 7
#: Ratios per method in the ``sweep_store`` grid.
GRID_RATIOS = 200
SWEEP_METHODS = ("magnitude", "fpgm", "lowrank")


@dataclass
class Measurement:
    """Raw samples of one workload run."""

    setup: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: The workload's own named figures (seconds, counts).
    detail: Dict[str, float] = field(default_factory=dict)
    #: Live objects the traced run reads its counts from.
    extra: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def op(self, kind: str, seconds: float) -> None:
        self.kinds.append(kind)
        self.latencies.append(seconds)

    def of_kind(self, kind: str) -> List[float]:
        return [t for k, t in zip(self.kinds, self.latencies) if k == kind]


class Stop:
    """When a loop stops: after ``count`` items, or when the next item
    (judged by the mean so far) would end past ``seconds``."""

    def __init__(self, *, seconds: Optional[float] = None,
                 count: Optional[int] = None):
        self.seconds = seconds
        self.count = count
        self.start = clock()

    def more(self, done: int) -> bool:
        if self.count is not None:
            return done < self.count
        elapsed = clock() - self.start
        return done == 0 or elapsed + elapsed / done <= self.seconds


def _more_setups(m: Measurement, repeats: int, begin: float) -> bool:
    if len(m.setup) < repeats:
        return True
    return repeats > 1 and clock() - begin < SETUP_SECONDS


def _finite(value) -> bool:
    return value is not None and math.isfinite(float(value))


def _set_request(tracer, request) -> None:
    if tracer is not None:
        tracer.request = request


# --------------------------------------------------------------------------- #
# alf_train
# --------------------------------------------------------------------------- #
def alf_train(seed: int, stop: Stop, *, setup_repeats: int = SETUP_REPEATS,
              tracer=None, work_dir: str = "") -> Measurement:
    """Set-up builds the data set and makes one ``compress()`` call, which
    warms lazy state; it is repeated ``ALF_SETUPS`` times.  The first
    set-up's report is the reference every later call must reproduce."""
    import repro.api as api
    from repro.data.synthetic import make_synthetic_dataset

    m = Measurement()
    compress_s = []

    def compress(data):
        start = clock()
        report = api.compress("resnet20", method="alf", data=data, epochs=1,
                              hardware=api.EYERISS_PAPER, dtype="float64",
                              seed=seed)
        compress_s.append(clock() - start)
        return report

    expected = None
    begin = clock()
    while _more_setups(m, min(setup_repeats, ALF_SETUPS), begin):
        _set_request(tracer, f"setup-{len(m.setup)}")
        start = clock()
        data = make_synthetic_dataset(ALF_SAMPLES, num_classes=10,
                                      image_shape=(3, 32, 32), seed=seed)
        report = compress(data)
        m.setup.append(clock() - start)
        # Same seed, same data: the payload and the trained weights' bytes
        # must repeat exactly.
        payload = (report.to_dict(), api.model_digest(report.model))
        if expected is None:
            expected = payload
            m.extra["report"] = report
        m.check(payload == expected and _finite(report.accuracy))

    stop.start = clock()
    calls = 0
    while stop.more(calls):
        _set_request(tracer, calls)
        calls += 1
        start = clock()
        try:
            report = compress(data)
        except Exception:
            m.check(False)
            continue
        m.op("compress", clock() - start)
        m.check((report.to_dict(), api.model_digest(report.model)) == expected
                and _finite(report.accuracy))
    m.detail["compress_s"] = (float(np.median(m.latencies))
                              if m.latencies else float("nan"))
    m.extra["compress_total_s"] = float(sum(compress_s))
    return m


# --------------------------------------------------------------------------- #
# plan_serve
# --------------------------------------------------------------------------- #
def _served_report(seed: int, store):
    """Cost-only ALF ResNet-20 at the Table II stage fractions (float32),
    submitted twice through a store-backed session: the first submission
    computes and stores the report, the second is served by the store."""
    import repro.api as api
    spec = api.CompressionSpec(
        method="alf",
        config=api.ALFSpec(stage_remaining=api.ALF_TABLE2_STAGE_REMAINING),
        dtype="float32", seed=seed)
    session = api.SweepSession(model="resnet20", hardware=api.EYERISS_PAPER,
                               seed=seed, executor="serial",
                               cache=(store, "readwrite"))
    try:
        report = session.submit(spec).result()
        replay = session.submit(spec)
        return report, replay.cached, replay.result()
    finally:
        session.close()


def plan_serve(seed: int, stop: Stop, *, setup_repeats: int = SETUP_REPEATS,
               tracer=None, work_dir: str = "") -> Measurement:
    import repro.api as api
    from repro.nn import Tensor, no_grad, use_backend

    m = Measurement()
    begin = clock()
    while _more_setups(m, setup_repeats, begin):
        index = len(m.setup)
        _set_request(tracer, f"setup-{index}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = clock()
            store = api.FileReportCache(os.path.join(work_dir, f"plans-{index}"))
            report, cached, replay = _served_report(seed, store)
            report.plan(batch=1, cache=store)
            plan = report.plan(batch=1, cache=(store, "read"))
            m.setup.append(clock() - start)
        damaged = any(issubclass(w.category, api.CacheIntegrityWarning)
                      for w in caught)
        # One report and one plan, each first missed and written, then
        # served by the store.
        stats = store.stats()
        m.check(cached and replay.to_dict() == report.to_dict()
                and (stats.entries, stats.plans, stats.hits, stats.misses,
                     stats.writes) == (1, 1, 2, 2, 2)
                and not damaged)
    m.extra.update(report=report, plan=plan, store_stats=store.stats())

    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((INPUT_POOL, 1) + plan.input_shape
                                 ).astype(np.float32)
    sampled = []
    stop.start = clock()
    request = -1
    while stop.more(request + 1):
        request += 1
        _set_request(tracer, request)
        x = inputs[rng.integers(INPUT_POOL)]
        start = clock()
        try:
            out = plan(x)
        except Exception:
            m.check(False)
            continue
        m.op("request", clock() - start)
        if request == 0 or rng.random() < CHECK_SHARE:
            sampled.append((x, out.data))
        else:
            m.check(True)

    # Bit-for-bit against the eager tape-free forward of the same model.
    _set_request(tracer, "check")
    model = report.model
    model.eval()
    with use_backend(None, dtype="float32"), no_grad():
        for x, served in sampled:
            eager = model(Tensor(x)).data
            m.check(eager.dtype == served.dtype
                    and np.array_equal(eager, served))
    lat = np.asarray(m.latencies)
    if lat.size:
        m.detail.update(serve_p50_ms=float(np.percentile(lat, 50)) * 1e3,
                        serve_p99_ms=float(np.percentile(lat, 99)) * 1e3,
                        serve_rps=lat.size / float(lat.sum()),
                        requests=int(lat.size))
    return m


def dense_plan_p50_ms(seed: int, requests: int) -> float:
    """Median batch-1 latency of a plan of the dense ResNet-20 (float32)."""
    from repro import deploy
    from repro.models import build_model
    from repro.nn import use_backend

    with use_backend(None, dtype="float32"):
        model = build_model("resnet20", rng=np.random.default_rng(seed))
        plan = deploy.compile(model, (3, 32, 32), batch=1)
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((INPUT_POOL, 1, 3, 32, 32)).astype(np.float32)
    times = []
    for _ in range(requests):
        x = inputs[rng.integers(INPUT_POOL)]
        start = clock()
        plan(x)
        times.append(clock() - start)
    return float(np.median(times)) * 1e3


def gemm_bound_ms(shapes, seed: int, repeats: int = 50) -> float:
    """Sum over convs of a bare f32 ``np.matmul`` of each GEMM shape.

    A conv of ``co`` filters over ``ci`` channels with a ``k×k`` kernel
    is the product ``(co, ci·k·k) @ (ci·k·k, oh·ow)`` at batch 1; the
    median of ``repeats`` timed products is this conv's share.
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    for shape in shapes:
        oh, ow = shape.output_hw
        inner = shape.in_channels * shape.kernel_size ** 2
        a = rng.standard_normal((shape.out_channels, inner)).astype(np.float32)
        b = rng.standard_normal((inner, oh * ow)).astype(np.float32)
        out = np.empty((shape.out_channels, oh * ow), dtype=np.float32)
        times = []
        for _ in range(repeats):
            start = clock()
            np.matmul(a, b, out=out)
            times.append(clock() - start)
        total += float(np.median(times))
    return total * 1e3


# --------------------------------------------------------------------------- #
# sweep_store
# --------------------------------------------------------------------------- #
def _sweep_spec(method: str, ratio: float):
    import repro.api as api
    if method == "magnitude":
        config = api.MagnitudeSpec(prune_ratio=ratio)
    elif method == "fpgm":
        config = api.FPGMSpec(prune_ratio=ratio)
    else:
        config = api.LowRankSpec(rank_fraction=round(1.0 - ratio, 4))
    return api.CompressionSpec(method=method, config=config)


def _new_session(directory: str):
    import repro.api as api
    store = api.FileReportCache(directory)
    session = api.SweepSession(
        model="lenet", input_shape=(1, 16, 16), hardware=api.EYERISS_PAPER,
        executor="serial", cache=(store, "readwrite"))
    return store, session


def _episode(rng, m: Measurement, directory: str, grid, tracer) -> None:
    """One fresh store and session, then ``EPISODE_STEPS`` submissions.

    The session builds its dense baseline at the first submission, so
    set-up runs until that first spec's result is back; the remaining
    submissions are the timed operations.
    """
    candidates = [(method, ratio) for method in SWEEP_METHODS
                  for ratio in grid]
    order = rng.permutation(len(candidates))
    fresh = 0
    submitted: List[tuple] = []
    first: Dict[tuple, dict] = {}
    hits = misses = 0
    start = clock()
    store, session = _new_session(directory)
    try:
        for step in range(EPISODE_STEPS):
            if not submitted or rng.random() < 0.5:
                key = candidates[order[fresh]]
                fresh += 1
                submitted.append(key)
            else:
                key = submitted[rng.integers(len(submitted))]
            spec = _sweep_spec(*key)
            _set_request(tracer, step)
            if step:
                start = clock()
            try:
                future = session.submit(spec)
                report = future.result()
            except Exception:
                m.check(False)
                continue
            elapsed = clock() - start
            if future.cached:
                hits += 1
                m.op("hit", elapsed)
                m.check(key in first and report.to_dict() == first[key])
                continue
            misses += 1
            if step:
                m.op("miss", elapsed)
            else:
                m.setup.append(elapsed)
            # A spec submitted before must be served by the store.
            m.check(key not in first)
            first.setdefault(key, report.to_dict())
    finally:
        session.close()
    stats = store.stats()
    m.check(stats.hits == hits and stats.misses == misses
            and stats.writes == misses)
    m.extra["store_stats"] = stats


def sweep_store(seed: int, stop: Stop, *, setup_repeats: int = SETUP_REPEATS,
                tracer=None, work_dir: str = "") -> Measurement:
    m = Measurement()
    rng = np.random.default_rng(seed)
    grid = np.round(np.sort(rng.uniform(0.05, 0.85, size=GRID_RATIOS)), 4)
    grid = [float(ratio) for ratio in grid]
    # Set-ups beyond the episodes' own, so the median has samples.
    begin = clock()
    while _more_setups(m, setup_repeats - 1, begin):
        index = len(m.setup)
        start = clock()
        _, session = _new_session(os.path.join(work_dir, f"boot-{index}"))
        session.submit(_sweep_spec(SWEEP_METHODS[0], grid[0])).result()
        m.setup.append(clock() - start)
        session.close()

    if stop.count is None:
        stop = Stop(count=max(1, int(stop.seconds // EPISODE_SECONDS)))
    episodes = 0
    while stop.more(episodes):
        _episode(rng, m, os.path.join(work_dir, f"store-{episodes}"), grid,
                 tracer)
        episodes += 1
    hit, miss = np.asarray(m.of_kind("hit")), np.asarray(m.of_kind("miss"))
    stats = m.extra["store_stats"]
    m.detail.update(episodes=episodes, hits=int(hit.size),
                    misses=int(miss.size), final_entries=stats.entries)
    for name, values in (("hit", hit), ("miss", miss)):
        if values.size:
            m.detail[f"{name}_p50_ms"] = float(np.percentile(values, 50)) * 1e3
            m.detail[f"{name}_p90_ms"] = float(np.percentile(values, 90)) * 1e3
    if m.latencies:
        m.detail["specs_per_s"] = len(m.latencies) / float(sum(m.latencies))
    return m


WORKLOADS: Dict[str, Callable[..., Measurement]] = {
    "alf_train": alf_train,
    "plan_serve": plan_serve,
    "sweep_store": sweep_store,
}

#: Fixed work of each phase of a traced run (operations, or episodes for
#: ``sweep_store``), so per-layer totals compare across commits.
TRACE_WORK = {"alf_train": 3, "plan_serve": 1000, "sweep_store": 1}
