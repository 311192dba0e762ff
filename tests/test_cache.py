"""Tests for the content-addressed result cache + checkpoint store.

Five guarantees are pinned down:

* **Addressing** — cache keys are canonical: invariant to dict key order,
  stable across processes, distinct for distinct (spec, model, data), and
  absent (``None``) when a submission has no sound content address.
* **Stores** — the memory and file stores honour the same contract:
  put/get round trips, checkpoint persistence, stats, gc, and the
  ``REPRO_CACHE_DIR`` override.
* **Robustness** — a corrupt entry (bad digest, truncated JSON, unknown
  schema version) is a :class:`CacheIntegrityWarning` and a *miss*, never
  a crash.
* **Replay** — a session hit resolves its future instantly with a
  ``"cached"`` event and a report bit-identical to recomputation, on every
  executor; the ``cache=`` policy knob gates reads and writes separately.
* **Warm starts** — a near-miss spec seeds fine-tuning from the nearest
  same-(method, model, data) checkpoint, records the provenance, and
  falls back to the cold path when nothing matches.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import repro.api as api
from repro.api.cache import CacheEntryError
from repro.api.jobs import LoaderPlan
from repro.data import DataLoader, make_synthetic_dataset
from repro.models import build_model

INPUT_SHAPE = (1, 16, 16)  # lenet's native geometry
EXECUTORS = ["serial", "thread", "process", "remote"]


def cost_spec(**overrides):
    defaults = dict(method="magnitude", input_shape=INPUT_SHAPE)
    defaults.update(overrides)
    return api.CompressionSpec(**defaults)


def run_cached_sweep(cache, specs=None, **overrides):
    kwargs = dict(model="lenet", data=None, hardware=api.EYERISS_PAPER,
                  input_shape=INPUT_SHAPE, cache=cache)
    kwargs.update(overrides)
    return api.run_sweep(specs or [cost_spec()], **kwargs)


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_dataset(64, num_classes=4,
                                  image_shape=INPUT_SHAPE, seed=0)


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return api.MemoryReportCache()
    return api.FileReportCache(tmp_path / "cache")


@pytest.fixture
def report_and_key():
    spec = cost_spec()
    model = build_model("lenet", rng=np.random.default_rng(0))
    report = api.compress(model="lenet", method="magnitude",
                          input_shape=INPUT_SHAPE,
                          hardware=api.EYERISS_PAPER)
    key = api.cache_key(spec, model, LoaderPlan(kind="none"))
    return report, key


# --------------------------------------------------------------------------- #
# Digests + keys
# --------------------------------------------------------------------------- #
class TestDigests:
    def test_canonical_json_is_key_order_invariant(self):
        a = {"b": 1, "a": {"y": 2, "x": 3}}
        b = {"a": {"x": 3, "y": 2}, "b": 1}
        assert api.canonical_json(a) == api.canonical_json(b)
        assert api.payload_digest(a) == api.payload_digest(b)

    def test_integer_mapping_keys_digest_like_their_wire_form(self):
        # ALFSpec.stage_remaining keys filter counts by int; JSON
        # stringifies them in transit.  Both representations must share
        # one digest or a cached spec would never hit after a round trip.
        assert api.payload_digest({8: 0.5, 16: 0.3}) == \
            api.payload_digest({"16": 0.3, "8": 0.5})

    def test_spec_digest_stable_and_distinct(self):
        assert cost_spec().digest() == cost_spec().digest()
        other = cost_spec(config=api.MagnitudeSpec(prune_ratio=0.3))
        assert cost_spec().digest() != other.digest()

    def test_spec_digest_invariant_to_payload_key_order(self):
        # A digest computed from a round-tripped payload (different dict
        # insertion order after JSON churn) must equal the original's.
        spec = cost_spec(config=api.MagnitudeSpec(norm="l2"))
        payload = json.loads(json.dumps(spec.to_dict()))
        shuffled = dict(reversed(list(payload.items())))
        rebuilt = api.CompressionSpec.from_dict(shuffled)
        assert rebuilt.digest() == spec.digest()

    def test_spec_with_built_module_has_no_digest(self):
        model = build_model("lenet", rng=np.random.default_rng(0))
        with pytest.raises(TypeError):
            cost_spec(model=model).digest()

    def test_model_digest_tracks_parameter_bytes(self):
        a = build_model("lenet", rng=np.random.default_rng(0))
        b = build_model("lenet", rng=np.random.default_rng(0))
        assert api.model_digest(a) == api.model_digest(b)
        name, param = next(iter(b.named_parameters()))
        param.data = param.data + 1e-3
        assert api.model_digest(a) != api.model_digest(b)

    def test_data_digest_none_for_template_plans(self, dataset):
        loaders = (DataLoader(dataset, batch_size=16),
                   DataLoader(dataset, batch_size=16))
        template = LoaderPlan(kind="template", template=loaders)
        assert api.data_digest(template) is None
        assert api.data_digest(LoaderPlan(kind="none")) is not None

    def test_cache_key_combined_and_uncacheable_forms(self, dataset):
        model = build_model("lenet", rng=np.random.default_rng(0))
        key = api.cache_key(cost_spec(), model, LoaderPlan(kind="none"))
        assert key is not None
        assert key.combined == key.combined  # stable property
        assert key.method == "magnitude"
        assert key.to_dict()["combined"] == key.combined
        # Live loaders → no canonical data recipe → no key.
        loaders = (DataLoader(dataset, batch_size=16), None)
        template = LoaderPlan(kind="template", template=loaders)
        assert api.cache_key(cost_spec(), model, template) is None
        # Built Module on the spec → no spec payload → no key.
        assert api.cache_key(cost_spec(model=model), model,
                             LoaderPlan(kind="none")) is None

    def test_spec_distance_prefers_nearest_numeric(self):
        base = cost_spec(config=api.MagnitudeSpec(prune_ratio=0.5)).to_dict()
        near = cost_spec(config=api.MagnitudeSpec(prune_ratio=0.45)).to_dict()
        far = cost_spec(config=api.MagnitudeSpec(prune_ratio=0.1)).to_dict()
        assert api.spec_distance(base, base) == 0.0
        assert api.spec_distance(base, near) < api.spec_distance(base, far)


# --------------------------------------------------------------------------- #
# Store contract (memory + file)
# --------------------------------------------------------------------------- #
class TestReportCacheStores:
    def test_put_get_round_trip_is_exact(self, store, report_and_key):
        report, key = report_and_key
        assert store.get(key) is None  # miss first
        store.put(key, report)
        replay = store.get(key)
        assert replay is not None
        assert replay.to_dict() == report.to_dict()

    def test_checkpoint_round_trip(self, store, report_and_key):
        report, key = report_and_key
        state = report.compressed.model.state_dict()
        store.put(key, report, checkpoint=state)
        loaded = store.checkpoint(key)
        assert set(loaded) == set(state)
        for name in state:
            np.testing.assert_array_equal(loaded[name], state[name])
        assert store.entry(key)["checkpoint"] is True

    def test_stats_and_len(self, store, report_and_key):
        report, key = report_and_key
        store.get(key)
        store.put(key, report,
                  checkpoint=report.compressed.model.state_dict())
        store.get(key)
        stats = store.stats()
        assert (stats.entries, stats.checkpoints) == (1, 1)
        assert stats.total_bytes > 0
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert len(store) == 1

    def test_gc_evicts_oldest_first_and_clear(self, store, report_and_key):
        report, key = report_and_key
        store.put(key, report)
        other = api.CacheKey(method=key.method, spec="0" * 64,
                             model=key.model, data=key.data)
        store.put(other, report,
                  checkpoint=report.compressed.model.state_dict())
        assert store.gc(max_entries=2) == 0
        assert store.gc(max_entries=1) == 1
        assert store.get(key) is None       # the older entry was evicted
        assert store.get(other) is not None
        assert store.gc(clear=True) == 1
        assert len(store) == 0
        assert store.checkpoint(other) is None

    def test_warm_source_recorded_on_entry(self, store, report_and_key):
        report, key = report_and_key
        store.put(key, report, warm_source="f" * 64)
        assert store.entry(key)["warm_source"] == "f" * 64

    def test_gc_is_lru_not_write_order(self, store, report_and_key):
        """A get() hit must protect an entry from eviction: recency is the
        persisted seq, not write order (and not filesystem mtime)."""
        report, key = report_and_key
        store.put(key, report)
        other = api.CacheKey(method=key.method, spec="0" * 64,
                             model=key.model, data=key.data)
        store.put(other, report)
        assert store.get(key) is not None   # touch the older entry
        assert store.gc(max_entries=1) == 1
        assert store.get(other) is None     # untouched entry was evicted
        assert store.get(key) is not None   # touched entry survived

    def test_seq_persists_and_grows(self, store, report_and_key):
        report, key = report_and_key
        store.put(key, report)
        assert store.entry(key)["seq"] == 0
        other = api.CacheKey(method=key.method, spec="0" * 64,
                             model=key.model, data=key.data)
        store.put(other, report)
        assert store.entry(other)["seq"] == 1
        store.get(key)                      # hit refreshes the seq
        assert store.entry(key)["seq"] == 2

    def test_gc_same_mtime_writes_evict_in_write_order(self, tmp_path,
                                                       report_and_key):
        """Coarse (1 s) mtimes must not decide eviction: two entries
        written within the same second still evict oldest-write first,
        whatever their digest order."""
        store = api.FileReportCache(tmp_path / "cache")
        report, key = report_and_key
        other = api.CacheKey(method=key.method, spec="0" * 64,
                             model=key.model, data=key.data)
        # Write the alphabetically-larger combined digest FIRST, so a
        # same-mtime digest-alphabetical order would evict the wrong one.
        first, second = sorted((key, other),
                               key=lambda k: k.combined, reverse=True)
        store.put(first, report)
        store.put(second, report)
        stamp = os.path.getmtime(store._entry_path(first.combined))
        for entry_key in (first, second):
            os.utime(store._entry_path(entry_key.combined), (stamp, stamp))
        assert store.gc(max_entries=1) == 1
        assert store.entry(first) is None    # oldest write evicted
        assert store.entry(second) is not None


def _keys(key, count, offset=0):
    """``count`` distinct same-family keys derived from ``key``."""
    return [api.CacheKey(method=key.method, spec=f"{offset + i:064x}",
                         model=key.model, data=key.data)
            for i in range(count)]


class CountingMemoryCache(api.MemoryReportCache):
    """Counts the ``entries`` artifacts the store reads."""

    def __init__(self):
        super().__init__()
        self.entry_reads = 0

    def _read(self, kind, name):
        if kind == "entries":
            self.entry_reads += 1
        return super()._read(kind, name)


class TestRecencyCounter:
    def test_hit_reads_one_entry_and_put_reads_none(self, report_and_key):
        report, key = report_and_key
        store = CountingMemoryCache()
        for entry_key in _keys(key, 49):
            store.put(entry_key, report)
        store.entry_reads = 0
        store.put(key, report)              # the 50th entry
        assert store.entry_reads == 0
        assert store.get(key) is not None
        assert store.entry_reads == 1

    def test_recency_survives_across_instances(self, tmp_path,
                                               report_and_key):
        report, key = report_and_key
        root = tmp_path / "cache"
        older, newer = _keys(key, 2)
        api.FileReportCache(root).put(older, report)
        api.FileReportCache(root).put(newer, report)
        assert api.FileReportCache(root).get(older) is not None
        store = api.FileReportCache(root)
        assert [store.entry(k)["seq"] for k in (older, newer)] == [2, 1]
        assert store.gc(max_entries=1) == 1
        assert store.entry(newer) is None   # untouched entry was evicted

    def test_counter_seeds_from_highest_stamped_entry(self, tmp_path,
                                                      report_and_key):
        report, key = report_and_key
        store = api.FileReportCache(tmp_path / "cache")
        legacy, fresh = _keys(key, 2)
        store.put(legacy, report)
        path = store._entry_path(legacy.combined)
        with open(path, "r", encoding="utf-8") as f:
            entry = json.load(f)
        entry["seq"] = 7                    # seq sits outside the digest
        with open(path, "w", encoding="utf-8") as f:
            json.dump(entry, f)
        os.unlink(os.path.join(store.root, "seq"))
        store.put(fresh, report)
        assert store.entry(fresh)["seq"] == 8

    def test_concurrent_writers_mint_distinct_seqs(self, tmp_path,
                                                   report_and_key):
        """Eight writers, each with its own store on one root, never mint
        the same seq (the counter is advanced under a file lock)."""
        report, key = report_and_key
        root = tmp_path / "cache"
        errors = []

        def writer(index):
            try:
                store = api.FileReportCache(root)
                for entry_key in _keys(key, 5, offset=5 * index):
                    store.put(entry_key, report)
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(index,))
                       for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        store = api.FileReportCache(root)
        seqs = [store.entry(k)["seq"] for k in _keys(key, 40)]
        assert sorted(seqs) == list(range(40))


class TestNearestCheckpoint:
    def _put(self, store, key, report, ratio):
        spec = cost_spec(config=api.MagnitudeSpec(prune_ratio=ratio),
                         epochs=1)
        entry_key = api.CacheKey(method=key.method, spec=spec.digest(),
                                 model=key.model, data=key.data)
        report.spec = spec
        store.put(entry_key, report,
                  checkpoint=report.compressed.model.state_dict())
        return entry_key

    def test_nearest_same_family_checkpoint_wins(self, report_and_key):
        store = api.MemoryReportCache()
        report, key = report_and_key
        self._put(store, key, report, 0.1)
        near = self._put(store, key, report, 0.45)
        query = cost_spec(config=api.MagnitudeSpec(prune_ratio=0.5), epochs=1)
        query_key = api.CacheKey(method=key.method, spec=query.digest(),
                                 model=key.model, data=key.data)
        warm = store.nearest_checkpoint(query_key, query.to_dict())
        assert warm is not None
        assert warm.source == near.combined
        assert warm.spec.config.prune_ratio == 0.45
        assert all(isinstance(v, np.ndarray) for v in warm.state.values())

    def test_other_model_or_method_never_seeds(self, report_and_key):
        store = api.MemoryReportCache()
        report, key = report_and_key
        self._put(store, key, report, 0.45)
        query = cost_spec(config=api.MagnitudeSpec(prune_ratio=0.5), epochs=1)
        other_model = api.CacheKey(method=key.method, spec=query.digest(),
                                   model="0" * 64, data=key.data)
        assert store.nearest_checkpoint(other_model, query.to_dict()) is None
        other_method = api.CacheKey(method="fpgm", spec=query.digest(),
                                    model=key.model, data=key.data)
        assert store.nearest_checkpoint(other_method, query.to_dict()) is None

    def test_distance_ties_break_on_combined_digest(self, report_and_key):
        """Equidistant candidates must resolve deterministically — by the
        combined digest, not by store iteration (write) order."""
        report, key = report_and_key

        def put_labelled(store, label):
            spec = cost_spec(label=label)
            entry_key = api.CacheKey(method=key.method, spec=spec.digest(),
                                     model=key.model, data=key.data)
            report.spec = spec
            store.put(entry_key, report,
                      checkpoint=report.compressed.model.state_dict())
            return entry_key

        probe = api.MemoryReportCache()
        a = put_labelled(probe, "tie-a")
        b = put_labelled(probe, "tie-b")
        query = cost_spec(label="tie-query")
        query_key = api.CacheKey(method=key.method, spec=query.digest(),
                                 model=key.model, data=key.data)
        winner = min(a.combined, b.combined)
        loser_first = max((a, b), key=lambda k: k.combined)
        # Write the larger digest first: iteration-order tie-breaking
        # would pick it; the digest order must pick the smaller one.
        for store in (api.MemoryReportCache(),):
            put_labelled(store, "tie-a" if loser_first is a else "tie-b")
            put_labelled(store, "tie-b" if loser_first is a else "tie-a")
            warm = store.nearest_checkpoint(query_key, query.to_dict())
            assert warm is not None
            assert warm.source == winner

    def test_entry_without_checkpoint_never_seeds(self, report_and_key):
        store = api.MemoryReportCache()
        report, key = report_and_key
        store.put(key, report)  # no checkpoint
        query = cost_spec(config=api.MagnitudeSpec(prune_ratio=0.5), epochs=1)
        query_key = api.CacheKey(method=key.method, spec=query.digest(),
                                 model=key.model, data=key.data)
        assert store.nearest_checkpoint(query_key, query.to_dict()) is None


# --------------------------------------------------------------------------- #
# Plan artifacts: store / serve serialized repro-plan/1 payloads
# --------------------------------------------------------------------------- #
def _plan_artifact():
    body = {"schema": "repro-plan/1", "values": [], "nodes": [],
            "batch": 2}
    body["digest"] = api.payload_digest(body)
    return body


class TestPlanArtifacts:
    def test_put_get_round_trip(self, store):
        payload = _plan_artifact()
        assert store.get_plan("a" * 64) is None        # miss first
        store.put_plan("a" * 64, payload)
        assert store.get_plan("a" * 64) == payload
        stats = store.stats()
        assert stats.plans == 1
        assert stats.hits >= 1 and stats.writes >= 1

    def test_damaged_artifact_is_a_warned_miss(self, store):
        payload = _plan_artifact()
        payload["digest"] = "0" * 64
        store.put_plan("a" * 64, payload)
        with pytest.warns(api.CacheIntegrityWarning, match="digest"):
            assert store.get_plan("a" * 64) is None

    def test_non_plan_schema_is_a_warned_miss(self, store):
        store.put_plan("a" * 64, {"schema": "repro-job/1"})
        with pytest.warns(api.CacheIntegrityWarning, match="schema"):
            assert store.get_plan("a" * 64) is None

    def test_non_utf8_artifact_is_a_warned_miss(self, tmp_path):
        store = api.FileReportCache(tmp_path / "cache")
        store.put_plan("a" * 64, _plan_artifact())
        with open(store._plan_path("a" * 64), "r+b") as f:
            f.write(b"\xff\xfe")
        with pytest.warns(api.CacheIntegrityWarning, match="unreadable"):
            assert store.get_plan("a" * 64) is None
        assert store.stats().misses == 1

    def test_gc_clear_removes_plans(self, store):
        store.put_plan("a" * 64, _plan_artifact())
        store.gc(clear=True)
        assert store.stats().plans == 0
        assert store.get_plan("a" * 64) is None

    def test_gc_max_entries_leaves_plans_alone(self, store, report_and_key):
        report, key = report_and_key
        store.put(key, report)
        store.put_plan("a" * 64, _plan_artifact())
        assert store.gc(max_entries=0) == 1
        assert store.get_plan("a" * 64) is not None

    def test_put_plan_rejects_non_mappings(self, store):
        with pytest.raises(TypeError, match="mapping"):
            store.put_plan("a" * 64, "not a mapping")


# --------------------------------------------------------------------------- #
# Corrupt entries: warning + miss, never a crash
# --------------------------------------------------------------------------- #
class TestCorruptEntries:
    @pytest.fixture
    def populated(self, tmp_path, report_and_key):
        store = api.FileReportCache(tmp_path / "cache")
        report, key = report_and_key
        store.put(key, report)
        path = store._entry_path(key.combined)
        assert os.path.exists(path)
        return store, key, path

    def _assert_warned_miss(self, store, key):
        with pytest.warns(api.CacheIntegrityWarning):
            assert store.get(key) is None
        assert store.stats().misses >= 1

    def test_truncated_json_is_a_warned_miss(self, populated):
        store, key, path = populated
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        with open(path, "w", encoding="utf-8") as f:
            f.write(text[:len(text) // 2])
        self._assert_warned_miss(store, key)

    def test_bad_digest_is_a_warned_miss(self, populated):
        store, key, path = populated
        with open(path, "r", encoding="utf-8") as f:
            entry = json.load(f)
        entry["report"]["cost"]["params"] = -1.0  # tamper past the digest
        with open(path, "w", encoding="utf-8") as f:
            json.dump(entry, f)
        self._assert_warned_miss(store, key)

    def test_unknown_schema_version_is_a_warned_miss(self, populated):
        store, key, path = populated
        with open(path, "r", encoding="utf-8") as f:
            entry = json.load(f)
        entry["schema"] = "repro-cache-entry/99"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(entry, f)
        self._assert_warned_miss(store, key)

    def test_corrupt_entries_never_seed_warm_starts(self, populated):
        store, key, path = populated
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json")
        query = cost_spec(config=api.MagnitudeSpec(prune_ratio=0.4))
        query_key = api.CacheKey(method=key.method, spec=query.digest(),
                                 model=key.model, data=key.data)
        assert store.nearest_checkpoint(query_key, query.to_dict()) is None

    def test_non_utf8_entry_is_a_warned_miss_everywhere(self, populated):
        store, key, path = populated
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(b"\xff\xfe" + data)
        self._assert_warned_miss(store, key)
        with pytest.warns(api.CacheIntegrityWarning, match="unreadable"):
            assert store.entry(key) is None
        query = cost_spec(config=api.MagnitudeSpec(prune_ratio=0.4))
        query_key = api.CacheKey(method=key.method, spec=query.digest(),
                                 model=key.model, data=key.data)
        with pytest.warns(api.CacheIntegrityWarning, match="unreadable"):
            assert store.nearest_checkpoint(query_key, query.to_dict()) is None
        with pytest.warns(api.CacheIntegrityWarning, match="unreadable"):
            assert store.gc(max_entries=1) == 0

    def test_truncated_checkpoint_is_a_warned_miss(self, tmp_path,
                                                   report_and_key):
        store = api.FileReportCache(tmp_path / "cache")
        report, key = report_and_key
        store.put(key, report,
                  checkpoint=report.compressed.model.state_dict())
        path = os.path.join(store.root, "checkpoints", f"{key.combined}.npz")
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data[:len(data) // 2])
        with pytest.warns(api.CacheIntegrityWarning):
            assert store.checkpoint(key) is None
        query = cost_spec(config=api.MagnitudeSpec(prune_ratio=0.4))
        query_key = api.CacheKey(method=key.method, spec=query.digest(),
                                 model=key.model, data=key.data)
        with pytest.warns(api.CacheIntegrityWarning):
            assert store.nearest_checkpoint(query_key, query.to_dict()) is None

    def test_decode_error_reasons_are_specific(self):
        with pytest.raises(CacheEntryError, match="unreadable"):
            api.ReportCache._decode("{truncated")
        with pytest.raises(CacheEntryError, match="schema"):
            api.ReportCache._decode(json.dumps({"schema": "bogus/1"}))
        with pytest.raises(CacheEntryError, match="digest"):
            api.ReportCache._decode(json.dumps(
                {"schema": api.CACHE_ENTRY_SCHEMA, "report": {"a": 1},
                 "report_digest": "0" * 64}))


# --------------------------------------------------------------------------- #
# Session integration: replay, policy knob, write-back
# --------------------------------------------------------------------------- #
class TestSessionCacheReplay:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_hit_is_bit_identical_on_every_executor(self, executor):
        # Profile seconds are wall-clock and non-deterministic, so the
        # bit-identity contract is pinned on profile=False specs.
        specs = [cost_spec(),
                 cost_spec(method="lowrank", config=api.LowRankSpec(
                     rank_fraction=0.4))]
        reference = run_cached_sweep(None, specs=specs)
        cache = api.MemoryReportCache()
        first = run_cached_sweep(cache, specs=specs, executor=executor,
                                 max_workers=2)
        replay = run_cached_sweep(cache, specs=specs)
        assert cache.stats().hits == len(specs)
        for fresh, ref, hit in zip(first.reports, reference.reports,
                                   replay.reports):
            assert fresh.to_dict() == ref.to_dict()
            assert hit.to_dict() == ref.to_dict()

    def test_cached_event_replaces_scheduled_and_completed(self):
        cache = api.MemoryReportCache()
        run_cached_sweep(cache)
        events = []
        with api.SweepSession(model="lenet", hardware=api.EYERISS_PAPER,
                              input_shape=INPUT_SHAPE, cache=cache) as s:
            s.add_progress_callback(lambda e: events.append(e.kind))
            future = s.submit(cost_spec())
            report = future.result()
        assert future.cached is True
        assert events == ["submitted", "cached"]
        assert report.dense is s.dense  # rebound onto the session baseline

    def test_policy_off_never_touches_the_store(self):
        cache = api.MemoryReportCache()
        run_cached_sweep((cache, "off"))
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.writes) == (0, 0, 0)

    def test_policy_read_never_writes(self):
        cache = api.MemoryReportCache()
        run_cached_sweep((cache, "read"))
        stats = cache.stats()
        assert stats.writes == 0
        assert stats.misses == 1

    def test_policy_write_never_reads(self):
        cache = api.MemoryReportCache()
        run_cached_sweep(cache)
        assert len(cache) == 1
        run_cached_sweep((cache, "write"))
        stats = cache.stats()
        assert stats.hits == 0      # the stored entry was not consulted
        assert stats.writes == 2    # ... but the fresh report was written

    def test_remote_results_are_written_back(self):
        cache = api.MemoryReportCache()
        run_cached_sweep(cache, executor="remote", max_workers=1)
        assert cache.stats().writes == 1
        replay = run_cached_sweep(cache)
        assert cache.stats().hits == 1
        assert replay.reports[0].method == "magnitude"

    def test_template_loaders_disable_caching_with_warning(self, dataset):
        cache = api.MemoryReportCache()
        train, val = dataset.split(0.8)
        loaders = (DataLoader(train, batch_size=16, shuffle=True, seed=0),
                   DataLoader(val, batch_size=32))
        with pytest.warns(api.CacheIntegrityWarning, match="canonical"):
            run_cached_sweep(cache, data=loaders)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.writes) == (0, 0, 0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="cache policy"):
            api.resolve_cache("sometimes")
        with pytest.raises(TypeError):
            api.resolve_cache(42)

    def test_off_pair_resolves_to_no_store(self):
        # Same as cache="off": an off session never hashes its model.
        assert api.resolve_cache((api.MemoryReportCache(), "off")) == \
            (None, "off")

    def test_env_var_selects_the_default_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv(api.CACHE_ENV_VAR, str(tmp_path / "envcache"))
        run_cached_sweep("readwrite")
        store = api.default_cache()
        assert store.root == str(tmp_path / "envcache")
        assert len(store) == 1

    def test_populate_then_hit_across_processes(self, tmp_path):
        """The CI cache job's contract: second run over the same
        REPRO_CACHE_DIR takes the hit path.  Locally (no REPRO_CACHE_DIR)
        both phases run here against a temp dir."""
        expect_hit = os.environ.get("REPRO_CACHE_EXPECT_HIT") == "1"
        env_root = os.environ.get(api.CACHE_ENV_VAR)
        root = env_root if env_root else str(tmp_path / "cache")
        store = api.FileReportCache(root)
        if env_root is None:
            run_cached_sweep(store)  # local populate phase
        elif not expect_hit:
            run_cached_sweep(store)  # CI populate run
            return
        with api.SweepSession(model="lenet", hardware=api.EYERISS_PAPER,
                              input_shape=INPUT_SHAPE, cache=store) as s:
            future = s.submit(cost_spec())
            future.result()
        assert future.cached is True


class TestWarmStart:
    def _trained_spec(self, ratio):
        return api.CompressionSpec(
            method="magnitude", config=api.MagnitudeSpec(prune_ratio=ratio),
            epochs=1, input_shape=INPUT_SHAPE)

    def test_near_miss_seeds_and_records_provenance(self, dataset):
        cache = api.MemoryReportCache()
        with api.SweepSession(model="lenet", data=dataset, hardware=None,
                              input_shape=INPUT_SHAPE, cache=cache) as s:
            s.submit(self._trained_spec(0.3)).result()
        assert cache.stats().checkpoints == 1
        with api.SweepSession(model="lenet", data=dataset, hardware=None,
                              input_shape=INPUT_SHAPE, cache=cache) as s:
            future = s.submit(self._trained_spec(0.5))
            report = future.result()
        assert future.cached is False
        assert future.warm_source is not None
        assert report.accuracy is not None
        # The warm run's own entry records where its seed came from.
        entry = cache.entry(future._cache_key)
        assert entry["warm_source"] == future.warm_source

    def test_warm_accuracy_matches_from_dense_within_tolerance(self, dataset):
        """A warm-started near-miss lands where the cold run lands."""
        cache = api.MemoryReportCache()
        with api.SweepSession(model="lenet", data=dataset, hardware=None,
                              input_shape=INPUT_SHAPE, cache=cache) as s:
            s.submit(self._trained_spec(0.3)).result()
        cold = api.run_sweep([self._trained_spec(0.5)], model="lenet",
                             data=dataset, hardware=None,
                             input_shape=INPUT_SHAPE).reports[0]
        warm = api.run_sweep([self._trained_spec(0.5)], model="lenet",
                             data=dataset, hardware=None,
                             input_shape=INPUT_SHAPE,
                             cache=(cache, "read")).reports[0]
        assert abs(warm.accuracy - cold.accuracy) <= 0.25
        # Same compressed structure either way.
        assert warm.cost == cold.cost

    def test_warm_start_disabled_by_knob(self, dataset):
        cache = api.MemoryReportCache()
        with api.SweepSession(model="lenet", data=dataset, hardware=None,
                              input_shape=INPUT_SHAPE, cache=cache) as s:
            s.submit(self._trained_spec(0.3)).result()
        with api.SweepSession(model="lenet", data=dataset, hardware=None,
                              input_shape=INPUT_SHAPE, cache=cache,
                              warm_start=False) as s:
            future = s.submit(self._trained_spec(0.5))
            future.result()
        assert future.warm_source is None

    def test_untrained_specs_store_no_checkpoint(self):
        cache = api.MemoryReportCache()
        run_cached_sweep(cache)  # epochs=0
        assert cache.stats().checkpoints == 0
        assert len(cache) == 1

    def test_strict_state_matching_rejects_mismatches(self):
        from repro.api.adapters import _load_matching_state
        model = build_model("lenet", rng=np.random.default_rng(0))
        state = model.state_dict()
        twin = build_model("lenet", rng=np.random.default_rng(7))
        assert _load_matching_state(twin, state) is True
        assert api.model_digest(twin) == api.model_digest(model)
        # Missing parameter → rejected, nothing touched.
        partial = dict(state)
        partial.pop(next(iter(k for k in partial
                              if not k.startswith("buffer:"))))
        fresh = build_model("lenet", rng=np.random.default_rng(7))
        before = api.model_digest(fresh)
        assert _load_matching_state(fresh, partial) is False
        assert api.model_digest(fresh) == before
        # Shape mismatch → rejected.
        wrong = {k: (np.zeros((2, 2)) if i == 0 else v)
                 for i, (k, v) in enumerate(state.items())}
        assert _load_matching_state(fresh, wrong) is False


# --------------------------------------------------------------------------- #
# CLI maintenance surface
# --------------------------------------------------------------------------- #
class TestCacheCLI:
    def _run(self, *argv, check=True):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.api.cache", *argv],
            env=env, capture_output=True, text=True)
        if check:
            assert proc.returncode == 0, proc.stderr
        return proc

    @pytest.fixture
    def populated_root(self, tmp_path, report_and_key):
        store = api.FileReportCache(tmp_path / "cache")
        report, key = report_and_key
        store.put(key, report,
                  checkpoint=report.compressed.model.state_dict())
        other = api.CacheKey(method=key.method, spec="0" * 64,
                             model=key.model, data=key.data)
        store.put(other, report)
        return store.root

    def test_stats_prints_json(self, populated_root):
        proc = self._run("--dir", populated_root, "stats")
        payload = json.loads(proc.stdout)
        assert payload["root"] == populated_root
        assert payload["entries"] == 2
        assert payload["checkpoints"] == 1
        assert payload["plans"] == 0
        assert payload["total_bytes"] > 0

    def test_gc_max_entries_and_clear(self, populated_root):
        proc = self._run("--dir", populated_root, "gc", "--max-entries", "1")
        assert "removed 1 entry" in proc.stdout
        proc = self._run("--dir", populated_root, "gc", "--clear")
        assert "removed 1 entry" in proc.stdout
        stats = api.FileReportCache(populated_root).stats()
        assert (stats.entries, stats.checkpoints) == (0, 0)

    def test_gc_without_arguments_errors(self, tmp_path):
        proc = self._run("--dir", str(tmp_path), "gc", check=False)
        assert proc.returncode != 0
        assert "--max-entries or --clear" in proc.stderr
