"""The persistent result cache: keys, round-trips, and radius queries."""

import json
import os

import numpy as np
import pytest

from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy, LinearPolicy
from repro.core.property import RobustnessProperty, linf_property
from repro.core.results import Falsified, Timeout, Verified, VerificationStats
from repro.nn.builders import mlp, xor_network
from repro.nn.serialize import network_digest
from repro.sched import (
    CacheRecord,
    ResultCache,
    Scheduler,
    VerificationJob,
    config_digest,
    job_key,
    point_digest,
    policy_digest,
    property_digest,
)
from repro.utils.boxes import Box


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _prop(label=1):
    return RobustnessProperty(
        Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), label
    )


class TestDigests:
    def test_network_digest_stable_and_sensitive(self):
        a = mlp(4, [8], 3, rng=0)
        b = mlp(4, [8], 3, rng=0)
        c = mlp(4, [8], 3, rng=1)
        assert network_digest(a) == network_digest(b)
        assert network_digest(a) != network_digest(c)

    def test_network_digest_survives_roundtrip(self, tmp_path):
        from repro.nn.serialize import load_network, save_network

        net = mlp(4, [8], 3, rng=0)
        save_network(net, tmp_path / "net.npz")
        assert network_digest(load_network(tmp_path / "net.npz")) == network_digest(net)

    def test_property_digest_sensitive_to_region_and_label(self):
        base = _prop()
        assert property_digest(base) == property_digest(_prop())
        assert property_digest(base) != property_digest(_prop(label=0))
        moved = RobustnessProperty(
            Box(np.array([0.3, 0.3]), np.array([0.7, 0.71])), 1
        )
        assert property_digest(base) != property_digest(moved)

    def test_config_digest_ignores_timeout_only(self):
        base = VerifierConfig(timeout=1.0)
        assert config_digest(base) == config_digest(VerifierConfig(timeout=99.0))
        assert config_digest(base) != config_digest(VerifierConfig(delta=0.5))
        assert config_digest(base) != config_digest(VerifierConfig(batch_size=4))

    def test_policy_digest_covers_parameters(self):
        learned = LinearPolicy.default()
        perturbed = LinearPolicy(learned.theta + 1e-9)
        assert policy_digest(learned) == policy_digest(LinearPolicy.default())
        assert policy_digest(learned) != policy_digest(perturbed)
        assert policy_digest(BisectionPolicy()) != policy_digest(
            BisectionPolicy(split="influence")
        )

    def test_job_key_sensitive_to_seed(self):
        net_digest = network_digest(xor_network())
        config = VerifierConfig()
        policy = BisectionPolicy()
        a = job_key(net_digest, _prop(), config, policy, seed=0)
        b = job_key(net_digest, _prop(), config, policy, seed=1)
        assert a != b

    def test_job_key_sensitive_to_backend(self):
        net_digest = network_digest(xor_network())
        config = VerifierConfig()
        policy = BisectionPolicy()
        ref = job_key(net_digest, _prop(), config, policy, seed=0)
        f32 = job_key(
            net_digest, _prop(), config, policy, seed=0, backend="numpy32"
        )
        assert ref != f32
        # The reference backend keeps its historical (pre-backend) keys,
        # so existing caches stay warm.
        assert ref == job_key(
            net_digest, _prop(), config, policy, seed=0, backend="numpy64"
        )


class TestRecordRoundtrip:
    def test_falsified_roundtrip(self, cache):
        stats = VerificationStats(pgd_calls=3, analyze_calls=2, splits=1)
        stats.record_domain("Z")
        witness = np.array([0.25, 0.75])
        record = CacheRecord.from_outcome(
            Falsified(witness, -0.125, stats), "netdigest", 1, {"epsilon": 0.1}
        )
        cache.put("k" * 64, record)
        loaded = cache.get("k" * 64)
        outcome = loaded.to_outcome()
        assert outcome.kind == "falsified"
        np.testing.assert_array_equal(outcome.counterexample, witness)
        assert outcome.margin == -0.125
        assert outcome.stats.pgd_calls == 3
        assert outcome.stats.domains_used == stats.domains_used
        assert outcome.stats.time_seconds == 0.0  # hits spend no time
        assert loaded.metadata == {"epsilon": 0.1}

    def test_verified_roundtrip(self, cache):
        record = CacheRecord.from_outcome(
            Verified(VerificationStats(analyze_calls=5)), "d", 0
        )
        cache.put("v" * 64, record)
        assert cache.get("v" * 64).to_outcome().kind == "verified"

    def test_timeouts_are_not_cacheable(self):
        with pytest.raises(ValueError, match="cache"):
            CacheRecord.from_outcome(
                Timeout("wall clock", VerificationStats()), "d", 0
            )

    def test_missing_key_is_none(self, cache):
        assert cache.get("0" * 64) is None

    def test_corrupt_entry_is_a_miss(self, cache):
        cache.put("c" * 64, CacheRecord.from_outcome(
            Verified(VerificationStats()), "d", 0
        ))
        path = cache._path("c" * 64)
        path.write_text("{not json")
        assert cache.get("c" * 64) is None

    def test_len_counts_entries(self, cache):
        assert len(cache) == 0
        record = CacheRecord.from_outcome(Verified(VerificationStats()), "d", 0)
        cache.put("a" * 64, record)
        cache.put("b" * 64, record)
        assert len(cache) == 2

    def test_entries_are_valid_json_files(self, cache):
        cache.put("e" * 64, CacheRecord.from_outcome(
            Verified(VerificationStats()), "d", 0
        ))
        payload = json.loads(cache._path("e" * 64).read_text())
        assert payload["kind"] == "verified"


class TestSchedulerIntegration:
    def test_second_run_is_served_from_cache(self, cache):
        net = mlp(4, [12, 12], 3, rng=5)
        config = VerifierConfig(timeout=20.0, batch_size=8)
        rng = np.random.default_rng(3)
        jobs = []
        for i in range(4):
            center = rng.uniform(0.2, 0.8, 4)
            prop = linf_property(net, center, 0.2, name=f"p{i}")
            jobs.append(
                VerificationJob(net, prop, config=config, seed=0, name=prop.name)
            )
        first = Scheduler(jobs, cache=cache).run()
        decided = [
            r for r in first.results
            if r.outcome.kind in ("verified", "falsified")
        ]
        assert decided
        second = Scheduler(jobs, cache=cache).run()
        assert second.cache_hits == len(decided)
        if len(decided) == len(jobs):
            assert second.sweeps == 0
            assert second.fresh_calls() == 0
        for a, b in zip(first.results, second.results):
            assert a.outcome.kind == b.outcome.kind
            if a.outcome.kind == "falsified":
                np.testing.assert_array_equal(
                    a.outcome.counterexample, b.outcome.counterexample
                )

    def test_different_seed_misses(self, cache):
        net = xor_network()
        prop = _prop()
        config = VerifierConfig(timeout=10.0)
        job_a = VerificationJob(net, prop, config=config, seed=0)
        Scheduler([job_a], cache=cache).run()
        job_b = VerificationJob(net, prop, config=config, seed=1)
        report = Scheduler([job_b], cache=cache).run()
        assert report.cache_hits == 0

    def test_retrained_network_misses(self, cache):
        config = VerifierConfig(timeout=10.0)
        prop_region = Box(np.full(4, 0.4), np.full(4, 0.6))
        net_a = mlp(4, [8], 3, rng=0)
        net_b = mlp(4, [8], 3, rng=7)
        prop_a = RobustnessProperty(prop_region, net_a.classify(prop_region.center))
        Scheduler(
            [VerificationJob(net_a, prop_a, config=config)], cache=cache
        ).run()
        prop_b = RobustnessProperty(prop_region, prop_a.label)
        report = Scheduler(
            [VerificationJob(net_b, prop_b, config=config)], cache=cache
        ).run()
        assert report.cache_hits == 0


class TestRadiusQueries:
    def test_bounds_fold_over_cached_entries(self, cache):
        net = xor_network()
        center = np.array([0.5, 0.5])
        digest = network_digest(net)
        config = VerifierConfig(timeout=10.0)
        jobs = []
        for epsilon in (0.02, 0.05, 0.3, 0.45):
            prop = linf_property(net, center, epsilon, name=f"eps-{epsilon}")
            jobs.append(
                VerificationJob(
                    net, prop, config=config, seed=0, name=prop.name,
                    metadata={
                        "center_digest": point_digest(center),
                        "epsilon": epsilon,
                    },
                )
            )
        report = Scheduler(jobs, cache=cache).run()
        kinds = {
            job.metadata["epsilon"]: result.outcome.kind
            for job, result in zip(jobs, report.results)
        }
        certified, falsified = cache.radius_bounds(net, center)
        verified_eps = [e for e, k in kinds.items() if k == "verified"]
        falsified_eps = [e for e, k in kinds.items() if k == "falsified"]
        assert verified_eps and falsified_eps  # the bracket is real
        assert certified == max(verified_eps)
        assert falsified == min(falsified_eps)
        assert certified < falsified

    def test_unknown_center_has_trivial_bounds(self, cache):
        net = xor_network()
        certified, falsified = cache.radius_bounds(net, np.array([0.1, 0.9]))
        assert certified == 0.0
        assert falsified == float("inf")

    def test_accepts_precomputed_digest(self, cache):
        certified, falsified = cache.radius_bounds("deadbeef", np.zeros(2))
        assert (certified, falsified) == (0.0, float("inf"))


class TestEviction:
    def _fill(self, cache, count):
        """Store ``count`` records under distinct synthetic keys."""
        record = CacheRecord(kind="verified", stats={"pgd_calls": 1})
        keys = [f"{i:02x}" + "0" * 62 for i in range(count)]
        for key in keys:
            cache.put(key, record)
        return keys

    def test_prune_by_entries_removes_oldest_first(self, tmp_path):
        import os

        cache = ResultCache(tmp_path / "c")
        keys = self._fill(cache, 5)
        # Age the first three records; recency is mtime.
        for i, key in enumerate(keys[:3]):
            os.utime(cache._path(key), (1000.0 + i, 1000.0 + i))
        result = cache.prune(max_entries=3)
        assert result.removed == 2
        assert result.remaining == 3
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1]) is None
        for key in keys[2:]:
            assert cache.get(key) is not None

    def test_prune_by_bytes(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        self._fill(cache, 4)
        sizes = [size for _, _, size in cache._entries()]
        budget = sum(sizes) - 1  # force exactly one eviction
        result = cache.prune(max_bytes=budget)
        assert result.removed == 1
        assert result.remaining_bytes <= budget
        assert len(cache) == 3

    def test_get_refreshes_recency(self, tmp_path):
        import os

        cache = ResultCache(tmp_path / "c")
        keys = self._fill(cache, 3)
        for i, key in enumerate(keys):
            os.utime(cache._path(key), (1000.0 + i, 1000.0 + i))
        # Serving the oldest record must rescue it from the next prune.
        assert cache.get(keys[0]) is not None
        result = cache.prune(max_entries=1)
        assert result.remaining == 1
        assert cache.get(keys[0]) is not None

    def test_budgeted_put_keeps_cache_within_limits(self, tmp_path):
        import os

        cache = ResultCache(tmp_path / "c", max_entries=3)
        record = CacheRecord(kind="verified")
        for i in range(6):
            key = f"{i:02x}" + "f" * 62
            cache.put(key, record)
            # Distinct mtimes make the LRU order deterministic even on
            # coarse filesystem timestamp granularity.
            os.utime(cache._path(key), (2000.0 + i, 2000.0 + i))
        # Put-triggered prunes evict to 7/8 of the budget (hysteresis),
        # so the directory never exceeds the budget but may sit below it.
        assert 1 <= len(cache) <= 3

    def test_unbudgeted_prune_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        self._fill(cache, 3)
        result = cache.prune()
        assert result.removed == 0
        assert result.remaining == 3

    def test_budget_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path / "c", max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(tmp_path / "c", max_bytes=0)

    def test_prune_rejects_zero_budget(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        self._fill(cache, 2)
        with pytest.raises(ValueError):
            cache.prune(max_entries=0)
        with pytest.raises(ValueError):
            cache.prune(max_bytes=0)
        assert len(cache) == 2  # nothing was wiped

    def test_same_timestamp_eviction_is_deterministic(self, tmp_path):
        """Records written within one timestamp evict in path order.

        ``st_mtime`` is seconds-granularity on some filesystems, so a
        burst of puts can share a timestamp; recency must fall back to a
        stable tiebreak, not directory-iteration order.
        """
        import os

        def survivors(root):
            cache = ResultCache(root)
            keys = self._fill(cache, 6)
            # Forge identical nanosecond mtimes for every record: the
            # worst case a coarse-timestamp filesystem can produce.
            for key in keys:
                os.utime(cache._path(key), ns=(10**12, 10**12))
            result = cache.prune(max_entries=3)
            assert result.removed == 3
            return keys, {key for key in keys if cache.get(key) is not None}

        keys_a, first = survivors(tmp_path / "a")
        keys_b, second = survivors(tmp_path / "b")
        assert first == second  # deterministic, not iteration-order luck
        # The stable tiebreak is the record path, so the lexicographically
        # largest keys survive a same-timestamp prune.
        assert first == set(sorted(keys_a)[3:])

    def test_nanosecond_recency_orders_same_second_writes(self, tmp_path):
        """Sub-second mtime differences must drive LRU order."""
        import os

        cache = ResultCache(tmp_path / "c")
        keys = self._fill(cache, 3)
        base = 5 * 10**11
        # All three records share the same whole second; only the
        # nanosecond part differs — newest first in key order.
        for i, key in enumerate(keys):
            os.utime(cache._path(key), ns=(base - i, base - i))
        result = cache.prune(max_entries=1)
        assert result.remaining == 1
        assert cache.get(keys[0]) is not None  # largest mtime_ns survives
        assert cache.get(keys[1]) is None
        assert cache.get(keys[2]) is None

    def test_shared_directory_estimate_rescan(self, tmp_path):
        """A budgeted instance must notice records another process wrote.

        The in-memory size estimate counts only this instance's own
        puts; before the periodic re-scan, a second writer sharing the
        directory could grow it far past budget without the budgeted
        instance ever noticing (its own counter never crosses).
        """
        record = CacheRecord(kind="verified", stats={"pgd_calls": 1})
        shared = tmp_path / "c"
        budgeted = ResultCache(shared, max_entries=6, estimate_refresh=2)
        other = ResultCache(shared)  # e.g. another scheduler process
        # Initialize the budgeted instance's estimate with two puts...
        for i in range(2):
            budgeted.put(f"{i:02x}" + "a" * 62, record)
        # ...then let the other process flood the directory.
        for i in range(20):
            other.put(f"{i:02x}" + "b" * 62, record)
        assert len(budgeted._entries()) == 22
        # Four more own puts: the budgeted instance's own counter (6)
        # never crosses the budget, but the every-2-puts re-scan sees the
        # other writer's 20 records and prunes the shared directory.
        for i in range(2, 6):
            budgeted.put(f"{i:02x}" + "a" * 62, record)
        assert len(budgeted._entries()) <= 6

    def test_estimate_refresh_validation(self, tmp_path):
        with pytest.raises(ValueError, match="estimate_refresh"):
            ResultCache(tmp_path / "c", estimate_refresh=0)


class TestRadiusTable:
    def test_one_scan_serves_many_centers(self, cache):
        net = xor_network()
        digest = network_digest(net)
        centers = [np.array([0.1, 0.2]), np.array([0.7, 0.8])]
        for i, (center, eps, kind) in enumerate(
            [(centers[0], 0.05, "verified"), (centers[0], 0.2, "falsified"),
             (centers[1], 0.1, "verified")]
        ):
            record = CacheRecord(
                kind=kind,
                margin=-1.0 if kind == "falsified" else None,
                counterexample=[0.0, 0.0] if kind == "falsified" else None,
                network_digest=digest,
                metadata={"center_digest": point_digest(center),
                          "epsilon": eps},
            )
            cache.put(f"{i:02x}" + "a" * 62, record)
        table = cache.radius_table(net)
        assert table[point_digest(centers[0])] == (0.05, 0.2)
        assert table[point_digest(centers[1])] == (0.1, float("inf"))
        # The single-center wrapper agrees with the table.
        assert cache.radius_bounds(net, centers[0]) == (0.05, 0.2)
        assert cache.radius_bounds(net, np.array([0.5, 0.5])) == (
            0.0, float("inf")
        )


class TestPrefixFamily:
    """PrefixRecord files: family counts, shared budgets, LRU mixing."""

    def _prefix_record(self, i, height=2):
        from repro.abstract.checkpoint import PrefixBounds

        return PrefixBounds(
            boundary=2,
            op_count=2,
            prefix_digest=f"prefix-{i}",
            regions_digest=f"regions-{i}",
            domain=("interval", 1),
            backend="numpy64",
            kind="interval_batch",
            meta=None,
            arrays={
                "low": np.zeros((height, 3)),
                "high": np.ones((height, 3)),
            },
        )

    def _prefix_path(self, cache, record):
        from repro.sched.cache import prefix_key

        return cache._prefix_path(
            prefix_key(
                record.prefix_digest,
                record.regions_digest,
                record.domain[0],
                record.domain[1],
                record.backend,
            )
        )

    def test_family_counts_and_len_cover_both(self, cache):
        record = CacheRecord(kind="verified", stats={})
        cache.put("aa" + "0" * 62, record)
        cache.put("bb" + "0" * 62, record)
        cache.put_prefix(self._prefix_record(0))
        assert cache.family_counts() == (2, 1)
        assert len(cache) == 3

    def test_mixed_family_eviction_is_deterministic(self, tmp_path):
        import os

        def build(root):
            cache = ResultCache(root)
            result = CacheRecord(kind="verified", stats={})
            aged = []
            for i in range(3):
                key = f"{i:02x}" + "0" * 62
                cache.put(key, result)
                aged.append(cache._path(key))
            for i in range(3):
                record = self._prefix_record(i)
                cache.put_prefix(record)
                aged.append(self._prefix_path(cache, record))
            # Interleave the families in age: result, prefix, result, ...
            order = [aged[0], aged[3], aged[1], aged[4], aged[2], aged[5]]
            for age, path in enumerate(order):
                os.utime(path, (1000.0 + age, 1000.0 + age))
            return cache, order

        cache_a, order_a = build(tmp_path / "a")
        cache_b, order_b = build(tmp_path / "b")
        for cache, order in ((cache_a, order_a), (cache_b, order_b)):
            result = cache.prune(max_entries=3)
            assert result.removed == 3
            # Oldest three go, regardless of family: one result record
            # and one prefix record each survive alongside the newest.
            assert [p.exists() for p in order] == [
                False, False, False, True, True, True
            ]
        assert cache_a.family_counts() == cache_b.family_counts() == (1, 2)

    def test_prefix_put_respects_entry_budget(self, tmp_path):
        cache = ResultCache(tmp_path / "c", max_entries=4)
        for i in range(10):
            cache.put_prefix(self._prefix_record(i))
        assert len(cache) <= 4

    def test_prefix_hit_refreshes_recency(self, tmp_path):
        import os

        cache = ResultCache(tmp_path / "c")
        records = [self._prefix_record(i) for i in range(3)]
        for record in records:
            cache.put_prefix(record)
        for i, record in enumerate(records):
            os.utime(self._prefix_path(cache, record), (1000.0 + i, 1000.0 + i))
        # Serving the oldest must rescue it from the next prune.
        assert cache.get_prefix(
            records[0].prefix_digest,
            records[0].regions_digest,
            records[0].domain,
            records[0].backend,
        ) is not None
        cache.prune(max_entries=1)
        assert self._prefix_path(cache, records[0]).exists()
        assert not self._prefix_path(cache, records[1]).exists()

    def test_corrupt_prefix_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        record = self._prefix_record(0)
        cache.put_prefix(record)
        self._prefix_path(cache, record).write_bytes(b"not an npz")
        assert cache.get_prefix(
            record.prefix_digest,
            record.regions_digest,
            record.domain,
            record.backend,
        ) is None


class TestLongestReusablePrefix:
    def test_fine_tune_finds_deepest_boundary(self, tmp_path):
        from repro.abstract.analyzer import analyze_batch_checkpointed
        from repro.abstract.checkpoint import checkpoint_boundaries
        from repro.abstract.domains import DEEPPOLY
        from repro.utils.boxes import Box

        net = mlp(4, [8, 6, 5], 3, rng=0)  # boundaries [2, 4, 6]
        regions = [
            Box.from_center_radius(np.full(4, 0.3), 0.05),
            Box.from_center_radius(np.full(4, -0.2), 0.05),
        ]
        cache = ResultCache(tmp_path / "c")
        _, captured = analyze_batch_checkpointed(
            net, regions, [0, 1], DEEPPOLY,
            capture_boundaries=checkpoint_boundaries(net),
        )
        for record in captured:
            cache.put_prefix(record)

        tuned = mlp(4, [8, 6, 5], 3, rng=0)
        tuned.layers[-1].weight += 1e-6  # only the output layer moved
        common, record = cache.longest_reusable_prefix(
            net, tuned, regions, DEEPPOLY
        )
        assert common == len(net.layers) - 1
        assert record is not None
        assert record.boundary == 6  # the deepest stored boundary

    def test_divergent_networks_reuse_nothing(self, tmp_path):
        from repro.abstract.domains import DEEPPOLY
        from repro.utils.boxes import Box

        cache = ResultCache(tmp_path / "c")
        net = mlp(4, [8], 3, rng=0)
        other = mlp(4, [8], 3, rng=5)
        regions = [Box.from_center_radius(np.full(4, 0.3), 0.05)]
        common, record = cache.longest_reusable_prefix(
            net, other, regions, DEEPPOLY
        )
        assert common == 0
        assert record is None


class TestFaultInjection:
    """Truncated or byte-flipped records of either family are misses (or,
    when the damage leaves a well-formed file, a decoded record) — never
    an exception out of ``get`` / ``get_prefix``."""

    DAMAGES = 150

    @staticmethod
    def _damaged(good: bytes, rng):
        """Seeded damage: a truncation (``True``) or 1–3 byte flips."""
        if rng.random() < 0.5:
            return True, good[: int(rng.integers(0, len(good)))]
        buf = bytearray(good)
        for _ in range(int(rng.integers(1, 4))):
            buf[int(rng.integers(len(buf)))] ^= int(rng.integers(1, 256))
        return False, bytes(buf)

    def test_result_records(self, cache):
        stats = VerificationStats(pgd_calls=2, analyze_calls=1)
        cache.put("f" * 64, CacheRecord.from_outcome(
            Falsified(np.array([0.25, 0.75]), -0.5, stats), "d", 1,
            {"epsilon": 0.1},
        ))
        path = cache._path("f" * 64)
        good = path.read_bytes()
        rng = np.random.default_rng(11)
        for _ in range(self.DAMAGES):
            truncated, data = self._damaged(good, rng)
            path.write_bytes(data)
            record = cache.get("f" * 64)
            if truncated:
                assert record is None
            else:
                assert record is None or isinstance(record, CacheRecord)

    def test_prefix_records(self, tmp_path):
        from repro.abstract.analyzer import analyze_batch_checkpointed
        from repro.abstract.checkpoint import PrefixBounds
        from repro.abstract.domains import DEEPPOLY
        from repro.sched.cache import prefix_key
        from repro.utils.boxes import Box

        net = mlp(4, [8, 6], 3, rng=0)
        regions = [Box.from_center_radius(np.full(4, 0.3), 0.05)]
        _, captured = analyze_batch_checkpointed(
            net, regions, [0], DEEPPOLY, capture_boundaries=[2]
        )
        (record,) = captured
        cache = ResultCache(tmp_path / "c")
        cache.put_prefix(record)
        probe = (
            record.prefix_digest,
            record.regions_digest,
            record.domain,
            record.backend,
        )
        path = cache._prefix_path(
            prefix_key(*probe[:2], *record.domain, record.backend)
        )
        good = path.read_bytes()
        rng = np.random.default_rng(12)
        for _ in range(self.DAMAGES):
            truncated, data = self._damaged(good, rng)
            path.write_bytes(data)
            loaded = cache.get_prefix(*probe)
            if truncated:
                assert loaded is None
            else:
                assert loaded is None or isinstance(loaded, PrefixBounds)
        path.write_bytes(good)
        assert cache.get_prefix(*probe) is not None


def _die_mid_prefix_put(directory, payload):
    """Child process: open a prefix record's temp file the way
    ``put_prefix`` does, write half the record, and die uncleanly."""
    from repro.sched.cache import _writer_temp

    fd, _ = _writer_temp(directory, ".tmp.npz")
    os.write(fd, payload[: len(payload) // 2])
    os._exit(0)


class TestKilledWriter:
    """A writer killed between writing its temp file and renaming it
    leaves the cache consistent, and ``prune`` reclaims the orphan."""

    def test_orphan_is_swept_and_records_survive(self, tmp_path):
        import multiprocessing

        from repro.abstract.analyzer import analyze_batch_checkpointed
        from repro.abstract.checkpoint import checkpoint_boundaries
        from repro.abstract.domains import DEEPPOLY
        from repro.sched.cache import _writer_temp, prefix_key

        net = mlp(4, [8, 6], 3, rng=0)
        regions = [Box.from_center_radius(np.full(4, 0.3), 0.05)]
        _, captured = analyze_batch_checkpointed(
            net, regions, [0], DEEPPOLY,
            capture_boundaries=checkpoint_boundaries(net),
        )
        cache = ResultCache(tmp_path / "c")
        for record in captured:
            cache.put_prefix(record)
        path = cache._prefix_path(prefix_key(
            captured[0].prefix_digest, captured[0].regions_digest,
            *captured[0].domain, captured[0].backend,
        ))
        child = multiprocessing.get_context("spawn").Process(
            target=_die_mid_prefix_put,
            args=(path.parent, path.read_bytes()),
        )
        child.start()
        child.join(60)
        assert child.exitcode == 0
        (orphan,) = path.parent.glob("tmp*.tmp.npz")
        assert orphan.name.startswith(f"tmp{child.pid}-")
        fd, live = _writer_temp(path.parent, ".tmp")  # this process: alive
        os.close(fd)

        # The half-written file is invisible: every record still loads
        # bit for bit, and the count sees records only.
        assert len(cache) == len(captured)
        for record in captured:
            loaded = cache.get_prefix(
                record.prefix_digest, record.regions_digest,
                record.domain, record.backend,
            )
            assert loaded is not None
            assert loaded.arrays.keys() == record.arrays.keys()
            for name, array in record.arrays.items():
                assert loaded.arrays[name].dtype == array.dtype
                assert loaded.arrays[name].tobytes() == array.tobytes()

        size = orphan.stat().st_size
        result = cache.prune()
        assert not orphan.exists()
        assert os.path.exists(live)
        assert result.removed == 0 and result.remaining == len(captured)
        assert result.freed_bytes == size > 0
        os.unlink(live)
