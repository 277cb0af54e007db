"""Core tests of the array-backend layer (:mod:`repro.backend`).

The named backends and active-backend management, the outward-rounding
helpers' containment guarantees, the per-dtype network lowering cache, and the
kernel-call descriptor round trip that carries a backend across the
process boundary.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro import backend
from repro.abstract.analyzer import analyze_batch_multi
from repro.abstract.domains import DomainSpec
from repro.exec.calls import (
    KernelCall,
    NetworkStore,
    marshal_call,
    run_kernel_call,
)
from repro.nn.builders import mlp
from repro.nn.network import AffineOp
from repro.utils.boxes import Box


class TestChoices:
    def test_choices_are_the_numpy_backends(self):
        assert backend.BACKEND_CHOICES == ("numpy64", "numpy32")

    def test_dtypes(self):
        dtypes = (np.float64, np.float32)
        for name, dtype in zip(backend.BACKEND_CHOICES, dtypes):
            with backend.use_backend(name) as chosen:
                assert chosen == backend.Backend(name, np.dtype(dtype))
                assert backend.active() is chosen

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown backend"):
            with backend.use_backend("numpy128"):
                pass
        assert backend.active().name == "numpy64"

    def test_backend_is_frozen(self):
        # A scope hands out the shared instance; nothing may retarget it.
        with backend.use_backend("numpy32") as chosen:
            with pytest.raises(dataclasses.FrozenInstanceError):
                chosen.dtype = np.dtype(np.float64)
        with backend.use_backend("numpy32") as again:
            assert again.dtype == np.float32


class TestActiveManagement:
    def test_default_is_numpy64(self):
        assert backend.active().name == "numpy64"

    def test_use_backend_nests(self):
        with backend.use_backend("numpy32"):
            assert backend.active().name == "numpy32"
            with backend.use_backend("numpy64"):
                assert backend.active().name == "numpy64"
            assert backend.active().name == "numpy32"
        assert backend.active().name == "numpy64"

    def test_use_backend_is_thread_local(self):
        seen = {}

        def probe():
            seen["name"] = backend.active().name

        with backend.use_backend("numpy32"):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["name"] == "numpy64"


class TestRoundingHelpers:
    def test_slack_zero_for_float64(self):
        assert backend.slack_for(np.float64, 10_000) == 0.0

    def test_slack_positive_and_monotone_for_float32(self):
        values = [backend.slack_for(np.float32, n) for n in (1, 10, 100, 1000)]
        assert all(v > 0.0 for v in values)
        assert values == sorted(values)

    def test_outward_cast_contains(self):
        rng = np.random.default_rng(0)
        low = rng.normal(scale=10.0, size=256)
        high = low + np.abs(rng.normal(scale=5.0, size=256))
        lo32, hi32 = backend.outward_cast(low, high, np.float32)
        assert lo32.dtype == np.float32
        assert np.all(lo32.astype(np.float64) <= low)
        assert np.all(hi32.astype(np.float64) >= high)

    def test_outward_cast_noop_for_float64(self):
        low = np.array([0.1, -0.2])
        high = np.array([0.3, 0.4])
        lo, hi = backend.outward_cast(low, high, np.float64)
        assert np.array_equal(lo, low) and np.array_equal(hi, high)

    def test_outward_center_radius_contains(self):
        rng = np.random.default_rng(1)
        center = rng.normal(scale=10.0, size=256)
        radius = np.abs(rng.normal(scale=2.0, size=256))
        c32, r32 = backend.outward_center_radius(center, radius, np.float32)
        c = c32.astype(np.float64)
        r = r32.astype(np.float64)
        assert np.all(c - r <= center - radius)
        assert np.all(c + r >= center + radius)


class TestOpsFor:
    def test_float64_is_reference_cache(self):
        net = mlp(4, [6], 3, rng=0)
        assert net.ops_for(np.float64) is net.ops()

    def test_float32_casts_affine_params(self):
        net = mlp(4, [6], 3, rng=0)
        ops32 = net.ops_for(np.float32)
        for op in ops32:
            if isinstance(op, AffineOp):
                assert op.weight.dtype == np.float32
                assert op.bias.dtype == np.float32
        assert net.ops_for(np.float32) is ops32  # cached

    def test_invalidate_drops_typed_cache(self):
        net = mlp(4, [6], 3, rng=0)
        ops32 = net.ops_for(np.float32)
        net.invalidate_ops()
        assert net.ops_for(np.float32) is not ops32


class TestCallDescriptors:
    def test_marshal_stamps_active_backend(self):
        net = mlp(4, [6], 3, rng=1)
        store = NetworkStore()
        try:
            regions = [Box(np.zeros(4), np.ones(4))]
            args = (net, regions, [0], DomainSpec("interval", 1), None)
            call64 = marshal_call(analyze_batch_multi, args, {}, store)
            assert call64.backend == "numpy64"
            with backend.use_backend("numpy32"):
                call32 = marshal_call(analyze_batch_multi, args, {}, store)
            assert call32.backend == "numpy32"

            # run_kernel_call re-enters the stamped backend: the worker-
            # side dispatch must reproduce an in-process numpy32 run.
            envelope = run_kernel_call(call32)
            with backend.use_backend("numpy32"):
                expected = analyze_batch_multi(*args)
            assert [r.margin_lower_bound for r in envelope.value] == [
                r.margin_lower_bound for r in expected
            ]
            assert any(
                name.startswith("kernel.by_backend.numpy32.")
                for name in envelope.counters
            )
        finally:
            store.close()

    def test_default_backend_field(self):
        call = KernelCall("m:f", b"")
        assert call.backend == "numpy64"
