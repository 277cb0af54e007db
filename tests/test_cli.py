"""Tests for the command-line interface."""

import json
import os

import numpy as np
import pytest

from repro import backend
from repro.attack.objective import MarginObjective
from repro.attack.pgd import PGDConfig
from repro.attack.search import find_counterexample
from repro.cli import main
from repro.core.config import VerifierConfig
from repro.core.property import RobustnessProperty, linf_property
from repro.nn.builders import mlp, redundant_mlp, xor_network
from repro.nn.serialize import load_network, save_network
from repro.obs.metrics import registry as metrics_registry
from repro.sched import Scheduler, VerificationJob
from repro.utils.boxes import Box


@pytest.fixture()
def xor_path(tmp_path):
    path = tmp_path / "xor.npz"
    save_network(xor_network(), path)
    return str(path)


class TestVerifyCommand:
    def test_verified_exit_zero(self, xor_path, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["verify", xor_path, "--center", "0.5,0.5", "--epsilon", "0.05"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verified" in out

    def test_falsified_exit_one_and_writes_witness(
        self, xor_path, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        # Around the decision boundary with a big radius: falsifiable.
        code = main(
            ["verify", xor_path, "--center", "0.5,0.9", "--epsilon", "0.5"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "falsified" in out
        witness = np.load(tmp_path / "counterexample.npy")
        assert witness.shape == (2,)

    def test_center_from_npy(self, xor_path, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        center = tmp_path / "center.npy"
        np.save(center, np.array([0.5, 0.5]))
        code = main(
            ["verify", xor_path, "--center", str(center), "--epsilon", "0.01"]
        )
        assert code == 0

    def test_dimension_mismatch_exits(self, xor_path):
        with pytest.raises(SystemExit, match="entries"):
            main(["verify", xor_path, "--center", "0.5", "--epsilon", "0.1"])


class TestScheduleCommand:
    @pytest.fixture()
    def manifest(self, xor_path, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "defaults": {"epsilon": 0.05, "timeout": 5.0},
            "jobs": [
                {"network": xor_path, "center": "0.5,0.5", "name": "safe"},
                {"network": xor_path, "center": "0.5,0.9", "epsilon": 0.5,
                 "name": "unsafe"},
                {"network": xor_path, "center": "0.2,0.2", "epsilon": 0.1,
                 "name": "wrong-label", "label": 0},
            ],
        }))
        return str(path)

    def test_runs_manifest_and_reports(self, manifest, capsys):
        code = main(["schedule", manifest])
        out = capsys.readouterr().out
        assert code == 1  # a falsified job exists
        assert "safe" in out and "unsafe" in out
        assert "verified" in out and "falsified" in out
        assert "fused sweeps" in out

    @pytest.mark.parametrize("verb", ["schedule", "diff-verify"])
    def test_job_order_is_not_a_flag(
        self, verb, xor_path, manifest, tmp_path, capsys
    ):
        # One fixed round order: a --frontier flag is an argparse error.
        args = {
            "schedule": [manifest],
            "diff-verify": [
                xor_path, xor_path, manifest, "--cache", str(tmp_path),
            ],
        }[verb]
        with pytest.raises(SystemExit) as exc:
            main([verb, *args, "--frontier", "dfs"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --frontier" in capsys.readouterr().err

    def test_cache_serves_second_run(self, manifest, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        main(["schedule", manifest, "--cache", cache_dir])
        capsys.readouterr()
        code = main(["schedule", manifest, "--cache", cache_dir])
        out = capsys.readouterr().out
        assert code == 1
        assert "cache: 3 hits" in out
        assert "[cached]" in out
        assert "0 fused sweeps" in out

    def test_missing_manifest_exits(self):
        with pytest.raises(SystemExit, match="manifest"):
            main(["schedule", "/nonexistent/manifest.json"])

    def test_manifest_without_jobs_exits(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"jobs": []}))
        with pytest.raises(SystemExit, match="no jobs"):
            main(["schedule", str(path)])

    def test_job_missing_center_exits(self, xor_path, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"jobs": [{"network": xor_path}]}))
        with pytest.raises(SystemExit, match="center"):
            main(["schedule", str(path)])

    def test_all_timeout_exits_two(self, tmp_path, capsys):
        from repro.nn.builders import mlp

        net_path = tmp_path / "wide.npz"
        save_network(mlp(8, [24, 24, 24], 5, rng=3), net_path)
        manifest = tmp_path / "slow.json"
        manifest.write_text(json.dumps({
            "jobs": [{"network": str(net_path), "center": ",".join(["0.5"] * 8),
                      "epsilon": 0.5, "name": "hard"}],
        }))
        code = main(["schedule", str(manifest), "--timeout", "0.05"])
        out = capsys.readouterr().out
        # Nothing proven must never exit 0 (CI-gate convention of verify).
        if "timeout: 1" in out:
            assert code == 2
        else:
            assert code == 1  # PGD falsified it before the budget ran out

    def test_out_of_range_label_exits(self, xor_path, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "jobs": [
                {"network": xor_path, "center": "0.5,0.5", "label": 99}
            ]
        }))
        with pytest.raises(SystemExit, match="label 99 out of range"):
            main(["schedule", str(path)])


class TestRadiusCommand:
    def test_prints_bracket(self, xor_path, capsys):
        code = main(
            ["radius", xor_path, "--center", "0.0,1.0", "--epsilon", "0.4",
             "--timeout", "2.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "certified radius" in out
        assert "falsified radius" in out


class TestAttackCommand:
    def test_reports_margin(self, xor_path, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["attack", xor_path, "--center", "0.5,0.9", "--epsilon", "0.5",
             "--steps", "50", "--restarts", "3"]
        )
        out = capsys.readouterr().out
        assert "best margin found" in out
        assert code in (0, 1)

    def test_timeout_bounds_the_search(self, xor_path, capsys):
        argv = ["attack", xor_path, "--center", "0.2,0.8", "--epsilon", "0.2",
                "--steps", "50", "--restarts", "3"]
        network = load_network(xor_path)
        prop = linf_property(network, np.array([0.2, 0.8]), 0.2)
        centre = MarginObjective(network, prop.label).value(prop.region.center)
        full = find_counterexample(
            network, prop, PGDConfig(steps=50, restarts=3), rng=0
        )
        assert full.value < centre  # the search moves off the centre

        def margin(timeout):
            assert main(argv + ["--timeout", timeout]) == 0
            (line,) = [
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("best margin found:")
            ]
            return line.split(":")[1].strip()

        # An expired deadline stops PGD before its first step, at the
        # region centre.
        assert margin("1e-9") == f"{centre:.6f}"
        assert margin("10") == f"{full.value:.6f}"


class TestInfoCommand:
    def test_prints_summary(self, xor_path, capsys):
        code = main(["info", xor_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "Network" in out
        assert "ReLU units" in out


class TestDomainFlags:
    def test_fixed_domain_verifies(self, xor_path, capsys):
        code = main(
            ["verify", xor_path, "--center", "0.5,0.5", "--epsilon", "0.05",
             "--domain", "zonotope", "--disjuncts", "2"]
        )
        assert code == 0
        assert "result: verified" in capsys.readouterr().out

    def test_disjuncts_require_fixed_domain(self, xor_path):
        with pytest.raises(SystemExit):
            main(
                ["verify", xor_path, "--center", "0.5,0.5",
                 "--disjuncts", "2"]
            )

    def test_symbolic_rejects_disjuncts(self, xor_path):
        with pytest.raises(SystemExit):
            main(
                ["verify", xor_path, "--center", "0.5,0.5",
                 "--domain", "symbolic", "--disjuncts", "2"]
            )

    def test_manifest_domain_key(self, xor_path, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "defaults": {"network": xor_path, "timeout": 5.0},
            "jobs": [
                {"center": "0.5,0.5", "name": "zono",
                 "domain": "zonotope", "disjuncts": 2},
                {"center": "0.5,0.5", "name": "dp", "domain": "deeppoly"},
            ],
        }))
        code = main(["schedule", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "verified: 2" in out


class TestRadiusManifest:
    @pytest.fixture()
    def manifest(self, xor_path, tmp_path):
        path = tmp_path / "radius.json"
        path.write_text(json.dumps({
            "defaults": {"network": xor_path, "timeout": 5.0},
            "jobs": [
                {"center": "0.5,0.5", "epsilon": 0.2, "name": "searched"},
                {"center": "0.2,0.2", "epsilon": 0.1, "name": "pinned",
                 "label": 1},
            ],
        }))
        return str(path)

    def test_manifest_mode_reports_per_center(self, manifest, capsys):
        code = main(["radius", manifest])
        out = capsys.readouterr().out
        assert code == 0
        assert "searched" in out
        assert "skipped (pinned label)" in out
        assert "total probes" in out

    def test_cached_records_bracket_before_probing(
        self, xor_path, manifest, tmp_path, capsys
    ):
        # A schedule run against the same (network, center) populates the
        # cache; the radius manifest must fold it into its bracket.
        sched_manifest = tmp_path / "sched.json"
        sched_manifest.write_text(json.dumps({
            "defaults": {"network": xor_path, "timeout": 5.0},
            "jobs": [{"center": "0.5,0.5", "epsilon": 0.2, "name": "seed"}],
        }))
        cache_dir = str(tmp_path / "cache")
        main(["schedule", str(sched_manifest), "--cache", cache_dir])
        capsys.readouterr()
        code = main(["radius", manifest, "--cache", cache_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "[bracketed]" in out

    def test_center_conflicts_with_manifest(self, manifest):
        with pytest.raises(SystemExit):
            main(["radius", manifest, "--center", "0.5,0.5"])

    def test_single_mode_still_requires_center(self, xor_path):
        with pytest.raises(SystemExit):
            main(["radius", xor_path])


class TestCachePruneCommand:
    def test_prunes_to_budget(self, xor_path, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "defaults": {"network": xor_path, "timeout": 5.0},
            "jobs": [
                {"center": "0.5,0.5", "name": "a"},
                {"center": "0.4,0.6", "name": "b"},
                {"center": "0.6,0.4", "name": "c"},
            ],
        }))
        cache_dir = str(tmp_path / "cache")
        main(["schedule", str(manifest), "--cache", cache_dir])
        capsys.readouterr()
        code = main(["cache", "prune", cache_dir, "--max-entries", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pruned 2 records" in out
        assert "1 records" in out

    def test_requires_a_budget(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "prune", str(tmp_path / "cache")])

    def test_schedule_cache_budget_flags(self, xor_path, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "defaults": {"network": xor_path, "timeout": 5.0},
            "jobs": [
                {"center": "0.5,0.5", "name": "a"},
                {"center": "0.4,0.6", "name": "b"},
            ],
        }))
        cache_dir = tmp_path / "cache"
        code = main(
            ["schedule", str(manifest), "--cache", str(cache_dir),
             "--cache-max-entries", "1"]
        )
        assert code == 0
        assert sum(1 for _ in cache_dir.glob("*/*.json")) == 1


class TestRadiusDuplicateQueries:
    def test_same_center_different_epsilon_both_run(
        self, xor_path, tmp_path, capsys
    ):
        path = tmp_path / "radius.json"
        path.write_text(json.dumps({
            "defaults": {"network": xor_path, "timeout": 5.0},
            "jobs": [
                {"center": "0.5,0.5", "epsilon": 0.1, "name": "narrow"},
                {"center": "0.5,0.5", "epsilon": 0.1, "name": "dup"},
                {"center": "0.5,0.5", "epsilon": 0.3, "name": "wide"},
            ],
        }))
        code = main(["radius", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "narrow" in out
        assert "dup" in out and "skipped (duplicate query)" in out
        # A wider epsilon is a different question — it must still run.
        assert "wide" in out and out.count("certified") >= 2

    def test_zero_budget_flags_exit_cleanly(self, xor_path, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "jobs": [{"network": xor_path, "center": "0.5,0.5"}],
        }))
        with pytest.raises(SystemExit):
            main(["schedule", str(manifest), "--cache", str(tmp_path / "c"),
                  "--cache-max-entries", "0"])
        with pytest.raises(SystemExit):
            main(["cache", "prune", str(tmp_path / "c"), "--max-entries", "0"])

    def test_duplicate_center_with_longer_timeout_still_runs(
        self, xor_path, tmp_path, capsys
    ):
        path = tmp_path / "radius.json"
        path.write_text(json.dumps({
            "defaults": {"network": xor_path, "center": "0.5,0.5",
                         "epsilon": 0.1},
            "jobs": [
                {"timeout": 1.0, "name": "quick"},
                {"timeout": 5.0, "name": "thorough"},
            ],
        }))
        code = main(["radius", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "skipped (duplicate query)" not in out
        assert out.count("certified") >= 2

    def test_inverted_cached_bracket_degrades_with_warning(
        self, xor_path, tmp_path, capsys
    ):
        # Hand-craft records that disagree (possible across δ/seed
        # configs): verified at 0.2 but "falsified" at 0.1.
        import numpy as np

        from repro.nn.serialize import load_network, network_digest
        from repro.sched import CacheRecord, ResultCache, point_digest

        net = load_network(xor_path)
        digest = network_digest(net)
        center = np.array([0.5, 0.5])
        cache = ResultCache(tmp_path / "cache")
        for i, (kind, eps) in enumerate(
            [("verified", 0.2), ("falsified", 0.1)]
        ):
            cache.put(
                f"{i:02x}" + "b" * 62,
                CacheRecord(
                    kind=kind,
                    margin=-0.1 if kind == "falsified" else None,
                    counterexample=[0.0, 0.0] if kind == "falsified" else None,
                    network_digest=digest,
                    metadata={"center_digest": point_digest(center),
                              "epsilon": eps},
                ),
            )
        code = main(
            ["radius", xor_path, "--center", "0.5,0.5", "--epsilon", "0.3",
             "--timeout", "2.0", "--cache", str(tmp_path / "cache")]
        )
        captured = capsys.readouterr()
        assert code == 0  # degraded to a fresh search, no crash
        assert "cached records disagree" in captured.err
        assert "certified radius" in captured.out


class TestTrainCommand:
    @pytest.fixture()
    def suite(self, xor_path, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({
            "defaults": {"network": xor_path, "epsilon": 0.08},
            "jobs": [
                {"center": "0.5,0.8", "name": "a"},
                {"center": "0.8,0.5", "name": "b"},
            ],
        }))
        return str(path)

    def test_trains_and_writes_artifact(self, suite, tmp_path, capsys):
        out = tmp_path / "theta.json"
        code = main([
            "train", suite, "--iterations", "2", "--candidates", "2",
            "--workers", "2", "--max-depth", "4", "--n-initial", "2",
            "--out", str(out),
        ])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "policy artifact written" in stdout
        payload = json.loads(out.read_text())
        assert len(payload["theta"]) == 25
        # Default-θ seed + 2 evaluations.
        assert len(payload["observations"]) == 3

    def test_cached_rerun_spawns_no_work(self, suite, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = [
            "train", suite, "--iterations", "2", "--max-depth", "4",
            "--n-initial", "2", "--cache", str(cache),
            "--out", str(tmp_path / "theta.json"),
        ]
        main(argv)
        capsys.readouterr()
        code = main(argv)
        stdout = capsys.readouterr().out
        assert code == 0
        assert "(0 fresh kernel calls" in stdout

    def test_artifact_deploys_via_policy_file(
        self, suite, xor_path, tmp_path, capsys
    ):
        out = tmp_path / "theta.json"
        main([
            "train", suite, "--iterations", "1", "--max-depth", "4",
            "--n-initial", "1", "--out", str(out),
        ])
        capsys.readouterr()
        code = main([
            "verify", xor_path, "--center", "0.5,0.8", "--epsilon", "0.02",
            "--policy-file", str(out),
        ])
        assert code == 0
        assert "verified" in capsys.readouterr().out

    def test_policy_file_conflicts_with_pinned_domain(
        self, xor_path, tmp_path
    ):
        artifact = tmp_path / "theta.json"
        artifact.write_text(json.dumps({"theta": [0.0] * 25}))
        with pytest.raises(SystemExit, match="policy-file"):
            main([
                "verify", xor_path, "--center", "0.5,0.5",
                "--domain", "interval", "--policy-file", str(artifact),
            ])

    def test_policy_file_still_rejects_disjuncts(self, xor_path, tmp_path):
        # --disjuncts is meaningless under a learned policy whether the θ
        # comes from the shipped artifact or a file; it must not be
        # silently dropped.
        artifact = tmp_path / "theta.json"
        artifact.write_text(json.dumps({"theta": [0.0] * 25}))
        with pytest.raises(SystemExit, match="disjuncts"):
            main([
                "verify", xor_path, "--center", "0.5,0.5",
                "--disjuncts", "4", "--policy-file", str(artifact),
            ])

    @pytest.mark.parametrize(
        "flag, key", [("--penalty", "penalty"), ("--time-limit", "time_limit")]
    )
    def test_nan_budget_flag_exits_with_one_line(
        self, flag, key, suite, tmp_path, capsys
    ):
        # NaN fails every comparison, so a `< 1` style check would let it
        # through and train to the end on NaN scores.
        message = _one_line_exit(
            ["train", suite, "--iterations", "1", flag, "nan",
             "--out", str(tmp_path / "theta.json")],
            capsys,
        )
        assert key in message
        assert not (tmp_path / "theta.json").exists()

    def test_escalation_margin_reaches_the_runs(self, suite, tmp_path, capsys):
        # Timeouts escalate under any margin; a certification escalates
        # only when its PGD margin stays within the threshold.
        escalated = []
        for margin in ("1e-9", "1e9"):
            before = metrics_registry().counters_snapshot()
            assert main([
                "train", suite, "--iterations", "1", "--max-depth", "4",
                "--precision-escalation", "--escalation-margin", margin,
                "--out", str(tmp_path / "theta.json"),
            ]) == 0
            work = metrics_registry().counters_since(before)
            escalated.append(work.get("sched.escalated", 0))
        assert escalated[0] < escalated[1]

    def test_backend_reaches_the_runs(self, suite, tmp_path, capsys):
        before = metrics_registry().counters_snapshot()
        assert main([
            "train", suite, "--iterations", "1", "--max-depth", "4",
            "--backend", "numpy32", "--out", str(tmp_path / "theta.json"),
        ]) == 0
        work = metrics_registry().counters_since(before)
        rows = [name for name in work if name.startswith("kernel.by_backend.")]
        assert rows
        assert all(name.startswith("kernel.by_backend.numpy32.")
                   for name in rows)

    def test_time_cost_model_refuses_cache(self, suite, tmp_path):
        with pytest.raises(SystemExit, match="work"):
            main([
                "train", suite, "--iterations", "1", "--cost-model", "time",
                "--cache", str(tmp_path / "cache"),
                "--out", str(tmp_path / "theta.json"),
            ])


class TestTraceAndStats:
    @pytest.fixture()
    def manifest(self, xor_path, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "defaults": {"epsilon": 0.05, "timeout": 5.0},
            "jobs": [
                {"network": xor_path, "center": "0.5,0.5", "name": "safe"},
                {"network": xor_path, "center": "0.5,0.9", "epsilon": 0.5,
                 "name": "unsafe"},
            ],
        }))
        return str(path)

    def test_schedule_trace_writes_valid_dump(
        self, manifest, tmp_path, capsys
    ):
        from repro.obs.stats import load_dump, validate_trace
        from repro.obs.trace import tracing_enabled

        trace = tmp_path / "trace.json"
        code = main(["schedule", manifest, "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 1  # the falsified job; tracing must not change it
        assert f"trace written to {trace}" in out
        assert not tracing_enabled()  # tracer turned back off afterwards
        dump = load_dump(str(trace))
        assert validate_trace(dump) == []
        names = {event["name"] for event in dump["traceEvents"]}
        assert "sched.round" in names
        assert "sched.pgd_group" in names
        counters = dump["otherData"]["metrics"]["counters"]
        assert counters["kernel.pgd_rows"] > 0

    def test_verify_trace(self, xor_path, tmp_path, capsys):
        from repro.obs.stats import load_dump, validate_trace

        trace = tmp_path / "trace.json"
        code = main([
            "verify", xor_path, "--center", "0.5,0.5", "--epsilon", "0.05",
            "--trace", str(trace),
        ])
        assert code == 0
        assert validate_trace(load_dump(str(trace))) == []

    def test_stats_summarizes_a_dump(self, manifest, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        main(["schedule", manifest, "--trace", str(trace)])
        capsys.readouterr()
        code = main(["stats", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "spans (by total time):" in out
        assert "counters:" in out
        assert "kernel.pgd_rows" in out

    def test_stats_diffs_two_dumps(self, manifest, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["schedule", manifest, "--trace", str(first)])
        main(["schedule", manifest, "--trace", str(second)])
        capsys.readouterr()
        code = main(["stats", str(first), str(second)])
        out = capsys.readouterr().out
        assert code == 0
        assert "->" in out

    def test_stats_warns_on_schema_problems(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "Q"}]}))
        code = main(["stats", str(bad)])
        captured = capsys.readouterr()
        assert code == 0  # warnings, not failure — the summary still runs
        assert "warning:" in captured.err

    def test_stats_rejects_unreadable_and_extra_dumps(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["stats", str(tmp_path / "missing.json")])
        dump = tmp_path / "d.json"
        dump.write_text("{}")
        with pytest.raises(SystemExit, match="one dump"):
            main(["stats", str(dump), str(dump), str(dump)])


class TestScheduleWorkers:
    def test_pooled_schedule_matches_serial(self, xor_path, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "defaults": {"network": xor_path, "epsilon": 0.04,
                         "timeout": 30.0},
            "jobs": [
                {"center": "0.5,0.88", "name": "hi-y"},
                {"center": "0.88,0.5", "name": "hi-x"},
            ],
        }))
        code = main(["schedule", str(manifest), "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "process executor x2" in out
        code = main(["schedule", str(manifest)])
        assert "serial executor x1" in capsys.readouterr().out
        assert code == 0


class TestIncrementalCommands:
    """``schedule --incremental``, ``diff-verify``, and prune families."""

    @pytest.fixture()
    def nets(self, tmp_path):
        net = xor_network()
        old_path = tmp_path / "net.npz"
        save_network(net, old_path)
        tuned = xor_network()
        tuned.layers[-1].weight += np.random.default_rng(7).normal(
            0.0, 1e-6, tuned.layers[-1].weight.shape
        )
        tuned_path = tmp_path / "tuned.npz"
        save_network(tuned, tuned_path)
        return str(old_path), str(tuned_path)

    @pytest.fixture()
    def verifiable_manifest(self, nets, tmp_path):
        old_path, _ = nets
        path = tmp_path / "inc_manifest.json"
        path.write_text(json.dumps({
            "defaults": {
                "network": old_path, "epsilon": 0.04, "timeout": 30.0,
            },
            "jobs": [
                {"center": "0.5,0.88", "name": "hi-y"},
                {"center": "0.88,0.5", "name": "hi-x"},
            ],
        }))
        return str(path)

    def test_incremental_requires_cache(self, verifiable_manifest):
        with pytest.raises(SystemExit, match="requires --cache"):
            main(["schedule", verifiable_manifest, "--incremental"])

    def test_incremental_schedule_prints_prefix_line(
        self, verifiable_manifest, capsys, tmp_path
    ):
        code = main([
            "schedule", verifiable_manifest,
            "--cache", str(tmp_path / "cache"),
            "--incremental", "--domain", "deeppoly",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "prefix: 0 hits, 0 layers skipped" in out

    def test_plain_schedule_has_no_prefix_line(
        self, verifiable_manifest, capsys
    ):
        main(["schedule", verifiable_manifest, "--domain", "deeppoly"])
        assert "prefix:" not in capsys.readouterr().out

    def test_diff_verify_resumes_from_recorded_checkpoints(
        self, nets, verifiable_manifest, capsys, tmp_path
    ):
        old_path, tuned_path = nets
        cache_dir = str(tmp_path / "cache")
        main([
            "schedule", verifiable_manifest, "--cache", cache_dir,
            "--incremental", "--domain", "deeppoly",
        ])
        capsys.readouterr()
        code = main([
            "diff-verify", old_path, tuned_path, verifiable_manifest,
            "--cache", cache_dir, "--domain", "deeppoly",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "common prefix: 2/3 layers unchanged" in out
        assert "prefix: 1 hits, 2 layers skipped" in out
        # Every job still verifies on the fine-tuned network.
        assert out.count("verified") >= 2

    def test_diff_verify_requires_cache_flag(
        self, nets, verifiable_manifest
    ):
        old_path, tuned_path = nets
        with pytest.raises(SystemExit):
            main(["diff-verify", old_path, tuned_path, verifiable_manifest])

    def test_cache_prune_reports_family_counts(
        self, nets, verifiable_manifest, capsys, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        main([
            "schedule", verifiable_manifest, "--cache", cache_dir,
            "--incremental", "--domain", "deeppoly",
        ])
        capsys.readouterr()
        code = main(["cache", "prune", cache_dir, "--max-entries", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "families:" in out
        assert "prefix records" in out


#: Malformed-input cases: (manifest job override, verify flags, the key
#: the one-line error must name).  ``verify`` takes the job's network
#: path positionally, so the missing-network case needs no flag.
MALFORMED = [
    pytest.param({"epsilon": -0.1}, ["--epsilon", "-0.1"], "epsilon",
                 id="negative-epsilon"),
    pytest.param({"epsilon": float("nan")}, ["--epsilon", "nan"], "epsilon",
                 id="nan-epsilon"),
    pytest.param({"epsilon": "wide"}, ["--epsilon", "wide"], "epsilon",
                 id="text-epsilon"),
    pytest.param({"center": "0.5,abc"}, ["--center", "0.5,abc"], "center",
                 id="text-center"),
    pytest.param({"timeout": -1}, ["--timeout", "-1"], "timeout",
                 id="negative-timeout"),
    pytest.param({"timeout": float("nan")}, ["--timeout", "nan"], "timeout",
                 id="nan-timeout"),
    pytest.param({"delta": float("nan")}, ["--delta", "nan"], "delta",
                 id="nan-delta"),
    pytest.param({"batch_size": 0}, ["--batch-size", "0"], "batch",
                 id="zero-batch-size"),
    pytest.param({"network": "missing.npz"}, [], "network",
                 id="missing-network"),
]


class TestMalformedInput:
    """Bad job input exits with one line naming the job and the key —
    never a traceback, never exit code 0."""

    @pytest.mark.parametrize("verb", ["schedule", "verify"])
    @pytest.mark.parametrize("job, flags, key", MALFORMED)
    def test_exits_with_one_line(
        self, verb, job, flags, key, xor_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        spec = {"network": xor_path, "center": "0.5,0.5", "name": "bad-job"}
        spec.update(job)
        if verb == "schedule":
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps({"jobs": [spec]}))
            argv = ["schedule", str(manifest)]
        else:
            argv = ["verify", spec["network"], "--center", "0.5,0.5", *flags]
        # Anything but SystemExit escaping main() is a traceback.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code = exc.value.code
        assert code not in (0, None)
        message = code if isinstance(code, str) else capsys.readouterr().err
        assert key in message
        assert "Traceback" not in message
        if isinstance(code, str):
            assert "\n" not in code.strip()
            assert "job " in code


def _one_line_exit(argv, capsys) -> str:
    """Run ``main(argv)``; it must exit non-zero with a one-line message
    (anything but ``SystemExit`` escaping ``main`` is a traceback)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    code = exc.value.code
    assert code not in (0, None)
    message = code if isinstance(code, str) else capsys.readouterr().err
    assert "Traceback" not in message
    assert "\n" not in message.strip()
    return message


class TestHugeFiniteWeights:
    """Weights around 1e160 load fine; the learned policy's features then
    overflow to inf, which its squash maps to a limit without a warning."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_policy_domain_verifies(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        net = mlp(4, [8, 8], 3, rng=0)
        net.layers[0].weight[:] *= 1e160
        save_network(net, tmp_path / "big.npz")
        code = main(
            ["verify", str(tmp_path / "big.npz"), "--center",
             "0.5,0.5,0.5,0.5", "--epsilon", "0.01", "--domain", "policy"]
        )
        assert code == 0
        assert "result: verified" in capsys.readouterr().out


class TestUnloadableNetworks:
    """A missing archive or one with non-finite parameters exits with one
    line on every verb that loads networks."""

    @pytest.fixture(params=["nan", "missing"])
    def bad_path(self, request, tmp_path):
        if request.param == "missing":
            return str(tmp_path / "missing.npz")
        net = xor_network()
        net.layers[0].weight[0, 1] = np.nan
        path = tmp_path / "nan.npz"
        save_network(net, path)
        return str(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_load_network_names_the_layer(self, value, tmp_path):
        net = xor_network()
        net.layers[-1].bias[0] = value
        save_network(net, tmp_path / "bad.npz")
        with pytest.raises(ValueError, match="layer 2 .*non-finite"):
            load_network(tmp_path / "bad.npz")

    def test_schedule(self, bad_path, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"jobs": [
            {"network": bad_path, "center": "0.5,0.5", "name": "j"},
        ]}))
        message = _one_line_exit(["schedule", str(manifest)], capsys)
        assert "'network'" in message and bad_path in message

    @pytest.mark.parametrize("verb", ["radius", "attack", "info"])
    def test_single_network_verbs(self, verb, bad_path, capsys):
        argv = [verb, bad_path]
        if verb != "info":
            argv += ["--center", "0.5,0.5"]
        message = _one_line_exit(argv, capsys)
        assert "bad network" in message and bad_path in message

    @pytest.mark.parametrize("side", ["old", "new"])
    def test_diff_verify(self, side, bad_path, xor_path, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"jobs": [
            {"network": xor_path, "center": "0.5,0.5", "name": "j"},
        ]}))
        old, new = (bad_path, xor_path) if side == "old" else (
            xor_path, bad_path
        )
        message = _one_line_exit([
            "diff-verify", old, new, str(manifest),
            "--cache", str(tmp_path / "cache"),
        ], capsys)
        assert f"bad {side} network" in message and bad_path in message


class TestRadiusManifestMalformed:
    """``radius manifest.json`` guards every per-job value as
    ``schedule`` does: one line naming the job and the key."""

    @pytest.mark.parametrize("job, key", [
        ({"epsilon": "abc"}, "epsilon"),
        ({"epsilon": -0.1}, "epsilon"),
        ({"epsilon": "nan"}, "epsilon"),
        ({"epsilon": 0}, "epsilon"),
        ({"timeout": "x"}, "timeout"),
        ({"timeout": -1}, "timeout"),
        ({"seed": "1.5x"}, "seed"),
        ({"disjuncts": "two"}, "disjuncts"),
        ({"center": "0.5,abc"}, "center"),
        ({"center": "missing.npy"}, "center"),
    ], ids=lambda v: str(v) if isinstance(v, str) else "-".join(
        f"{k}={val}" for k, val in v.items()
    ))
    def test_exits_with_one_line(self, job, key, xor_path, tmp_path, capsys):
        spec = {"network": xor_path, "center": "0.5,0.5", "name": "bad-job"}
        spec.update(job)
        manifest = tmp_path / "radius.json"
        manifest.write_text(json.dumps({"jobs": [spec]}))
        message = _one_line_exit(["radius", str(manifest)], capsys)
        assert key in message and "job 'bad-job'" in message


class TestTrainManifestMalformed:
    """``train suite.json`` guards every property value as ``schedule``
    does: one line naming the job and the key."""

    @pytest.mark.parametrize("job, key", [
        ({"epsilon": "abc"}, "epsilon"),
        ({"center": "0.5,x"}, "center"),
        ({"label": "two"}, "label"),
        ({"epsilon": -1}, "epsilon"),
        ({"label": 7}, "label"),  # the XOR network has two classes
    ], ids=lambda v: str(v) if isinstance(v, str) else "-".join(
        f"{k}={val}" for k, val in v.items()
    ))
    def test_exits_with_one_line(self, job, key, xor_path, tmp_path, capsys):
        spec = {"network": xor_path, "center": "0.5,0.5", "name": "bad-job"}
        spec.update(job)
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"jobs": [spec]}))
        message = _one_line_exit(
            ["train", str(suite), "--iterations", "1",
             "--out", str(tmp_path / "theta.json")],
            capsys,
        )
        assert key in message and "job 'bad-job'" in message


#: Bad flag values on the verbs that read their flags directly: (argv,
#: the flag the one-line error must name).  ``{net}`` and ``{suite}``
#: stand for a saved XOR network and a one-job suite over it.
BAD_FLAG_VALUES = [
    (["radius", "{net}", "--epsilon", "0"], "--epsilon"),
    (["radius", "{net}", "--epsilon", "-1"], "--epsilon"),
    (["radius", "{net}", "--epsilon", "nan"], "--epsilon"),
    (["radius", "{net}", "--timeout", "0"], "--timeout"),
    (["radius", "{net}", "--center", "0.5,abc"], "--center"),
    (["attack", "{net}", "--epsilon", "-1"], "--epsilon"),
    (["attack", "{net}", "--epsilon", "nan"], "--epsilon"),
    (["attack", "{net}", "--steps", "0"], "--steps"),
    (["attack", "{net}", "--restarts", "0"], "--restarts"),
    (["attack", "{net}", "--timeout", "0"], "--timeout"),
    (["attack", "{net}", "--timeout", "nan"], "--timeout"),
    (["attack", "{net}", "--center", "missing.npy"], "--center"),
    (["train", "{suite}", "--iterations", "0"], "--iterations"),
]


class TestBadFlagValues:
    """``radius``, ``attack`` and ``train`` check each flag value where
    they read it: a bad one exits with one line naming the flag."""

    @pytest.mark.parametrize(
        "argv, flag", BAD_FLAG_VALUES,
        ids=[" ".join(argv[:1] + argv[2:]) for argv, _ in BAD_FLAG_VALUES],
    )
    def test_exits_with_one_line(
        self, argv, flag, xor_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"jobs": [
            {"network": xor_path, "center": "0.5,0.5", "name": "j"},
        ]}))
        argv = [arg.format(net=xor_path, suite=suite) for arg in argv]
        if argv[0] != "train":
            # A --center among the case's flags comes later and wins.
            argv[2:2] = ["--center", "0.5,0.5"]
        message = _one_line_exit(argv, capsys)
        assert flag in message


class TestAbstractionLevel:
    """With abstraction on, ``verify`` and ``schedule`` reject a level
    below 1 with one line instead of running the concrete network under
    an ``abstraction: syntactic level 0`` report line; with abstraction
    off the level is unused."""

    @pytest.mark.parametrize("verb", ["verify", "schedule"])
    def test_level_below_one_exits_with_one_line(
        self, verb, xor_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        if verb == "schedule":
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps({"jobs": [
                {"network": xor_path, "center": "0.5,0.5", "name": "j"},
            ]}))
            argv = ["schedule", str(manifest)]
        else:
            argv = ["verify", xor_path, "--center", "0.5,0.5"]
        for level in ("0", "-3"):
            message = _one_line_exit(
                argv + ["--abstraction", "syntactic",
                        "--abstraction-level", level],
                capsys,
            )
            assert "--abstraction-level" in message
        assert main(argv + ["--abstraction-level", "0"]) == main(argv)


class TestCachePathIsAFile:
    """A cache path naming an existing file exits with one line on every
    verb that opens the result cache."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["schedule", "{manifest}", "--cache", "{cache}"],
                     id="schedule"),
        pytest.param(["diff-verify", "{net}", "{net}", "{manifest}",
                      "--cache", "{cache}"], id="diff-verify"),
        pytest.param(["train", "{manifest}", "--iterations", "1",
                      "--cache", "{cache}"], id="train"),
        pytest.param(["radius", "{net}", "--center", "0.5,0.5",
                      "--cache", "{cache}"], id="radius"),
        pytest.param(["radius", "{manifest}", "--cache", "{cache}"],
                     id="radius-manifest"),
        pytest.param(["cache", "prune", "{cache}", "--max-entries", "1"],
                     id="cache-prune"),
    ])
    def test_exits_with_one_line(
        self, argv, xor_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / "afile"
        cache.write_text("not a cache directory")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"jobs": [
            {"network": xor_path, "center": "0.5,0.5", "name": "j"},
        ]}))
        argv = [
            arg.format(net=xor_path, manifest=manifest, cache=cache)
            for arg in argv
        ]
        message = _one_line_exit(argv, capsys)
        assert str(cache) in message


class TestVerifyRunsTheScheduler:
    """``verify`` is a one-job ``schedule`` run: same verdicts, same work,
    and every scheduler mode (abstraction, escalation) applies."""

    def test_verify_matches_one_job_schedule(
        self, xor_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        flags = ["--epsilon", "0.2", "--domain", "zonotope", "--seed", "3"]
        manifest = tmp_path / "one.json"
        manifest.write_text(json.dumps({"jobs": [{
            "network": xor_path, "center": "0.5,0.5", "epsilon": 0.2,
            "domain": "zonotope", "seed": 3, "name": "one",
        }]}))
        obs = metrics_registry()

        before = obs.counters_snapshot()
        verify_code = main(["verify", xor_path, "--center", "0.5,0.5"] + flags)
        verify_work = obs.counters_since(before)
        verify_out = capsys.readouterr().out

        before = obs.counters_snapshot()
        schedule_code = main(["schedule", str(manifest)])
        schedule_work = obs.counters_since(before)
        schedule_out = capsys.readouterr().out

        assert verify_code == schedule_code
        verdict = next(
            line.split()[1] for line in verify_out.splitlines()
            if line.startswith("result:")
        )
        row = next(
            line.split() for line in schedule_out.splitlines()
            if line.startswith("one ")
        )
        assert row[1] == verdict
        stats = next(
            line for line in verify_out.splitlines()
            if line.startswith("stats:")
        ).split()
        pgd_calls, analyses, splits = int(stats[1]), int(stats[4]), stats[6]
        assert splits != "0"  # the case exercises real refinement
        assert f" {pgd_calls} work items" in schedule_out
        for counters in (verify_work, schedule_work):
            assert counters["kernel.pgd_rows"] == pgd_calls
            assert counters["kernel.analyze_rows"] == analyses

    def test_abstraction_keeps_the_verdict(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        net = redundant_mlp(4, [8, 8], 3, dup=4, noise=1e-6, rng=2)
        path = tmp_path / "redundant.npz"
        save_network(net, path)
        argv = ["verify", str(path), "--center", "0.5,0.5,0.5,0.5",
                "--epsilon", "0.01"]
        off_code = main(argv)
        off = capsys.readouterr().out
        abs_code = main(argv + ["--abstraction", "syntactic"])
        merged = capsys.readouterr().out
        assert abs_code == off_code
        assert "abstraction: syntactic level 2" in merged
        verdict = [line for line in off.splitlines() if line.startswith("result:")]
        assert verdict == [
            line for line in merged.splitlines() if line.startswith("result:")
        ]

    def test_escalation_reruns_on_float64(
        self, xor_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        before = metrics_registry().counters_snapshot()
        code = main([
            "verify", xor_path, "--center", "0.5,0.5", "--epsilon", "0.05",
            "--backend", "numpy32", "--precision-escalation",
            "--escalation-margin", "1e9",
        ])
        counters = metrics_registry().counters_since(before)
        assert code == 0
        assert "backend: numpy32 screen, 1 jobs escalated" in (
            capsys.readouterr().out
        )
        assert counters["kernel.by_backend.numpy64.analyze_rows"] > 0
        assert counters["kernel.by_backend.numpy32.analyze_rows"] > 0

    @pytest.mark.parametrize("verb", ["verify", "schedule"])
    def test_nan_escalation_margin_exits_with_one_line(
        self, verb, xor_path, tmp_path, capsys
    ):
        # Against NaN every margin comparison is false, so every
        # screen-phase certification would silently re-run on float64.
        if verb == "schedule":
            manifest = tmp_path / "m.json"
            manifest.write_text(json.dumps({"jobs": [
                {"network": xor_path, "center": "0.5,0.5", "epsilon": 0.05},
            ]}))
            argv = ["schedule", str(manifest)]
        else:
            argv = [
                "verify", xor_path, "--center", "0.5,0.5", "--epsilon", "0.05",
            ]
        message = _one_line_exit(
            [*argv, "--precision-escalation", "--escalation-margin", "nan"],
            capsys,
        )
        assert "escalation_margin" in message

    def test_schedule_prints_the_screen_backend(
        self, xor_path, tmp_path, capsys
    ):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"jobs": [
            {"network": xor_path, "center": "0.5,0.5", "epsilon": 0.05},
        ]}))
        assert main(["schedule", str(manifest), "--precision-escalation"]) == 0
        assert "backend: numpy32 screen" in capsys.readouterr().out


def _repro_environment() -> dict:
    return {
        name: value for name, value in os.environ.items()
        if name.startswith("REPRO_")
    }


class TestNoStateSurvivesMain:
    """Flags reach a run only through its ``RunOptions``: ``main()`` sets
    no environment variable and leaves the process default backend
    alone, whether the command succeeds or exits on a bad value."""

    @pytest.mark.parametrize("margin", ["1e-2", "nan"])
    def test_backend_flags_leave_no_state(
        self, margin, xor_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        environment = _repro_environment()
        argv = [
            "verify", xor_path, "--center", "0.5,0.5", "--epsilon", "0.05",
            "--backend", "numpy32", "--precision-escalation",
            "--escalation-margin", margin,
        ]
        if margin == "nan":
            _one_line_exit(argv, capsys)
        else:
            assert main(argv) == 0
            assert "backend: numpy32 screen" in capsys.readouterr().out
        assert _repro_environment() == environment
        assert backend.active().name == "numpy64"
        job = VerificationJob(
            xor_network(),
            RobustnessProperty(
                Box(np.array([0.45, 0.45]), np.array([0.55, 0.55])), 1
            ),
            config=VerifierConfig(timeout=10.0),
        )
        report = Scheduler([job]).run()
        assert not report.escalation
        assert report.backend == "numpy64"
