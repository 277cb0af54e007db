"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``verify``   — decide one robustness property of a saved network.
- ``schedule`` — run a manifest of many (network, property) jobs through
  the multi-property scheduler (shared frontier, optional result cache,
  ``--workers`` cores for independent fused kernel groups,
  ``--incremental`` prefix-checkpoint reuse).
- ``diff-verify`` — re-verify a manifest after a network change (e.g. a
  fine-tune), resuming fused Analyze work from the per-layer prefix
  checkpoints a previous ``--incremental`` run recorded; bitwise the
  same outcomes as a cold run.
- ``train``    — learn a verification policy θ on a suite manifest
  (scheduled candidate evaluation, batched BO suggestions); writes a θ
  artifact that ``--policy-file`` deploys anywhere a policy is accepted.
- ``radius``   — binary-search the certified L∞ radius around a point, or
  around every center of a manifest (``.json``), bracketing from cached
  records first so already-decided radii spawn no probe jobs.
- ``cache``    — result-cache housekeeping (``cache prune``).
- ``attack``   — run PGD only (fast falsification attempt, no proof).
- ``info``     — print a saved network's architecture summary.
- ``stats``    — summarize one ``--trace`` dump, or diff two.

``verify`` is a one-job ``schedule`` run: both verbs build their jobs
through one path and run them through the same
:class:`~repro.sched.Scheduler` call, so abstraction, precision
escalation, backend selection and the printed mode lines behave alike.
``verify``, ``schedule``, ``diff-verify`` and ``train`` read their run
options (``--backend``, ``--precision-escalation``, ``--workers``...)
into one :class:`~repro.sched.RunOptions` (:func:`_run_options`), the
only way an option reaches a run: no verb sets process-wide state.

``verify`` and ``schedule`` accept ``--abstraction {off,syntactic,semantic}``
(with ``--abstraction-level N``): a CEGAR pre-pass that merges similar
neurons into a smaller strictly-over-approximating network, accepts
abstract VERIFIED outcomes directly and FALSIFIED ones only after a
concrete float64 witness check, and refines (or falls back to the
concrete network) on spurious counterexamples — see
:mod:`repro.abstract.netabs`.

``verify``, ``schedule``, ``diff-verify`` and ``train`` accept
``--trace out.json``: the run's hierarchical spans (scheduler round →
fused group → kernel call → cache probe) and final metric counters are
written as a Chrome trace-event file, loadable in ``chrome://tracing`` /
Perfetto and summarized by ``repro stats``.

Every flag more than one verb takes is declared once, in :data:`_FLAGS`.

Networks are ``.npz`` archives produced by :func:`repro.nn.save_network`;
points are ``.npy`` arrays or comma-separated values.

Manifests are JSON files of the shape::

    {
      "defaults": {"epsilon": 0.05, "timeout": 10.0},
      "jobs": [
        {"network": "net.npz", "center": "point.npy", "epsilon": 0.1},
        {"network": "net.npz", "center": "0.5,0.5", "label": 1,
         "name": "xor-center", "domain": "zonotope", "disjuncts": 2}
      ]
    }

Per-job keys override ``defaults``; ``label`` pins the target class
(otherwise the network's own prediction at ``center`` is used);
``domain``/``disjuncts`` pin the abstract domain (otherwise the learned
policy chooses per sub-region); networks referenced by several jobs are
loaded once.  A malformed job (a bad ``epsilon``, ``center``,
``timeout``, ``batch_size``... or an unreadable network file) exits with
one line naming the job and the key, never a traceback; so does a bad
flag value (naming the flag) and a ``--cache`` path that cannot hold a
cache.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from repro.abstract.domains import BASE_DOMAINS, DomainSpec
from repro.abstract.netabs import (
    ABSTRACTION_MODES,
    DEFAULT_LEVEL as NETABS_DEFAULT_LEVEL,
)
from repro.attack.pgd import PGDConfig
from repro.backend import BACKEND_CHOICES
from repro.attack.search import find_counterexample
from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.core.property import RobustnessProperty, linf_property
from repro.core.radius import certified_radius
from repro.learn import (
    COST_MODELS,
    TrainingProblem,
    load_policy,
    pretrained_policy,
)
from repro.nn.serialize import common_prefix_layers, load_network
from repro.obs.metrics import registry as metrics_registry
from repro.obs.stats import (
    diff_dumps,
    load_dump,
    summarize_dump,
    validate_trace,
)
from repro.obs.trace import tracer
from repro.sched import (
    FRONTIER_POLICIES,
    ResultCache,
    RunOptionError,
    RunOptions,
    Scheduler,
    VerificationJob,
    point_digest,
)
from repro.utils.timing import Deadline

#: ``--domain`` menu: ``policy`` lets the learned policy pick per
#: sub-region; any base domain pins a fixed :class:`DomainSpec` (combine
#: with ``--disjuncts`` for bounded powersets).  Every base with a batched
#: kernel — interval, deeppoly, zonotope, and zonotope powersets — runs
#: GEMM-shaped under the batched engines.
DOMAIN_CHOICES = ("policy",) + BASE_DOMAINS


def _resolve_policy(domain: str, disjuncts: int, policy_file: str | None = None):
    """The verification policy a ``--domain`` selection implies.

    ``--policy-file`` points "the learned policy" at a ``repro train``
    artifact instead of the shipped one; it only composes with
    ``--domain policy`` (a pinned domain would ignore the file).
    """
    if domain == "policy":
        if disjuncts != 1:
            raise SystemExit(
                "--disjuncts requires a fixed --domain (the learned policy "
                "chooses its own disjunct budgets)"
            )
        if policy_file is not None:
            try:
                return load_policy(policy_file)
            except ValueError as exc:
                raise SystemExit(str(exc))
        return pretrained_policy()
    if policy_file is not None:
        raise SystemExit(
            "--policy-file conflicts with a pinned --domain "
            "(the artifact's policy chooses its own domains)"
        )
    try:
        return BisectionPolicy(domain=DomainSpec(domain, disjuncts))
    except ValueError as exc:
        raise SystemExit(str(exc))


def _load_point(spec: str, expected_size: int) -> np.ndarray:
    """A point from an ``.npy`` file or an inline comma-separated list."""
    if spec.endswith(".npy"):
        point = np.load(spec).astype(np.float64).reshape(-1)
    else:
        point = np.array([float(v) for v in spec.split(",")], dtype=np.float64)
    if point.size != expected_size:
        raise SystemExit(
            f"point has {point.size} entries, network expects {expected_size}"
        )
    return point


def _run_options(args: argparse.Namespace) -> RunOptions:
    """The run's :class:`RunOptions`, each field read from the flag of the
    same name; a field whose flag the verb does not take keeps the
    record's default.  A bad value exits with one line naming the flag."""
    fields = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(RunOptions)
        if hasattr(args, field.name)
    }
    try:
        return RunOptions(**fields)
    except RunOptionError as exc:
        flag = "--" + exc.field.replace("_", "-")
        raise SystemExit(f"bad {flag}: {exc}") from None


def cmd_verify(args: argparse.Namespace) -> int:
    """One property as a one-job scheduler run (same path as ``schedule``)."""
    options = _run_options(args)
    spec = {
        "name": "verify",
        "network": args.network,
        "center": args.center,
        "epsilon": args.epsilon,
    }
    network = _load_networks([spec])[args.network]
    job = _spec_job(spec, network, args)
    report = Scheduler([job], options=options).run()
    _print_modes(report)
    outcome = report.results[0].outcome
    print(f"result: {outcome.kind}")
    print(f"label under test: {job.prop.label}")
    stats = outcome.stats
    print(
        f"stats: {stats.pgd_calls} PGD calls, {stats.analyze_calls} analyses, "
        f"{stats.splits} splits, {stats.time_seconds:.2f}s"
    )
    if outcome.kind == "falsified":
        print(f"counterexample margin: {outcome.margin:.6f}")
        np.save("counterexample.npy", outcome.counterexample)
        print("counterexample written to counterexample.npy")
        return 1
    return 0 if outcome.kind == "verified" else 2


def _load_archive(path: str, context: str):
    """``load_network(path)``; an unreadable archive (missing, corrupt,
    non-finite parameters) exits with one line prefixed by ``context``."""
    try:
        return load_network(path)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"{context}: cannot load {path}: {exc}") from None


def _check_flag(ok: bool, flag: str, rule: str, value) -> None:
    """Exit with one line naming ``flag`` unless ``ok`` (its ``value``
    meets ``rule``; callers phrase ``ok`` so that NaN fails it)."""
    if not ok:
        raise SystemExit(f"bad {flag}: must be {rule}, got {value}")


def _flag_center(args: argparse.Namespace, network) -> np.ndarray:
    """``--center`` as a point for ``network``; an unreadable one exits
    with one line naming the flag."""
    try:
        return _load_point(args.center, network.input_size)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bad --center: {exc}") from None


def _open_cache(path: str, **budgets) -> ResultCache:
    """``ResultCache(path, **budgets)``; a path that cannot hold a cache
    (an existing file, no permission) or a bad budget exits with one
    line."""
    try:
        return ResultCache(path, **budgets)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot use cache {path}: {exc}") from None


def _load_networks(specs: list[dict]) -> dict[str, object]:
    """Every archive the specs reference, each loaded exactly once.

    An unreadable archive exits naming the first job that references it.
    """
    networks: dict[str, object] = {}
    for spec in specs:
        path = spec["network"]
        if path not in networks:
            networks[path] = _load_archive(
                path, f"job {spec['name']!r}: bad 'network'"
            )
    return networks


def _load_manifest(
    path: str, load_networks: bool = True
) -> tuple[list[dict], dict[str, object]]:
    """Parse a JSON manifest into merged per-job specs plus the network
    pool (each referenced archive loaded exactly once).

    ``load_networks=False`` skips the archive loads — for callers that
    re-point every job at their own network (``diff-verify``), where the
    manifest's ``network`` paths may describe a superseded file.
    """
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read manifest {path}: {exc}")
    specs = manifest.get("jobs")
    if not specs:
        raise SystemExit("manifest has no jobs")
    defaults = manifest.get("defaults", {})
    merged_specs = []
    for i, spec in enumerate(specs):
        merged = {**defaults, **spec}
        for required in ("network", "center"):
            if required not in merged:
                raise SystemExit(f"job {i} is missing {required!r}")
        merged.setdefault("name", f"job-{i}")
        merged_specs.append(merged)
    networks = _load_networks(merged_specs) if load_networks else {}
    return merged_specs, networks


def _manifest_jobs(
    args: argparse.Namespace, override_network=None
) -> list[VerificationJob]:
    """Build :class:`VerificationJob`s from a JSON manifest file.

    ``override_network`` re-points every job at one network regardless of
    the manifest's ``network`` entries (the ``diff-verify`` verb: same
    properties, fine-tuned network).
    """
    specs, networks = _load_manifest(
        args.manifest, load_networks=override_network is None
    )
    return [
        _spec_job(spec, override_network or networks[spec["network"]], args)
        for spec in specs
    ]


def _spec_value(spec: dict, key: str, default, convert):
    """``convert(spec.get(key, default))``; a bad value exits naming the
    job and the key instead of raising a traceback."""
    try:
        return convert(spec.get(key, default))
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"job {spec['name']!r}: bad {key!r}: {exc}") from None


def _spec_property(
    spec: dict, network
) -> tuple[RobustnessProperty, np.ndarray, float]:
    """A job's property from its ``center``, ``epsilon`` and optional
    ``label`` keys, as ``(property, center, epsilon)``.

    Shared by every verb that reads properties from a manifest (and by
    ``verify``'s flags), so each bad value exits with one line naming the
    job and the key.
    """
    name = str(spec["name"])
    try:
        center = _load_point(str(spec["center"]), network.input_size)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"job {name!r}: bad 'center': {exc}") from None
    epsilon = _spec_value(spec, "epsilon", 0.05, float)
    if not epsilon >= 0.0:  # also rejects NaN
        raise SystemExit(
            f"job {name!r}: bad 'epsilon': must be a number >= 0, "
            f"got {epsilon}"
        )
    if "label" not in spec:
        prop = linf_property(network, center, epsilon, name=name)
        return prop, center, epsilon
    label = _spec_value(spec, "label", None, int)
    if not 0 <= label < network.output_size:
        raise SystemExit(
            f"job {name!r}: label {label} out of range for "
            f"{network.output_size}-class network {spec['network']}"
        )
    region = linf_property(network, center, epsilon).region
    return RobustnessProperty(region, label, name=name), center, epsilon


def _spec_job(spec: dict, network, args: argparse.Namespace) -> VerificationJob:
    """One job from a merged spec — a manifest entry, or ``verify``'s flags.

    The single place both verbs turn user input into a job, so every
    malformed value is guarded once: it exits with one line naming the
    job and the bad key.
    """
    name = str(spec["name"])
    prop, center, epsilon = _spec_property(spec, network)
    job_domain = str(spec.get("domain", args.domain))
    # A job that pins its own domain opts out of the policy artifact;
    # every "policy" job deploys it, and a --domain flag pinned next to
    # --policy-file is a conflict _resolve_policy reports.
    policy_file = getattr(args, "policy_file", None)
    if "domain" in spec and job_domain != "policy":
        policy_file = None
    policy = _resolve_policy(
        job_domain,
        _spec_value(spec, "disjuncts", args.disjuncts, int),
        policy_file,
    )
    # Radius-query metadata is only attached when the target label is
    # the network's own prediction at the center — the semantics a
    # certified-radius bracket assumes.  A pinned label asks a
    # different question, so such records must not fold into
    # ResultCache.radius_bounds.
    metadata = {}
    if "label" not in spec:
        metadata = {
            "center_digest": point_digest(center),
            "epsilon": epsilon,
        }
    timeout = _spec_value(spec, "timeout", args.timeout, float)
    delta = _spec_value(spec, "delta", args.delta, float)
    batch_size = _spec_value(spec, "batch_size", args.batch_size, int)
    try:
        config = VerifierConfig(
            timeout=timeout, delta=delta, batch_size=batch_size
        )
    except ValueError as exc:
        # VerifierConfig's messages name the offending knob.
        raise SystemExit(f"job {name!r}: {exc}") from None
    return VerificationJob(
        network,
        prop,
        config=config,
        policy=policy,
        seed=_spec_value(spec, "seed", args.seed, int),
        name=name,
        metadata=metadata,
    )


def cmd_schedule(args: argparse.Namespace) -> int:
    options = _run_options(args)
    if args.incremental and not args.cache:
        raise SystemExit(
            "--incremental requires --cache (prefix checkpoints live in "
            "the result cache)"
        )
    jobs = _manifest_jobs(args)
    cache = None
    if args.cache:
        cache = _open_cache(
            args.cache,
            max_entries=args.cache_max_entries,
            max_bytes=args.cache_max_bytes,
        )
    report = Scheduler(jobs, cache=cache, options=options).run()
    return _print_schedule_report(report, jobs, cache)


def _print_schedule_report(report, jobs, cache) -> int:
    """Shared ``schedule``/``diff-verify`` report printer + exit code."""
    width = max(len(job.name) for job in jobs)
    for result in report.results:
        suffix = "  [cached]" if result.cached else ""
        print(
            f"{result.job.name:<{width}}  {result.outcome.kind:<9} "
            f"{result.elapsed:8.2f}s{suffix}"
        )
    counts = report.outcome_counts()
    print(
        f"jobs: {len(report.results)}  verified: {counts['verified']}  "
        f"falsified: {counts['falsified']}  timeout: {counts['timeout']}"
    )
    print(
        f"run: {report.frontier} frontier, "
        f"{report.executor} executor x{report.workers}, "
        f"{report.sweeps} fused sweeps, {report.swept_items} work items, "
        f"{report.wall_clock:.2f}s wall clock"
    )
    _print_modes(report, cache)
    # Same convention as ``verify``: 0 only when everything is proven,
    # 1 when any property is falsified, 2 when budgets ran out — so a CI
    # gate never mistakes an all-timeout run for success.
    if counts["falsified"]:
        return 1
    return 2 if counts["timeout"] else 0


def _print_modes(report, cache=None) -> None:
    """The run's mode lines — abstraction, backend, cache, prefix —
    printed by every verb that runs the scheduler."""
    if report.abstraction != "off":
        print(
            f"abstraction: {report.abstraction} level "
            f"{report.abstraction_level}, {report.netabs_accepted}/"
            f"{len(report.results)} jobs accepted abstract, "
            f"{report.netabs_rounds} refinement rounds"
        )
    if report.escalation:
        print(
            f"backend: {report.screen_backend} screen, {report.escalated} "
            "jobs escalated to numpy64"
        )
    elif report.backend != "numpy64":
        print(f"backend: {report.backend}")
    if cache is not None:
        print(f"cache: {report.cache_hits} hits")
    if report.incremental:
        print(
            f"prefix: {report.prefix_hits} hits, "
            f"{report.prefix_layers_skipped} layers skipped"
        )


def cmd_diff_verify(args: argparse.Namespace) -> int:
    """Incremental re-verification of a manifest after a network change.

    Loads the superseded network only to report how deep the digest
    chains still agree; the run itself needs nothing from it — prefix
    checkpoints recorded under the old network are addressed by chain
    links the new network still shares.
    """
    options = _run_options(args)
    old_network = _load_archive(args.old_network, "bad old network")
    new_network = _load_archive(args.new_network, "bad new network")
    common = common_prefix_layers(old_network, new_network)
    total = len(new_network.layers)
    print(f"common prefix: {common}/{total} layers unchanged")
    jobs = _manifest_jobs(args, override_network=new_network)
    cache = _open_cache(
        args.cache,
        max_entries=args.cache_max_entries,
        max_bytes=args.cache_max_bytes,
    )
    report = Scheduler(jobs, cache=cache, options=options).run()
    return _print_schedule_report(report, jobs, cache)


def _suite_problems(path: str) -> list[TrainingProblem]:
    """Training problems from a manifest file (same shape as ``schedule``).

    Per-job ``domain``/``disjuncts``/``timeout`` keys are ignored: the
    policy is the thing being learned, and the per-problem budget comes
    from the trainer's cost model.
    """
    specs, networks = _load_manifest(path)
    problems = []
    for spec in specs:
        network = networks[spec["network"]]
        prop, _, _ = _spec_property(spec, network)
        problems.append(TrainingProblem(network, prop))
    return problems


def cmd_train(args: argparse.Namespace) -> int:
    # Imported here: the trainer pulls in scipy, which no other verb needs.
    from repro.learn import PolicyTrainer

    _check_flag(args.iterations >= 1, "--iterations", ">= 1", args.iterations)
    options = _run_options(args)
    problems = _suite_problems(args.suite)
    cache = _open_cache(args.cache) if args.cache else None
    try:
        trainer = PolicyTrainer(
            problems,
            time_limit=args.time_limit,
            penalty=args.penalty,
            n_initial=args.n_initial,
            base_config=VerifierConfig(max_depth=args.max_depth),
            rng=args.seed,
            candidates=args.candidates,
            options=options,
            cost_model=args.cost_model,
            cache=cache,
            rng_seed=args.seed,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(
        f"training on {len(problems)} problems "
        f"({args.iterations} BO evaluations, q={args.candidates}, "
        f"{options.workers} workers, {args.cost_model} cost) ..."
    )
    try:
        trained = trainer.train(args.iterations, verbose=True)
    finally:
        trainer.close()
    objective = trainer.objective
    default_score = trained.history.observations[0].y
    print(f"default policy score: {default_score:.3f}")
    print(f"best policy score:    {trained.best_score:.3f}")
    print(
        f"evaluations: {objective.evaluations} "
        f"({objective.fresh_calls} fresh kernel calls, "
        f"{objective.cache_hits} cached jobs)"
    )
    out = trained.save(args.out)
    print(f"policy artifact written to {out}")
    print(f"deploy it with: repro verify ... --policy-file {out}")
    return 0


def _safe_bracket(certified: float, falsified: float) -> tuple[float, float]:
    """Sanitize a cached radius bracket before seeding a search.

    Records cached under different δ/seed configurations can legitimately
    disagree (a δ-falsified witness at a radius a stricter run verified);
    an inverted bracket must degrade to a fresh search with a warning,
    never crash the command.
    """
    if falsified <= certified:
        print(
            f"warning: cached records disagree (certified {certified:.5f} "
            f">= falsified {falsified:.5f}; likely mixed δ/seed configs) — "
            "ignoring the cached bracket",
            file=sys.stderr,
        )
        return 0.0, float("inf")
    return certified, falsified


def cmd_radius(args: argparse.Namespace) -> int:
    if args.network.endswith(".json"):
        return _cmd_radius_manifest(args)
    if args.center is None:
        raise SystemExit("--center is required (or pass a .json manifest)")
    _check_flag(args.epsilon > 0.0, "--epsilon", "a number > 0", args.epsilon)
    _check_flag(args.timeout > 0.0, "--timeout", "a number > 0", args.timeout)
    network = _load_archive(args.network, "bad network")
    center = _flag_center(args, network)
    known_certified, known_falsified = 0.0, float("inf")
    if args.cache:
        known_certified, known_falsified = _safe_bracket(
            *_open_cache(args.cache).radius_bounds(network, center)
        )
    result = certified_radius(
        network,
        center,
        max_radius=args.epsilon,
        policy=_resolve_policy(args.domain, args.disjuncts, args.policy_file),
        config=VerifierConfig(timeout=args.timeout),
        rng=args.seed,
        known_certified=known_certified,
        known_falsified=known_falsified,
    )
    if args.cache:
        print(
            f"cached bracket:   [{known_certified:.5f}, "
            f"{_fmt_radius(known_falsified)}]"
        )
    print(f"certified radius: {result.certified:.5f}")
    print(f"falsified radius: {_fmt_radius(result.falsified)}")
    print(f"verifier probes:  {result.probes}")
    return 0


def _fmt_radius(value: float) -> str:
    return "none found" if value == float("inf") else f"{value:.5f}"


def _cmd_radius_manifest(args: argparse.Namespace) -> int:
    """Bracket the certified radius of every manifest center.

    For each (network, center) the persistent cache (``--cache``) is
    folded into a starting bracket via
    :meth:`~repro.sched.ResultCache.radius_bounds` *before* any probe job
    is spawned — centers whose cached records already pin the radius to
    within the tolerance cost zero verifier calls.  Jobs with a pinned
    ``label`` answer a different question than a radius query and are
    skipped.
    """
    if args.center is not None:
        raise SystemExit("--center conflicts with a manifest (.json) input")
    specs, networks = _load_manifest(args.network)
    cache = _open_cache(args.cache) if args.cache else None
    # One cache scan per network serves every center (radius_table);
    # dedup covers fully identical queries only — a different epsilon,
    # timeout, seed, or domain is a different question and still runs.
    tables: dict[str, dict] = {}
    seen: set[tuple] = set()
    total_probes = 0
    width = max(len(str(spec["name"])) for spec in specs)
    for spec in specs:
        name = str(spec["name"])
        if "label" in spec:
            print(f"{name:<{width}}  skipped (pinned label)")
            continue
        network = networks[spec["network"]]
        try:
            center = _load_point(str(spec["center"]), network.input_size)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"job {name!r}: bad 'center': {exc}") from None
        center_digest = point_digest(center)
        max_radius = _spec_value(spec, "epsilon", args.epsilon, float)
        if not max_radius > 0.0:  # also rejects NaN
            raise SystemExit(
                f"job {name!r}: bad 'epsilon': must be a number > 0, "
                f"got {max_radius}"
            )
        timeout = _spec_value(spec, "timeout", args.timeout, float)
        try:
            config = VerifierConfig(timeout=timeout)
        except ValueError as exc:
            raise SystemExit(f"job {name!r}: {exc}") from None
        seed = _spec_value(spec, "seed", args.seed, int)
        domain = str(spec.get("domain", args.domain))
        disjuncts = _spec_value(spec, "disjuncts", args.disjuncts, int)
        dedup_key = (
            spec["network"], center_digest, max_radius, timeout, seed,
            domain, disjuncts,
        )
        if dedup_key in seen:
            print(f"{name:<{width}}  skipped (duplicate query)")
            continue
        seen.add(dedup_key)
        known_certified, known_falsified = 0.0, float("inf")
        if cache is not None:
            if spec["network"] not in tables:
                tables[spec["network"]] = cache.radius_table(network)
            known_certified, known_falsified = _safe_bracket(
                *tables[spec["network"]].get(
                    center_digest, (0.0, float("inf"))
                )
            )
        result = certified_radius(
            network,
            center,
            max_radius=max_radius,
            policy=_resolve_policy(
                domain,
                disjuncts,
                args.policy_file if domain == "policy" else None,
            ),
            config=config,
            rng=seed,
            known_certified=known_certified,
            known_falsified=known_falsified,
        )
        total_probes += result.probes
        print(
            f"{name:<{width}}  certified {result.certified:.5f}  "
            f"falsified {_fmt_radius(result.falsified):<10}  "
            f"probes {result.probes}"
            + ("  [bracketed]" if known_certified > 0.0
               or known_falsified != float("inf") else "")
        )
    print(f"total probes: {total_probes}")
    return 0


def cmd_cache_prune(args: argparse.Namespace) -> int:
    cache = _open_cache(args.cache_dir)
    if args.max_entries is None and args.max_bytes is None:
        raise SystemExit("cache prune needs --max-entries and/or --max-bytes")
    try:
        result = cache.prune(
            max_entries=args.max_entries, max_bytes=args.max_bytes
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(
        f"pruned {result.removed} records ({result.freed_bytes} bytes); "
        f"{result.remaining} records ({result.remaining_bytes} bytes) remain"
    )
    results, prefixes = cache.family_counts()
    print(f"families: {results} result records, {prefixes} prefix records")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    _check_flag(args.epsilon >= 0.0, "--epsilon", "a number >= 0", args.epsilon)
    _check_flag(args.steps >= 1, "--steps", ">= 1", args.steps)
    _check_flag(args.restarts >= 1, "--restarts", ">= 1", args.restarts)
    _check_flag(args.timeout > 0.0, "--timeout", "a number > 0", args.timeout)
    network = _load_archive(args.network, "bad network")
    center = _flag_center(args, network)
    prop = linf_property(network, center, args.epsilon)
    result = find_counterexample(
        network,
        prop,
        PGDConfig(steps=args.steps, restarts=args.restarts),
        rng=args.seed,
        deadline=Deadline(args.timeout),
    )
    print(f"best margin found: {result.value:.6f}")
    if result.is_counterexample():
        print(f"counterexample: classified as {network.classify(result.x_star)}")
        np.save("counterexample.npy", result.x_star)
        print("counterexample written to counterexample.npy")
        return 1
    print("no counterexample found (property may still be false)")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    network = _load_archive(args.network, "bad network")
    print(network.summary())
    print(f"ReLU units: {network.num_relu_units()}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Summarize one ``--trace`` dump, or diff two (baseline vs candidate)."""
    if len(args.dumps) > 2:
        raise SystemExit("stats takes one dump (summary) or two (diff)")
    payloads = []
    for path in args.dumps:
        try:
            payload = load_dump(path)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read trace dump {path}: {exc}")
        for problem in validate_trace(payload):
            print(f"warning: {path}: {problem}", file=sys.stderr)
        payloads.append(payload)
    if len(payloads) == 1:
        print(summarize_dump(payloads[0], top=args.top))
    else:
        print(diff_dumps(payloads[0], payloads[1], top=args.top))
    return 0


def _finish_trace(path: str) -> None:
    """Flush the enabled tracer plus a full metrics snapshot to ``path``."""
    tracer().write(path, metrics=metrics_registry().snapshot())
    tracer().disable()
    print(f"trace written to {path}")


#: Every argument more than one verb takes, declared once: name ->
#: ``add_argument`` keywords.  A verb picks its own with
#: :func:`_add_flags`; the run-option flags among them are named after
#: their :class:`RunOptions` field (see :func:`_run_options`).
_FLAGS: dict[str, dict] = {
    "network": dict(help="path to a .npz network archive"),
    "manifest": dict(
        help="path to a JSON job manifest (see module docstring)"
    ),
    "--center": dict(
        default=None,
        help="input point: a .npy file or comma-separated values",
    ),
    "--epsilon": dict(type=float, default=0.05, help="L-infinity radius"),
    "--timeout": dict(
        type=float,
        default=10.0,
        help="per-job budget in seconds, counted from the job's first "
        "fused sweep (it bounds completion latency, since fused kernel "
        "time is shared across jobs)",
    ),
    "--delta": dict(type=float, default=1e-6, help="δ-completeness slack"),
    "--batch-size": dict(
        type=int,
        default=16,
        help="per-job frontier sub-regions per fused sweep",
    ),
    "--seed": dict(type=int, default=0, help="random seed"),
    "--cache": dict(
        default=None,
        help="directory of the persistent result cache (created on "
        "demand): the records it holds are reused instead of re-running "
        "kernel work",
    ),
    "--cache-max-entries": dict(
        type=int,
        default=None,
        help="record-count budget: least-recently-used records (results "
        "and prefix checkpoints) are pruned past it",
    ),
    "--cache-max-bytes": dict(
        type=int,
        default=None,
        help="total-size budget for the cache directory, same LRU pruning",
    ),
    "--frontier": dict(
        choices=sorted(FRONTIER_POLICIES),
        default="dfs",
        help="which jobs' chunks fill each fused sweep",
    ),
    "--workers": dict(
        type=int,
        default=1,
        help="cores for independent fused kernel groups: 1 runs them "
        "inline (serial executor), N > 1 on a pool of N worker processes "
        "(forked where safe)",
    ),
    "--domain": dict(
        choices=DOMAIN_CHOICES,
        default="policy",
        help="abstract domain: 'policy' lets the learned policy choose "
        "per sub-region; a base name pins it (all batched-kernel domains "
        "run GEMM-shaped under the batched engines)",
    ),
    "--disjuncts": dict(
        type=int,
        default=1,
        help="disjunct budget of the bounded powerset (requires a fixed "
        "--domain; e.g. --domain zonotope --disjuncts 2 is the paper's "
        "(Z, 2))",
    ),
    "--policy-file": dict(
        default=None,
        help="θ artifact from 'repro train': deploy that learned policy "
        "instead of the shipped one (requires --domain policy)",
    ),
    "--abstraction": dict(
        choices=ABSTRACTION_MODES,
        default="off",
        help="network-abstraction CEGAR pre-pass: merge similar neurons "
        "into a smaller strictly-over-approximating network, verify that "
        "first, and refine or fall back to the concrete network on "
        "spurious counterexamples.  'syntactic' clusters by weight rows, "
        "'semantic' by activation signatures over sampled inputs",
    ),
    "--abstraction-level": dict(
        type=int,
        default=NETABS_DEFAULT_LEVEL,
        metavar="N",
        help="aggressiveness of the merge: each hidden layer keeps "
        "~width/2^N neuron groups (higher = smaller abstract network, "
        f"looser bounds; default {NETABS_DEFAULT_LEVEL})",
    ),
    "--backend": dict(
        choices=BACKEND_CHOICES,
        default=None,
        help="array backend for the hot kernels: numpy64 (float64, the "
        "bitwise reference, default), numpy32 (float32 fast path; "
        "analyzer bounds stay sound via outward rounding)",
    ),
    "--precision-escalation": dict(
        action="store_true",
        help="two-phase mixed precision: screen every job on the float32 "
        "backend, accept falsifications after a concrete float64 witness "
        "check, and re-run only near-margin or undecided jobs on the "
        "float64 reference",
    ),
    "--escalation-margin": dict(
        type=float,
        default=1e-2,
        help="PGD-margin comfort threshold below which a screen-phase "
        "certification escalates to float64",
    ),
    "--trace": dict(
        default=None,
        metavar="PATH",
        help="write the run's spans and metric counters as a Chrome "
        "trace-event JSON file (view in chrome://tracing or Perfetto, "
        "summarize with 'repro stats')",
    ),
}

#: Flag groups several verbs share.
_POINT_FLAGS = ("network", "--center", "--epsilon", "--timeout", "--seed")
_JOB_FLAGS = ("--timeout", "--delta", "--batch-size", "--seed")
_POLICY_FLAGS = ("--domain", "--disjuncts", "--policy-file")
_ABSTRACTION_FLAGS = ("--abstraction", "--abstraction-level")
_BACKEND_FLAGS = ("--backend", "--precision-escalation", "--escalation-margin")
_CACHE_BUDGET_FLAGS = ("--cache-max-entries", "--cache-max-bytes")


def _add_flags(
    parser: argparse.ArgumentParser, *names: str, required: tuple = ()
) -> None:
    """Give ``parser`` the shared arguments ``names`` (see :data:`_FLAGS`);
    the options in ``required`` must be passed."""
    for name in names:
        extra = {"required": True} if name in required else {}
        parser.add_argument(name, **_FLAGS[name], **extra)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Charon-style neural network robustness analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify_parser = sub.add_parser("verify", help="decide a robustness property")
    _add_flags(
        verify_parser, *_POINT_FLAGS, "--delta", "--batch-size",
        *_POLICY_FLAGS, *_ABSTRACTION_FLAGS, *_BACKEND_FLAGS, "--trace",
        required=("--center",),
    )
    verify_parser.set_defaults(func=cmd_verify)

    schedule_parser = sub.add_parser(
        "schedule",
        help="run a manifest of jobs through the multi-property scheduler",
    )
    _add_flags(
        schedule_parser, "manifest", "--frontier", "--cache",
        *_CACHE_BUDGET_FLAGS, *_JOB_FLAGS, "--workers", *_POLICY_FLAGS,
        *_ABSTRACTION_FLAGS, *_BACKEND_FLAGS, "--trace",
    )
    schedule_parser.add_argument(
        "--incremental",
        action="store_true",
        help="prefix-checkpoint reuse (requires --cache): fused Analyze "
        "groups resume from the deepest cached per-layer checkpoint whose "
        "digest-chain link the network still shares — bitwise-identical "
        "to a cold run — and record checkpoints for future runs",
    )
    schedule_parser.set_defaults(func=cmd_schedule)

    diff_parser = sub.add_parser(
        "diff-verify",
        help="re-verify a manifest after a network change, resuming fused "
        "Analyze work from the prefix checkpoints a previous --incremental "
        "run recorded",
    )
    diff_parser.add_argument(
        "old_network", help="the superseded .npz network archive"
    )
    diff_parser.add_argument(
        "new_network", help="the changed .npz network archive to verify"
    )
    _add_flags(
        diff_parser, "manifest", "--cache", *_CACHE_BUDGET_FLAGS,
        "--frontier", *_JOB_FLAGS, "--workers", *_POLICY_FLAGS,
        *_BACKEND_FLAGS, "--trace",
        required=("--cache",),
    )
    # Always incremental: resuming from prefix checkpoints is the verb.
    diff_parser.set_defaults(func=cmd_diff_verify, incremental=True)

    train_parser = sub.add_parser(
        "train",
        help="learn a verification policy on a suite manifest "
        "(scheduled candidate evaluation; writes a --policy-file artifact)",
    )
    train_parser.add_argument(
        "suite", help="path to a JSON suite manifest (same shape as schedule)"
    )
    train_parser.add_argument(
        "--iterations",
        type=int,
        default=20,
        help="Bayesian-optimization evaluations after the default-θ seed",
    )
    train_parser.add_argument(
        "--candidates",
        type=int,
        default=1,
        help="BO batch width q: candidates proposed (constant-liar q-EI) "
        "and evaluated per scheduler run",
    )
    train_parser.add_argument(
        "--cost-model",
        choices=COST_MODELS,
        default="work",
        help="'work' = deterministic kernel-call cost under the depth-cap "
        "budget (reproducible, cacheable); 'time' = the paper's wall-clock "
        "cost under --time-limit",
    )
    train_parser.add_argument(
        "--time-limit",
        type=float,
        default=2.0,
        help="per-problem budget in seconds (time cost model)",
    )
    train_parser.add_argument(
        "--max-depth",
        type=int,
        default=8,
        help="per-problem refinement depth budget (work cost model)",
    )
    train_parser.add_argument(
        "--penalty",
        type=float,
        default=2.0,
        help="unsolved-problem cost multiplier p",
    )
    train_parser.add_argument(
        "--n-initial",
        type=int,
        default=5,
        help="random BO samples before the GP model takes over",
    )
    train_parser.add_argument(
        "--out",
        default="trained_policy.json",
        help="where to write the θ artifact",
    )
    _add_flags(
        train_parser, "--workers", "--cache", "--seed", *_BACKEND_FLAGS,
        "--trace",
    )
    train_parser.set_defaults(func=cmd_train)

    radius_parser = sub.add_parser(
        "radius",
        help="certified-radius search (one network, or every center of a "
        ".json manifest — bracketed from cached records first)",
    )
    _add_flags(radius_parser, *_POINT_FLAGS, "--cache", *_POLICY_FLAGS)
    radius_parser.set_defaults(func=cmd_radius)

    cache_parser = sub.add_parser(
        "cache", help="persistent result-cache housekeeping"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    prune_parser = cache_sub.add_parser(
        "prune",
        help="evict least-recently-used records until the budgets hold",
    )
    prune_parser.add_argument("cache_dir", help="cache directory to prune")
    prune_parser.add_argument(
        "--max-entries", type=int, default=None, help="record-count budget"
    )
    prune_parser.add_argument(
        "--max-bytes", type=int, default=None, help="total-size budget"
    )
    prune_parser.set_defaults(func=cmd_cache_prune)

    attack_parser = sub.add_parser("attack", help="PGD falsification only")
    _add_flags(attack_parser, *_POINT_FLAGS, required=("--center",))
    attack_parser.add_argument("--steps", type=int, default=100)
    attack_parser.add_argument("--restarts", type=int, default=5)
    attack_parser.set_defaults(func=cmd_attack)

    info_parser = sub.add_parser("info", help="print network architecture")
    _add_flags(info_parser, "network")
    info_parser.set_defaults(func=cmd_info)

    stats_parser = sub.add_parser(
        "stats",
        help="summarize a --trace dump, or diff two (baseline candidate)",
    )
    stats_parser.add_argument(
        "dumps",
        nargs="+",
        help="one trace JSON file to summarize, or two to diff "
        "(baseline first)",
    )
    stats_parser.add_argument(
        "--top",
        type=int,
        default=20,
        help="rows per section in the summary/diff tables",
    )
    stats_parser.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Tracing brackets the whole command (the tracer must be live before
    # any executor spawns or kernel runs), and the dump is written even
    # when the command exits nonzero — a falsified/timeout run is exactly
    # the one worth inspecting.
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return args.func(args)
    tracer().enable()
    try:
        return args.func(args)
    finally:
        _finish_trace(trace_path)


if __name__ == "__main__":
    sys.exit(main())
