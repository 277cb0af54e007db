"""The ``Analyze`` procedure: abstract interpretation of a whole network.

Pushes an abstract element through the network's lowered op sequence and
checks the robustness condition ``∀j≠K. y_K > y_j`` on the output element
(using each domain's sharpest available margin bound — relational for
zonotopes).  This is the role ELINA plays inside the original Charon.
Algorithm 1 needs one fact per region from it, so every entry point
returns margins (:class:`AnalysisResult`), never the output element;
tests that inspect an output element build it with :func:`propagate`.

One body, :func:`_analyze`, runs every call, and it exploits the paper's
§6 observation that sub-region analyses are independent: every domain
with a batched kernel (:meth:`~repro.abstract.domains.DomainSpec.lift_batch`
— interval, DeepPoly, zonotope, and powerset-of-zonotope) propagates all
``B`` regions simultaneously, turning every affine transformer into a
single GEMM over the batch.  :func:`analyze` is its one-region view,
:func:`analyze_batch_multi` its plain view and
:func:`analyze_batch_checkpointed` its prefix-checkpoint view.  The
remaining domains (symbolic intervals, interval powersets) propagate
each region from its own :meth:`~repro.abstract.domains.DomainSpec.lift`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.abstract.checkpoint import (
    PrefixBounds,
    capture_element,
    ops_consumed,
    region_batch_digest,
    restore_element,
    supports_checkpoint,
)
from repro.abstract.domains import DomainSpec
from repro.backend import active as _active_backend
from repro.nn.network import AffineOp, MaxPoolOp, Network, PadOp, ReluOp
from repro.nn.serialize import layer_digests
from repro.obs.metrics import registry as _metrics_registry
from repro.utils.boxes import Box
from repro.utils.timing import Deadline

#: Shared with :mod:`repro.attack.pgd` (same registry group): Analyze
#: invocations and the rows they carried.  Incremented once per call
#: (:func:`_checked_batch`), on whichever process runs it, so Serial and
#: Process runs count the same work exactly once.
_KERNEL_COUNTERS = _metrics_registry().group(
    "kernel", ("pgd_batches", "pgd_rows", "analyze_batches", "analyze_rows")
)


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of one region's abstract-interpretation run.

    Attributes:
        verified: True when the output abstraction proves the property.
        margin_lower_bound: sound lower bound on
            ``min_{j≠K} (y_K - y_j)`` over the region; positive iff verified.
    """

    verified: bool
    margin_lower_bound: float


def propagate(
    ops: list,
    element,
    deadline: Deadline | None = None,
):
    """Run an abstract element (sequential or batched) through a lowered
    op sequence: the one op loop every analyzer entry point runs."""
    for op in ops:
        if deadline is not None:
            deadline.check()
        if isinstance(op, AffineOp):
            element = element.affine(op.weight, op.bias)
        elif isinstance(op, ReluOp):
            element = element.relu()
        elif isinstance(op, MaxPoolOp):
            element = element.maxpool(op.windows)
        elif isinstance(op, PadOp):
            element = element.pad(op.radii)
        else:
            raise TypeError(f"unknown op type {type(op).__name__}")
    return element


def _checked_batch(
    network: Network, regions: Sequence[Box], labels: Sequence[int]
) -> None:
    """Validate one Analyze call's operands, then count it as kernel work.

    The per-backend counters ``kernel.by_backend.<name>.*`` are scalar
    (non-group) counters, so a backend name needs no registration;
    worker-side deltas still merge into the parent through
    :meth:`~repro.obs.metrics.MetricsRegistry.merge_counters`.
    """
    if len(labels) != len(regions):
        raise ValueError(
            f"got {len(labels)} labels for {len(regions)} regions"
        )
    if not regions:
        raise ValueError("Analyze needs at least one region")
    for region in regions:
        if region.ndim != network.input_size:
            raise ValueError(
                f"region has {region.ndim} dims, network expects "
                f"{network.input_size}"
            )
    for lab in labels:
        if not 0 <= lab < network.output_size:
            raise ValueError(
                f"label {lab} out of range for {network.output_size} outputs"
            )
    _KERNEL_COUNTERS["analyze_batches"] += 1
    _KERNEL_COUNTERS["analyze_rows"] += len(regions)
    reg = _metrics_registry()
    name = _active_backend().name
    reg.inc(f"kernel.by_backend.{name}.analyze_batches", 1)
    reg.inc(f"kernel.by_backend.{name}.analyze_rows", len(regions))


def _row_margins(element, labels: Sequence[int]) -> np.ndarray:
    """Each row's margin bound on a propagated batched element.

    Margin back-substitution scales with rows × batch, so each label
    group is bounded only on its own row subset instead of paying the
    full batch once per distinct label.
    """
    label_arr = np.asarray(labels, dtype=np.int64)
    distinct = sorted(set(int(lab) for lab in label_arr))
    if len(distinct) == 1:
        return np.asarray(element.min_margin(distinct[0]))
    margins = np.empty(label_arr.size)
    for lab in distinct:
        rows = np.flatnonzero(label_arr == lab)
        margins[rows] = element.rows(rows).min_margin(lab)
    return margins


def _checkpointed_walk(
    network: Network,
    element,
    regions_digest: str | None,
    domain: DomainSpec,
    deadline: Deadline | None,
    resume,
    capture_boundaries,
):
    """Propagate from ``resume`` (or cold) while capturing checkpoints.

    Returns ``(output_element, captured)``.  Resuming restores the
    boundary state bitwise, so the suffix ops see exactly the arrays a
    cold run would have produced there — that, plus identical op
    sequences past the boundary, is the whole bitwise-resume argument.
    """
    backend = _active_backend().name
    ops = network.ops_for(_active_backend().dtype)
    start = 0
    if resume is not None:
        if resume.backend != backend:
            raise ValueError(
                f"checkpoint backend {resume.backend!r} does not match "
                f"active backend {backend!r}"
            )
        if tuple(resume.domain) != (domain.base, domain.disjuncts):
            raise ValueError(
                f"checkpoint domain {resume.domain} does not match "
                f"({domain.base}, {domain.disjuncts})"
            )
        if resume.regions_digest != regions_digest:
            raise ValueError("checkpoint was captured for a different batch")
        element = restore_element(resume, ops)
        start = resume.op_count
    targets: dict[int, int] = {}
    for boundary in sorted(set(capture_boundaries)):
        op_count = ops_consumed(network, boundary)
        if start < op_count <= len(ops):
            targets[op_count] = boundary
    chain = layer_digests(network) if targets else []
    captured: list = []
    for op_count in sorted(targets):
        element = propagate(ops[start:op_count], element, deadline)
        start = op_count
        kind, meta, arrays = capture_element(element, ops)
        captured.append(
            PrefixBounds(
                boundary=targets[op_count],
                op_count=op_count,
                prefix_digest=chain[targets[op_count] - 1],
                regions_digest=regions_digest,
                domain=(domain.base, domain.disjuncts),
                backend=backend,
                kind=kind,
                meta=meta,
                arrays=arrays,
            )
        )
    return propagate(ops[start:], element, deadline), captured


def _analyze(
    network: Network,
    regions: Sequence[Box],
    labels: Sequence[int],
    domain: DomainSpec,
    deadline: Deadline | None,
    resume,
    capture: Sequence[int],
) -> tuple[list[AnalysisResult], list]:
    """The one Analyze body: ``(results, captured)`` for one call.

    Checks and counts the call, lifts the batch (or restores it from
    ``resume``), walks the ops while capturing prefix checkpoints at the
    ``capture`` layer boundaries, and bounds each row's margin.  Domains
    without a batched kernel propagate each region from its own lift;
    symbolic intervals keep the float64 lowering under every backend
    (they carry no outward rounding, DESIGN §12).
    """
    _checked_batch(network, regions, labels)
    element = None if resume is not None else domain.lift_batch(list(regions))
    captured: list = []
    if element is None and resume is None:
        ops = (
            network.ops()
            if domain.base == "symbolic"
            else network.ops_for(_active_backend().dtype)
        )
        margins = [
            propagate(ops, domain.lift(region), deadline).min_margin(lab)
            for region, lab in zip(regions, labels)
        ]
    else:
        digest = (
            region_batch_digest(regions)
            if resume is not None or capture
            else None
        )
        element, captured = _checkpointed_walk(
            network, element, digest, domain, deadline, resume, capture
        )
        margins = _row_margins(element, labels)
    results = [AnalysisResult(bool(m > 0.0), float(m)) for m in margins]
    return results, captured


def analyze(
    network: Network,
    region: Box,
    label: int,
    domain: DomainSpec,
    deadline: Deadline | None = None,
) -> AnalysisResult:
    """Attempt to verify ``(region, label)`` on ``network`` with ``domain``.

    Sound: ``verified=True`` implies every point of ``region`` is classified
    as ``label``.  Incomplete: ``verified=False`` only means this abstraction
    could not prove it.  A one-region batch: the result is row 0 of
    :func:`analyze_batch_multi` on ``[region]``.
    """
    results, _ = _analyze(
        network, [region], [label], domain, deadline, None, ()
    )
    return results[0]


def analyze_batch_multi(
    network: Network,
    regions: Sequence[Box],
    labels: Sequence[int],
    domain: DomainSpec,
    deadline: Deadline | None = None,
) -> list[AnalysisResult]:
    """Attempt to verify every ``(regions[i], labels[i])`` at once.

    This is the sweep kernel of the multi-property scheduler: sub-regions
    of different properties of the same network share one batched
    propagation (the label plays no role until the output margin check),
    then the margin bound is evaluated per label group on the matching
    row subset.  Region ``i``'s result is its sequential twin's
    (``propagate(ops, domain.lift(region))``): the batched interval and
    DeepPoly paths differ from it only by BLAS kernel round-off
    (reduction order depends on operand shapes), while the zonotope and
    powerset-of-zonotope kernels are bitwise identical (their round-based
    case-split kernels are batch-height-stable by construction — see
    :mod:`repro.abstract.zonotope_batch`).
    """
    results, _ = _analyze(
        network, regions, labels, domain, deadline, None, ()
    )
    return results


def analyze_batch_checkpointed(
    network: Network,
    regions: Sequence[Box],
    labels: Sequence[int],
    domain: DomainSpec,
    deadline: Deadline | None = None,
    resume=None,
    capture_boundaries: Sequence[int] = (),
):
    """:func:`analyze_batch_multi` with prefix-checkpoint emit/resume.

    Returns ``(results, captured)``: the per-row results (identical to
    the plain batched analyzer — a cold call with no capture boundaries
    runs the exact same float sequence) plus any
    :class:`~repro.abstract.checkpoint.PrefixBounds` captured at the
    requested layer boundaries.  ``resume`` must have been captured for
    this exact ordered region batch (checked against the batch's own
    digest), domain, and backend; the suffix run is then
    bitwise-identical to the cold run from the boundary on.
    """
    if not supports_checkpoint(domain):
        raise ValueError(
            f"domain {domain} does not support prefix checkpoints"
        )
    return _analyze(
        network, regions, labels, domain, deadline, resume,
        tuple(capture_boundaries),
    )
