"""Prefix checkpoints: abstract states at layer boundaries, reusable
across networks that share a digest-chain prefix.

A fine-tune that touches only the last ``k`` layers leaves every abstract
state up to the first changed layer identical by construction — DeepPoly
relations, zonotope generator stacks, and interval bounds are pure
functions of (prefix ops, input regions).  This module is the seam that
makes that reuse concrete:

- :class:`PrefixBounds` is one checkpoint: the abstract element at layer
  boundary ``b``, addressed by (prefix digest, region-batch digest,
  domain, backend).  The prefix digest is link ``b-1`` of
  :func:`repro.nn.serialize.layer_digests`, so checkpoints captured while
  verifying the *old* network are found verbatim when probing with the
  *new* network's chain — no old-network handle needed at resume time.
- :func:`capture_element` / :func:`restore_element` are the codecs.  The
  bitwise-resume contract (pinned by ``tests/abstract/test_checkpoint``)
  is that resuming from a restored element and running the suffix ops
  reproduces the cold run's floats exactly.  Two codec details carry that
  contract: captured arrays are deep C-contiguous copies (the fused
  zonotope kernels reuse scratch arenas, and pad relations hold broadcast
  views), and DeepPoly's shared-affine relations are restored as
  *references to the op arrays* so the ``al is au`` exact-rewrite fast
  path — a different float sequence from the sign-split path — survives
  the round trip.
- Checkpoints are keyed on the digest of the **entire ordered region
  batch** (:func:`region_batch_digest`), not per region: the batched
  interval and DeepPoly kernels' BLAS round-off depends on the batch
  height, so only an identical batch resumes bitwise.  Labels are
  excluded — they play no role until the output margin check.

Only single-disjunct interval, zonotope, and DeepPoly *batch* states
are checkpointable (:func:`supports_checkpoint`); symbolic intervals and
powersets fall back to cold runs gracefully.  Single-region resume is a
height-1 batch — the sequential elements have no codec.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.abstract.deeppoly import (
    DeepPolyBatch,
    _DenseBounds,
    _DiagBounds,
    _LayerBounds,
)
from repro.abstract.interval import IntervalBatch
from repro.abstract.zonotope_batch import ZonotopeBatch
from repro.nn.layers import Flatten, ReLU
from repro.nn.network import AffineOp, Network

#: Base domains with a checkpoint codec.  Symbolic intervals keep their
#: relations entangled with the input box in a form no boundary state
#: captures cleanly, and powerset disjunct counts vary per region — both
#: degrade to cold runs.
CHECKPOINT_BASES = ("interval", "zonotope", "deeppoly")


def supports_checkpoint(domain) -> bool:
    """Whether ``domain`` states can be captured and resumed bitwise."""
    return domain.disjuncts == 1 and domain.base in CHECKPOINT_BASES


@dataclass(frozen=True)
class PrefixBounds:
    """The abstract state at a layer boundary, plus its cache address.

    ``boundary`` counts *layers* (digest-chain links) consumed;
    ``op_count`` counts lowered analyzer ops (Flatten layers lower to no
    op, so the two differ on conv nets).  ``meta`` is the codec's
    JSON-serializable structure description and ``arrays`` its named
    ndarray payload — exactly what :mod:`repro.sched.cache` persists as a
    ``PrefixRecord`` file.
    """

    boundary: int
    op_count: int
    prefix_digest: str
    regions_digest: str
    domain: tuple[str, int]
    backend: str
    kind: str
    meta: list | None
    arrays: dict


def checkpoint_boundaries(network: Network) -> list[int]:
    """Layer boundaries worth checkpointing: after each hidden ReLU.

    Post-activation states are where reuse pays — the following affine
    layer is the first place a fine-tune can diverge — and bounding the
    set to ReLUs keeps capture storage linear in depth, not in layers.
    The full-network boundary is excluded (that state is the result the
    ordinary result cache already stores).
    """
    return [
        b
        for b in range(1, len(network.layers))
        if isinstance(network.layers[b - 1], ReLU)
    ]


def ops_consumed(network: Network, boundary: int) -> int:
    """Lowered ops covered by the first ``boundary`` layers.

    Flatten layers disappear in the lowering (see ``Network.ops``); every
    other layer lowers to exactly one op, so the map is a simple count.
    """
    return sum(
        1
        for layer in network.layers[:boundary]
        if not isinstance(layer, Flatten)
    )


def region_batch_digest(regions) -> str:
    """Content address of an *ordered* region batch.

    Hashes the stacked float64 bounds (shape included): the batched
    kernels' BLAS round-off depends on batch height and row order, so a
    checkpoint is only bitwise-resumable by the identical batch.
    """
    lows = np.ascontiguousarray(
        np.stack([np.asarray(r.low) for r in regions]), dtype=np.float64
    )
    highs = np.ascontiguousarray(
        np.stack([np.asarray(r.high) for r in regions]), dtype=np.float64
    )
    return region_arrays_digest(lows, highs)


def region_arrays_digest(lows: np.ndarray, highs: np.ndarray) -> str:
    """:func:`region_batch_digest` on pre-stacked ``(R, n)`` arrays."""
    lows = np.ascontiguousarray(lows, dtype=np.float64)
    highs = np.ascontiguousarray(highs, dtype=np.float64)
    digest = hashlib.sha256(str(lows.shape).encode())
    digest.update(lows.tobytes())
    digest.update(highs.tobytes())
    return digest.hexdigest()


def _snap(arr: np.ndarray) -> np.ndarray:
    """A C-contiguous deep copy: checkpoint arrays must not alias the
    element (fused kernels reuse scratch arenas in place) and must not be
    broadcast views (pad relations broadcast shared radii)."""
    return np.array(arr, order="C", copy=True)


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------


def _capture_deeppoly_relations(relations, ops) -> tuple[list, dict]:
    """Relation list -> (meta, arrays).  Relation ``j`` pairs with
    ``ops[j]`` (every op appends exactly one relation)."""
    meta: list = []
    arrays: dict[str, np.ndarray] = {}
    for j, rel in enumerate(relations):
        if isinstance(rel, _DiagBounds):
            meta.append({"t": "diag", "bl": rel.bl is not None})
            arrays[f"r{j}_dl"] = _snap(rel.dl)
            arrays[f"r{j}_du"] = _snap(rel.du)
            arrays[f"r{j}_bu"] = _snap(rel.bu)
            if rel.bl is not None:
                arrays[f"r{j}_bl"] = _snap(rel.bl)
        elif isinstance(rel, _DenseBounds):
            # rows() and the batched maxpool build these; the stacked
            # operands are a pure function of (al, bl, au, bu), so
            # _DenseBounds.build reproduces them bitwise on restore.
            meta.append({"t": "dense"})
            arrays[f"r{j}_al"] = _snap(rel.al)
            arrays[f"r{j}_bl"] = _snap(rel.bl)
            arrays[f"r{j}_au"] = _snap(rel.au)
            arrays[f"r{j}_bu"] = _snap(rel.bu)
        elif rel.al is rel.au:
            op = ops[j] if j < len(ops) else None
            if (
                isinstance(op, AffineOp)
                and rel.al is op.weight
                and rel.bl is op.bias
            ):
                # Shared exact-affine relation holding the op's own
                # arrays: store a marker, restore from ops_for(dtype) —
                # the prefix digest guarantees identical op arrays, and
                # the reference keeps the `al is au` exact-rewrite path.
                meta.append({"t": "affine"})
            else:
                meta.append({"t": "affine_arrays"})
                arrays[f"r{j}_al"] = _snap(rel.al)
                arrays[f"r{j}_bl"] = _snap(rel.bl)
        else:
            meta.append({"t": "layer"})
            arrays[f"r{j}_al"] = _snap(rel.al)
            arrays[f"r{j}_bl"] = _snap(rel.bl)
            arrays[f"r{j}_au"] = _snap(rel.au)
            arrays[f"r{j}_bu"] = _snap(rel.bu)
    return meta, arrays


def _restore_deeppoly_relations(meta, arrays, ops) -> list:
    relations: list = []
    for j, spec in enumerate(meta):
        t = spec["t"]
        if t == "diag":
            relations.append(
                _DiagBounds(
                    arrays[f"r{j}_dl"],
                    arrays[f"r{j}_du"],
                    arrays[f"r{j}_bu"],
                    bl=arrays[f"r{j}_bl"] if spec["bl"] else None,
                )
            )
        elif t == "dense":
            relations.append(
                _DenseBounds.build(
                    arrays[f"r{j}_al"],
                    arrays[f"r{j}_bl"],
                    arrays[f"r{j}_au"],
                    arrays[f"r{j}_bu"],
                )
            )
        elif t == "affine":
            op = ops[j]
            if not isinstance(op, AffineOp):
                raise ValueError(
                    f"checkpoint relation {j} expects an affine op, got "
                    f"{type(op).__name__}"
                )
            relations.append(
                _LayerBounds(op.weight, op.bias, op.weight, op.bias)
            )
        elif t == "affine_arrays":
            al = arrays[f"r{j}_al"]
            bl = arrays[f"r{j}_bl"]
            relations.append(_LayerBounds(al, bl, al, bl))
        elif t == "layer":
            relations.append(
                _LayerBounds(
                    arrays[f"r{j}_al"],
                    arrays[f"r{j}_bl"],
                    arrays[f"r{j}_au"],
                    arrays[f"r{j}_bu"],
                )
            )
        else:
            raise ValueError(f"unknown checkpoint relation kind {t!r}")
    return relations


def capture_element(element, ops) -> tuple[str, list | None, dict]:
    """Encode a batched abstract element as ``(kind, meta, arrays)``.

    ``ops`` is the lowered op sequence the element was propagated
    through (used to recognize DeepPoly relations that alias op arrays).
    """
    if isinstance(element, IntervalBatch):
        return (
            "interval_batch",
            None,
            {"low": _snap(element.low), "high": _snap(element.high)},
        )
    if isinstance(element, ZonotopeBatch):
        return (
            "zonotope_batch",
            None,
            {
                "centers": _snap(element.centers),
                "gens": _snap(element.gens),
                "errs": _snap(element.errs),
            },
        )
    if isinstance(element, DeepPolyBatch):
        meta, arrays = _capture_deeppoly_relations(element.layers, ops)
        arrays["box_low"] = _snap(element.box_low)
        arrays["box_high"] = _snap(element.box_high)
        return "deeppoly_batch", meta, arrays
    raise TypeError(
        f"no checkpoint codec for element type {type(element).__name__}"
    )


def restore_element(record: PrefixBounds, ops):
    """Decode a :class:`PrefixBounds` back into a live abstract element.

    The constructors used here are bitwise-idempotent on checkpoint
    data: ``IntervalBatch`` re-applies ``np.maximum(high, low)`` (a
    fixpoint on stored bounds), the zonotope constructor only validates,
    and the DeepPoly batch takes its relation list verbatim.
    """
    kind, arrays = record.kind, record.arrays
    if kind == "interval_batch":
        return IntervalBatch(arrays["low"], arrays["high"])
    if kind == "zonotope_batch":
        return ZonotopeBatch(arrays["centers"], arrays["gens"], arrays["errs"])
    if kind == "deeppoly_batch":
        relations = _restore_deeppoly_relations(record.meta, arrays, ops)
        return DeepPolyBatch(arrays["box_low"], arrays["box_high"], relations)
    raise ValueError(f"unknown checkpoint kind {kind!r}")
