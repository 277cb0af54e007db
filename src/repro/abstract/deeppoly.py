"""A DeepPoly-style back-substitution domain (§9: "a broader set of
abstract domains").

Each processed op stores *linear bounds of its output with respect to its
immediate input*:

    Al·v_prev + bl  <=  v  <=  Au·v_prev + bu.

Affine ops are exact (Al = Au = W).  Crossing ReLUs use the DeepPoly
relaxation: the chord as upper bound and the adaptive 0-or-identity lower
bound (identity when the positive side dominates).  ReLU relations are
diagonal, so they are stored as coefficient *vectors* and applied
element-wise during back-substitution — never materialized as ``(n, n)``
matrices.  Max pooling keeps the window's best lower unit as the lower
bound and degrades the upper bound to a constant unless one unit dominates.

Concrete bounds of *any* linear expression over the current output are
computed by **back-substitution**: the expression is rewritten layer by
layer toward the input, choosing the lower or upper relation per
coefficient sign, and finally evaluated over the input box.  Composing the
relaxations symbolically — rather than concretizing at every layer like
plain symbolic intervals — is what makes DeepPoly-style analyses tight on
deep networks, and it directly yields relational margin bounds.

:class:`DeepPolyBatch` runs the same analysis for ``B`` regions at once:
affine relations are shared across the batch (one weight matrix), ReLU
relaxation vectors get a leading batch axis, and back-substitution becomes
a stack of GEMMs — the §6 "independent sub-region analyses" opportunity
realized as batching.  Per-region dense relations (maxpool) pre-stack
their sign-split operands at construction so every rewrite through them
runs as one fused ``(B, rows, 2n)`` GEMM (:class:`_DenseBounds`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.abstract.batched import BatchedElement
from repro.backend import active as _active_backend
from repro.backend import outward_cast as _outward_cast
from repro.backend import slack_for as _slack_for
from repro.utils.boxes import Box


@dataclass(frozen=True)
class _LayerBounds:
    """Dense linear bounds of one op's output w.r.t. its input vector."""

    al: np.ndarray
    bl: np.ndarray
    au: np.ndarray
    bu: np.ndarray


@dataclass(frozen=True)
class _DenseBounds(_LayerBounds):
    """A per-region dense relation with its sign-split operands
    pre-stacked for the fused batched rewrite.

    ``lower_rel = [al ; au]`` and ``upper_rel = [au ; al]`` along the
    relation axis (biases likewise), built **once** when the layer is
    created: every back-substitution rewrite through the layer then runs
    as a single ``(B, rows, 2n)`` batched GEMM against the stacked
    relation instead of two half-width GEMMs plus an add (the ROADMAP's
    sign-split fusion — the two GEMMs' flops are identical, so the win
    is the saved add pass and kernel launches, which is why the stacking
    must be amortized here rather than paid per rewrite).
    """

    lower_rel: np.ndarray = None
    lower_bias: np.ndarray = None
    upper_rel: np.ndarray = None
    upper_bias: np.ndarray = None

    @staticmethod
    def build(
        al: np.ndarray, bl: np.ndarray, au: np.ndarray, bu: np.ndarray
    ) -> "_DenseBounds":
        return _DenseBounds(
            al, bl, au, bu,
            lower_rel=np.concatenate([al, au], axis=1),
            lower_bias=np.concatenate([bl, bu], axis=1),
            upper_rel=np.concatenate([au, al], axis=1),
            upper_bias=np.concatenate([bu, bl], axis=1),
        )


@dataclass(frozen=True)
class _DiagBounds:
    """Diagonal (per-unit) bounds — the shape every ReLU relaxation has.

    The lower relation is ``diag(dl)·v + bl`` where ``bl`` is ``None``
    (identically zero) for DeepPoly's 0-or-identity ReLU lower bound and
    a negative radius vector for pad layers; the upper relation is
    ``diag(du)·v + bu``.  Coefficients may carry a leading batch axis.
    """

    dl: np.ndarray
    du: np.ndarray
    bu: np.ndarray
    bl: np.ndarray | None = None


def _split_signs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.maximum(a, 0.0), np.minimum(a, 0.0)


def _slack_terms(layers: list, n_in: int) -> int:
    """The float32 slack's term count ``(L+1)·max(n_in, width)``, with
    ``width`` the widest relation in the chain: every rewrite's dot
    products run over some relation's width, not only the final
    concretization over the input (DESIGN §12)."""
    width = n_in
    for layer in layers:
        if isinstance(layer, _DiagBounds):
            width = max(width, layer.dl.shape[-1])
        else:
            width = max(width, *layer.al.shape[-2:])
    return (len(layers) + 1) * width


def _relu_relaxation(
    low: np.ndarray, high: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DeepPoly ReLU coefficients ``(dl, du, bu)`` from concrete bounds.

    Vectorized over any leading axes: stable units get the identity, dead
    units zero, and crossing units the chord upper bound
    ``u(z - l)/(u - l)`` with the adaptive 0-or-identity lower bound
    (identity when the positive side dominates, minimizing relaxation area).
    """
    # Typed scalars keep the coefficients in the input dtype: a bare
    # ``np.where(cond, 1.0, 0.0)`` is float64 and would silently promote
    # every later rewrite back to DGEMM on the float32 path.
    one = low.dtype.type(1.0)
    zero = low.dtype.type(0.0)
    stable = low >= 0.0
    crossing = (~stable) & (high > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(crossing, high / (high - low), zero)
    du = np.where(stable, one, slope)
    bu = np.where(crossing, -slope * low, zero)
    dl = np.where(stable | (crossing & (high > -low)), one, zero)
    return dl, du, bu


def _unsettled(known: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """Units whose one computed bound does not fix their relaxation.

    ``known`` holds ``l_j`` where ``plus`` and ``u_j`` elsewhere.
    ``l_j >= 0`` makes a unit stable and ``u_j < 0`` dead whatever the
    other side is; every other unit needs both bounds.
    """
    return np.where(plus, known < 0.0, known >= 0.0)


class DeepPolyState:
    """Analysis state after a prefix of the op sequence.

    Immutable in spirit: every transformer returns a new state sharing the
    already-processed layer list.
    """

    def __init__(
        self, box: Box, layers: list[_LayerBounds | _DiagBounds] | None = None
    ) -> None:
        self.box = box
        self.layers: list[_LayerBounds | _DiagBounds] = (
            list(layers) if layers else []
        )

    @staticmethod
    def identity(box: Box) -> "DeepPolyState":
        return DeepPolyState(box)

    @property
    def size(self) -> int:
        if self.layers:
            last = self.layers[-1]
            if isinstance(last, _DiagBounds):
                return last.dl.shape[-1]
            return last.bl.size
        return self.box.ndim

    # ------------------------------------------------------------------
    # Back-substitution
    # ------------------------------------------------------------------

    @property
    def _dtype(self) -> np.dtype:
        """The dtype the relations carry (the backend's choice at analysis
        time); float64 for an empty state."""
        for layer in self.layers:
            if isinstance(layer, _DiagBounds):
                return layer.dl.dtype
            return layer.al.dtype
        return np.dtype(np.float64)

    def _bound_expr(self, a: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
        """Concrete lower (or upper) bounds of ``a·v + b`` over the region,
        where ``v`` is the current output vector.  ``a``: ``(rows, size)``."""
        a = np.atleast_2d(a)
        b = np.atleast_1d(b).astype(a.dtype)
        for layer in reversed(self.layers):
            if isinstance(layer, _DiagBounds):
                pos, neg = _split_signs(a)
                if lower:
                    b = b + neg @ layer.bu
                    if layer.bl is not None:
                        b = b + pos @ layer.bl
                    a = pos * layer.dl + neg * layer.du
                else:
                    b = b + pos @ layer.bu
                    if layer.bl is not None:
                        b = b + neg @ layer.bl
                    a = pos * layer.du + neg * layer.dl
                continue
            if layer.al is layer.au:
                # Exact affine relation: no sign split needed.
                b = a @ layer.bl + b
                a = a @ layer.al
                continue
            pos, neg = _split_signs(a)
            if lower:
                b = pos @ layer.bl + neg @ layer.bu + b
                a = pos @ layer.al + neg @ layer.au
            else:
                b = pos @ layer.bu + neg @ layer.bl + b
                a = pos @ layer.au + neg @ layer.al
        pos, neg = _split_signs(a)
        # The box stays at reference precision; cast (no-op on the float64
        # path) so a float32 back-substitution never silently re-promotes.
        box_low = self.box.low.astype(a.dtype, copy=False)
        box_high = self.box.high.astype(a.dtype, copy=False)
        if lower:
            result = pos @ box_low + neg @ box_high + b
        else:
            result = pos @ box_high + neg @ box_low + b
        scale = _slack_for(a.dtype, _slack_terms(self.layers, self.box.ndim))
        if scale:
            # Outward rounding (float32 path): the rewrite chain's round-off
            # is bounded by the accumulated magnitude of the final expression.
            mag = np.maximum(np.abs(box_low), np.abs(box_high))
            slack = scale * (np.abs(a) @ mag + np.abs(b))
            result = result - slack if lower else result + slack
        return result

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Concrete per-unit bounds of the current output vector."""
        dtype = self._dtype
        eye = np.eye(self.size, dtype=dtype)
        zero = np.zeros(self.size, dtype=dtype)
        return (
            self._bound_expr(eye, zero, lower=True),
            self._bound_expr(eye, zero, lower=False),
        )

    # ------------------------------------------------------------------
    # Transformers
    # ------------------------------------------------------------------

    def _extended(self, layer: _LayerBounds | _DiagBounds) -> "DeepPolyState":
        return DeepPolyState(self.box, self.layers + [layer])

    def affine(self, weight: np.ndarray, bias: np.ndarray) -> "DeepPolyState":
        return self._extended(_LayerBounds(weight, bias, weight, bias))

    def relu(self) -> "DeepPolyState":
        low, high = self.bounds()
        return self._extended(_DiagBounds(*_relu_relaxation(low, high)))

    def pad(self, radii: np.ndarray) -> "DeepPolyState":
        """Pad layer as a diagonal relation: ``v - r <= y <= v + r``.

        Deliberately *not* encoded as an exact-affine :class:`_LayerBounds`
        (whose ``al is au`` fast path carries a single bias): the lower and
        upper biases differ, and the per-unit independence of the pad is
        exactly what the diagonal rewrite preserves.
        """
        radii = np.asarray(radii)
        ones = np.ones(radii.shape[-1], dtype=radii.dtype)
        return self._extended(_DiagBounds(ones, ones, radii, bl=-radii))

    def maxpool(self, windows: np.ndarray) -> "DeepPolyState":
        low, high = self.bounds()
        al, au, bu = _maxpool_relaxation(low, high, windows, self.size)
        return self._extended(
            _LayerBounds(al, np.zeros(windows.shape[0], dtype=al.dtype), au, bu)
        )

    # ------------------------------------------------------------------
    # Margin checks
    # ------------------------------------------------------------------

    def lower_margin(self, label: int, other: int) -> float:
        """Relational bound on ``y_label - y_other`` via back-substitution."""
        dtype = self._dtype
        a = np.zeros((1, self.size), dtype=dtype)
        a[0, label] = 1.0
        a[0, other] = -1.0
        return float(self._bound_expr(a, np.zeros(1, dtype=dtype), lower=True)[0])

    def min_margin(self, label: int) -> float:
        if not 0 <= label < self.size:
            raise ValueError(f"label {label} out of range for size {self.size}")
        a = _margin_rows(label, self.size, self._dtype)
        margins = self._bound_expr(
            a, np.zeros(a.shape[0], dtype=a.dtype), lower=True
        )
        return float(margins.min())


def _margin_rows(label: int, size: int, dtype=np.float64) -> np.ndarray:
    """The ``size - 1`` expressions ``y_label - y_j`` as one coefficient
    matrix, so all margins back-substitute in a single pass."""
    if size < 2:
        raise ValueError("margin undefined for single-output networks")
    a = -np.eye(size, dtype=dtype)
    a[:, label] += 1.0
    return np.delete(a, label, axis=0)


def _maxpool_relaxation(
    low: np.ndarray, high: np.ndarray, windows: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense maxpool bounds ``(al, au, bu)`` for one region, vectorized.

    Lower bound: the unit with the best lower bound.  Upper bound: that
    same unit when it dominates every other unit's upper bound, else the
    constant ``max(highs)``.
    """
    out = windows.shape[0]
    rows = np.arange(out)
    lows = low[windows]
    highs = high[windows]
    winners = lows.argmax(axis=1)
    winner_src = windows[rows, winners]
    al = np.zeros((out, size), dtype=low.dtype)
    al[rows, winner_src] = 1.0
    rivals = highs.copy()
    rivals[rows, winners] = -np.inf
    dominant = lows[rows, winners] >= rivals.max(axis=1)
    au = np.zeros((out, size), dtype=low.dtype)
    au[rows[dominant], winner_src[dominant]] = 1.0
    bu = np.where(dominant, 0.0, highs.max(axis=1))
    return al, au, bu


def _dot_rows(arr: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``(B, rows, n)`` · per-region ``(B, n)`` -> ``(B, rows)``."""
    return (arr @ vec[:, :, None])[:, :, 0]


def _diag_rewrite(
    a: np.ndarray,
    b,
    dl: np.ndarray,
    du: np.ndarray,
    bu: np.ndarray,
    bl: np.ndarray | None,
    lower: bool,
    owned: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite ``a`` (``(B, rows, n)``) through a per-region diagonal
    relation: returns ``(a', b')``.

    Bitwise ``pos*dl + neg*du`` (``du``/``dl`` swapped for the upper
    bound) with one temporary instead of five: the negative part goes
    into the one fresh buffer and the positive part overwrites ``a`` when
    the caller ``owned`` it.
    """
    neg = np.minimum(a, 0.0)
    pos = np.maximum(a, 0.0, out=a) if owned else np.maximum(a, 0.0)
    b = b + _dot_rows(neg if lower else pos, bu)
    if bl is not None:
        b = b + _dot_rows(pos if lower else neg, bl)
    pos *= (dl if lower else du)[:, None, :]
    neg *= (du if lower else dl)[:, None, :]
    pos += neg
    return pos, b


def _is_identity(a: np.ndarray) -> bool:
    return (
        a.ndim == 2
        and a.shape[0] == a.shape[1]
        and np.count_nonzero(a) == a.shape[0]
        and bool((a.diagonal() == 1).all())
    )


def _gather_columns(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[..., idx[r]]`` for every region ``r``: a fresh ``(B, rows, K)``.

    A shared ``(rows, n)`` expression is gathered as rows of its
    transpose (a fast row copy) and handed back as a Fortran-ordered
    view, which BLAS and the elementwise passes take as is.
    """
    if a.ndim == 2:
        return np.ascontiguousarray(a.T)[idx].transpose(0, 2, 1)
    return np.take_along_axis(a, idx[:, None, :], axis=2)


def _live_units(relu: _DiagBounds) -> tuple[np.ndarray, ...]:
    """A ReLU relation's per-region live units: ``(idx, dl, du, bu)``.

    A unit is dead on a region when ``dl = du = bu = 0`` there: its
    output is exactly zero, so every expression term through it is an
    exact zero.  ``idx`` (``(B, K)``) lists each region's live units in
    index order, padded to the batch's largest live count ``K`` with that
    region's own dead units — whose coefficients, gathered next to it,
    are the zeros the pads need.
    """
    live = (relu.du != 0) | (relu.dl != 0) | (relu.bu != 0)
    width = int(live.sum(axis=1).max(initial=0))
    idx = np.argsort(~live, axis=1, kind="stable")[:, :width]
    regions = np.arange(idx.shape[0])[:, None]
    return (
        idx, relu.dl[regions, idx], relu.du[regions, idx],
        relu.bu[regions, idx],
    )


def _gather_block(
    weight: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Per-region weight blocks ``weight[rows[r]][:, cols[r]]``, one row
    take and one column take per region (cheaper than one broadcast fancy
    index).  Pad indices select real units, so the block is finite
    wherever the weights are; the zero expression coefficients at pad
    rows cancel it exactly."""
    block = np.empty(
        (rows.shape[0], rows.shape[1], cols.shape[1]), dtype=weight.dtype
    )
    for r in range(rows.shape[0]):
        np.take(weight.take(rows[r], axis=0), cols[r], axis=1, out=block[r])
    return block


class _LiveUnits:
    """The gathered operands of one analysis's live-unit rewrite.

    Shared by every :class:`DeepPolyBatch` one lift extends into, so the
    ``bounds()`` calls of an analysis reuse them, and freed with the last
    of those elements; never attached to the relations themselves, which
    the sub-batches of :meth:`DeepPolyBatch.rows` share while their live
    sets differ.  Entries hold their relations, so the ``id`` keys cannot
    be recycled while an entry lives.

    Live sets are ``O(B·n)`` and always kept.  Blocks between two ReLUs
    are kept while their bytes fit :attr:`cap` (one dense ``(B, n, n)``
    expression array over the widest ReLU) and gathered on every use
    beyond it.  The analysis walks the network bottom-up, so the blocks
    kept are the deepest ones — those every later rewrite passes
    through.  Row blocks into a non-ReLU relation (the input layer) are
    plain row copies, cheap next to their GEMM, and never kept.

    It also carries the regions' box centers through the chain
    (:meth:`center`) for the one-sided ReLU pass.
    """

    def __init__(self) -> None:
        self.cap = 0
        self.held = 0
        self._live: dict[int, tuple] = {}
        self._blocks: dict[tuple[int, int, int], tuple] = {}
        self._path: list[tuple] = []  # (relation, center value after it)

    def center(self, batch: "DeepPolyBatch") -> np.ndarray:
        """The regions' box centers through ``batch``'s relations —
        shared affine rows and the concrete ReLU ``max(v, 0)`` — as
        ``(B, n)``.  The center is a point of its region, so each value
        lies inside that unit's bounds.  Extends the longest forwarded
        prefix of ``batch.layers`` instead of starting over."""
        path, layers = self._path, batch.layers
        done = 0
        while (
            done < min(len(path), len(layers))
            and path[done][0] is layers[done]
        ):
            done += 1
        del path[done:]
        if path:
            value = path[-1][1]
        else:
            low, high = batch.box_low, batch.box_high
            value = (low + high) * low.dtype.type(0.5)
        for layer in layers[done:]:
            if type(layer) is _DiagBounds:
                value = np.maximum(value, 0.0)
            else:
                value = value @ layer.al.T + layer.bl
            path.append((layer, value))
        return value

    def live(self, relu: _DiagBounds) -> tuple[np.ndarray, ...]:
        """``(idx, dl, du, bu)`` of ``relu`` (see :func:`_live_units`)."""
        entry = self._live.get(id(relu))
        if entry is None:
            entry = (relu, *_live_units(relu))
            self._live[id(relu)] = entry
        return entry[1:]

    def block(
        self,
        above: _DiagBounds,
        affine: _LayerBounds,
        below: _DiagBounds | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(weight block, bias)`` of a shared affine relation between
        the live units of ``above`` and of ``below`` (every input unit
        when ``below`` is ``None``)."""
        rows = self.live(above)[0]
        if below is None:
            return affine.al[rows], affine.bl[rows]
        key = (id(above), id(affine), id(below))
        entry = self._blocks.get(key)
        if entry is not None:
            return entry[3:]
        block = _gather_block(affine.al, rows, self.live(below)[0])
        bias = affine.bl[rows]
        size = block.nbytes + bias.nbytes
        if self.held + size <= self.cap:
            self._blocks[key] = (above, affine, below, block, bias)
            self.held += size
        return block, bias


def _live_width(layers: list) -> int | None:
    """The widest ReLU relation of a chain the live-unit rewrite covers,
    or ``None`` when the chain needs the dense rewrite.

    Covered: shared exact-affine relations and per-region ReLU diagonals
    (no lower bias), no two diagonals adjacent — every MLP analysis.
    Maxpool (:class:`_DenseBounds`) and pad diagonals are not.
    """
    width = 0
    below_diag = False
    for layer in layers:
        if type(layer) is _DiagBounds:
            if layer.bl is not None or layer.dl.ndim != 2 or below_diag:
                return None
            width = max(width, layer.dl.shape[1])
            below_diag = True
        elif (
            type(layer) is _LayerBounds
            and layer.al is layer.au
            and layer.al.ndim == 2
        ):
            below_diag = False
        else:
            return None
    return width


class DeepPolyBatch(BatchedElement):
    """DeepPoly analysis of ``B`` input regions in lockstep.

    Affine relations are shared across the batch; ReLU relaxations carry a
    leading batch axis; maxpool relations are per-region dense.  During
    back-substitution the expression matrix stays shared ``(rows, n)`` until
    the first per-region relation, after which it is promoted to
    ``(B, rows, n)`` and every rewrite is a batched GEMM.  Row ``i`` matches
    what :class:`DeepPolyState` computes for region ``i`` alone up to BLAS
    kernel round-off (reduction order depends on operand shapes).

    Chains of shared affine relations and ReLU diagonals (every MLP)
    back-substitute over each region's *live* units only: a unit dead on
    a region contributes exact zeros, so the expression is kept as
    ``(B, rows, K)`` over the live units (padded to the batch's largest
    count ``K``) and each affine rewrite is one batched GEMM against the
    per-region block ``W[live_above][:, live_below]`` — the flops shrink
    by the square of the live fraction.  Other chains (maxpool, pad) use
    the dense rewrite.  On the MLP chains :meth:`relu` also bounds each
    settled unit from one side only.
    """

    def __init__(
        self,
        low: np.ndarray,
        high: np.ndarray,
        layers: list[_LayerBounds | _DiagBounds] | None = None,
    ) -> None:
        low = np.asarray(low)
        high = np.asarray(high)
        if low.dtype.char not in "efd":
            low = low.astype(np.float64)
        high = high.astype(low.dtype, copy=False)
        if low.ndim != 2 or low.shape != high.shape:
            raise ValueError(
                f"batch bounds must be matching (B, n) arrays, got "
                f"{low.shape} vs {high.shape}"
            )
        self.box_low = low
        self.box_high = high
        self.layers: list[_LayerBounds | _DiagBounds] = (
            list(layers) if layers else []
        )
        self._units = _LiveUnits()

    @staticmethod
    def from_boxes(boxes: list[Box]) -> "DeepPolyBatch":
        if not boxes:
            raise ValueError("need at least one box")
        low, high = _outward_cast(
            np.stack([b.low for b in boxes]),
            np.stack([b.high for b in boxes]),
            _active_backend().dtype,
        )
        return DeepPolyBatch(low, high)

    @property
    def batch_size(self) -> int:
        return self.box_low.shape[0]

    @property
    def size(self) -> int:
        for layer in reversed(self.layers):
            if isinstance(layer, _DiagBounds):
                return layer.dl.shape[-1]
            return layer.bl.shape[-1]
        return self.box_low.shape[1]

    def rows(self, indices) -> "DeepPolyBatch":
        """The sub-batch holding the given rows.

        Shared affine relations are reused as-is; per-region relations are
        sliced.  Lets mixed-label callers bound output margins per label
        group without re-running the back-substitution for rows whose
        result would be discarded.
        """
        indices = np.asarray(indices, dtype=np.int64)
        layers: list[_LayerBounds | _DiagBounds] = []
        for layer in self.layers:
            if isinstance(layer, _DiagBounds):
                layers.append(
                    _DiagBounds(
                        layer.dl[indices],
                        layer.du[indices],
                        layer.bu[indices],
                        bl=None if layer.bl is None else layer.bl[indices],
                    )
                )
            elif layer.al.ndim == 3:
                # Rebuild the dense stack from the sliced relations: the
                # sub-batch keeps the fused rewrite.
                layers.append(
                    _DenseBounds.build(
                        layer.al[indices],
                        layer.bl[indices],
                        layer.au[indices],
                        layer.bu[indices],
                    )
                )
            else:
                layers.append(layer)  # shared affine relation
        return DeepPolyBatch(
            self.box_low[indices], self.box_high[indices], layers
        )

    # ------------------------------------------------------------------
    # Batched back-substitution
    # ------------------------------------------------------------------

    def _bound_expr(self, a: np.ndarray, lower: bool) -> np.ndarray:
        """Bounds of the shared expressions ``a·v`` per region: ``(B, rows)``.

        ``a``: shared coefficients ``(rows, size)`` over the current output.
        Chains the live-unit rewrite covers (see :func:`_live_width`) take
        :meth:`_rewrite_live`, the rest :meth:`_rewrite_dense`; both end
        in the same concretization over the input box.
        """
        a = np.atleast_2d(a)
        width = _live_width(self.layers)
        if width is None:
            a, b, owned = self._rewrite_dense(a, lower)
            return self._concretize(a, b, owned, None, lower)
        return self._concretize(*self._rewrite_live(a, lower, width), lower)

    def _signed_lower(
        self, sign: np.ndarray, idx: np.ndarray | None, width: int
    ) -> np.ndarray:
        """Lower bounds of the per-region signed unit rows
        ``sign[r, k]·e_j``, ``j = idx[r, k]`` (``j = k`` when ``idx`` is
        ``None``), over a live-unit chain topped by an affine on a ReLU:
        ``(B, rows)``.

        A row signed ``-1`` returns ``-u_j``: negating a row negates
        every product and partial sum of its back-substitution exactly,
        so ``lower(-e) = -upper(e)`` bit for bit at equal shapes.
        """
        return self._concretize(
            *self._rewrite_live(None, True, width, top=(sign, idx)), True
        )

    def _concretize(
        self,
        a: np.ndarray,
        b,
        owned: bool,
        cols: _DiagBounds | None,
        lower: bool,
    ) -> np.ndarray:
        """Evaluate the rewritten expression ``a·x + b`` over the input
        box: ``(B, rows)``.  ``cols`` is the ReLU relation whose live
        units index ``a``'s columns (a ReLU straight on the input), or
        ``None`` for every input unit."""
        box_low, box_high = self.box_low, self.box_high
        if cols is not None:
            idx = self._units.live(cols)[0]
            box_low = np.take_along_axis(box_low, idx, axis=1)
            box_high = np.take_along_axis(box_high, idx, axis=1)
        if a.ndim == 2:
            a = np.broadcast_to(a, (self.batch_size, *a.shape))
            owned = False
        neg = np.minimum(a, 0.0)
        pos = np.maximum(a, 0.0, out=a) if owned else np.maximum(a, 0.0)
        if lower:
            result = _dot_rows(pos, box_low) + _dot_rows(neg, box_high) + b
        else:
            result = _dot_rows(pos, box_high) + _dot_rows(neg, box_low) + b
        # The dense rewrite's term count, on both paths: the live-unit
        # rewrite only drops exact-zero terms (DESIGN §12).
        scale = _slack_for(
            a.dtype, _slack_terms(self.layers, self.box_low.shape[1])
        )
        if scale:
            # Outward rounding (float32 path), mirroring DeepPolyState.
            mag = np.maximum(np.abs(box_low), np.abs(box_high))
            abs_a = np.subtract(pos, neg, out=neg)  # |a|, exactly
            slack = scale * (_dot_rows(abs_a, mag) + np.abs(b))
            result = result - slack if lower else result + slack
        return result

    def _rewrite_live(
        self,
        a: np.ndarray | None,
        lower: bool,
        width: int,
        top: tuple[np.ndarray, np.ndarray | None] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, bool, _DiagBounds | None]:
        """Rewrite ``a`` down to the input over each region's live units.

        Returns ``(a, b, owned, cols)``: ``cols`` is the ReLU relation
        whose live units index ``a``'s columns (``None``: every input
        unit), ``owned`` whether ``a`` is a fresh array.  Through a ReLU
        the expression keeps only that relation's live columns; an affine
        rewrite between two ReLUs is a batched GEMM against the gathered
        block ``W[live_above][:, live_below]``.  A full-width shared
        expression (the top of the chain) rewrites as one shared GEMM and
        is then gathered to the live columns below.

        ``top = (sign, idx)`` replaces ``a`` with the per-region signed
        unit rows of :meth:`_signed_lower`.  Through the top affine they
        are ``sign·W[j]`` gathered to the live columns below — the
        identity's rewrite with rows selected and negated, exactly.
        """
        layers = self.layers
        units = self._units
        b: np.ndarray | float = 0.0
        owned = False
        cols: _DiagBounds | None = None
        start = len(layers) - 1
        if top is not None:
            sign, idx = top
            affine, cols = layers[-1], layers[-2]
            live = units.live(cols)[0]
            if idx is None:
                a, b = _gather_columns(affine.al, live), affine.bl * sign
            else:
                a = _gather_block(affine.al, idx, live)
                b = affine.bl[idx] * sign
            a *= sign[:, :, None]
            owned, start = True, len(layers) - 2
        units.cap = max(
            units.cap, self.batch_size * width * width * a.dtype.itemsize
        )
        for pos in range(start, -1, -1):
            layer = layers[pos]
            if type(layer) is _DiagBounds:
                idx, dl, du, bu = units.live(layer)
                if cols is None:
                    a = _gather_columns(a, idx)
                # ``a`` is fresh: just gathered, or the block GEMM's output.
                a, b = _diag_rewrite(a, b, dl, du, bu, None, lower, True)
                owned, cols = True, layer
                continue
            below = layers[pos - 1] if pos else None
            if type(below) is not _DiagBounds:
                below = None
            if cols is not None:
                block, bias = units.block(cols, layer, below)
                b = b + _dot_rows(a, bias)
                a, owned = a @ block, True
                cols = below
                continue
            if a.ndim == 3:
                rows = a.shape[1]
                b = b + a @ layer.bl
                a = (a.reshape(-1, a.shape[2]) @ layer.al).reshape(
                    self.batch_size, rows, -1
                )
                owned = True
            elif _is_identity(a):
                # I·W is W (bounds() passes I): no GEMM for the top layer.
                b = b + layer.bl
                a, owned = layer.al, False
            else:
                b = b + a @ layer.bl
                a, owned = a @ layer.al, True
            if below is not None:
                a, owned = _gather_columns(a, units.live(below)[0]), True
            cols = below
        return a, b, owned, cols

    def _rewrite_dense(
        self, a: np.ndarray, lower: bool
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Rewrite ``a`` down to the input over every unit (chains with
        maxpool or pad relations).  Returns ``(a, b, owned)`` as
        :meth:`_rewrite_live` does.

        Rewrites through shared affine relations run as one
        ``(B·rows, n)``-shaped GEMM; per-region relations are elementwise
        (ReLU, pad) or batched GEMMs (maxpool).
        """
        batch = self.batch_size
        b: np.ndarray | float = 0.0
        owned = False

        def _promote(arr: np.ndarray) -> np.ndarray:
            if arr.ndim == 2:
                return np.broadcast_to(arr, (batch, *arr.shape))
            return arr

        for layer in reversed(self.layers):
            if isinstance(layer, _DiagBounds):
                a, b = _diag_rewrite(
                    _promote(a), b, layer.dl, layer.du, layer.bu, layer.bl,
                    lower, owned and a.ndim == 3,
                )
            elif isinstance(layer, _DenseBounds):
                # Per-region dense relation (maxpool): the fused
                # sign-split rewrite — one (B, rows, 2n) batched GEMM
                # against the relation stack built at layer construction
                # (see _DenseBounds), instead of two half-width GEMMs
                # plus an add.
                a = _promote(a)
                cat = np.concatenate(_split_signs(a), axis=-1)
                if lower:
                    b = b + _dot_rows(cat, layer.lower_bias)
                    a = cat @ layer.lower_rel
                else:
                    b = b + _dot_rows(cat, layer.upper_bias)
                    a = cat @ layer.upper_rel
            # Dense relation without a stack: only reachable for layers
            # handed directly to the constructor (the transformers and
            # rows() always build _DenseBounds) — kept so externally
            # constructed batches stay valid.
            elif layer.al.ndim == 3:
                a = _promote(a)
                pos, neg = _split_signs(a)
                if lower:
                    b = b + _dot_rows(pos, layer.bl) + _dot_rows(neg, layer.bu)
                    a = pos @ layer.al + neg @ layer.au
                else:
                    b = b + _dot_rows(pos, layer.bu) + _dot_rows(neg, layer.bl)
                    a = pos @ layer.au + neg @ layer.al
            else:  # shared exact affine relation: no sign split needed
                b = b + a @ layer.bl
                if a.ndim == 3:
                    rows = a.shape[1]
                    a = (a.reshape(batch * rows, -1) @ layer.al).reshape(
                        batch, rows, -1
                    )
                else:
                    a = a @ layer.al
            owned = True
        return a, b, owned

    @property
    def _dtype(self) -> np.dtype:
        for layer in self.layers:
            if isinstance(layer, _DiagBounds):
                return layer.dl.dtype
            return layer.al.dtype
        return self.box_low.dtype

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Concrete per-unit bounds of the current output: ``(B, n)`` each."""
        eye = np.eye(self.size, dtype=self._dtype)
        return (
            self._bound_expr(eye, lower=True),
            self._bound_expr(eye, lower=False),
        )

    # ------------------------------------------------------------------
    # Transformers
    # ------------------------------------------------------------------

    def _extended(self, layer: _LayerBounds | _DiagBounds) -> "DeepPolyBatch":
        batch = DeepPolyBatch(
            self.box_low, self.box_high, self.layers + [layer]
        )
        batch._units = self._units  # one analysis, one gather workspace
        return batch

    def affine(self, weight: np.ndarray, bias: np.ndarray) -> "DeepPolyBatch":
        return self._extended(_LayerBounds(weight, bias, weight, bias))

    def relu(self) -> "DeepPolyBatch":
        """The DeepPoly ReLU, bounding each settled unit from one side.

        On a live-unit chain whose top affine sits on a ReLU, one signed
        lower pass replaces :meth:`bounds`' two: unit ``j`` gets row
        ``+e_j`` (its ``l_j``) when its pre-activation at the region's
        center is positive, else ``-e_j`` (its ``-u_j``).  ``l_j >= 0``
        (identity) and ``u_j < 0`` (zero) settle a unit, so its
        relaxation is the two-sided one whatever the unseen side holds.
        Every other unit — crossing, ``u_j = 0``, or mispredicted — gets
        the other side in a second pass over per-region row subsets.
        Other chains take both sides for every unit.
        """
        layers = self.layers
        width = _live_width(layers)
        if (
            width is None
            or len(layers) < 2
            or type(layers[-2]) is not _DiagBounds
        ):
            low, high = self.bounds()
            return self._extended(_DiagBounds(*_relu_relaxation(low, high)))
        plus = self._units.center(self) > 0.0
        one = self._dtype.type(1.0)
        sign = np.where(plus, one, -one)
        known = self._signed_lower(sign, None, width) * sign  # l on +, u on -
        other = known
        unsettled = _unsettled(known, plus)
        rows = int(unsettled.sum(axis=1).max(initial=0))
        if rows:
            # Unsettled units first, padded with the region's settled
            # ones: their relaxation ignores the side the pad computes.
            idx = np.argsort(~unsettled, axis=1, kind="stable")[:, :rows]
            back = -np.take_along_axis(sign, idx, axis=1)
            second = self._signed_lower(back, idx, width) * back
            other = known.copy()
            np.put_along_axis(other, idx, second, axis=1)
        low = np.where(plus, known, other)
        high = np.where(plus, other, known)
        return self._extended(_DiagBounds(*_relu_relaxation(low, high)))

    def pad(self, radii: np.ndarray) -> "DeepPolyBatch":
        """Batched pad relation (see :meth:`DeepPolyState.pad`): the
        shared radii broadcast to one per-region diagonal relation."""
        radii = np.asarray(radii)
        shape = (self.batch_size, radii.shape[-1])
        ones = np.ones(shape, dtype=radii.dtype)
        bu = np.broadcast_to(radii, shape)
        return self._extended(
            _DiagBounds(ones, ones, bu, bl=np.broadcast_to(-radii, shape))
        )

    def maxpool(self, windows: np.ndarray) -> "DeepPolyBatch":
        low, high = self.bounds()
        out = windows.shape[0]
        dtype = low.dtype
        al = np.empty((self.batch_size, out, self.size), dtype=dtype)
        au = np.empty((self.batch_size, out, self.size), dtype=dtype)
        bu = np.empty((self.batch_size, out), dtype=dtype)
        for i in range(self.batch_size):
            al[i], au[i], bu[i] = _maxpool_relaxation(
                low[i], high[i], windows, self.size
            )
        return self._extended(
            _DenseBounds.build(
                al, np.zeros((self.batch_size, out), dtype=dtype), au, bu
            )
        )

    # ------------------------------------------------------------------
    # Margin checks
    # ------------------------------------------------------------------

    def min_margin(self, label: int) -> np.ndarray:
        """Per-region relational bound on ``min_{j≠K} (y_K - y_j)``."""
        if not 0 <= label < self.size:
            raise ValueError(f"label {label} out of range for size {self.size}")
        margins = self._bound_expr(
            _margin_rows(label, self.size, self._dtype), lower=True
        )
        return margins.min(axis=1)

