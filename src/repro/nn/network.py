"""The :class:`Network` container and its lowering to analyzer operations.

A network is a sequence of layers ``L1 ∘ σ1 ∘ … ∘ Lk`` (§2.1 of the paper).
For analysis we lower every network to a flat list of three op kinds over
vectors:

- :class:`AffineOp` — ``y = W x + b``.  Dense layers map directly;
  convolutions are materialized to their (dense) affine form, which is what
  lets a single abstract interpreter cover both architectures, exactly as
  AI2 does.
- :class:`ReluOp` — element-wise rectification.
- :class:`MaxPoolOp` — per-window maxima described by index sets.

The lowering is cached per network; mutating parameters through
:meth:`Network.set_params` (or calling :meth:`Network.invalidate_ops`)
invalidates the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from repro.nn.layers import (
    Conv2d,
    Dense,
    ErrorPad,
    Flatten,
    Layer,
    MaxPool2d,
    ReLU,
    _conv_out_hw,
)


@dataclass(frozen=True)
class AffineOp:
    """``y = weight @ x + bias`` over flattened vectors."""

    weight: np.ndarray
    bias: np.ndarray

    @property
    def in_size(self) -> int:
        return self.weight.shape[1]

    @property
    def out_size(self) -> int:
        return self.weight.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.weight @ x + self.bias


@dataclass(frozen=True)
class ReluOp:
    """Element-wise ``max(x, 0)``."""

    size: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


@dataclass(frozen=True)
class MaxPoolOp:
    """Per-window max: ``y_o = max(x[windows[o]])``."""

    windows: np.ndarray  # (out_units, window_size) int indices
    in_size: int

    @property
    def out_size(self) -> int:
        return self.windows.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x[self.windows].max(axis=1)


@dataclass(frozen=True)
class PadOp:
    """Independent per-dimension error: ``y_j = x_j + e_j, |e_j| <= radii[j]``.

    Each ``e_j`` is adversarially chosen *independently* of the others —
    abstract transformers must widen every dimension outward by its
    radius without correlating the errors.  The concrete semantics pick
    ``e = 0``, so :meth:`apply` is the identity: sampled points, PGD
    witnesses, and forward checks all run through the underlying merged
    weights unperturbed.
    """

    radii: np.ndarray  # (n,) non-negative per-dimension error bounds

    @property
    def size(self) -> int:
        return self.radii.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x


Op = "AffineOp | ReluOp | MaxPoolOp | PadOp"


def _affine_of_linear_layer(
    layer: Layer, in_shape: tuple[int, ...], chunk: int = 256
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize any affine layer as ``(W, b)`` by probing basis vectors.

    Probes in ``chunk``-column slabs so peak memory is ``O(chunk · n_in)``
    instead of the ``O(n_in²)`` a one-shot ``np.eye(n_in)`` basis needs.
    Kept as the architecture-agnostic fallback; convolutions take the
    direct :func:`_affine_of_conv` construction instead.
    """
    n_in = int(np.prod(in_shape))
    zero = np.zeros((1, *in_shape))
    bias = layer.forward(zero).reshape(-1)
    weight = np.empty((bias.size, n_in))
    for start in range(0, n_in, chunk):
        stop = min(start + chunk, n_in)
        basis = np.zeros((stop - start, n_in))
        basis[np.arange(stop - start), np.arange(start, stop)] = 1.0
        images = layer.forward(basis.reshape(-1, *in_shape))
        weight[:, start:stop] = images.reshape(stop - start, -1).T - bias[:, None]
    return weight, bias


def _affine_of_conv(
    layer: Conv2d, in_shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The dense affine form of a convolution, built from kernel indices.

    Instead of probing an ``n_in``-vector basis through ``forward`` (an
    O(n_in · nnz) sweep with an O(n_in²) scratch basis), scatter each of
    the ``kh · kw`` kernel taps into the weight matrix directly — O(nnz)
    work and exact kernel values, no float subtraction residue.
    """
    if len(in_shape) != 3:
        raise ValueError(f"Conv2d lowering requires (C, H, W) input, got {in_shape}")
    c_in, h, w = in_shape
    out_c, k_in, kh, kw = layer.weight.shape
    if c_in != k_in:
        raise ValueError(f"Conv2d expects {k_in} channels, got {c_in}")
    stride, padding = layer.stride, layer.padding
    out_h, out_w = _conv_out_hw(h, w, kh, kw, stride, padding)
    n_in = c_in * h * w
    n_out = out_c * out_h * out_w
    weight = np.zeros((n_out, n_in))
    w6 = weight.reshape(out_c, out_h, out_w, c_in, h, w)
    oh = np.arange(out_h)
    ow = np.arange(out_w)
    for i in range(kh):
        ih = oh * stride - padding + i
        oh_ok = (ih >= 0) & (ih < h)
        if not oh_ok.any():
            continue
        for j in range(kw):
            iw = ow * stride - padding + j
            ow_ok = (iw >= 0) & (iw < w)
            if not ow_ok.any():
                continue
            # w6[o, oh, ow, c, ih, iw] = kernel[o, c, i, j] for every valid
            # (oh, ow).  Output rows/input cols never collide within or
            # across taps (distinct (oh, i) give distinct ih), so plain
            # assignment is enough.  The advanced indices are separated by
            # slices, so their broadcast axes lead the result: the target
            # reads (oh, ow, out_c, c_in).
            taps = layer.weight[None, None, :, :, i, j]
            w6[
                :,
                oh[oh_ok, None],
                ow[None, ow_ok],
                :,
                ih[oh_ok, None],
                iw[None, ow_ok],
            ] = np.broadcast_to(
                taps, (int(oh_ok.sum()), int(ow_ok.sum()), out_c, c_in)
            )
    bias = np.repeat(layer.bias, out_h * out_w)
    return weight, bias


#: Lowered conv affine forms, keyed per layer object by the exact parameter
#: bytes (training updates parameters in place, so identity alone is not a
#: safe key).  Bounded per layer; geometry changes are rare.
_CONV_AFFINE_CACHE: "WeakKeyDictionary[Conv2d, dict]" = WeakKeyDictionary()
_CONV_CACHE_ENTRIES = 4


def _conv_affine_cached(
    layer: Conv2d, in_shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Memoized :func:`_affine_of_conv` per ``(layer, in_shape, params)``."""
    per_layer = _CONV_AFFINE_CACHE.setdefault(layer, {})
    key = (
        in_shape,
        layer.stride,
        layer.padding,
        layer.weight.tobytes(),
        layer.bias.tobytes(),
    )
    hit = per_layer.get(key)
    if hit is None:
        if len(per_layer) >= _CONV_CACHE_ENTRIES:
            per_layer.pop(next(iter(per_layer)))
        hit = _affine_of_conv(layer, in_shape)
        per_layer[key] = hit
    return hit


class Network:
    """A feed-forward classifier ``N : R^n -> R^m``.

    Args:
        layers: the layer sequence.
        input_shape: sample shape, e.g. ``(16,)`` for an MLP or ``(1, 8, 8)``
            for a conv net.  Shapes are validated through the whole stack at
            construction time.
    """

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...]) -> None:
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers = list(layers)
        self.input_shape = tuple(int(s) for s in input_shape)
        shapes = [self.input_shape]
        for layer in self.layers:
            shapes.append(layer.out_shape(shapes[-1]))
        if len(shapes[-1]) != 1:
            raise ValueError(
                f"network output must be a vector of class scores, got {shapes[-1]}"
            )
        self._shapes = shapes
        self._ops_cache: list | None = None
        self._ops_cache_typed: dict[str, list] = {}
        # Content digest memos (see repro.nn.serialize.network_digest /
        # layer_digests).  Networks are immutable once analyzed: the only
        # mutation path is set_params(), which funnels through
        # invalidate_ops() below, and digesting freezes the parameter
        # arrays so in-place mutation cannot silently outlive the memo.
        self._digest: str | None = None
        self._layer_digests: tuple[str, ...] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def input_size(self) -> int:
        return int(np.prod(self.input_shape))

    @property
    def output_size(self) -> int:
        return self._shapes[-1][0]

    @property
    def num_classes(self) -> int:
        return self.output_size

    def num_params(self) -> int:
        return sum(p.size for layer in self.layers for p in layer.params())

    def num_relu_units(self) -> int:
        """Total ReLU activations — the paper's rough hardness measure."""
        total = 0
        for layer, shape in zip(self.layers, self._shapes[:-1]):
            if isinstance(layer, ReLU):
                total += int(np.prod(shape))
        return total

    def has_conv(self) -> bool:
        return any(isinstance(layer, Conv2d) for layer in self.layers)

    def summary(self) -> str:
        lines = [f"Network(input={self.input_shape}, params={self.num_params()})"]
        for layer, shape in zip(self.layers, self._shapes[1:]):
            lines.append(f"  {type(layer).__name__:<10} -> {shape}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Concrete execution
    # ------------------------------------------------------------------

    def _as_batch(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1 and x.size == self.input_size:
            return x.reshape(1, *self.input_shape), True
        if x.shape == self.input_shape:
            return x.reshape(1, *self.input_shape), True
        if x.shape[1:] == self.input_shape:
            return x, False
        if x.ndim == 2 and x.shape[1] == self.input_size:
            return x.reshape(x.shape[0], *self.input_shape), False
        raise ValueError(
            f"input shape {x.shape} incompatible with network input "
            f"{self.input_shape}"
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class scores; single samples in, single score vectors out."""
        batch, single = self._as_batch(x)
        for layer in self.layers:
            batch = layer.forward(batch)
        return batch[0] if single else batch

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Alias of :meth:`forward` for a single sample."""
        out = self.forward(x)
        if out.ndim != 1:
            raise ValueError("logits() expects a single sample")
        return out

    def classify(self, x: np.ndarray) -> int:
        """Predicted class: argmax of the score vector."""
        return int(np.argmax(self.logits(x)))

    def classify_batch(self, x: np.ndarray) -> np.ndarray:
        batch, _ = self._as_batch(x)
        out = self.forward(batch)
        return np.argmax(out, axis=1)

    # ------------------------------------------------------------------
    # Gradients
    # ------------------------------------------------------------------

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """Batched forward keeping every layer cache (for backprop)."""
        batch, _ = self._as_batch(x)
        caches = []
        for layer in self.layers:
            batch, cache = layer.forward_cached(batch)
            caches.append(cache)
        return batch, caches

    def backward(
        self, caches: list, grad_out: np.ndarray
    ) -> tuple[np.ndarray, list[list[np.ndarray]]]:
        """Backpropagate ``grad_out`` (batched) through the cached pass.

        Returns the gradient w.r.t. the input batch and per-layer parameter
        gradients (aligned with ``self.layers``).
        """
        param_grads: list[list[np.ndarray]] = [[] for _ in self.layers]
        grad = grad_out
        for idx in range(len(self.layers) - 1, -1, -1):
            grad, grads = self.layers[idx].backward(caches[idx], grad)
            param_grads[idx] = grads
        return grad, param_grads

    def backward_input(self, caches: list, grad_out: np.ndarray) -> np.ndarray:
        """Input gradient of the cached pass, skipping parameter gradients.

        Verification-time backprop (PGD, policy features) never consumes
        parameter gradients, and for affine layers computing them doubles the
        backward cost; this path keeps only the input-gradient GEMMs.
        """
        grad = grad_out
        for idx in range(len(self.layers) - 1, -1, -1):
            grad = self.layers[idx].backward_input(caches[idx], grad)
        return grad

    def input_gradient(self, x: np.ndarray, seed: np.ndarray) -> np.ndarray:
        """Gradient of ``seed · N(x)`` w.r.t. a single flat input ``x``.

        This is the primitive behind both PGD (gradient of the margin) and
        the "influence" feature of the partition policy.
        """
        seed = np.asarray(seed, dtype=np.float64).reshape(-1)
        if seed.size != self.output_size:
            raise ValueError(
                f"seed has {seed.size} entries, network outputs {self.output_size}"
            )
        out, caches = self.forward_cached(x)
        grad_out = np.broadcast_to(seed, out.shape).copy()
        grad_in = self.backward_input(caches, grad_out)
        return grad_in.reshape(-1)

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def set_params(self, params: list[np.ndarray]) -> None:
        offset = 0
        for layer in self.layers:
            count = len(layer.params())
            layer.set_params(params[offset : offset + count])
            offset += count
        if offset != len(params):
            raise ValueError(f"expected {offset} parameter arrays, got {len(params)}")
        self.invalidate_ops()

    def freeze_params(self) -> None:
        """Make every parameter array read-only (``writeable=False``).

        Called on first digest: the content digest is memoized, so an
        in-place parameter write afterward would silently poison every
        content-addressed cache keyed on it.  Frozen arrays make that
        write raise instead.  Intentional updates replace the arrays —
        :meth:`set_params` or :meth:`thaw_params` — and drop the memo.
        """
        for layer in self.layers:
            for param in layer.params():
                param.flags.writeable = False

    def thaw_params(self) -> None:
        """Replace frozen parameter arrays with writable copies.

        The in-place training path (:mod:`repro.nn.training`) mutates the
        arrays returned by :meth:`params` directly; after a digest has
        frozen them, it must thaw first.  Replacing (rather than
        re-flagging) the arrays means any outstanding digest memo or
        spill file keyed on the old bytes stays valid for the old arrays;
        the memos themselves are dropped via :meth:`invalidate_ops`.
        """
        thawed = False
        for layer in self.layers:
            params = layer.params()
            if params and not all(p.flags.writeable for p in params):
                layer.set_params(
                    [np.array(p, dtype=np.float64) for p in params]
                )
                thawed = True
        if thawed:
            self.invalidate_ops()

    def invalidate_ops(self) -> None:
        """Drop the cached analyzer lowering after parameter mutation.

        Also drops the memoized content digests (whole-network and
        per-layer chain) — both are pure functions of (architecture,
        parameters), so they share exactly the invalidation points of the
        lowering cache.
        """
        self._ops_cache = None
        self._ops_cache_typed.clear()
        self._digest = None
        self._layer_digests = None

    # ------------------------------------------------------------------
    # Lowering for the analyzers
    # ------------------------------------------------------------------

    def ops(self) -> list:
        """Flat op sequence (affine / relu / maxpool) over vectors.

        Flatten layers disappear (they are the identity on flat vectors) and
        convolutions are materialized to dense affine maps.  The result is
        cached.
        """
        if self._ops_cache is not None:
            return self._ops_cache
        ops: list = []
        for layer, in_shape in zip(self.layers, self._shapes[:-1]):
            n_in = int(np.prod(in_shape))
            if isinstance(layer, Dense):
                ops.append(AffineOp(layer.weight.copy(), layer.bias.copy()))
            elif isinstance(layer, Conv2d):
                weight, bias = _conv_affine_cached(layer, in_shape)
                # Copies keep the ops contract uniform with the Dense
                # branch: callers own their arrays, the shared cache stays
                # pristine.
                ops.append(AffineOp(weight.copy(), bias.copy()))
            elif isinstance(layer, ReLU):
                ops.append(ReluOp(size=n_in))
            elif isinstance(layer, ErrorPad):
                # Must come before the is_linear fallback: the concrete
                # forward is the identity, so basis probing would silently
                # drop the error term and break over-approximation.
                ops.append(PadOp(layer.radii.copy()))
            elif isinstance(layer, MaxPool2d):
                if len(in_shape) != 3:
                    raise ValueError("MaxPool2d lowering requires (C,H,W) input")
                ops.append(
                    MaxPoolOp(windows=layer.window_indices(in_shape), in_size=n_in)
                )
            elif isinstance(layer, Flatten):
                continue
            elif layer.is_linear:
                # Architecture-agnostic fallback: any affine layer can be
                # materialized by probing basis vectors through forward().
                weight, bias = _affine_of_linear_layer(layer, in_shape)
                ops.append(AffineOp(weight, bias))
            else:
                raise TypeError(
                    f"no analyzer lowering for layer type {type(layer).__name__}"
                )
        self._ops_cache = ops
        return ops

    def ops_for(self, dtype) -> list:
        """The op sequence with affine parameters in ``dtype``.

        float64 returns :meth:`ops` unchanged (the bitwise reference
        lowering); narrower dtypes get a converted copy cached per dtype
        so the analyzers never pay the cast per propagation — and, just
        as important, never mix float64 parameters into a float32
        element (numpy would silently re-promote every product).  Both
        caches drop together on :meth:`invalidate_ops`.
        """
        dt = np.dtype(dtype)
        if dt == np.float64:
            return self.ops()
        cached = self._ops_cache_typed.get(dt.char)
        if cached is None:
            cached = []
            for op in self.ops():
                if isinstance(op, AffineOp):
                    op = AffineOp(op.weight.astype(dt), op.bias.astype(dt))
                elif isinstance(op, PadOp):
                    # Error radii must never shrink under a narrowing
                    # cast — bump any rounded-down radius one ulp toward
                    # +inf so the narrow lowering stays a sound
                    # over-approximation of the float64 reference.
                    radii = op.radii.astype(dt)
                    low = radii.astype(np.float64) < op.radii
                    if low.any():
                        radii[low] = np.nextafter(radii[low], dt.type(np.inf))
                    op = PadOp(radii)
                cached.append(op)
            self._ops_cache_typed[dt.char] = cached
        return cached

    def eval_ops(self, x: np.ndarray) -> np.ndarray:
        """Run the lowered op sequence on a flat vector (used by tests to
        check that lowering agrees with the layer-level forward pass)."""
        v = np.asarray(x, dtype=np.float64).reshape(-1)
        for op in self.ops():
            v = op.apply(v)
        return v
