"""Network abstraction by neuron merging, with CEGAR refinement.

The verifier's kernel work is quadratic in layer width (every affine
transformer is a GEMM over the incoming weight matrix), so a network
with merged hidden neurons is cheaper to analyze in proportion to the
*square* of the merge ratio.  This module builds, from a concrete
Dense/ReLU network, a strictly over-approximating abstract
:class:`~repro.nn.network.Network` in the style of DeepAbstract /
Elboher et al.:

1.  Hidden neurons of each layer are partitioned into groups —
    *syntactic* clustering groups neurons whose incoming weight rows are
    close, *semantic* clustering groups neurons whose activation
    signatures over sampled inputs are close (the grouping only affects
    precision, never soundness).
2.  Each group is replaced by one representative neuron (the centroid of
    its members' reduced weight rows), and a per-group error bound
    ``d_G`` is derived by interval arithmetic over a fixed *domain box*:
    for every input ``x`` in the box, every concrete member activation
    stays within ``d_G`` of the representative's activation
    (ReLU is 1-Lipschitz, so the bound survives the nonlinearity).  The
    interval each layer's inputs range over is DeepPoly's
    back-substituted pre-activation bound of the abstract layer below,
    clipped at 0 and computed in float64 whatever backend is active, so
    the abstract network does not depend on the caller's precision.
3.  The accumulated error surfaces as a single
    :class:`~repro.nn.layers.ErrorPad` at the output, whose per-row
    radii bound the total concrete-vs-abstract output deviation.  Every
    abstract domain treats the pad as an independent adversarial error
    per output row, so the abstract margin lower bound is a sound lower
    bound on the *concrete* margin: ``VERIFIED`` on the abstract network
    implies verified on the concrete one.

A ``FALSIFIED`` abstract outcome is only trusted after its witness
reproduces under a concrete float64 forward pass; a spurious witness
triggers :meth:`NetworkAbstraction.refine` — the merged group most
responsible for the output gap (error bound times downstream
absolute-weight amplification) is split in two — and the job retries at
the finer level.  Refinement terminates: every split strictly reduces
some group, and the all-singleton partition *is* the concrete network
(:meth:`NetworkAbstraction.build` returns the original object, digest
and all).  The CEGAR loop itself is the scheduler's network-abstraction
pre-pass (:meth:`repro.sched.scheduler.Scheduler._run_netabs`), which
every verify path runs through.  See DESIGN.md §13 for the full
soundness argument.

The abstraction is built over a fixed domain box (the unit box hulled
with the job regions), not per region, so one abstract network — and
therefore one ``network_digest`` and one result-cache keyspace — serves
every job and survives across refinement retries and scheduler runs.
"""

from __future__ import annotations

import numpy as np

from repro.abstract.deeppoly import (
    DeepPolyBatch,
    _DiagBounds,
    _relu_relaxation,
)
from repro.backend import use_backend
from repro.nn.layers import Dense, ErrorPad, ReLU
from repro.nn.network import AffineOp, Network, ReluOp
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.trace import span
from repro.utils.boxes import Box

#: ``--abstraction`` menu shared by the verify and schedule commands.
ABSTRACTION_MODES = ("off", "syntactic", "semantic")

#: Default ``--abstraction-level``: target group count per hidden layer
#: is ``ceil(width / 2**level)``, so level 2 merges ~4 neurons per group.
DEFAULT_LEVEL = 2

#: Outward widening on every derived error bound: the bounds are exact
#: real-interval quantities evaluated in float64, whose rounding we do
#: not direct, so give away a few relative ulps to stay on the sound
#: side (the pad radii are additionally ulp-bumped per dtype by
#: ``Network.ops_for``).
_SAFETY = 1.0 + 1e-9

#: Sample count for semantic (activation-signature) clustering.
_SIGNATURE_SAMPLES = 64

#: float64 machine epsilon and smallest normal number, for the slack of
#: :func:`_gram_bound`.
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


def _affine_chain(network: Network) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """``[(W, b), ...]`` when the lowered ops are a ReLU MLP, else ``None``.

    The merging construction needs the strict ``Affine (ReLU Affine)+``
    shape; anything else (max pooling, existing pads, a single affine
    with nothing to merge) falls back to the concrete network.
    """
    ops = network.ops()
    if len(ops) < 3 or len(ops) % 2 == 0:
        return None
    chain: list[tuple[np.ndarray, np.ndarray]] = []
    for i, op in enumerate(ops):
        if i % 2 == 0:
            if not isinstance(op, AffineOp):
                return None
            chain.append((op.weight, op.bias))
        elif not isinstance(op, ReluOp):
            return None
    return chain


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise squared distances ``‖a[k] - b[k]‖²`` (``b`` broadcasts).

    The one exact distance of the clustering: a per-row ``einsum``
    reduction, so each value is bitwise the same whichever rows share the
    call and whichever side is subtracted (squares are sign-blind).
    """
    diff = a - b
    return np.einsum("ij,ij->i", diff, diff)


def _gram_bound(
    gram: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray, dim: int
) -> np.ndarray:
    """Certified lower bounds on :func:`_sqdist`, written over ``gram``.

    The Gram identity ``‖a - b‖² = ‖a‖² + ‖b‖² - 2⟨a, b⟩``, with
    ``gram`` the computed ``⟨a, b⟩`` and ``sq_a``/``sq_b`` the computed
    squared norms (broadcast against it), less the slack
    ``s·(‖a‖² + ‖b‖² + tiny)`` with ``s = 8(d + 4)ε``: four times the
    worst-case gap between the rounded identity and the rounded
    ``einsum``, underflow included (DESIGN §13 item 1).  Near-equal rows
    cancel to a bound ``<= 0``.
    """
    slack = 8.0 * (dim + 4) * _EPS
    gram *= -2.0
    gram += (1.0 - slack) * sq_a
    gram += (1.0 - slack) * sq_b
    gram -= slack * _TINY
    return gram


def _settle(
    dist: np.ndarray, is_exact: np.ndarray, cents: np.ndarray, flat: np.ndarray
) -> int:
    """Overwrite ``dist`` at the flat indices ``flat`` with the exact
    distances and flag them in ``is_exact``, ``n`` pairs at a time (O(n·d)
    temporaries).  Returns the pair count."""
    n = cents.shape[0]
    rows, cols = np.divmod(flat, n)
    for start in range(0, flat.size, n):
        part = slice(start, start + n)
        dist[rows[part], cols[part]] = _sqdist(
            cents[rows[part]], cents[cols[part]]
        )
    is_exact[rows, cols] = True
    return flat.size


def _agglomerate(features: np.ndarray, target: int) -> list[np.ndarray]:
    """Deterministic greedy agglomerative clustering to ``target`` groups.

    Centroid linkage: repeatedly merge the closest pair of cluster
    centroids; ties break toward the lexicographically smallest index
    pair (``np.argmin`` over the row-major distance matrix), so the
    partition is a pure function of the feature matrix.  Returns one
    member-index array per group (smallest member first, the rest in
    merge order), groups ordered by smallest member.

    Memory is O(n²): the ``(n, n)`` distance matrix, upper triangle
    only, and a mask of its exact entries.  Every entry the mask does not
    flag holds a certified lower bound (:func:`_gram_bound`): one GEMM
    bounds every pair up front, one GEMV every pair of a merged cluster.
    Exact distances (:func:`_sqdist`) are computed only where a merge can
    land: where a bound cancels to ``<= 0`` (near duplicates), and where
    the argmin lands on a bound — that bound first and, should the argmin
    land on a bound again, every bound at or below the exact value just
    found.  A merge happens only on an exact entry.  No entry exceeds its
    exact distance, so that entry is the first minimum of the all-exact
    matrix: the merge sequence and the partition are bitwise those of
    evaluating every pair.

    Raises :class:`OverflowError` when squared distances can overflow
    float64 (``4·max‖row‖²`` is not finite): no pair can be ranked.
    Counts the pair distances an all-exact matrix evaluates
    (``sched.netabs.cluster_pairs``: n(n-1)/2, plus n per merge) and the
    exact ones made (``sched.netabs.cluster_exact``).
    """
    n, dim = features.shape
    target = max(1, min(int(target), n))
    members: list[list[int] | None] = [[i] for i in range(n)]
    if target >= n:
        return [np.array(m) for m in members]
    cents = np.array(features, dtype=np.float64)
    sq = np.einsum("ij,ij->i", cents, cents)
    if not np.isfinite(4.0 * sq.max()):
        raise OverflowError("squared feature distances overflow float64")
    counts = np.ones(n)
    # dist[i, j] for i < j; the diagonal, the lower triangle and the rows
    # and columns of merged-away clusters stay inf.
    dist = _gram_bound(cents @ cents.T, sq[:, None], sq, dim)
    dist[np.tri(n, dtype=bool)] = np.inf
    is_exact = np.zeros((n, n), dtype=bool)
    # Near duplicates, where the identity cancels, are settled up front.
    evaluated = _settle(dist, is_exact, cents, np.flatnonzero(dist <= 0.0))
    for _ in range(n - target):
        i, j = divmod(int(dist.argmin()), n)  # i < j: upper triangle only
        if not is_exact[i, j]:
            value = dist[i, j] = _sqdist(cents[j : j + 1], cents[i])[0]
            is_exact[i, j] = True
            evaluated += 1
            i, j = divmod(int(dist.argmin()), n)
            if not is_exact[i, j]:
                # Bounds crowd the minimum: settle every one at or below
                # the exact value just found, so that the argmin lands on
                # an exact entry.
                crowd = np.flatnonzero((dist <= value) & ~is_exact)
                evaluated += _settle(dist, is_exact, cents, crowd)
                i, j = divmod(int(dist.argmin()), n)
        members[i].extend(members[j])
        members[j] = None
        total = counts[i] + counts[j]
        cents[i] = (cents[i] * counts[i] + cents[j] * counts[j]) / total
        counts[i] = total
        sq[i] = cents[i] @ cents[i]
        sq[j] = np.inf  # every later bound against j is inf
        vals = _gram_bound(cents @ cents[i], sq[i], sq, dim)
        vals[i] = np.inf
        near = vals <= 0.0
        hits = np.flatnonzero(near)
        if hits.size:
            vals[hits] = _sqdist(cents[hits], cents[i])
            evaluated += hits.size
        dist[i, i + 1 :] = vals[i + 1 :]
        dist[:i, i] = vals[:i]
        is_exact[i, i + 1 :] = near[i + 1 :]
        is_exact[:i, i] = near[:i]
        dist[j, j + 1 :] = np.inf
        dist[:j, j] = np.inf
    obs = _metrics_registry()
    obs.inc("sched.netabs.cluster_pairs", n * (n - 1) // 2 + n * (n - target))
    obs.inc("sched.netabs.cluster_exact", evaluated)
    return [np.array(m) for m in members if m is not None]


def _farthest_pair(feats: np.ndarray) -> tuple[int, int]:
    """The farthest pair of rows of ``feats``, as ``np.argmax`` over the
    ``(g, g)`` squared-distance matrix picks it (the first maximum in
    row-major order; a NaN wins, as in ``argmax``), computed one row at a
    time without the ``(g, g, d)`` difference tensor.

    Row ``i``'s distances are the same per-row ``einsum`` reduction of
    ``feats[i] - feats[j]`` the full tensor holds, so the pair — and the
    split it seeds — is bitwise the one the tensor form chose.
    """
    best, pair = -np.inf, (0, 0)
    diff = np.empty_like(feats)
    for i in range(feats.shape[0]):
        np.subtract(feats[i], feats, out=diff)
        dist = np.einsum("ij,ij->i", diff, diff)
        j = int(np.argmax(dist))
        if np.isnan(dist[j]):
            return i, j
        if dist[j] > best:
            best, pair = dist[j], (i, j)
    return pair


def _semantic_signatures(
    chain: list[tuple[np.ndarray, np.ndarray]], box: Box, seed: int
) -> list[np.ndarray]:
    """Per-hidden-layer activation signatures over sampled domain points.

    Row ``j`` of layer ``ell``'s matrix is neuron ``j``'s post-activation
    vector across the (deterministically seeded) samples — neurons that
    behave alike on the domain box cluster together even when their
    weight rows look different.
    """
    rng = np.random.default_rng(seed)
    x = box.sample(rng, _SIGNATURE_SAMPLES)
    sigs = []
    h = x
    for weight, bias in chain[:-1]:
        h = np.maximum(h @ weight.T + bias, 0.0)
        sigs.append(np.ascontiguousarray(h.T))
    return sigs


class NetworkAbstraction:
    """Clustering state, abstract-network builder, and refinement driver.

    One instance per (network, mode, level) holds the current partition
    of every hidden layer; :meth:`build` materializes it as an abstract
    :class:`Network` and :meth:`refine` splits the group most
    responsible for the over-approximation.  All state transitions are
    deterministic, so equal refinement paths produce byte-equal abstract
    networks (and therefore equal digests — the result cache stays warm
    across retries).
    """

    def __init__(
        self,
        network: Network,
        mode: str,
        level: int,
        regions: list[Box] | None = None,
        seed: int = 0,
    ) -> None:
        if mode not in ("syntactic", "semantic"):
            raise ValueError(
                f"unknown abstraction mode {mode!r}; "
                f"choose from {ABSTRACTION_MODES[1:]}"
            )
        if level < 1:
            raise ValueError(f"abstraction level must be >= 1, got {level}")
        chain = _affine_chain(network)
        if chain is None:
            raise ValueError(
                "network abstraction needs a Dense/ReLU chain "
                "(use abstraction_for() to fall back gracefully)"
            )
        self.network = network
        self.mode = mode
        self.level = int(level)
        self._chain = chain
        # The error bounds quantify over this box, so they are valid for
        # every job region inside it.  The hull of the job regions keeps
        # it as tight as the workload allows (the unit box is the
        # region-free fallback); one run's manifest yields one box, so
        # digests stay stable across refinement retries and reruns.
        if regions:
            box = regions[0]
            for region in regions[1:]:
                box = box.hull(region)
        else:
            box = Box.unit(network.input_size)
        self.domain_box = box
        self.splits = 0
        self._last_c: list[np.ndarray] | None = None
        if mode == "semantic":
            self._features = _semantic_signatures(chain, box, seed)
        else:
            self._features = [
                np.concatenate([weight, bias[:, None]], axis=1)
                for weight, bias in chain[:-1]
            ]
        try:
            self.groups: list[list[np.ndarray]] = [
                _agglomerate(feats, -(-feats.shape[0] // (1 << self.level)))
                for feats in self._features
            ]
        except OverflowError:
            # No pair of some layer can be ranked, so merge nothing: the
            # identity abstraction builds the concrete network, and
            # abstraction_for() turns it into None.
            self.groups = [
                _agglomerate(feats, feats.shape[0]) for feats in self._features
            ]
        # Downstream absolute-weight amplification of each hidden neuron:
        # how much a unit of error at that neuron can move the worst
        # output row.  Fixed per network; used to score refinement splits.
        amp = np.ones(chain[-1][0].shape[0])
        amps: list[np.ndarray] = []
        for weight, _ in reversed(chain[1:]):
            amp = np.abs(weight).T @ amp
            amps.append(amp)
        self._amp = list(reversed(amps))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        """True when every group is a singleton (abstract == concrete)."""
        return all(
            len(groups) == feats.shape[0]
            for groups, feats in zip(self.groups, self._features)
        )

    @property
    def hidden_concrete(self) -> int:
        return sum(feats.shape[0] for feats in self._features)

    @property
    def hidden_abstract(self) -> int:
        return sum(len(groups) for groups in self.groups)

    @property
    def merged_ratio(self) -> float:
        """Abstract hidden neurons as a fraction of concrete ones."""
        return self.hidden_abstract / self.hidden_concrete

    def covers(self, region: Box) -> bool:
        """Whether the error bounds are valid over ``region``."""
        return self.domain_box.contains(region)

    def stats(self) -> dict:
        return {
            "mode": self.mode,
            "level": self.level,
            "hidden_concrete": self.hidden_concrete,
            "hidden_abstract": self.hidden_abstract,
            "merged_ratio": self.merged_ratio,
            "splits": self.splits,
        }

    # ------------------------------------------------------------------
    # Builder
    # ------------------------------------------------------------------

    def build(self) -> Network:
        """Materialize the current partition as an abstract network.

        Returns the *original* network object once the partition is all
        singletons — the CEGAR driver detects concrete fallback by
        identity, and the digest (hence the cache keyspace) coincides
        with the concrete one.
        """
        if self.is_identity:
            return self.network
        # The hull is bounded in float64 whatever backend is active: the
        # abstract network, its digest and its cache keyspace must not
        # depend on the caller's precision.
        with span(
            "netabs.abstract", cat="netabs",
            mode=self.mode, level=self.level, splits=self.splits,
        ), use_backend("numpy64"):
            return self._build()

    def _build(self) -> Network:
        chain = self._chain
        layers: list = []
        prev_groups: list[np.ndarray] | None = None
        # Per *concrete* neuron error bound of the previous layer:
        # |h_p(x) - abstract_h_{group(p)}(x)| <= c_prev[p] over the box.
        c_prev: np.ndarray | None = None
        last_c: list[np.ndarray] = []
        out_index = len(chain) - 1
        # Interval hull of the abstract prefix's activations over the
        # domain box: the box itself for the first layer.
        h_lo, h_hi = self.domain_box.low, self.domain_box.high
        prefix = DeepPolyBatch.from_boxes([self.domain_box])
        for ell, (weight, bias) in enumerate(chain):
            if prev_groups is None:
                w_red = weight
                eta = np.zeros(weight.shape[0])
            else:
                # Reduced incoming weights (the representative carries its
                # group's summed columns) and the error inherited from the
                # previous layer's merge: member p strays at most c_prev[p]
                # from its representative, so row j picks up at most
                # sum_p |W[j, p]| * c_prev[p].
                w_red = np.stack(
                    [weight[:, g].sum(axis=1) for g in prev_groups], axis=1
                )
                eta = np.abs(weight) @ c_prev
            if ell == out_index:
                # Output rows are never merged; the accumulated error
                # surfaces as one pad of per-row radii.
                layers.append(Dense(w_red, bias))
                layers.append(ErrorPad(eta * _SAFETY))
                break
            groups = self.groups[ell]
            w_bar = np.stack([w_red[g].mean(axis=0) for g in groups])
            b_bar = np.array([float(bias[g].mean()) for g in groups])
            # Deviation of each member's pre-activation from its group
            # representative, maximized over the interval hull of the
            # abstract prefix (h_lo/h_hi) — exact for an affine form.
            rep_w = np.empty_like(w_red)
            rep_b = np.empty_like(bias)
            for gi, g in enumerate(groups):
                rep_w[g] = w_bar[gi]
                rep_b[g] = b_bar[gi]
            dw = w_red - rep_w
            db = bias - rep_b
            pos = np.maximum(dw, 0.0)
            neg = np.minimum(dw, 0.0)
            up = pos @ h_hi + neg @ h_lo + db
            lo = pos @ h_lo + neg @ h_hi + db
            c = (np.maximum(np.abs(up), np.abs(lo)) + eta) * _SAFETY
            last_c.append(c)
            layers.append(Dense(w_bar, b_bar))
            layers.append(ReLU())
            prev_groups = groups
            c_prev = c
            if ell + 1 == out_index:
                continue  # the output layer needs no hull
            # Advance the hull through the abstract layer: DeepPoly's
            # back-substituted pre-activation bounds clipped at 0 (the
            # exact ReLU image of that interval).  The ReLU relaxation
            # is made from the same bounds; relu() would back-substitute
            # them a second time.
            prefix = prefix.affine(w_bar, b_bar)
            z_lo, z_hi = prefix.bounds()
            prefix = prefix._extended(
                _DiagBounds(*_relu_relaxation(z_lo, z_hi))
            )
            h_lo = np.maximum(z_lo[0], 0.0)
            h_hi = np.maximum(z_hi[0], 0.0)
        self._last_c = last_c
        return Network(layers, input_shape=(self.network.input_size,))

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------

    def refine(self) -> bool:
        """Split the group most responsible for the output gap.

        Score = the group's error bound ``d_G`` times the maximum
        downstream absolute-weight amplification of its members — the
        bound-gap attribution of how much of the output pad that group
        can account for.  The winner splits around its farthest feature
        pair.  Returns ``False`` once every group is a singleton.
        """
        if self.is_identity:
            return False
        with span("netabs.refine", cat="netabs", splits=self.splits):
            return self._refine()

    def _refine(self) -> bool:
        if self._last_c is None:
            self.build()
        best: tuple[int, int] | None = None
        best_score = -np.inf
        for ell, groups in enumerate(self.groups):
            c = self._last_c[ell]
            amp = self._amp[ell]
            for gi, g in enumerate(groups):
                if len(g) < 2:
                    continue
                score = float((c[g] * amp[g]).max())
                if score > best_score:
                    best_score = score
                    best = (ell, gi)
        if best is None:
            return False
        ell, gi = best
        group = self.groups[ell][gi]
        feats = self._features[ell][group]
        a, b = _farthest_pair(feats)
        if a == b:
            # Bitwise-identical features: halve by index.
            half = len(group) // 2
            parts = [group[:half], group[half:]]
        else:
            da = ((feats - feats[a]) ** 2).sum(axis=1)
            db = ((feats - feats[b]) ** 2).sum(axis=1)
            mask = da <= db
            parts = [group[mask], group[~mask]]
        groups = (
            self.groups[ell][:gi]
            + [np.sort(p) for p in parts]
            + self.groups[ell][gi + 1 :]
        )
        groups.sort(key=lambda arr: int(arr[0]))
        self.groups[ell] = groups
        self.splits += 1
        self._last_c = None  # stale until the next build
        return True

    def refine_round(self) -> bool:
        """One CEGAR retry's worth of refinement: a geometric batch of
        single splits (a quarter of the current abstract width, at least
        one), each picked by the same bound-gap attribution as
        :meth:`refine`.  Single splits barely move a coarse partition,
        so retries would crawl; a geometric batch reaches the concrete
        network in logarithmically many rounds while still spending
        every split on the worst-attributed group.  Returns ``False``
        when nothing was left to split.
        """
        steps = max(1, self.hidden_abstract // 4)
        split_any = False
        for _ in range(steps):
            if not self.refine():
                break
            split_any = True
        return split_any


def abstraction_for(
    network: Network,
    mode: str | None,
    level: int,
    regions: list[Box] | None = None,
) -> NetworkAbstraction | None:
    """A :class:`NetworkAbstraction`, or ``None`` when abstraction is a
    no-op — mode off, level below 1, an architecture the construction
    does not cover (conv/maxpool chains), features whose squared
    distances overflow float64 (weights around 1e160), or a level too
    fine to merge anything.  Callers treat ``None`` as "run the concrete
    network".
    """
    if mode in (None, "off") or level < 1:
        return None
    if _affine_chain(network) is None:
        return None
    abstraction = NetworkAbstraction(network, mode, level, regions=regions)
    if abstraction.is_identity:
        return None
    return abstraction
