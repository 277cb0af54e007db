"""Save and load networks as ``.npz`` archives, plus stable content digests.

The archive stores a JSON header describing the layer stack plus one array
entry per parameter.  Round-tripping is exact (float64 bit patterns are
preserved by ``.npz``).

:func:`network_digest` hashes the same header plus the raw parameter bytes,
giving every network a stable content address: two networks digest equally
iff they have identical architectures and bit-identical parameters,
regardless of where (or whether) they live on disk.  The scheduler's result
cache (:mod:`repro.sched.cache`) keys on this digest.

:func:`layer_digests` refines the single address into a rolling per-layer
chain: entry ``i`` addresses the prefix ``layers[:i+1]`` and is derived
from entry ``i-1`` plus layer ``i`` alone, so a chain hashes each layer
once.  Its last entry *is* ``network_digest`` bit for bit (every existing
whole-network cache key stays warm), and two networks that agree on their
first ``k`` layers share the first ``k`` links.  The
prefix-checkpoint cache (:mod:`repro.sched.cache` ``PrefixRecord``) keys
on these links, which is what makes re-verification after a fine-tune a
suffix run instead of a cold one.

Digesting **freezes** the network's parameter arrays
(``writeable=False``): the digest is memoized on the instance, so a later
in-place mutation would silently poison every content-addressed cache.
Mutation after digesting now raises; intentional updates go through
``set_params`` / ``Network.thaw_params`` (which drop the memo).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.nn.layers import Conv2d, Dense, ErrorPad, Flatten, MaxPool2d, ReLU
from repro.nn.network import Network


def _layer_spec(layer) -> dict:
    if isinstance(layer, Dense):
        return {"kind": "dense"}
    if isinstance(layer, Conv2d):
        return {"kind": "conv2d", "stride": layer.stride, "padding": layer.padding}
    if isinstance(layer, ReLU):
        return {"kind": "relu"}
    if isinstance(layer, ErrorPad):
        return {"kind": "errorpad"}
    if isinstance(layer, Flatten):
        return {"kind": "flatten"}
    if isinstance(layer, MaxPool2d):
        return {
            "kind": "maxpool2d",
            "kernel_size": layer.kernel_size,
            "stride": layer.stride,
        }
    raise TypeError(f"cannot serialize layer type {type(layer).__name__}")


def _params(layer) -> list[np.ndarray]:
    """A layer's parameters as C-contiguous float64 arrays: their buffers
    are the bytes every digest hashes, passed to ``update`` uncopied."""
    return [
        np.ascontiguousarray(param, dtype=np.float64) for param in layer.params()
    ]


def _sha256_json(obj) -> "hashlib._Hash":
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode())


def network_digest(network: Network) -> str:
    """A stable sha256 content address for a network.

    Covers the input shape, the layer stack (kinds plus structural
    attributes, exactly as serialized), and every parameter's float64 bit
    pattern.  Save/load round-trips preserve the digest; any weight or
    architecture change alters it.

    The result is the last link of the per-layer digest chain (see
    :func:`layer_digests`) and is memoized on the :class:`Network`
    instance, so repeated digest lookups in the scheduler, the result
    cache, and the process-pool network store hash each network exactly
    once.  First digest freezes the parameter arrays — intentional
    mutation goes through ``set_params``/``thaw_params``, which drop the
    memo via ``invalidate_ops``.
    """
    memo = getattr(network, "_digest", None)
    if memo is not None:
        return memo
    network.freeze_params()
    digest = _sha256_json({
        "input_shape": list(network.input_shape),
        "layers": [_layer_spec(layer) for layer in network.layers],
    })
    for layer in network.layers:
        for param in _params(layer):
            digest.update(param)
    network._digest = digest.hexdigest()
    return network._digest


def _chain_links(network: Network) -> tuple[str, ...]:
    """Every layer's chained link, the last one included.

    Link ``k`` hashes link ``k-1`` (the input shape's digest for the
    first layer) with layer ``k``'s spec, parameter shapes and parameter
    bytes, so each layer is hashed once.  A link depends only on its
    prefix, never on the layers after it.  Memoized on the instance and
    dropped with the whole-network memo.
    """
    memo = getattr(network, "_layer_digests", None)
    if memo is not None:
        return memo
    network.freeze_params()
    link = _sha256_json({"input_shape": list(network.input_shape)}).hexdigest()
    links = []
    for layer in network.layers:
        params = _params(layer)
        digest = _sha256_json({
            "prev": link,
            "layer": _layer_spec(layer),
            "shapes": [list(param.shape) for param in params],
        })
        for param in params:
            digest.update(param)
        link = digest.hexdigest()
        links.append(link)
    network._layer_digests = tuple(links)
    return network._layer_digests


def layer_digests(network: Network) -> list[str]:
    """The per-layer digest chain: one link per layer prefix.

    Entry ``i`` addresses the sub-network ``layers[:i+1]`` (with the full
    network's input shape).  Entries before the last are chained links
    (:func:`_chain_links`), hashing each layer once; the last entry is
    :func:`network_digest` bit for bit, so every result-cache key stays
    warm.  Both are memoized on the instance.
    """
    return [*_chain_links(network)[:-1], network_digest(network)]


def common_prefix_layers(old: Network, new: Network) -> int:
    """How many leading layers ``old`` and ``new`` share, by digest chain.

    The count is in *layers* (digest-chain links), not analyzer ops; a
    whole-network match returns ``len(new.layers)``.  Zero means the
    chains diverge at the first layer (or the input shapes differ) and no
    prefix state is reusable.  Compares the chained links throughout, so
    a network's last layer matches the same layer inside a longer one.
    """
    common = 0
    for link_old, link_new in zip(_chain_links(old), _chain_links(new)):
        if link_old != link_new:
            break
        common += 1
    return common


def save_network(network: Network, path: str | Path) -> None:
    """Write ``network`` to ``path`` as an ``.npz`` archive."""
    header = {
        "input_shape": list(network.input_shape),
        "layers": [_layer_spec(layer) for layer in network.layers],
    }
    arrays: dict[str, np.ndarray] = {}
    for i, layer in enumerate(network.layers):
        for j, param in enumerate(layer.params()):
            arrays[f"param_{i}_{j}"] = param
    np.savez(path, header=np.array(json.dumps(header)), **arrays)


def load_network(path: str | Path) -> Network:
    """Read a network previously written by :func:`save_network`.

    Raises ``ValueError`` naming the layer when a parameter holds NaN or
    ±inf: no analysis is meaningful on such a network, and the DeepPoly
    live-unit rewrite relies on ``0·w = 0`` for every weight.
    """
    with np.load(path, allow_pickle=False) as archive:
        header = json.loads(str(archive["header"]))
        layers = []
        for i, spec in enumerate(header["layers"]):
            kind = spec["kind"]
            if kind == "dense":
                layers.append(
                    Dense(archive[f"param_{i}_0"], archive[f"param_{i}_1"])
                )
            elif kind == "conv2d":
                layers.append(
                    Conv2d(
                        archive[f"param_{i}_0"],
                        archive[f"param_{i}_1"],
                        stride=spec["stride"],
                        padding=spec["padding"],
                    )
                )
            elif kind == "relu":
                layers.append(ReLU())
            elif kind == "errorpad":
                layers.append(ErrorPad(archive[f"param_{i}_0"]))
            elif kind == "flatten":
                layers.append(Flatten())
            elif kind == "maxpool2d":
                layers.append(
                    MaxPool2d(spec["kernel_size"], stride=spec["stride"])
                )
            else:
                raise ValueError(f"unknown layer kind {kind!r}")
    for i, layer in enumerate(layers):
        for param in layer.params():
            # min/max propagate NaN and expose ±inf without allocating a
            # parameter-sized mask.
            if param.size and not (
                np.isfinite(param.min()) and np.isfinite(param.max())
            ):
                raise ValueError(
                    f"layer {i} ({header['layers'][i]['kind']}) has "
                    "non-finite parameters"
                )
    return Network(layers, input_shape=tuple(header["input_shape"]))
