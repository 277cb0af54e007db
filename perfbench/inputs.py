"""Seeded input generation: the networks and job lists each workload runs.

Everything here happens before any measurement and counts in no metric.
The program later sees only what this module writes into a workload
directory:

- ``nets/<name>.npz`` — networks in the format ``repro.nn.serialize``
  reads (written with ``save_network``);
- ``regions.npz`` — one ``low_<i>``/``high_<i>`` box pair per job;
- ``jobs.json`` — the job list: per-job network, region, label and seed,
  the verifier settings shared by every job, and the phases (one
  ``Scheduler.run()`` each) the workload is made of.

Verification cost is bimodal in the property: a job is decided at the
root for one PGD and one Analyze row, or it refines down to the depth cap
for tens of rows.  Properties drawn blindly made one suite's wall time
swing from 2.4 s to 6.3 s across six seeds, so the refinement workloads
grade each property against the least region size at which the
benchmark's own float64 attack (``Mlp``, independent of the code under
test) finds a counterexample:

- ``R`` — a tenth of that size: verified at the root whatever domain the
  policy picks;
- ``E`` — a fifth of it: verified at the root by DeepPoly;
- ``F`` — one and a half times it: falsified at the root;
- ``H`` — nine tenths of it: no counterexample at the root and too wide to
  verify there, so the verifier refines, mostly to the depth cap.

Each network gets its workload's grades in a fixed cycle, and only images
whose attack size is typical for the network are used, so the amount and
kind of work stay nearly the same for every seed while the images and
regions change with it.
"""

from __future__ import annotations

import copy
import json
import shutil
from pathlib import Path

import numpy as np

#: Bumped whenever generation changes, so stale cached inputs are rebuilt.
GENERATOR_VERSION = 9

#: Grade of each job slot on a network, cycled.
FIG06_GRADES = ("E", "H", "F")
LEARNED_GRADES = ("R", "R", "F")
GRADE_FACTOR = {"R": 0.1, "E": 0.2, "F": 1.5, "H": 0.9}

#: Least own margin of an L∞ centre in the root-decided workloads; the
#: tiny self-test networks have smaller logits.
MARGIN, TINY_MARGIN = 0.15, 0.01

#: Attackable candidates screened per job slot (see :func:`graded_jobs`).
POOL = 3

FIG06_NETWORKS = (
    "mnist_3x100",
    "mnist_6x100",
    "mnist_9x200",
    "cifar_3x100",
    "cifar_6x100",
    "cifar_9x100",
)

#: Layers the fine-tune chain perturbs, one per version, each version
#: derived from the previous one.  Dense layers sit at even indices of the
#: 19-layer ``[Dense, ReLU] * 9 + [Dense]`` stack, so a change at index k
#: leaves a reusable prefix of k layers.
FINETUNE_LAYERS = (18, 16, 12, 8, 18, 4)


class Mlp:
    """A Dense/ReLU stack in plain numpy: the benchmark's own float64 model.

    Used to grade properties and to re-check witnesses without going
    through the code under test.
    """

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]]):
        self.layers = layers

    @classmethod
    def from_network(cls, network) -> "Mlp":
        return cls(
            [
                (np.asarray(layer.weight, float), np.asarray(layer.bias, float))
                for layer in network.layers
                if type(layer).__name__ == "Dense"
            ]
        )

    @classmethod
    def load(cls, path: Path) -> "Mlp":
        """Read an ``.npz`` network written by ``save_network``."""
        with np.load(path, allow_pickle=False) as archive:
            header = json.loads(str(archive["header"]))
            layers = []
            for i, spec in enumerate(header["layers"]):
                if spec["kind"] == "dense":
                    layers.append(
                        (archive[f"param_{i}_0"], archive[f"param_{i}_1"])
                    )
                elif spec["kind"] != "relu":
                    raise ValueError(f"{path}: unsupported layer {spec['kind']}")
        return cls(layers)

    def logits(self, x: np.ndarray) -> np.ndarray:
        h = np.asarray(x, float)
        for weight, bias in self.layers[:-1]:
            h = np.maximum(h @ weight.T + bias, 0.0)
        weight, bias = self.layers[-1]
        return h @ weight.T + bias

    def margins(self, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """``logit[label] - max other logit`` per row of ``x``."""
        out = self.logits(np.atleast_2d(x))
        rows = np.arange(len(out))
        own = out[rows, labels]
        out[rows, labels] = -np.inf
        return own - out.max(axis=1)

    def margin_grads(self, x: np.ndarray, labels: np.ndarray):
        """Margins and their input gradients for a batch ``x``."""
        h, masks = x, []
        for weight, bias in self.layers[:-1]:
            z = h @ weight.T + bias
            masks.append(z > 0)
            h = np.where(masks[-1], z, 0.0)
        weight, bias = self.layers[-1]
        out = h @ weight.T + bias
        rows = np.arange(len(out))
        own = out[rows, labels]
        out[rows, labels] = -np.inf
        rival = out.argmax(axis=1)
        grad = weight[labels] - weight[rival]
        for (weight, _), mask in zip(reversed(self.layers[:-1]), reversed(masks)):
            grad = (grad * mask) @ weight
        return own - out[rows, rival], grad


def _attack(model: Mlp, low, high, labels, rng, steps: int = 20) -> np.ndarray:
    """Smallest margin a sign-gradient descent finds in each box."""
    best = np.full(len(low), np.inf)
    step = (high - low) / 4.0
    for start in (low, high, rng.uniform(low, high)):
        x = start.copy()
        for _ in range(steps):
            margin, grad = model.margin_grads(x, labels)
            best = np.minimum(best, margin)
            x = np.clip(x - step * np.sign(grad), low, high)
        best = np.minimum(best, model.margins(x, labels))
    return best


def _brightening(images: np.ndarray, size, tau: float = 0.55):
    """The paper's brightening region: pixels at or above ``tau`` may move
    a share ``size`` of the way to 1."""
    size = np.reshape(size, (-1, 1))
    return images, np.where(images >= tau, images + size * (1.0 - images), images)


def _linf(images: np.ndarray, size):
    size = np.reshape(size, (-1, 1))
    return np.clip(images - size, 0.0, 1.0), np.clip(images + size, 0.0, 1.0)


#: Region families: the box of each row at a per-row size, and the largest
#: size the attack tries.
FAMILIES = {"brightening": (_brightening, 1.0), "linf": (_linf, 0.25)}


def attack_sizes(model: Mlp, images, labels, family: str, rng) -> np.ndarray:
    """Per image, the least region size at which the attack wins (bisection;
    the caller passes only images the attack wins at the largest size)."""
    box, largest = FAMILIES[family]
    lo = np.zeros(len(images))
    hi = np.full(len(images), largest)
    for _ in range(10):
        mid = (lo + hi) / 2.0
        won = _attack(model, *box(images, mid), labels, rng) <= 0.0
        hi = np.where(won, mid, hi)
        lo = np.where(won, lo, mid)
    return hi


def graded_jobs(network, dataset, count: int, rng, family: str, grades):
    """``count`` jobs on ``network``, graded by cycling through ``grades``.

    Candidates are the correctly classified images in seeded order,
    screened in chunks until a pool of ``POOL * count`` of them falls to
    the attack at the family's largest size.  The ``count`` whose attack
    sizes lie closest to the pool's median are kept, so that regions of
    one grade are alike in size from seed to seed.  Returns
    ``[(low, high, label, grade)]``.
    """
    box, largest = FAMILIES[family]
    model = Mlp.from_network(network)
    images = dataset.inputs.reshape(len(dataset), -1).astype(float)
    labels = np.asarray(dataset.labels)
    correct = np.argmax(model.logits(images), axis=1) == labels
    order = rng.permutation(np.flatnonzero(correct))
    pool: list[int] = []
    for start in range(0, len(order), 64):
        chunk = order[start : start + 64]
        full = np.full(len(chunk), largest)
        won = _attack(model, *box(images[chunk], full), labels[chunk], rng) <= 0.0
        pool.extend(chunk[won])
        if len(pool) >= POOL * count:
            break
    if len(pool) < count:
        raise RuntimeError(
            f"only {len(pool)} attackable images for a {count}-job quota"
        )
    pool = np.asarray(pool[: POOL * count])
    sizes = attack_sizes(model, images[pool], labels[pool], family, rng)
    typical = np.sort(np.argsort(np.abs(np.log(sizes / np.median(sizes))))[:count])
    jobs = []
    for slot, member in enumerate(typical):
        grade = grades[slot % len(grades)]
        size = min(largest, GRADE_FACTOR[grade] * sizes[member])
        low, high = box(images[pool[member]][None], size)
        jobs.append((low[0], high[0], int(labels[pool[member]]), grade))
    return jobs


def screened_centers(model: Mlp, count: int, rng, margin: float):
    """Uniform points whose own margin exceeds ``margin``: L∞ balls around
    them at the workloads' ε are decided at the root."""
    centers = []
    for _ in range(1000):
        x = rng.uniform(0.2, 0.8, size=(64, model.layers[0][0].shape[1]))
        out = np.sort(model.logits(x), axis=1)
        centers.extend(x[out[:, -1] - out[:, -2] > margin])
        if len(centers) >= count:
            return np.asarray(centers[:count])
    raise RuntimeError(f"fewer than {count} points with margin > {margin}")


def linf_box(center: np.ndarray, epsilon: float):
    return np.clip(center - epsilon, 0.0, 1.0), np.clip(center + epsilon, 0.0, 1.0)


# ----------------------------------------------------------------------
# Workload generators.  Each returns (networks, jobs, phases, settings):
# networks {name: Network}, jobs [(network, low, high, label, grade)],
# phases [{"name", "jobs": [indices]}], settings for every job.
# ----------------------------------------------------------------------


def _suite_jobs(names, scale, seed: int, per_network: int, family: str, grades):
    """Graded jobs on the suite's networks.

    The networks are trained from a fixed seed, the same for every
    workload seed; the workload seed draws the images and regions.  The
    paper, too, evaluates fixed networks on many properties, and the cost
    per analysed row depends on the trained weights: redrawing the two
    learned-process networks with every seed spread its wall time by 88%
    (interquartile range over the median) across five seeds.
    """
    from repro.bench.suites import build_network

    rng = np.random.default_rng([seed, 1])
    networks, jobs = {}, []
    for name in names:
        bench = build_network(name, scale, seed=0)
        networks[name] = bench.network
        for low, high, label, grade in graded_jobs(
            bench.network, bench.dataset, per_network, rng, family, grades
        ):
            jobs.append((name, low, high, label, grade))
    return networks, jobs


def gen_fig06(seed: int, tiny: bool):
    from repro.bench.suites import SuiteScale

    names, scale, count = (FIG06_NETWORKS, SuiteScale(width_factor=0.5), 12)
    if tiny:
        names, scale, count = (("mnist_3x100", "cifar_3x100"), SuiteScale(), 3)
    networks, jobs = _suite_jobs(
        names, scale, seed, count, "brightening", FIG06_GRADES
    )
    phases = [{"name": "suite", "jobs": list(range(len(jobs)))}]
    return networks, jobs, phases, {"policy": "deeppoly", "max_depth": 3}


def gen_learned(seed: int, tiny: bool):
    from repro.bench.suites import SuiteScale

    names = ("mnist_3x100",) if tiny else ("mnist_3x100", "mnist_6x100")
    networks, jobs = _suite_jobs(
        names, SuiteScale(), seed, 3 if tiny else 192, "linf", LEARNED_GRADES
    )
    phases = [{"name": "suite", "jobs": list(range(len(jobs)))}]
    return networks, jobs, phases, {"policy": "learned", "max_depth": 1}


def gen_finetune(seed: int, tiny: bool):
    from repro.nn.builders import mlp

    rng = np.random.default_rng([seed, 2])
    width = 16 if tiny else 200
    base = mlp(64, [width] * 9, 10, rng=int(rng.integers(2**31)))
    model = Mlp.from_network(base)
    centers = screened_centers(
        model, 4 if tiny else 8, rng, TINY_MARGIN if tiny else MARGIN
    )
    labels = np.argmax(model.logits(centers), axis=1)
    networks = {"v0": base}
    current = base
    for version, layer in enumerate(FINETUNE_LAYERS, start=1):
        tuned = copy.deepcopy(current)
        tuned.thaw_params()
        tuned.layers[layer].weight += rng.normal(
            0.0, 1e-6, tuned.layers[layer].weight.shape
        )
        tuned.invalidate_ops()
        networks[f"v{version}"] = current = tuned
    jobs, phases = [], []
    for name in networks:
        start = len(jobs)
        for center, label in zip(centers, labels):
            low, high = linf_box(center, 5e-4)
            jobs.append((name, low, high, int(label), "root"))
        phases.append({"name": name, "jobs": list(range(start, len(jobs)))})
    phases.append({"name": "replay", "jobs": phases[0]["jobs"]})
    settings = {
        "policy": "deeppoly",
        "max_depth": 10,
        "pgd_steps": 8,
        "pgd_restarts": 1,
    }
    return networks, jobs, phases, settings


def gen_netabs(seed: int, tiny: bool):
    from repro.nn.builders import redundant_mlp

    rng = np.random.default_rng([seed, 3])
    networks, jobs = {}, []
    for index in range(1 if tiny else 4):
        name = f"redundant{index}"
        network = redundant_mlp(
            64,
            [8 if tiny else 50] * 9,
            10,
            dup=4,
            noise=1e-12,
            rng=int(rng.integers(2**31)),
        )
        networks[name] = network
        model = Mlp.from_network(network)
        centers = screened_centers(
            model, 4 if tiny else 16, rng, TINY_MARGIN if tiny else MARGIN
        )
        labels = np.argmax(model.logits(centers), axis=1)
        for slot, (center, label) in enumerate(zip(centers, labels)):
            low, high = linf_box(center, (5e-4, 8e-4)[slot % 2])
            jobs.append((name, low, high, int(label), "root"))
    phases = [{"name": "suite", "jobs": list(range(len(jobs)))}]
    return networks, jobs, phases, {"policy": "deeppoly", "max_depth": 10}


GENERATORS = {
    "fig06-deeppoly": gen_fig06,
    "learned-process": gen_learned,
    "finetune-reverify": gen_finetune,
    "netabs-screen": gen_netabs,
}


def generate(workload: str, seed: int, directory: Path, tiny: bool = False) -> None:
    """Write ``workload``'s inputs for ``seed`` into ``directory``.

    ``tiny`` shrinks every workload to a few small jobs (the self-tests).
    Reuses a complete earlier generation of the same version.
    """
    marker = directory / "jobs.json"
    if marker.exists():
        if json.loads(marker.read_text()).get("version") == GENERATOR_VERSION:
            return
    if directory.exists():
        shutil.rmtree(directory)
    from repro.nn.serialize import save_network

    networks, jobs, phases, settings = GENERATORS[workload](seed, tiny)
    (directory / "nets").mkdir(parents=True)
    for name, network in networks.items():
        save_network(network, directory / "nets" / f"{name}.npz")
    arrays = {}
    for index, (_, low, high, _, _) in enumerate(jobs):
        arrays[f"low_{index}"] = low
        arrays[f"high_{index}"] = high
    np.savez(directory / "regions.npz", **arrays)
    listing = {
        "version": GENERATOR_VERSION,
        "workload": workload,
        "seed": seed,
        "networks": {name: f"nets/{name}.npz" for name in networks},
        "settings": settings,
        "jobs": [
            {
                "name": f"{network}-{index}-{grade}",
                "network": network,
                "label": label,
                "seed": index,
                "grade": grade,
            }
            for index, (network, _, _, label, grade) in enumerate(jobs)
        ],
        "phases": phases,
    }
    # Written last: its presence marks a complete generation.
    marker.write_text(json.dumps(listing, indent=1))
