"""Frontier policies: which jobs enter the next fused sweep.

The scheduler's shared frontier is the union of every active job's
refinement frontier.  A :class:`FrontierPolicy` decides *which jobs'
chunks* enter the next fused sweep; it never reorders the items inside a
job's own frontier.  That invariant is what makes scheduling a pure
performance knob: each job's chunk sequence — and therefore its outcome,
witness, and statistics — is identical under every policy (DESIGN.md §6).

Policies:

- :class:`FifoFrontier` — fair round-robin: the least recently served job
  first (submission order breaks ties).  Uniform progress across jobs.
- :class:`DfsFrontier` — deepest frontier first: drills one job's
  refinement tree down before spreading, the cross-job analogue of the
  batched engine's depth-first orientation.  Minimizes peak frontier size.
- :class:`PriorityFrontier` — hardest first, keyed by the smallest PGD
  margin a job saw in its last sweep: jobs closest to falsification get
  attention first, so falsifiable jobs terminate (and free their slots)
  early.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class FrontierPolicy(ABC):
    """Orders active jobs for the next fused sweep."""

    #: CLI / manifest identifier.
    name: str = ""

    @abstractmethod
    def order(self, states: list) -> list:
        """Rank job states; earlier entries are scheduled first.

        ``states`` are scheduler-internal job states exposing ``index``
        (submission order), ``last_round`` (when last served), ``depth``
        (frontier-top depth), and ``last_margin`` (smallest PGD margin of
        the last sweep, ``-inf`` before the first sweep).
        """


class FifoFrontier(FrontierPolicy):
    """Least-recently-served job first (round-robin fairness)."""

    name = "fifo"

    def order(self, states: list) -> list:
        return sorted(states, key=lambda s: (s.last_round, s.index))


class DfsFrontier(FrontierPolicy):
    """Deepest frontier top first: finish drilling before spreading."""

    name = "dfs"

    def order(self, states: list) -> list:
        return sorted(states, key=lambda s: (-s.depth, s.index))


class PriorityFrontier(FrontierPolicy):
    """Hardest job first: smallest last-sweep PGD margin wins.

    A small margin means PGD already sits close to a counterexample, so the
    job is likely to falsify (cheap to settle) or to need deep refinement
    (start it early).  Unswept jobs rank hardest of all (``-inf``) so every
    job gets an initial measurement quickly.
    """

    name = "priority"

    def order(self, states: list) -> list:
        return sorted(states, key=lambda s: (s.last_margin, s.index))


#: ``--frontier`` menu: policy name -> constructor.
FRONTIER_POLICIES: dict[str, type[FrontierPolicy]] = {
    policy.name: policy
    for policy in (FifoFrontier, DfsFrontier, PriorityFrontier)
}


def make_frontier(policy: str | FrontierPolicy) -> FrontierPolicy:
    """Normalize a policy name or instance into a :class:`FrontierPolicy`."""
    if isinstance(policy, FrontierPolicy):
        return policy
    if policy not in FRONTIER_POLICIES:
        raise ValueError(
            f"unknown frontier policy {policy!r}; "
            f"choose from {sorted(FRONTIER_POLICIES)}"
        )
    return FRONTIER_POLICIES[policy]()

