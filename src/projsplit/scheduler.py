"""Deterministic simulation of block-iterative and delayed operation.

Asynchrony is modeled logically, not with threads: each iteration processes
a subset of blocks, and a processed block may read a stale iterate from a
bounded history window. Two guarantees are enforced constructively rather
than assumed of the policy:

* coverage  -- every block is selected at least once in any window of M
  consecutive iterations (overdue blocks are force-included);
* staleness -- a block processed at iteration k reads iterate d(i,k) with
  1 <= d(i,k) <= k and k - d(i,k) <= D.

Selection and delays are pure functions of (policy, k, block), seeded per
iteration, so replays are identical regardless of evaluation order. A
``full`` policy selects every block at every iteration, and a zero-delay
policy (``delay_kind="zero"`` or ``D=0``) always reads the current iterate;
the engine then skips :func:`select_blocks` under the first, and
:func:`delayed_index` and the :class:`HistoryBuffer` under the second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, HistoryError

_SELECT_STREAM = 1
_DELAY_STREAM = 2


@dataclass(frozen=True)
class SchedulePolicy:
    """Block selection and delay configuration.

    kind: "full" (all blocks every iteration), "round-robin" (block_size
    consecutive blocks, rotating), or "seeded-random" (each block kept with
    probability p_select). M is the coverage window; D the maximum staleness.
    delay_kind: "zero", "fixed" (always ``delay`` iterations back, capped at
    the start), or "seeded-random" (uniform over the admissible window).
    M=None resolves to the block count when the policy is attached to a run.
    """

    kind: str = "full"
    block_size: int = 1
    p_select: float = 0.5
    M: int | None = None
    D: int = 0
    delay_kind: str = "zero"
    delay: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("full", "round-robin", "seeded-random"):
            raise ConfigError(f"schedule kind must be full/round-robin/seeded-random, got {self.kind!r}")
        if self.delay_kind not in ("zero", "fixed", "seeded-random"):
            raise ConfigError(f"delay_kind must be zero/fixed/seeded-random, got {self.delay_kind!r}")
        if self.M is not None and (not isinstance(self.M, int) or self.M < 1):
            raise ConfigError(f"M must be a positive integer, got {self.M}")
        if not isinstance(self.D, int) or self.D < 0:
            raise ConfigError(f"D must be a nonnegative integer, got {self.D}")
        if self.block_size < 1:
            raise ConfigError(f"block_size must be >= 1, got {self.block_size}")
        if not 0.0 < self.p_select <= 1.0:
            raise ConfigError(f"p_select must lie in (0, 1], got {self.p_select}")
        if self.delay_kind == "fixed" and not 0 <= self.delay <= self.D:
            raise ConfigError(f"fixed delay must lie in [0, D={self.D}], got {self.delay}")

    def resolved(self, n: int) -> "SchedulePolicy":
        """Fill in M (default: n) against a concrete block count."""
        if self.M is not None:
            return self
        return SchedulePolicy(self.kind, self.block_size, self.p_select, n, self.D,
                              self.delay_kind, self.delay, self.seed)


def select_blocks(policy: SchedulePolicy, n: int, k: int, last_selected) -> tuple[int, ...]:
    """The index set processed at iteration k (0-based block indices).

    ``last_selected[i]`` is the most recent iteration at which block i was
    selected (0 if never). Any block overdue under the coverage window M is
    force-included, so the window property holds for every base policy.
    """
    if k < 1:
        raise ConfigError(f"iterations are numbered from 1, got k={k}")
    m_window = policy.M if policy.M is not None else n
    if policy.kind == "full":
        chosen = set(range(n))
    elif policy.kind == "round-robin":
        start = ((k - 1) * policy.block_size) % n
        chosen = {(start + j) % n for j in range(min(policy.block_size, n))}
    else:
        rng = np.random.default_rng([policy.seed, _SELECT_STREAM, k])
        draws = rng.random(n)
        chosen = {i for i in range(n) if draws[i] < policy.p_select}
    for i in range(n):
        if k - last_selected[i] >= m_window:
            chosen.add(i)
    if not chosen:
        chosen.add(int(np.argmin(last_selected)))
    return tuple(sorted(chosen))


def delayed_index(policy: SchedulePolicy, i: int, k: int) -> int:
    """The iteration whose iterate block i reads when processed at iteration k."""
    lo = max(1, k - policy.D)
    if policy.delay_kind == "zero":
        return k
    if policy.delay_kind == "fixed":
        return max(1, k - policy.delay)
    rng = np.random.default_rng([policy.seed, _DELAY_STREAM, k, i])
    return int(rng.integers(lo, k + 1))


class HistoryBuffer:
    """Ring of the last D+1 iterates, keyed by iteration number.

    The engine stores its iterates as ``(z, w)`` pairs of read-only arrays;
    the buffer keeps whatever it is given.

    Reads outside the retention window raise :class:`HistoryError`; given
    the staleness bound that can only happen through a scheduling bug.
    """

    def __init__(self, depth: int):
        if depth < 0:
            raise ConfigError(f"history depth must be >= 0, got {depth}")
        self.depth = depth
        self._slots: dict[int, object] = {}
        self._latest = 0

    def store(self, k: int, point):
        if k <= self._latest:
            raise HistoryError(f"iterates must be stored in order: got {k} after {self._latest}")
        self._slots[k] = point
        self._latest = k
        stale = k - self.depth - 1
        if stale in self._slots:
            del self._slots[stale]

    def read(self, j: int):
        if j not in self._slots:
            raise HistoryError(
                f"iterate {j} is outside the retention window "
                f"[{max(1, self._latest - self.depth)}, {self._latest}]")
        return self._slots[j]

    @property
    def latest(self) -> int:
        return self._latest
