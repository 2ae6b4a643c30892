"""Deterministic simulation of block-iterative and delayed operation.

Asynchrony is modeled logically, not with threads: each iteration processes
a subset of blocks, and a processed block may read a stale iterate from a
bounded history window. Two guarantees are enforced constructively rather
than assumed of the policy:

* coverage  -- every block is selected at least once in any window of M
  consecutive iterations (overdue blocks are force-included);
* staleness -- a block processed at iteration k reads iterate d(i,k) with
  1 <= d(i,k) <= k and k - d(i,k) <= D.

Selection is ``full`` (every block) or ``seeded-random`` (each block kept
with probability p_select, overdue ones forced in); delays are ``zero`` or
``seeded-random`` (uniform over the admissible window). These cover the
synchronous method and every regime of the two guarantees.

Selection and delays are pure functions of (policy, k, block), so replays
are identical regardless of evaluation order. They are seeded per chunk of
C = 256 iterations: iteration k reads row (k-1) mod C of a table of
uniforms drawn from ``default_rng([seed, stream, (k-1) div C])`` (one more
seed word, the block, for delays). A generator is thus built once per
chunk rather than once per iteration and block, and the tables of recent
chunks are kept in caches of fixed size, so their memory grows neither
with the run length nor with the number of seeds a process uses. A
``full`` policy selects every block at every iteration, and a zero-delay
policy (``delay_kind="zero"`` or ``D=0``) always reads the current iterate;
the engine then skips :func:`select_blocks` under the first, and
:func:`delayed_index` and the :class:`HistoryBuffer` under the second.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, HistoryError, checked_integer, checked_real

_SELECT_STREAM = 1
_DELAY_STREAM = 2
# iterations per seeded table
_CHUNK = 256


@dataclass(frozen=True)
class SchedulePolicy:
    """Block selection and delay configuration.

    kind: "full" (all blocks every iteration) or "seeded-random" (each
    block kept with probability p_select). M is the coverage window; D the
    maximum staleness. delay_kind: "zero" or "seeded-random" (uniform over
    the admissible window). M=None resolves to the block count when the
    policy is attached to a run.
    seed (an integer >= 0) drives both seeded kinds; their draws come from
    one generator per chunk of 256 iterations (see the module docstring).
    """

    kind: str = "full"
    p_select: float = 0.5
    M: int | None = None
    D: int = 0
    delay_kind: str = "zero"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("full", "seeded-random"):
            raise ConfigError(f"schedule kind must be full/seeded-random, got {self.kind!r}")
        if self.delay_kind not in ("zero", "seeded-random"):
            raise ConfigError(f"delay_kind must be zero/seeded-random, got {self.delay_kind!r}")
        if self.M is not None:
            checked_integer("M", self.M)
        checked_integer("D", self.D, lo=0)
        checked_integer("schedule seed", self.seed, lo=0)
        if not 0.0 < checked_real("p_select", self.p_select) <= 1.0:
            raise ConfigError(f"p_select must lie in (0, 1], got {self.p_select}")

    def resolved(self, n: int) -> "SchedulePolicy":
        """Fill in M (default: n) against a concrete block count."""
        if self.M is not None:
            return self
        return replace(self, M=n)


def select_blocks(policy: SchedulePolicy, n: int, k: int, last_selected) -> tuple[int, ...]:
    """The index set processed at iteration k (0-based block indices).

    ``last_selected[i]`` is the most recent iteration at which block i was
    selected (0 if never). Any block overdue under the coverage window M is
    force-included, so the window property holds for every base policy.
    """
    if k < 1:
        raise ConfigError(f"iterations are numbered from 1, got k={k}")
    if policy.kind == "full":
        return tuple(range(n))
    m_window = policy.M if policy.M is not None else n
    chunk, row = divmod(k - 1, _CHUNK)
    draws = _selection_table(policy.seed, chunk, n)[row].tolist()
    p_select = policy.p_select
    chosen = tuple([i for i in range(n)
                    if draws[i] < p_select or k - last_selected[i] >= m_window])
    return chosen if chosen else (int(np.argmin(last_selected)),)


def delayed_index(policy: SchedulePolicy, i: int, k: int) -> int:
    """The iteration whose iterate block i reads when processed at iteration k.

    A seeded-random delay maps a uniform u in [0, 1) onto the window
    [lo, k], lo = max(1, k - D), as lo + floor(u*(k + 1 - lo)), capped at
    k against rounding.
    """
    if policy.delay_kind == "zero":
        return k
    lo = max(1, k - policy.D)
    chunk, row = divmod(k - 1, _CHUNK)
    return min(k, lo + int(_delay_draws(policy.seed, chunk, i)[row] * (k + 1 - lo)))


# The draws of one chunk for one seed: a (C, n) table for selection, a
# length-C vector per block for delays. A run needs only its current chunk,
# so the caches hold just the most recent tables; the selection cache is the
# smaller since its tables grow with n. The tables are read-only because
# every caller shares them.

@functools.lru_cache(maxsize=64)
def _selection_table(seed: int, chunk: int, n: int) -> np.ndarray:
    table = np.random.default_rng([seed, _SELECT_STREAM, chunk]).random((_CHUNK, n))
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=1024)
def _delay_draws(seed: int, chunk: int, i: int) -> np.ndarray:
    draws = np.random.default_rng([seed, _DELAY_STREAM, chunk, i]).random(_CHUNK)
    draws.setflags(write=False)
    return draws


class HistoryBuffer:
    """Ring of the last D+1 iterates, keyed by iteration number.

    The engine stores each iterate as a ``(G z, w, w_n)`` triple: G z as
    one read-only array per block (z itself for the last block), the dual
    blocks w and w_n = -sum_i G_i* w_i, so a stale read applies no map.
    The buffer keeps whatever it is given.

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
