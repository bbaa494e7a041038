"""Deterministic toy sequence environments.

A state is the tuple of tokens generated so far; transitions append the
chosen token.  States are ranked in prefix-length-major order so tabular
policies can store one logit row per reachable prefix of length < horizon.

Reward rules:
  match  a verifier compares the finished sequence against a target and
         scores +1 on an exact match, -1 otherwise
  table  a per-token score table of shape (horizon, vocab) pays
         table[t, a_t] at each step
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import as_array, check_action, check_integer
from .errors import InvalidInputError

MAX_STATES = 100_000


@dataclass(frozen=True)
class MatchReward:
    target: tuple[int, ...]

    def __post_init__(self):
        try:
            tokens = tuple(self.target)
        except TypeError:
            raise InvalidInputError(f"target must be a sequence of integers, got {self.target!r}") from None
        object.__setattr__(self, "target", tuple(check_integer(token, "target") for token in tokens))


@dataclass(frozen=True)
class TableReward:
    table: np.ndarray  # (horizon, vocab)

    def __post_init__(self):
        object.__setattr__(self, "table", as_array(self.table, "table", 2))


@dataclass(frozen=True)
class ToyEnvironment:
    vocab_size: int
    horizon: int
    reward: MatchReward | TableReward

    def __post_init__(self):
        for name in ("vocab_size", "horizon"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        if not 2 <= self.vocab_size <= 64:
            raise InvalidInputError("vocab_size must lie in [2, 64]")
        if not 1 <= self.horizon <= 16:
            raise InvalidInputError("horizon must lie in [1, 16]")
        if self.n_states > MAX_STATES:
            raise InvalidInputError(
                f"prefix state space has {self.n_states} states; keep vocab^horizon desk-sized"
            )
        if isinstance(self.reward, MatchReward):
            if len(self.reward.target) != self.horizon:
                raise InvalidInputError("target length must equal the horizon")
            for token in self.reward.target:
                check_action(token, self.vocab_size, "target")
        elif isinstance(self.reward, TableReward):
            if self.reward.table.shape != (self.horizon, self.vocab_size):
                raise InvalidInputError(f"table must have shape ({self.horizon}, {self.vocab_size})")
        else:
            raise InvalidInputError("reward must be MatchReward or TableReward")

    @property
    def n_states(self) -> int:
        # prefixes of length 0 .. horizon-1
        v = self.vocab_size
        return (v**self.horizon - 1) // (v - 1)

    def state_index(self, prefix: tuple[int, ...]) -> int:
        if len(prefix) >= self.horizon:
            raise InvalidInputError("terminal sequences are not states")
        v = self.vocab_size
        offset = (v ** len(prefix) - 1) // (v - 1)
        rank = 0
        for token in prefix:
            rank = rank * v + check_action(token, v)
        return offset + rank

    def _child(self, state: int, action: int) -> int:
        """``state_index(prefix + (action,))`` from ``state = state_index(prefix)``.

        Prefixes are ranked length-major, so the child of state s is
        v * s + 1 + action.  The state is taken as given; an action outside
        the vocabulary raises as ``state_index`` raises it.
        """
        if not 0 <= action < self.vocab_size:
            check_action(action, self.vocab_size)
        return self.vocab_size * state + 1 + action

    def step_reward(self, t: int, action: int) -> float:
        """Immediate score of the table rule; zero under the verifier rule."""
        if isinstance(self.reward, TableReward):
            return float(self.reward.table[t, action])
        return 0.0

    def terminal_reward(self, sequence: tuple[int, ...]) -> float:
        """Episode-level score once the sequence is complete."""
        if len(sequence) != self.horizon:
            raise InvalidInputError("sequence length must equal the horizon")
        if isinstance(self.reward, MatchReward):
            return 1.0 if tuple(sequence) == self.reward.target else -1.0
        return float(sum(self.reward.table[t, a] for t, a in enumerate(sequence)))

    def sampled_advantage(self, sequence: tuple[int, ...], t: int) -> float:
        """Scalar advantage credited to the action taken at step t.

        The verifier rule spreads its terminal score to every step; the
        table rule pays each token its own score.
        """
        if isinstance(self.reward, MatchReward):
            return self.terminal_reward(sequence)
        return self.step_reward(t, sequence[t])
