"""Reward fairness audit.

§III-C5's punchline is economic: one-miner forks let powerful pools
collect *multiple* rewards per height, so their income outruns their
hash power.  This module reconstructs the reward ledger from a campaign's
chain snapshot (block + uncle + nephew rewards under the Constantinople
schedule) and tests two things:

* whether the *lottery* itself was fair — main-chain block counts vs
  hash-power shares, via a chi-square goodness-of-fit test (scipy,
  imported only when shares are supplied: the registry's experiment
  passes none, and importing ``scipy.stats`` cost most of a run's
  start-up);
* whether *income* per pool deviates from its block share — the signature
  of uncle-reward harvesting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro.analysis.common import require_chain, window_canonical_blocks
from repro.chain.rewards import (
    BLOCK_REWARD_ETH,
    NEPHEW_REWARD_DIVISOR,
    uncle_reward,
)
from repro.errors import AnalysisError
from repro.measurement.dataset import MeasurementDataset
from repro.stats.tables import format_table


def reward_ledger(dataset: MeasurementDataset) -> dict[str, float]:
    """Reconstruct per-miner ETH income from the chain snapshot.

    Covers static block rewards, uncle rewards (with the linear decay
    schedule) and nephew bonuses.  Fees are omitted — they are an order
    of magnitude below the static reward and need gas-price data the
    snapshot does not carry.
    """
    require_chain(dataset)
    ledger: dict[str, float] = {}
    blocks = dataset.chain.blocks
    for block in window_canonical_blocks(dataset):
        if block.height == 0:
            continue
        ledger[block.miner] = ledger.get(block.miner, 0.0) + BLOCK_REWARD_ETH
        for uncle_hash in block.uncle_hashes:
            uncle = blocks.get(uncle_hash)
            if uncle is None:
                continue
            ledger[uncle.miner] = ledger.get(uncle.miner, 0.0) + uncle_reward(
                uncle.height, block.height
            )
            ledger[block.miner] = ledger.get(block.miner, 0.0) + (
                BLOCK_REWARD_ETH / NEPHEW_REWARD_DIVISOR
            )
    return ledger


@dataclass(frozen=True)
class FairnessResult:
    """Outcome of the fairness audit.

    Attributes:
        ledger: Per-miner ETH income over the window.
        income_share: Per-miner fraction of total income.
        block_share: Per-miner fraction of main-chain blocks.
        income_per_block: Per-miner ETH per main-chain block; honest
            miners sit at ≈2 ETH, uncle harvesters above it.
        lottery_p_value: Chi-square p-value of block counts against the
            supplied hash-power shares (None when shares not given).
    """

    ledger: dict[str, float]
    income_share: dict[str, float]
    block_share: dict[str, float]
    income_per_block: dict[str, float]
    lottery_p_value: Optional[float]

    def excess_income_ratio(self, miner: str) -> float:
        """Income-per-block relative to the honest 2-ETH baseline."""
        per_block = self.income_per_block.get(miner)
        if per_block is None:
            raise AnalysisError(f"{miner!r} mined no main-chain blocks")
        return per_block / BLOCK_REWARD_ETH

    def render(self, top_n: int = 8) -> str:
        ranked = sorted(self.ledger, key=lambda m: -self.ledger[m])[:top_n]
        rows = [
            (
                miner,
                f"{self.ledger[miner]:.1f}",
                f"{100 * self.block_share.get(miner, 0.0):.1f}%",
                f"{100 * self.income_share.get(miner, 0.0):.1f}%",
                f"{self.income_per_block.get(miner, 0.0):.3f}",
            )
            for miner in ranked
        ]
        table = format_table(
            headers=["Miner", "ETH", "Block share", "Income share", "ETH/block"],
            rows=rows,
            title="Reward fairness audit (§III-C5's economics)",
        )
        p_line = (
            f"lottery chi-square p-value: {self.lottery_p_value:.3f}"
            if self.lottery_p_value is not None
            else "lottery chi-square: no hash-power shares supplied"
        )
        return f"{table}\n{p_line}"


def fairness_audit(
    dataset: MeasurementDataset,
    hashpower: Optional[Mapping[str, float]] = None,
) -> FairnessResult:
    """Run the fairness audit over a campaign.

    Args:
        dataset: Campaign output.
        hashpower: Optional hash-power shares; enables the lottery test.

    Raises:
        AnalysisError: on an empty window.
    """
    ledger = reward_ledger(dataset)
    if not ledger:
        raise AnalysisError("no rewards in the measurement window")
    blocks = [b for b in window_canonical_blocks(dataset) if b.height > 0]
    block_counts: dict[str, int] = {}
    for block in blocks:
        block_counts[block.miner] = block_counts.get(block.miner, 0) + 1
    total_blocks = sum(block_counts.values())
    total_income = sum(ledger.values())

    p_value: Optional[float] = None
    if hashpower:
        named = [name for name in hashpower if name in block_counts]
        if len(named) >= 2:
            from scipy import stats

            observed = np.array([block_counts[name] for name in named], dtype=float)
            shares = np.array([hashpower[name] for name in named], dtype=float)
            covered = observed.sum()
            expected = shares / shares.sum() * covered
            _, p_value = stats.chisquare(observed, expected)
            p_value = float(p_value)

    return FairnessResult(
        ledger=ledger,
        income_share={m: v / total_income for m, v in ledger.items()},
        block_share={m: c / total_blocks for m, c in block_counts.items()},
        income_per_block={
            m: ledger.get(m, 0.0) / c for m, c in block_counts.items()
        },
        lottery_p_value=p_value,
    )
