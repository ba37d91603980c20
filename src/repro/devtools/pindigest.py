"""Canonical-chain pin digests (CI artifact + gate).

Every CI matrix leg runs::

    python -m repro.devtools.pindigest --out pin-digests-py3.12.json --check

which replays the repo's two seed-pinned campaigns — the seed-55 small
campaign and the mainnet smoke window — writes the digests as a small
JSON artifact (uploaded per leg, so a cross-version divergence is
diffable straight from the CI run page), and with ``--check`` fails the
leg unless every digest matches the canonical values pinned here.

The pinned values are the *same* digests the tier-1 suite asserts
(``tests/integration/test_determinism.py`` and
``tests/experiments/test_mainnet_preset.py``); this tool exists so the
determinism contract is enforced *per matrix leg, against a value
committed in one place*.  A digest may only change when a PR
deliberately alters RNG draw order, and such a PR must update
:data:`EXPECTED_PINS` and say so.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.experiments.presets import mainnet_campaign, small_campaign
from repro.measurement.campaign import Campaign, CampaignConfig
from repro.node.miner import MAINNET_INTER_BLOCK_TIME

#: Artifact schema, bumped on incompatible layout changes.
PIN_SCHEMA = 2

#: Canonical digest per pinned campaign.
EXPECTED_PINS: dict[str, str] = {
    "small_seed55": (
        "aff2ea94748b9462f59cc134da366767120cfe31d5a30d8cf79bd20909e4c609"
    ),
    "mainnet_smoke_seed55": (
        "8a86a8f682a43d12b88982a0f64859a1f261e7b24d889c9b05f403ba913e6765"
    ),
}


def _pin_config(name: str) -> CampaignConfig:
    """Campaign config behind a pin (mirrors the tier-1 pin tests)."""
    if name == "small_seed55":
        return small_campaign(seed=55)
    if name == "mainnet_smoke_seed55":
        config = mainnet_campaign(seed=55)
        return replace(
            config,
            duration=20 * MAINNET_INTER_BLOCK_TIME,
            scenario=replace(config.scenario, n_nodes=150),
        )
    raise ValueError(f"unknown pin {name!r}")


def compute_pin(name: str) -> str:
    """Canonical-chain digest of one pinned campaign."""
    dataset = Campaign(_pin_config(name)).run()
    hashes = dataset.chain.canonical_hashes
    return hashlib.sha256(",".join(hashes).encode()).hexdigest()


def build_artifact(only: Optional[Sequence[str]] = None) -> dict[str, Any]:
    names = list(only) if only else list(EXPECTED_PINS)
    for name in names:
        if name not in EXPECTED_PINS:
            raise ValueError(f"unknown pin {name!r}")
    return {
        "schema": PIN_SCHEMA,
        "pins": {name: compute_pin(name) for name in names},
    }


def check_artifact(artifact: dict[str, Any]) -> list[str]:
    """Mismatch messages against :data:`EXPECTED_PINS` (empty = pass)."""
    failures: list[str] = []
    for name, digest in artifact["pins"].items():
        expected = EXPECTED_PINS[name]
        if digest != expected:
            failures.append(f"{name}: digest {digest} != pinned {expected}")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pindigest",
        description="Replay the seed-pinned campaigns; write (and "
        "optionally gate) the canonical digests.",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the digest artifact JSON here",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless every digest matches EXPECTED_PINS",
    )
    parser.add_argument(
        "--only", action="append", choices=tuple(EXPECTED_PINS),
        help="restrict to one pin (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    artifact = build_artifact(only=args.only)
    rendered = json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        args.out.write_text(rendered)
        print(f"wrote {args.out}")
    for name, digest in artifact["pins"].items():
        print(f"  {name}: {digest}")
    if args.check:
        failures = check_artifact(artifact)
        if failures:
            print("pin digest mismatch:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"all {len(artifact['pins'])} pin(s) match the canonical values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
