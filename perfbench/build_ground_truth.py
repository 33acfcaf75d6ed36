"""Rebuild the committed karate ground truth (``ground_truth/karate_exact.json``).

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/build_ground_truth.py

Draws karate terminal sets of each size in ``inputs.TERMINAL_SIZES`` from a
fixed seed, keeps the ones the ``exact-bdd`` method answers within its node
budget, and writes them with their exact reliabilities.  Only needed when
the karate graph changes; the benchmark falls back to on-demand exact
answers when the bank's graph fingerprint no longer matches.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.inputs import BANK_PATH, build_bank  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402


def main() -> int:
    bank = build_bank(load_dataset("karate"))
    os.makedirs(os.path.dirname(BANK_PATH), exist_ok=True)
    with open(BANK_PATH, "w", encoding="utf-8") as handle:
        json.dump(bank, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(bank['sets'])} exact karate answers to {BANK_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
