"""Record the certify-sweep verdict tallies that ``run.py`` checks.

    python3 perfbench/record_tallies.py

Writes ``perfbench/tallies.json``: for seeds 0-199 at full size and seed 0
at smoke size, the digest of the tally of (theorem, regime, subcase,
cycle_count) over the generated sets.  Re-record only with a change that
is meant to move verdicts, and say so: the tally is the benchmark's check
that certification answers do not drift.
"""

import json
import os
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from hetcycle import certify  # noqa: E402
from hetcycle.model import params_from_dict  # noqa: E402

FULL_SEEDS = range(200)


def digest(seed: int, size: int) -> str:
    tally = {}
    for values, _, _ in workloads.gen.param_sets(seed, size):
        key = workloads.verdict_key(certify(params_from_dict(values)))
        tally[key] = tally.get(key, 0) + 1
    return workloads.tally_digest(tally)


def main() -> None:
    sizes = workloads.SIZES["certify-sweep"]
    out = {"full": {str(s): digest(s, sizes["full"]) for s in FULL_SEEDS},
           "smoke": {"0": digest(0, sizes["smoke"])}}
    with open(os.path.join(HERE, "tallies.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
