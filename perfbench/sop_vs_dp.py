"""Time the scalar SOP route that `auto` picks against the subset-sum DP.

    python3 perfbench/sop_vs_dp.py

Draws one random scalar chamber per size in SIZES (weights 1..100 from a
fresh ``random.Random(SEED)``, quota half the total plus one), times
``tbp_vector(system, "quotient_pos")`` and the DP route ``_tbp_dp_route``
on it, checks both against ``reference.py`` and prints one line per size.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
from banzhaf import voting  # noqa: E402
from banzhaf.specfile import parse_spec  # noqa: E402


SIZES = (12, 14, 16, 18)
SEED = 1


def timed(fn, system) -> tuple[float, list[int]]:
    start = time.perf_counter()
    result = fn(system)
    return time.perf_counter() - start, result


def main() -> int:
    for n in SIZES:
        rng = random.Random(SEED)
        weights = [rng.randint(1, 100) for _ in range(n)]
        chamber = {
            "type": "weighted",
            "voters": [f"X{i + 1}" for i in range(n)],
            "weights": weights,
            "quota": sum(weights) // 2 + 1,
        }
        system = parse_spec(json.dumps({"chambers": [chamber]}))
        want = ref.system_tbp([chamber])
        sop_s, sop = timed(lambda s: voting.tbp_vector(s, "quotient_pos")[0], system)
        dp_s, dp = timed(voting._tbp_dp_route, system)
        print(
            f"n={n}: {ref.mwc_count(chamber)} MWCs; quotient_pos {sop_s * 1000:.1f} ms, "
            f"dp {dp_s * 1000:.2f} ms, ratio {sop_s / dp_s:.0f}x; "
            f"agree with reference: {sop == want and dp == want}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
