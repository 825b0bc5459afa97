"""The benchmark's workloads: the `colorcs` invocation that one pass makes.

Every pass of a workload runs the same cases over the same contexts; only
the seed changes, and it reaches the program as the `--seed` of the
invocation (``RunConfig.seed``), which picks the sampled color sextuples
on contexts with three or more colors and the instances the double-entry
oracle re-checks.  See README.md for why each workload was chosen and
which layer it is meant to load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# the seed the packaged manifest pins its residual-term counts at
DEFAULT_SEED = 20257

# fewest passes a run makes, so medians and quartiles stay meaningful
MIN_PASSES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple
    contexts: tuple          # (n, m, N) triples
    options: tuple = ()      # further command-line flags of the invocation
    # seconds one pass process took, start to exit, on the pure backend on
    # the 2-vCPU machine the README describes; only used to turn --seconds
    # into a pass count, which is then fixed, so two commits measured at
    # the same --seconds make the same passes
    pass_s: float = 1.0

    def argv(self, seed: int) -> list:
        contexts = ";".join(",".join(map(str, c)) for c in self.contexts)
        return ["--cases", ",".join(self.cases), "--contexts", contexts,
                "--seed", str(seed), "--workers", "1",
                "--format", "structured", *self.options]

    def expected(self) -> list:
        """(case id, "n,m,N") of every report one pass must produce."""
        return [(cid, ",".join(map(str, ctx)))
                for cid in self.cases for ctx in self.contexts]

    def passes(self, seconds: float) -> int:
        return max(MIN_PASSES, round(seconds / self.pass_s))


def pass_seeds(seed: int, count: int) -> list:
    """Seeds of a run's passes: the run's own seed, then draws seeded by it.

    A run thus covers several inputs, which keeps the seed's effect on the
    work from deciding a run's medians, and runs at different seeds share
    no pass seed."""
    rng = random.Random(seed)
    return [seed] + [rng.randrange(1, 2 ** 31) for _ in range(count - 1)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "serre-graded",
        cases=("eq3.12", "eq3.21", "eq3.21-alt"),
        contexts=((1, 1, 2), (2, 1, 2)),
        pass_s=2.0,
    ),
    Workload(
        "spin-tower",
        cases=("eq3.31", "eq3.32", "eq3.34", "eq3.35", "eq3.36"),
        contexts=((1, 1, 2), (2, 0, 2), (0, 2, 2)),
        options=("--max-spin", "2", "--max-degree", "0"),
        pass_s=2.1,
    ),
    Workload(
        "poly-color",
        cases=("eq2.7", "eq2.10", "supercommutation", "p-conjugation",
               "eq2.16", "eq3.1", "eq3.17", "eq3.18", "eq3.38"),
        contexts=((2, 2, 2), (1, 1, 3)),
        options=("--max-spin", "2", "--max-degree", "0"),
        pass_s=1.9,
    ),
)}
