"""The four benchmark workloads, one per `smoothloc bench` experiment.

A workload is a config-file template.  Every input the program sees is a
config text generated here from the benchmark seed and a batch index, so
the same seed always gives the same configs.  The program receives only
those configs (through `smoothloc bench --config`), never the seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    threads: int
    # fixed `key = value` lines of a batch config; trials, seed and
    # threads are added
    body: tuple
    # trials of one timed batch (draws per cell, for concentration)
    batch_trials: int
    # trials of the reduced copy that the thread-independence check runs
    reduced_trials: int
    # trials of set-up's one warm-up pass
    warmup_trials: int = 1
    # body lines of those two, where they differ from `body`
    reduced_body: tuple | None = None
    warmup_body: tuple | None = None

    def value(self, key: str) -> str:
        """The raw value of `key` in the batch config's fixed lines."""
        for line in self.body:
            k, _, v = line.partition("=")
            if k.strip() == key:
                return v.strip()
        raise KeyError(key)

    @property
    def units_per_batch(self) -> int:
        """Work units of one batch: trials, or cells of the grid."""
        if self.experiment != "concentration":
            return self.batch_trials
        cells = 1
        for key in ("families", "d-grid", "delta-grid"):
            cells *= len(self.value(key).split(","))
        return cells

    @property
    def vectors_per_unit(self) -> int:
        """Sample vectors behind one unit: n, or draws per cell."""
        if self.experiment == "concentration":
            return self.batch_trials
        return int(self.value("n-grid" if self.experiment == "sawtooth-phase"
                              else "n"))


_SAWTOOTH = ("w = 0.05", "slope = 4", "n-grid = 1000000", "delta = 0.1")
_FAMILIES = "families = gaussian,exponential,rademacher"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="coverage-1d", experiment="coverage", threads=2,
            body=("model = laplace(0,1)", "n = 10000", "delta = 0.1"),
            batch_trials=300, reduced_trials=24),
        Workload(
            name="sawtooth-1e6", experiment="sawtooth-phase", threads=2,
            body=_SAWTOOTH, batch_trials=6, reduced_trials=2),
        Workload(
            name="coverage-hd", experiment="coverage-hd", threads=1,
            body=("model = product(laplace(0,1)^4)", "n = 500", "r = 0.5",
                  "delta = 0.1"),
            batch_trials=40, reduced_trials=8),
        Workload(
            name="concentration", experiment="concentration", threads=2,
            body=(_FAMILIES, "d-grid = 4,16,64", "delta-grid = 0.1,0.01"),
            batch_trials=100_000, reduced_trials=2_000,
            warmup_trials=100_000,
            reduced_body=(_FAMILIES, "d-grid = 4,16",
                          "delta-grid = 0.1,0.01"),
            warmup_body=(_FAMILIES, "d-grid = 4", "delta-grid = 0.1")),
    )
}

# Smaller inputs for the benchmark's self-test: the same experiments and
# code paths, fewer and cheaper trials.
_SAWTOOTH_TINY = ("w = 0.05", "slope = 4", "n-grid = 100000", "delta = 0.1")
TINY = {
    "coverage-1d": dict(batch_trials=8),
    "sawtooth-1e6": dict(body=_SAWTOOTH_TINY, batch_trials=2),
    "coverage-hd": dict(batch_trials=4),
    "concentration": dict(
        body=(_FAMILIES, "d-grid = 4", "delta-grid = 0.1,0.01"),
        batch_trials=2_000, warmup_trials=2_000),
}


def get(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **TINY[name]) if tiny else w


def batch_seed(seed: int, workload: str, batch: int) -> int:
    """Config seed of one batch: a fixed function of the benchmark seed.

    batch -1 is the set-up warm-up, -2 the reduced thread check.
    """
    digest = hashlib.sha256(f"{workload}:{seed}:{batch}".encode()).digest()
    return int.from_bytes(digest[:7], "big")


def config_text(w: Workload, seed: int, batch: int) -> str:
    if batch == -1:
        body, trials = w.warmup_body or w.body, w.warmup_trials
    elif batch == -2:
        body, trials = w.reduced_body or w.body, w.reduced_trials
    else:
        body, trials = w.body, w.batch_trials
    lines = [f"experiment = {w.experiment}", *body, f"trials = {trials}",
             f"seed = {batch_seed(seed, w.name, batch)}",
             f"threads = {w.threads}"]
    return "\n".join(lines) + "\n"
