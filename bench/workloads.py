"""The two benchmark workloads: which inputs they read and which CLI
commands make up one round.

Each workload puts the work of some modules in the foreground and keeps
others small or absent (see README.md for the expected effect of each layer
on each workload).  A round is a fixed list of ``logprivacy`` invocations; a
run repeats whole rounds, so the share of failed operations is the same in
every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from generate import PAIR_TRACES

RISK_TYPES = "set,mult,seq"
# At k=1 the sweep computes the paper's risk grid on the whole log; seq size
# 6 is left out because on this log it alone costs three times sizes 1-5.
SEPSIS_SWEEP_SIZES = "1-5"
# Every k keeps at least one variant: the Sepsis log's top count is 35.
SEPSIS_SWEEP_K = "1,2,4,8,16,32"


@dataclass(frozen=True)
class Operation:
    """One CLI invocation and how many benchmark operations it stands for."""

    argv: tuple[str, ...]
    kind: str  # "sweep" or "utility"
    units: int  # sweep points or log pairs


def sepsis_sweep(input_dir: Path) -> tuple[list[Path], list[Operation]]:
    """The set-up's input files and one round of CLI calls."""
    log = input_dir / "log.xes"
    return [log], [Operation(("sweep", str(log), "--strategy", "merge-nearest",
                              "--types", RISK_TYPES, "--sizes", SEPSIS_SWEEP_SIZES,
                              "--k-values", SEPSIS_SWEEP_K),
                             "sweep", len(SEPSIS_SWEEP_K.split(",")))]


def emd_pairs(input_dir: Path) -> tuple[list[Path], list[Operation]]:
    """The set-up's input files and one round of CLI calls."""
    pairs = [(input_dir / f"pair-{n}-a.xes", input_dir / f"pair-{n}-b.xes") for n in PAIR_TRACES]
    return ([path for pair in pairs for path in pair],
            [Operation(("utility", str(a), str(b)), "utility", 1) for a, b in pairs])


# Workload name -> (input kind for generate.materialize, round builder).
WORKLOADS = {
    "sepsis-sweep": ("sepsis", sepsis_sweep),
    "emd-pairs": ("pairs", emd_pairs),
}
