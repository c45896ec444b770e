"""Fail when a sweep's peak memory grows by more than 10% from one set of overrides to another.

Usage: python3 .github/peak_rss.py CONFIG "SMALL OVERRIDES" "LARGE OVERRIDES"

Runs ``conewidth sweep --config CONFIG`` once with each space-separated set of
``key=value`` overrides, prints both peak RSS values in KiB with each sweep's
minor page faults, and exits 1 when the large peak is above 1.1 times the
small one.  The faults are printed only, for the log: no limit applies to them.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

LIMIT = 1.1

# one fresh parent per sweep, so that RUSAGE_CHILDREN sees that sweep alone
PROBE = (
    "import resource, subprocess, sys; "
    "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
    "usage = resource.getrusage(resource.RUSAGE_CHILDREN); "
    "print(usage.ru_maxrss, usage.ru_minflt)"
)


def child_usage(config: str, overrides: str, out: Path) -> tuple[int, int]:
    """The sweep's peak RSS in KiB and its minor page faults."""
    sweep = [sys.executable, "-m", "conewidth.cli", "sweep", "--config", config, "--out", str(out), *overrides.split()]
    done = subprocess.run([sys.executable, "-c", PROBE, *sweep], check=True, stdout=subprocess.PIPE, text=True)
    peak, faults = done.stdout.split()
    return int(peak), int(faults)


def main(config: str, small_overrides: str, large_overrides: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        small, small_faults = child_usage(config, small_overrides, Path(tmp) / "small.csv")
        large, large_faults = child_usage(config, large_overrides, Path(tmp) / "large.csv")
    print(
        f"{config} peak RSS: {small} KiB ({small_faults} minor faults) with {small_overrides}; "
        f"{large} KiB ({large_faults} minor faults) with {large_overrides}"
    )
    if large > LIMIT * small:
        sys.exit(f"the sweep's peak RSS grew by more than {LIMIT - 1:.0%} from the small overrides to the large")


if __name__ == "__main__":
    main(*sys.argv[1:])
