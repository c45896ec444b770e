"""Fail when a sweep's peak memory grows by more than 10% from one set of overrides to another.

Usage: python3 .github/peak_rss.py CONFIG "SMALL OVERRIDES" "LARGE OVERRIDES"

Runs ``conewidth sweep --config CONFIG`` once with each space-separated set of
``key=value`` overrides, prints both peak RSS values in KiB, and exits 1 when
the large one is above 1.1 times the small one.
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
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)


def child_peak_kib(config: str, overrides: str, out: Path) -> int:
    sweep = [sys.executable, "-m", "conewidth.cli", "sweep", "--config", config, "--out", str(out), *overrides.split()]
    done = subprocess.run([sys.executable, "-c", PROBE, *sweep], check=True, stdout=subprocess.PIPE, text=True)
    return int(done.stdout)


def main(config: str, small_overrides: str, large_overrides: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        small = child_peak_kib(config, small_overrides, Path(tmp) / "small.csv")
        large = child_peak_kib(config, large_overrides, Path(tmp) / "large.csv")
    print(f"{config} peak RSS: {small} KiB with {small_overrides}; {large} KiB with {large_overrides}")
    if large > LIMIT * small:
        sys.exit(f"the sweep's peak RSS grew by more than {LIMIT - 1:.0%} from the small overrides to the large")


if __name__ == "__main__":
    main(*sys.argv[1:])
