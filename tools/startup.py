"""What promptopt costs a process before it does any work: over fresh
interpreters, the time to `import promptopt.cli`, the wall time of
`promptopt --help` and of `promptopt experience-import` on a 7 x 11
experience file, with a bare interpreter for the floor, each child's peak
resident set size, and whether each loaded numpy.

Each round starts one interpreter per row, in turn, so a drift in machine
load reaches every row alike. The import row is timed inside the child,
around the import alone; the others are the child's whole wall time,
interpreter start-up and `site` included, timed by this process. A row's
peak RSS is the child's own `ru_maxrss` at its end, in MB as perfbench
reports `peak_rss_mb`; a workload whose peak is set at import and setup
moves with it.

    PYTHONPATH=src python tools/startup.py --runs 15

prints each row's median and quartiles in milliseconds and its median peak
RSS.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from promptopt.matrix import init_uniform
from promptopt.msgd_rl import ExperienceStore, save_experience

# each child runs with a scratch directory as its one argument and ends its
# stderr with one line (see END): the seconds it timed itself, or "-" for
# its whole wall time, whether numpy was loaded and its ru_maxrss
END = """
import resource
print(seconds, "numpy" in sys.modules, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
      file=sys.stderr)
"""

BARE = """
import sys
seconds = "-"
"""

IMPORT_CLI = """
import sys, time
t = time.perf_counter()
import promptopt.cli
seconds = time.perf_counter() - t
"""

HELP = """
import sys
from promptopt.cli import main
try:
    main(["--help"])
except SystemExit:
    pass
seconds = "-"
"""

EXPERIENCE_IMPORT = """
import os, sys
from promptopt.cli import main
work = sys.argv[1]
assert main(["experience-import", "--file", os.path.join(work, "exp.json"),
             "--out", os.path.join(work, "prior.json")]) == 0
seconds = "-"
"""

ROWS = {"bare interpreter": BARE, "import promptopt.cli": IMPORT_CLI,
        "promptopt --help": HELP, "experience-import": EXPERIENCE_IMPORT}


def _child(code: str, work: str) -> tuple[float, str, float]:
    """The seconds a fresh interpreter running `code` took (its own timing
    if it gave one), whether it loaded numpy and its peak RSS in MB."""
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code + END, work], capture_output=True,
                          text=True, check=True)
    wall = time.perf_counter() - t
    seconds, numpy, maxrss = proc.stderr.splitlines()[-1].split()
    # ru_maxrss is in kilobytes on Linux, as perfbench reads it
    return (wall if seconds == "-" else float(seconds)), numpy, int(maxrss) / 1024.0


def measure(runs: int) -> dict[str, tuple[list[float], set[str], list[float]]]:
    """Each row's times over `runs` rounds, the set of its numpy flags and
    its peak RSS in MB."""
    rows: dict[str, tuple[list[float], set[str], list[float]]] = {
        name: ([], set(), []) for name in ROWS}
    with tempfile.TemporaryDirectory() as work:
        # the size of the cls_rl_latency workload's table
        matrix = init_uniform(["s%d" % i for i in range(7)], ["o%d" % j for j in range(11)])
        save_experience(ExperienceStore.new(matrix, "CLS"), Path(work) / "exp.json")
        for _ in range(runs):
            for name, code in ROWS.items():
                seconds, numpy, peak_mb = _child(code, work)
                rows[name][0].append(seconds)
                rows[name][1].add(numpy)
                rows[name][2].append(peak_mb)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=15,
                    help="fresh interpreters per row (at least 2)")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    print("%-22s %9s %9s %9s %9s  %s" % ("row", "q1 ms", "median ms", "q3 ms", "peak MB",
                                          "numpy loaded"))
    for name, (times, numpy, peaks) in measure(args.runs).items():
        q1, med, q3 = (1000 * x for x in statistics.quantiles(times, n=4))
        print("%-22s %9.1f %9.1f %9.1f %9.2f  %s" % (name, q1, med, q3, statistics.median(peaks),
                                                    "/".join(sorted(numpy))))
    print("runs per row: %d, %s" % (args.runs, sys.version.split()[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
