"""Report digests of every benchmark operation, in both modes.

Usage::

    python3 tests/support/report_hashes.py REPO SEED

Generates the operations of every workload of ``REPO/perfbench`` at
``SEED`` (``workloads.py`` and ``nets.py``, imported as they are), runs
``nualign.cli.main(["align", ...])`` of ``REPO/src`` on each one in exact
and in approx mode, in this process, and prints one line per call::

    workload operation mode exit-code sha256

with ``-`` for the digest of a call that wrote no report.  Two checkouts
write the same reports when their outputs are equal, which is how a change
that must keep every report byte-identical is checked against its parent.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path


def report_hashes(repo: Path, seed: int, work: Path):
    """(workload, operation, mode, exit code, sha256 or "-") per call."""
    sys.dont_write_bytecode = True      # leave no cache in the checkout
    sys.path[:0] = [str(repo / "src"), str(repo / "perfbench")]
    import nets
    from workloads import WORKLOADS, csv_text

    from nualign.cli import main

    for workload, generate in WORKLOADS.items():
        for op in generate(seed):
            net = work / f"{op.net}.json"
            if not net.exists():
                net.write_text(json.dumps(nets.NETS[op.net](), indent=2, sort_keys=True) + "\n")
            log = work / f"{workload}_{op.name}.csv"
            log.write_text(csv_text(op.rows))
            for mode in ("exact", "approx"):
                out = work / f"{workload}_{op.name}.{mode}.json"
                code = main(op.argv(net, log, out, mode=mode))
                digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
                yield workload, op.name, mode, code, digest


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    repo, seed = Path(argv[0]).resolve(), int(argv[1])
    with tempfile.TemporaryDirectory() as work:
        for row in report_hashes(repo, seed, Path(work)):
            print(*row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
