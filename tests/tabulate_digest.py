"""One sha256 per ``tabulate`` bench request of seeds 1-5, and a total.

Each request of ``perfbench/workloads.py``'s ``Tabulate`` (60 a seed) runs through
``cli.main`` in process; its digest covers the exit code, stdout, stderr and the output
file.  Two checkouts whose laws give the same bits print the same lines, so a refactor
that keeps every value shows it by a diff of this script's output:

    python tests/tabulate_digest.py [ROOT] > digest.txt

ROOT is the checkout whose ``src`` and ``perfbench`` are read (default: this one); the
bench files are imported, never written.  Pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

SEEDS = (1, 2, 3, 4, 5)


def main(root: str) -> None:
    sys.dont_write_bytecode = True      # leave no __pycache__ in the bench's directory
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from parisian_scale import cli

    total = hashlib.sha256()
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            bench = workloads.Tabulate(seed, workdir, cli)
            out = os.path.join(workdir, "out.txt")
            for i, req in enumerate(bench.requests):
                if os.path.exists(out):
                    os.remove(out)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(req.argv + ["--out", out])
                digest = hashlib.sha256(repr((code, stdout.getvalue(), stderr.getvalue()))
                                        .replace(workdir, "WORKDIR").encode())
                if os.path.exists(out):
                    with open(out, "rb") as fh:
                        digest.update(fh.read())
                total.update(digest.digest())
                print(f"seed {seed} request {i:2d} {req.kind}:{req.name} {digest.hexdigest()}")
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    main(os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else here)
