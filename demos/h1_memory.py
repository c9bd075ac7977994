"""Time and memory of the dense H^1 preconditioner on d=3 grids.

A descent builds the operator M + sum_k D_k^T M D_k of its grid once
and factors it with ``cho_factor``; this script does the same, once per
d=3 grid n in {16, 24, 32, 48} (N = 2 n^2 nodes; n = 48 is
``optimize.H1_MAX_NODES``), each in a fresh child process, and prints:

- the seconds of the build and of the factorization;
- the growth of the child's peak RSS (``ru_maxrss``) over the build and
  the factorization, in MiB and in N^2 doubles.

The growth is measured from after the import and the grid, so it counts
the operator, its factor and the build's temporaries.  n = 48 needs
about 0.5 GiB.  To compare two trees, run the script on each under the
same BLAS thread count:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 demos/h1_memory.py

Run:  PYTHONPATH=src python3 demos/h1_memory.py [n ...]
"""

import subprocess
import sys

CHILD = """
import resource, time
from scipy.linalg import cho_factor
from isoshape.geometry import make_grid
from isoshape.optimize import _h1_operator

grid = make_grid(3, {n})
N = grid.n_nodes
rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.perf_counter()
H = _h1_operator(grid)
t1 = time.perf_counter()
factor = cho_factor(H)
t2 = time.perf_counter()
grow = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0) * 1024
print(f"{n:4d} {{N:6d}} {{t1 - t0:9.2f}} {{t2 - t1:9.2f}} "
      f"{{grow / 2**20:10.1f}} {{grow / (8 * N * N):9.2f}}")
"""


def main(ns):
    print(f"{'n':>4} {'N':>6} {'build_s':>9} {'factor_s':>9} "
          f"{'rss_MiB':>10} {'N^2_dbl':>9}")
    for n in ns:
        run = subprocess.run([sys.executable, "-c", CHILD.format(n=n)],
                             capture_output=True, text=True)
        if run.returncode:
            sys.exit(run.stderr)
        print(run.stdout, end="", flush=True)


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [16, 24, 32, 48])
