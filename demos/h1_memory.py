"""Time and memory of d=3 descents with the spectral H^1 solve.

For each d=3 grid n in {16, 32, 48, 64} (N = 2 n^2 nodes), in a fresh
child process, the script prints:

- the seconds of the grid's per-mode inverse blocks
  (``SphereGrid.h1_inverse``), of one objective, of one shape gradient
  and of one band cut and H^1 solve of the two-column descent block;
- one full descent at gamma = 1 from the mode-2 perturbed ball
  (eps = 0.2, p = 2, alpha = 1): its iterations, whether it converged,
  and its seconds;
- the growth of the child's peak RSS (``ru_maxrss``) from after the
  import and the grid to the end of the descent, in MiB.

With one BLAS thread on a 2-vCPU host, n = 64 takes about 6 s: one
objective 0.22 s, one gradient 0.64 s, and a descent of 7 L-BFGS
iterations 5.8 s, with 199 MiB of RSS growth.  n = 128, the CLI
default, is not in the default list; it takes about 70 s: one objective
2.8 s, one gradient 8.8 s, and a descent of 5 iterations 59 s.  To
compare two trees, run the script on each under the same BLAS thread
count:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 demos/h1_memory.py

Run:  PYTHONPATH=src python3 demos/h1_memory.py [n ...]
"""

import subprocess
import sys

CHILD = """
import resource, time
import numpy as np
from isoshape.energy import frozen_rule
from isoshape.geometry import EnergyParams, make_grid
from isoshape.optimize import (OptimizerOptions, _cut_and_solve,
                               _objective, build_initial_config, minimize,
                               shape_gradient)

grid = make_grid(3, {n})
params = EnergyParams(d=3, p=2.0, alpha=1.0, gamma=1.0)
init = build_initial_config(params, grid, ("perturbed-ball", 0.2, 2))
rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.perf_counter()
grid.h1_inverse
t1 = time.perf_counter()
vq = frozen_rule(init, params)
t2 = time.perf_counter()
_objective(init, params, vq)
t3 = time.perf_counter()
shape_gradient(init, params, vq)
t4 = time.perf_counter()
block = np.ones((grid.n_nodes + 3, 2))
_cut_and_solve(init, block)
t5 = time.perf_counter()
_, rec = minimize(init, params, OptimizerOptions())
t6 = time.perf_counter()
grow = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0) / 1024
print(f"{n:4d} {{grid.n_nodes:6d}} {{t1 - t0:8.3f}} {{t3 - t2:8.2f}} "
      f"{{t4 - t3:8.2f}} {{(t5 - t4) * 1e3:8.1f}} {{rec.iterations:6d}} "
      f"{{int(rec.converged):5d}} {{t6 - t5:9.1f}} {{grow:8.1f}}")
"""


def main(ns):
    print(f"{'n':>4} {'N':>6} {'build_s':>8} {'obj_s':>8} {'grad_s':>8} "
          f"{'solve_ms':>8} {'iters':>6} {'conv':>5} {'descent_s':>9} "
          f"{'rss_MiB':>8}")
    for n in ns:
        run = subprocess.run([sys.executable, "-c", CHILD.format(n=n)],
                             capture_output=True, text=True)
        if run.returncode:
            sys.exit(run.stderr)
        print(run.stdout, end="", flush=True)


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [16, 32, 48, 64])
