"""L-BFGS descent from a perturbed ball back to the round ball.

At small gamma the ball is the strict minimizer of

    E_gamma(Omega) = P_a(Omega) + gamma V(Omega),    |Omega| = 1,

so the descent of ``minimize`` (L-BFGS in the H^1 metric, projected
onto unit volume) started from r(theta) = r0 (1 + eps cos(k theta))
(renormalized to unit volume) must flow back to the round ball.  This
script runs the descent for a few modes k, printing the energy and
projected-gradient norm of each of the first iterations, then the final
energy and distance to the ball (asphericity); it exercises the same
path as the optimizer unit tests but with a visible trajectory.

Run:  python3 demos/descent_recovers_ball.py [--n 48] [--eps 0.2]
"""

import argparse

from isoshape.geometry import EnergyParams, make_grid
from isoshape.optimize import (OptimizerOptions, asphericity,
                               build_initial_config, minimize)


# the descents converge in about ten iterations; print that many
TRACE_ITERATIONS = 10


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=48, help="grid size")
    ap.add_argument("--eps", type=float, default=0.2, help="mode amplitude")
    ap.add_argument("--gamma", type=float, default=0.01)
    args = ap.parse_args(argv)

    params = EnergyParams(d=2, p=1.5, alpha=1.0, gamma=args.gamma)
    grid = make_grid(2, args.n)

    for k in (2, 3, 5):
        init = build_initial_config(params, grid,
                                    ("perturbed-ball", args.eps, k))
        a0 = asphericity(init)
        trace = []

        def cb(it, energy, gnorm):
            trace.append((it, energy, gnorm))

        opts = OptimizerOptions(max_iter=2000)
        config, rec = minimize(init, params, opts, callback=cb)
        print(f"mode k={k}: init asphericity {a0:.4f}")
        for it, energy, gnorm in trace[:TRACE_ITERATIONS]:
            print(f"  iter {it:>4}  E={energy:.10f}  |g|={gnorm:.3e}")
        print(f"  done: converged={rec.converged} iterations={rec.iterations}"
              f"  E={rec.energy:.10f}  asph={asphericity(config):.3e}")
        print()


if __name__ == "__main__":
    main()
