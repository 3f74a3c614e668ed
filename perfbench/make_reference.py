"""Rewrite the reference outputs in perfbench/reference/.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

Runs one round of each workload at the default seed and stores the values
of its outputs: the final feature matrices and the values at the probes
(anneal), the estimates and the values they are checked against (oracle),
the HJB values, Hamiltonian samples, growth integrals and figure rows
(sweeps).  ``run.py`` prints the largest deviation of a run's outputs from
them.  Nothing is written for a workload whose outputs fail their checks.
"""

import os
import sys

import run
import numpy as np  # noqa: E402  after run has pinned the BLAS threads


def main():
    run.import_program()
    import workloads
    os.makedirs(os.path.dirname(run.reference_path("x")), exist_ok=True)
    status = 0
    for name, make in workloads.WORKLOADS.items():
        wl = make(run.ROOT, run.DEFAULT_SEED)
        wl.build()
        ops = wl.ops()
        body = run.run_body(ops, 0.0)
        if body.failed:
            print(f"{name}: {body.failed} operations failed, reference not "
                  f"written: {body.problems[:3]}", file=sys.stderr)
            status = 1
            continue
        values = run.reference_values(wl, ops, body)
        np.savez_compressed(run.reference_path(name),
                            __seed__=np.int64(run.DEFAULT_SEED),
                            **{g: v for g, (v, _) in values.items()})
        print(f"{name}: wrote {len(values)} groups to "
              f"{os.path.relpath(run.reference_path(name), run.ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
