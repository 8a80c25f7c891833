"""The ``mgdpr`` console script: pin BLAS to one thread, then run the CLI.

OpenBLAS splits long reductions across its threads, so the bits of a
product, and with them a trained checkpoint's bytes, depend on the thread
count. BLAS reads its thread count once, when numpy loads, and importing
any part of :mod:`mgdpr` loads numpy. So this module lives outside the
package: it sets every BLAS thread variable to 1, overriding the caller's,
and only then imports :mod:`mgdpr.cli`. The command line therefore writes
the same bytes whatever the machine's core count, for a fixed BLAS build.
Library calls, :func:`mgdpr.cli.main` in-process included, keep the
calling process's thread count.

The library itself uses up to two cores for large products and layer
stages (:func:`mgdpr.tensor.run_blocks`): it splits them into fixed row
blocks and never splits a sum, so its output bytes do not depend on the
core count either. On one core it computes the same blocks in turn.

Run it as ``mgdpr <command> ...`` once installed, or ``python -m
mgdpr_console <command> ...`` from a checkout with ``src`` on the path.
"""

import os
import sys

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main() -> None:
    for name in THREAD_VARS:
        os.environ[name] = "1"
    from mgdpr.cli import main as run

    sys.exit(run())


if __name__ == "__main__":
    main()
