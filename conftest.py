"""Test-session set-up, run before any test module imports numpy.

The tests run on one BLAS thread.  `solver.solve_linear` factors by
LAPACK's blocked band Cholesky, whose level-3 BLAS calls OpenBLAS splits
over its threads once they are large enough, and the split changes their
rounding: on the last `cross_only` level of `lshape_benchmark(4)` (4,000
functions, bandwidth 229) the L2 error moves by 1.5e-11 relative between
one and two threads, above the 1e-12 of `tests/test_pinned_outputs.py`,
whose entries are recorded on one thread, as the benchmark runs.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
