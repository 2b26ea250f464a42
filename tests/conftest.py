"""Pin BLAS and OpenMP pools to one thread for the suite, unless set already.

The variables are those the benchmark pins in its workers. They take effect
only if set before numpy is first imported, which is why they live here:
pytest loads this file before it collects any test module. An explicit
setting in the caller's environment wins.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
