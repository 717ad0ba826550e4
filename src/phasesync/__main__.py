import os
import sys

# set before .cli imports numpy: the CLI does no BLAS work that a second
# OpenBLAS thread could share, and a value the caller set still wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
