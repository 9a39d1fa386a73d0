import os
import sys
from pathlib import Path

# one BLAS thread, as in perfbench: the kernels' matrices are small, and on a
# shared host a second BLAS thread mostly waits for a core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
