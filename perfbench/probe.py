"""Set-up probe: a fresh interpreter imports starkladder and makes one tiny
CLI call per layer the workload uses (``workloads.WARMUPS``).  The
benchmark times this whole process as ``setup_s``, so work moved into
import, compilation or precomputed tables shows there.

    python3 perfbench/probe.py <workload> <output dir>
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from starkladder import cli  # noqa: E402

from workloads import WARMUPS  # noqa: E402


def main(workload: str, out_dir: str) -> int:
    for i, args in enumerate(WARMUPS[workload]):
        code = cli.main([*args, "--out", str(Path(out_dir) / f"warmup{i}.csv"),
                         "--workers", "1"])
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
