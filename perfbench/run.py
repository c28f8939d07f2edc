"""chainrec benchmark: one closed-loop run of one workload.

    python3 perfbench/run.py --workload demo-train --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
checkout the script sits in. The run generates its graph from ``--seed`` with
``chainrec.synth``, sets up several times, runs the workload's steps or
evaluation passes one after the other, checks the outputs and prints two
JSON lines: the environment and run details, then the result
(``correct``, ``attempted``, ``failed``, ``metrics``). ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
Scratch files, span dumps and a copy of each result go to ``.bench_out/``.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it exports one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def source_digest():
    """sha256 over the program's source files (the checkout may not be a
    git repository)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "chainrec")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def environment():
    import numpy
    from chainrec import backend

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "kernel_path": "numba" if backend.numba_enabled() else "numpy",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "numba": version("numba"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS", "CHAINREC_NUMBA")},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("demo-train", "retail-train", "retail-eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "chainrec", "__init__.py")):
        sys.stderr.write(f"error: no chainrec sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    line, details = workloads.run(args.workload, args.seed, args.seconds,
                                  bool(args.trace), OUT_DIR)
    info = {"environment": environment(), "details": details}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.result.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({**info, "result": line}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
