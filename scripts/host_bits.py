#!/usr/bin/env python3
"""List the pinned bits that move with the host's SIMD kernels.

Reruns the pinned-digest tests (``pytest -k "bits or bytes or digest or
pinned"``) and ``scripts/cli_snapshot.py`` in child processes: once as the
host runs them, then once under each setting below, set only in that
child's environment:

- ``haswell``: ``OPENBLAS_CORETYPE=Haswell``, OpenBLAS's AVX2 kernels;
- ``sandybridge``: ``OPENBLAS_CORETYPE=Sandybridge``, its AVX kernels;
- ``numpy-avx2``: ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``,
  NumPy's AVX2 loops.

For each run it prints the pin tests that fail and the snapshot runs whose
stdout differs from the host run's.  It is a check, not a gate: it exits 0
whatever moves, and 1 only if a child cannot run (pytest exits other than 0
or 1, or the snapshot script fails).  ``--root`` names another source tree
with the same layout (``src/``, ``tests/``, ``scripts/cli_snapshot.py``),
such as a parent commit's, so two trees can be compared:

    python3 scripts/host_bits.py
    python3 scripts/host_bits.py --root ../parent
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PIN_TESTS = "bits or bytes or digest or pinned"
SETTINGS = {
    "host": {},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "numpy-avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}


def child_env(root: Path, setting: dict) -> dict:
    env = dict(os.environ, **setting)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return env


def failed_pins(root: Path, env: dict) -> tuple:
    """(node ids of the pin tests that fail, pytest's summary line)."""
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                          "-k", PIN_TESTS, "tests"], cwd=root, env=env, capture_output=True, text=True)
    if out.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {out.returncode}:\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    lines = out.stdout.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith("FAILED ")]
    return failed, lines[-1] if lines else ""


def snapshot(root: Path, env: dict, outdir: Path) -> dict:
    """File name -> bytes of one ``cli_snapshot.py`` run."""
    subprocess.run([sys.executable, str(root / "scripts" / "cli_snapshot.py"), str(outdir)],
                   cwd=root, env=env, check=True, capture_output=True)
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source tree to check (default: this script's)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    report, host = {}, None
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, setting in SETTINGS.items():
                env = child_env(root, setting)
                failed, summary = failed_pins(root, env)
                snap = snapshot(root, env, Path(tmp) / name)
                host = snap if host is None else host
                moved = sorted(k for k in host.keys() | snap.keys() if host.get(k) != snap.get(k))
                report[name] = {"setting": setting, "pytest": summary,
                                "failed_pins": failed, "moved_runs": moved}
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"host_bits: a child process failed: {exc}", file=sys.stderr)
        return 1
    for name, r in report.items():
        env = " ".join(f'{k}="{v}"' for k, v in r["setting"].items()) or "(no setting)"
        print(f"{name}: {env}\n  pytest -k '{PIN_TESTS}': {r['pytest']}")
        for node in r["failed_pins"]:
            print(f"  FAILED {node}")
        runs = ", ".join(r["moved_runs"]) if r["moved_runs"] else "none"
        print(f"  snapshot runs that differ from the host run: {runs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
