"""Regenerate the benchmark's pinned inputs (perfbench/inputs/).

Solves each registry instance once with the CLI, writes the deletion
chain with repro.benchgen.streaming, and stores every file xz-compressed
next to a manifest of its sha256, size and line counts.  The benchmark
itself never regenerates: it unpacks these files and refuses to run on
a digest mismatch, so a later solver or benchgen change cannot silently
change what is measured.  Rerun this only to re-pin on purpose:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import hashlib
import json
import lzma
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import (  # noqa: E402
    CHAIN_LENGTH, DRUP_INSTANCES, INPUTS, PROOF_INSTANCES, count_lines)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.benchgen.registry import build_instance
    from repro.benchgen.streaming import (
        deletion_chain_formula, write_deletion_chain_drup)
    from repro.core.dimacs import write_dimacs

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    files: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in sorted(set(PROOF_INSTANCES) | set(DRUP_INSTANCES)):
            cnf = tmp / f"{name}.cnf"
            write_dimacs(build_instance(name), cnf)
            args = [sys.executable, "-m", "repro.cli", "solve", str(cnf),
                    "--proof", str(tmp / f"{name}.ccp"),
                    "--drup", str(tmp / f"{name}.drup")]
            code = subprocess.run(args, env=env,
                                  stdout=subprocess.DEVNULL).returncode
            if code != 20:
                raise SystemExit(f"{name}: solve exited {code}, not 20")
            print(f"solved {name}", flush=True)
        chain = f"chain{CHAIN_LENGTH}"
        write_dimacs(deletion_chain_formula(CHAIN_LENGTH + 1),
                     tmp / f"{chain}.cnf")
        write_deletion_chain_drup(tmp / f"{chain}.drup", CHAIN_LENGTH + 1)
        wanted = ([f"{n}.cnf" for n in PROOF_INSTANCES]
                  + [f"{n}.ccp" for n in PROOF_INSTANCES]
                  + [f"{n}.cnf" for n in DRUP_INSTANCES]
                  + [f"{n}.drup" for n in DRUP_INSTANCES]
                  + [f"{chain}.cnf", f"{chain}.drup"])
        for old in INPUTS.glob("*.xz"):
            old.unlink()
        for fname in sorted(set(wanted)):
            data = (tmp / fname).read_bytes()
            (INPUTS / f"{fname}.xz").write_bytes(
                lzma.compress(data, preset=9))
            files[fname] = {"sha256": _sha256(data), "bytes": len(data),
                            "lines": count_lines(tmp / fname)}
    manifest = {
        "note": "written by perfbench/pin.py; every pair is a solver "
                "refutation, so each base input's known answer is "
                "'s PROOF_IS_CORRECT' with exit code 0",
        "files": files,
    }
    (INPUTS / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
