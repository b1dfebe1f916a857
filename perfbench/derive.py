"""Derive the seeded mutants a workload runs (a set-up step).

    python3 perfbench/derive.py {cc|drup} INPUT_DIR OUT_DIR SEED

``cc``: every ``reject_all`` conflict-clause mutant of each small pair,
plus its ``duplicate_clause`` control, from
``repro.testing.mutate.ProofMutator(seed=SEED)``.  ``drup``: the
``reject_all`` ``corrupt_deletion`` mutants of pipe_2's DRUP trace.
Writes the mutant files and ``OUT_DIR/mutants.json``, which records each
mutant's known answer per command as ``[exit code, verdict line]``.
The known answer follows from the mutation's expectation and the CLI's
documented exit codes, never from running a checker:

* a mutant that must be accepted: exit 0, ``s PROOF_IS_CORRECT``;
* a ``reject_all`` mutant the proof format itself rejects (its clause
  list does not build): exit 65 and no verdict line;
* any other ``reject_all`` mutant: exit 1, ``s PROOF_IS_NOT_CORRECT``;
* a deletion of a clause that is not live: ``verify-stream`` treats it
  as malformed input (exit 65), ``verify-drup`` as an incorrect proof
  (exit 1).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import (  # noqa: E402
    CORRECT, EXIT_BAD, EXIT_OK, EXIT_PARSE, NOT_CORRECT, SMALL,
    count_lines)

from repro.core.dimacs import read_dimacs  # noqa: E402
from repro.core.exceptions import ProofFormatError  # noqa: E402
from repro.proofs.drup import read_drup, write_drup  # noqa: E402
from repro.proofs.trace_format import read_proof  # noqa: E402
from repro.testing.mutate import (  # noqa: E402
    EXPECT_ACCEPT, EXPECT_REJECT_ALL, KIND_CC, KIND_DRUP, ProofMutator)


def _write_cc(mutation, path: Path) -> None:
    """Write the clause list as trace text without building a
    ConflictClauseProof, so format-invalid mutants reach the file."""
    lines = [f"p ccproof {mutation.ending}"]
    lines += [" ".join(map(str, clause)) + " 0" if clause else "0"
              for clause in mutation.clauses]
    path.write_text("\n".join(lines) + "\n")


def _builds(mutation) -> bool:
    try:
        mutation.build()
    except ProofFormatError:
        return False
    return True


def derive_cc(inputs: Path, out: Path, seed: int) -> list[dict]:
    mutants = []
    for base in SMALL:
        mutator = ProofMutator(read_dimacs(inputs / f"{base}.cnf"),
                               read_proof(inputs / f"{base}.ccp"),
                               seed=seed)
        for number, mutation in enumerate(mutator.mutations()):
            if mutation.kind != KIND_CC:
                continue
            accept = (mutation.expectation == EXPECT_ACCEPT
                      and mutation.operator == "duplicate_clause")
            if not accept and mutation.expectation != EXPECT_REJECT_ALL:
                continue
            path = out / f"{base}.{mutation.operator}.{number}.ccp"
            _write_cc(mutation, path)
            if accept:
                answer = [EXIT_OK, CORRECT]
            elif _builds(mutation):
                answer = [EXIT_BAD, NOT_CORRECT]
            else:
                answer = [EXIT_PARSE, None]
            mutants.append({"base": base, "path": str(path),
                            "operator": mutation.operator,
                            "description": mutation.description,
                            "accept": accept, "verify": answer,
                            "lines": count_lines(path)})
    return mutants


def derive_drup(inputs: Path, out: Path, seed: int) -> list[dict]:
    base = "pipe_2"
    mutator = ProofMutator(read_dimacs(inputs / f"{base}.cnf"),
                           read_proof(inputs / f"{base}.ccp"),
                           drup=read_drup(inputs / f"{base}.drup"),
                           seed=seed)
    mutants = []
    for number, mutation in enumerate(mutator.op_corrupt_deletion()):
        if mutation.kind != KIND_DRUP \
                or mutation.expectation != EXPECT_REJECT_ALL:
            continue
        path = out / f"{base}.corrupt_deletion.{number}.drup"
        write_drup(mutation.build(), path)
        mutants.append({"base": base, "path": str(path),
                        "operator": mutation.operator,
                        "description": mutation.description,
                        "accept": False,
                        "verify-stream": [EXIT_PARSE, None],
                        "verify-drup": [EXIT_BAD, NOT_CORRECT],
                        "lines": count_lines(path)})
    return mutants


def main(argv: list[str]) -> int:
    family, inputs, out, seed = argv
    inputs, out = Path(inputs), Path(out)
    out.mkdir(parents=True, exist_ok=True)
    derive = {"cc": derive_cc, "drup": derive_drup}[family]
    mutants = derive(inputs, out, int(seed))
    if not mutants:
        print(f"no {family} mutants derived", file=sys.stderr)
        return 1
    (out / "mutants.json").write_text(json.dumps(mutants, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
