"""Schema validation as a command: ``python -m repro.obs.validate``.

CI (and anyone debugging an artifact) validates observability outputs
without writing throwaway Python::

    python -m repro.obs.validate metrics.json trace.jsonl \\
        depgraph.jsonl analytics.json

Each file is validated against the schema id it declares (the
document's ``schema`` field, or the header record of a JSONL log); an
unknown id is reported with the list of known schemas, and an
unreadable or non-JSON file is reported as invalid — never a
traceback.

Exit code 0 when every given artifact is schema-valid, with one
``ok: PATH [schema]`` line each; 1 with one ``invalid:`` line per
problem otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.schema import KNOWN_SCHEMAS, declared_schema, validate_any


def _load(path: str):
    """Parse an artifact: one JSON document (possibly pretty-printed
    over many lines), falling back to JSONL line records."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except ValueError:
        return [json.loads(line) for line in text.splitlines()
                if line.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate repro.obs artifacts against the schema "
                    "id each declares "
                    f"({', '.join(sorted(KNOWN_SCHEMAS))}).")
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="artifacts to validate")
    args = parser.parse_args(argv)

    problems = 0
    for path in args.files:
        try:
            artifact = _load(path)
        except (OSError, ValueError) as exc:
            print(f"invalid: {path}: {exc}")
            problems += 1
            continue
        found = validate_any(artifact)
        for problem in found:
            print(f"invalid: {path}: {problem}")
            problems += 1
        if not found:
            detail = ""
            if isinstance(artifact, dict) and "metrics" in artifact:
                detail = f", {len(artifact['metrics'])} metrics"
            elif isinstance(artifact, list):
                detail = f", {len(artifact)} records"
            print(f"ok: {path} [{declared_schema(artifact)}{detail}]")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
