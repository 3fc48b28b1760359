"""Regenerate perfbench/digests.json: the SHA-256 of each workload's input and
of every invocation's stdout at the default seed.

    python3 perfbench/pin.py

Run it only when a change is meant to alter the generated inputs or the
program's output bytes; outputs that fail their checks are never pinned.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from checks import Expected, check_output
from run import DIGESTS, OUT, PCT, ROUND, child_env, invoke, sha256
from workloads import DEFAULT_SEED, WORKLOADS, generate, serialize


def main() -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=OUT))
    digests = {}
    try:
        for name, workload in WORKLOADS.items():
            records = generate(workload, DEFAULT_SEED)
            data = serialize(records, workload.input_format)
            path = workdir / f"input.{workload.input_format}"
            path.write_bytes(data)
            expected = Expected(workload, records)
            digests[name] = {"input": sha256(data)}
            for command in ROUND:
                inv = invoke(PCT + workload.argv(command, str(path)), child_env(), workdir)
                problem = check_output(expected, command, inv.returncode, inv.stdout, inv.stderr)
                if problem is not None:
                    print(f"pin: {name}: {problem}", file=sys.stderr)
                    return 1
                digests[name][command] = sha256(inv.stdout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
