"""Record the expected outputs that run.py checks against, from the CLI.

    python3 perfbench/record.py

Run from the repository root, on a commit whose outputs are trusted.  It
writes perfbench/expected.json: the SHA-256 of every `cliffordkit atlas
--max-n 8` entry (canonical JSON, sorted keys) and of the stdout of every
cli-cold request that no tests/golden file covers.
"""

import json
import os
import subprocess
import sys

import workloads


def cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "cliffordkit.cli", *argv],
                          env=workloads.cli_env(os.getcwd()),
                          capture_output=True, check=True)
    if proc.stderr:
        sys.exit(f"record: {' '.join(argv)} wrote to stderr: {proc.stderr!r}")
    return proc.stdout


def main():
    atlas = json.loads(cli("atlas", "--max-n", "8", "--out", "-"))
    expected = {
        "atlas-8": {f"{e['p']},{e['q']}": workloads.atlas_digest(e)
                    for e in atlas["signatures"]},
        "cli-cold": {request: workloads.digest(cli(*request.split()))
                     for request, golden in workloads.CLI_REQUESTS
                     if golden is None},
    }
    path = os.path.join(workloads.HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
