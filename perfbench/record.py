"""Record the SHA-256 of every op's stdout into expected.json.

    python3 perfbench/record.py

Run it only on a commit whose outputs are known good: each output must also
pass the independent checks in ``workloads.py`` before it is recorded.
"""

import json
import sys

import probe
import worker
import workloads


def main() -> int:
    cli, _setup_s = probe.import_cli()
    digests = {}
    for ops in workloads.WORKLOADS.values():
        for op in ops:
            result = worker.run_op(cli, op, {}, keep=True)
            witness = workloads.check_output(op, result.text)
            if witness:
                print(worker.witness_line(op, witness), file=sys.stderr)
                return 1
            digests[op.key] = result.digest
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
