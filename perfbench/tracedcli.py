"""Run the smachine CLI with the layer wrappers installed.

    python3 perfbench/tracedcli.py TRACE_DIR <smachine arguments...>

Pool workers are forked from this process, so they inherit the
wrappers; each process starts from an empty recording and appends its
recording so far to ``TRACE_DIR/<pid>.jsonl`` after every suite it
runs, and once more when the CLI returns.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.install()
    os.register_at_fork(after_in_child=rec.reset)

    def dump() -> None:
        with open(os.path.join(trace_dir, f"{os.getpid()}.jsonl"), "a") as f:
            f.write(json.dumps(rec.dump()) + "\n")

    import smachine.checks
    import smachine.cli

    suite = smachine.checks.run_one_suite

    def run_one_suite(*args, **kwargs):
        try:
            return suite(*args, **kwargs)
        finally:
            dump()

    tracing._rebind(suite, run_one_suite)
    try:
        return smachine.cli.main(argv)
    finally:
        dump()


if __name__ == "__main__":
    sys.exit(main())
