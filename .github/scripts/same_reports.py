"""Write the reports of every perfbench op, every member of every kind, as
one tree's `fracheat.cli.main` makes them, so that two trees' reports can
be compared byte for byte with `diff -r`.

    python3 .github/scripts/same_reports.py TREE OUT

runs each op through the fracheat in TREE/src and writes its JSON, CSV and
(for `propagate`) `final_field.frsf` into OUT/<op key>/ (for example
OUT/decay.4/).  The ops come from `perfbench/workloads.all_ops()` of the
checkout that holds this script, so both trees run the same configs.  Run
it once per tree, each in a fresh process: the `--out` handed to the CLI is
the relative path <op key>, from OUT, so the output paths recorded in the
reports match between trees.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tree, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import fracheat.cli
    import workloads

    if Path(fracheat.cli.__file__).resolve().parents[2] != tree:
        raise SystemExit(f"fracheat imported from {fracheat.cli.__file__}, not {tree}")
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    failed = []
    with tempfile.TemporaryDirectory() as configs:
        for op in workloads.all_ops().values():
            config = None
            if op.config is not None:
                config = Path(configs) / f"{op.key}.cfg"
                config.write_text(op.config)
            rc = fracheat.cli.main(["--out", op.key, *op.argv(config)])
            print(f"{op.key}: exit {rc}")
            if rc != 0:
                failed.append(op.key)
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
