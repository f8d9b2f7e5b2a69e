"""Regenerate the reference tables that the CLI workloads are checked against.

    PYTHONPATH=src python3 perfbench/make_refs.py

Writes ref/<size>/<file>.gz for every output file of the fig6-default and
sweep-postselected workloads at both sizes. The committed tables were made
with the seed code; regenerating them changes what the benchmark accepts as
correct, so do it only for a deliberate change of the outputs and say why.
"""

from __future__ import annotations

import gzip
import shutil
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    from decoguard import cli
    for size in workloads.SIZES:
        dest = workloads.REF_DIR / size
        dest.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=workloads.HERE) as tmp:
            outdir = Path(tmp)
            for workload in ("fig6-default", "sweep-postselected"):
                for cmd in workloads.cli_commands(workload, size, None, outdir):
                    if cli.main(list(cmd.argv)) != 0:
                        raise SystemExit(f"{' '.join(cmd.argv)} failed")
                    for name in cmd.outputs:
                        with open(outdir / name, "rb") as src, \
                                gzip.GzipFile(dest / f"{name}.gz", "wb", mtime=0) as gz:
                            shutil.copyfileobj(src, gz)
                        print(f"wrote {dest / name}.gz")
    return 0


if __name__ == "__main__":
    sys.exit(main())
