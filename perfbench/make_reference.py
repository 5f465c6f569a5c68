"""Record the reproduce_all reference: the text of every file one
`trustpd reproduce-all` pass writes, at the commit checked out.

    python3 perfbench/make_reference.py

Run it only to move the reference to a new commit on purpose; the benchmark
compares every later pass with what this stores.
"""

import json
import lzma
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import REFERENCE_FILE, REPRODUCE_OUTDIR  # noqa: E402


def main() -> int:
    from trustpd.cli import main as trustpd_main

    os.chdir(ROOT)
    outdir = Path(REPRODUCE_OUTDIR)
    shutil.rmtree(outdir, ignore_errors=True)
    code = trustpd_main(["reproduce-all", "--outdir", REPRODUCE_OUTDIR])
    if code != 0:
        print(f"reproduce-all exited with {code}", file=sys.stderr)
        return 1
    files = {}
    for path in sorted(outdir.iterdir()):
        with open(path, newline="") as fh:  # keep the CSV writer's \r\n
            files[path.name] = fh.read()
    shutil.rmtree(outdir)
    REFERENCE_FILE.parent.mkdir(exist_ok=True)
    with lzma.open(REFERENCE_FILE, "wt", preset=9) as fh:
        json.dump({"outdir": REPRODUCE_OUTDIR, "files": files}, fh, sort_keys=True)
    print(f"{len(files)} files -> {REFERENCE_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
