"""Digest of ``nsopt sweep`` on ``tests/data/digest_config.json``.

The config runs every solver and mode: minibatch and deterministic
oracles, runs shared across accuracies, and ``fw_pgd`` runs stopped early
by ``max_lmo`` and ``target_gap``.  The digest holds two SHA-256 hashes per
output file:

* ``counts``: the integer columns (``k`` and the four oracle counts) of
  every row, plus, under ``"slopes"``, the slope report's lines.  Oracle
  counts are the paper's metric, so these change only when a change to the
  program says it changes them.
* ``bytes``: the file's full bytes.  Reordered arithmetic moves the
  ``f_value`` and ``gap`` columns in their last bits; a change that does so
  regenerates this digest and states its largest relative change.

``tests/test_digest.py`` compares a fresh sweep with the committed
``tests/data/digest.json``.  Regenerate that file with

    PYTHONPATH=src python tests/make_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from nsopt import cli
from nsopt.harness import OUTPUT_DIR_ENV

DATA = Path(__file__).resolve().parent / "data"
CONFIG = DATA / "digest_config.json"
DIGEST = DATA / "digest.json"
INTEGER_FIELDS = slice(1, 6)  # k, fo_calls, sfo_calls, po_calls, lmo_calls


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_digest(out_dir) -> dict:
    """Run the sweep into ``out_dir`` and return its digest."""
    stdout = io.StringIO()
    previous = os.environ.get(OUTPUT_DIR_ENV)
    os.environ[OUTPUT_DIR_ENV] = str(out_dir)
    try:
        with contextlib.redirect_stdout(stdout):
            status = cli.main(["sweep", str(CONFIG)])
    finally:
        if previous is None:
            del os.environ[OUTPUT_DIR_ENV]
        else:
            os.environ[OUTPUT_DIR_ENV] = previous
    if status != 0:
        raise RuntimeError(f"nsopt sweep exited with {status}")
    lines = stdout.getvalue().splitlines()
    manifest = json.loads(lines[-1])
    if manifest["failed"]:
        raise RuntimeError(f"runs failed: {manifest['failed']}")
    counts, full = {}, {}
    for path in map(Path, manifest["files"]):
        text = path.read_text()
        counts[path.name] = _sha("\n".join(",".join(line.split(",")[INTEGER_FIELDS])
                                           for line in text.splitlines()))
        full[path.name] = _sha(text)
    counts["slopes"] = _sha("\n".join(lines[:-1]))
    return {"counts": counts, "bytes": full}


def main() -> int:
    with tempfile.TemporaryDirectory() as out_dir:
        digest = sweep_digest(out_dir)
    DIGEST.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGEST}: {len(digest['bytes'])} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
