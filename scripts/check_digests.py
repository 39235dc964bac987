#!/usr/bin/env python3
"""Re-hash every artifact under a directory against the manifest that lists it.

Usage: python scripts/check_digests.py DIR

Each manifest.json under DIR (a sweep's combination manifests included)
lists its artifacts with the SHA-256 of the bytes the run wrote, taken
in memory as it wrote them. This checks that the bytes on disk are the
bytes that were hashed. Exits 1 on a mismatch, a missing artifact, or a
DIR without any manifest.
"""

import hashlib
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checked, bad = 0, []
    for manifest in sorted(Path(args[0]).glob("**/manifest.json")):
        for entry in json.loads(manifest.read_text(encoding="utf-8"))["artifacts"]:
            path = manifest.parent / entry["path"]
            checked += 1
            if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != entry["sha256"]:
                bad.append(f"{path}: differs from {manifest}")
    print(*bad, f"{checked} artifacts re-hashed, {len(bad)} differ from their manifest", sep="\n")
    return 1 if bad or not checked else 0


if __name__ == "__main__":
    sys.exit(main())
