#!/usr/bin/env python3
"""Re-hash every artifact under a directory against the manifest that lists it.

Usage: python scripts/check_digests.py DIR [--expect FILE | --record FILE]

Each manifest.json under DIR (a sweep's combination manifests included)
lists its artifacts with the SHA-256 of the bytes the run wrote, taken
in memory as it wrote them. This checks that the bytes on disk are the
bytes that were hashed. Exits 1 on a mismatch, a missing artifact, or a
DIR without any manifest.

--expect FILE also holds every file under DIR but the manifests to FILE,
a JSON object from each path relative to DIR to its SHA-256, and exits 1
on a file that differs, one that is missing and one that FILE does not
list. --record FILE writes that object for the files under DIR.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path


def artifact_digests(root: Path) -> dict:
    """The SHA-256 of every file under root but the manifests, by its path relative to root."""
    files = sorted(p for p in root.rglob("*") if p.is_file() and p.name != "manifest.json")
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", type=Path)
    pinned = parser.add_mutually_exclusive_group()
    pinned.add_argument("--expect", type=Path, help="JSON file of the digest every artifact must have")
    pinned.add_argument("--record", type=Path, help="write the artifacts' digests to this JSON file")
    args = parser.parse_args(argv)
    checked, bad = 0, []
    for manifest in sorted(args.dir.glob("**/manifest.json")):
        for entry in json.loads(manifest.read_text(encoding="utf-8"))["artifacts"]:
            path = manifest.parent / entry["path"]
            checked += 1
            if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != entry["sha256"]:
                bad.append(f"{path}: differs from {manifest}")
    print(*bad, f"{checked} artifacts re-hashed, {len(bad)} differ from their manifest", sep="\n")
    if bad or not checked:
        return 1
    if args.record:
        args.record.write_text(json.dumps(artifact_digests(args.dir), indent=2, sort_keys=True) + "\n")
    if args.expect:
        want, have = json.loads(args.expect.read_text(encoding="utf-8")), artifact_digests(args.dir)
        pinned_bad = [f"{args.dir / name}: differs from {args.expect}" for name in sorted(set(want) | set(have))
                      if want.get(name) != have.get(name)]
        print(*pinned_bad, f"{len(want)} pinned artifacts, {len(pinned_bad)} differ", sep="\n")
        return 1 if pinned_bad else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
