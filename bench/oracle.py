"""Output checks: export digests and served-page comparison.

Byte-identity is the generator's contract, so the oracle is a sha256
per exported file.  A run fails when its tree differs from the
reference tree in any file name or any byte.
"""

from __future__ import annotations

import hashlib
from pathlib import Path


def tree_digests(root):
    """``{relative path: sha256}`` of every file under ``root``."""
    root = Path(root)
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            sha = hashlib.sha256()
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    sha.update(block)
            digests[str(path.relative_to(root))] = sha.hexdigest()
    return digests


def tree_mismatches(reference, candidate):
    """Relative paths whose digest differs between two digest dicts
    (missing on either side counts); empty means byte-identical."""
    names = sorted(set(reference) | set(candidate))
    return [
        name for name in names
        if reference.get(name) != candidate.get(name)
    ]


def tree_bytes(root):
    return sum(
        path.stat().st_size
        for path in Path(root).rglob("*") if path.is_file()
    )


class CsvPages:
    """Line ranges of an exported CSV file, for served-page checks.

    The served tables (a categorical column, an edge list) contain no
    quoted line breaks, so splitting on CRLF is exact.
    """

    def __init__(self, path):
        lines = Path(path).read_bytes().split(b"\r\n")
        # lines[0] is the header; the file ends with CRLF, so the
        # last element is empty.
        self._rows = lines[1:-1]

    def __len__(self):
        return len(self._rows)

    def page(self, lo, hi):
        """Bytes of data rows ``[lo, hi)`` as the export wrote them."""
        rows = self._rows[lo:hi]
        return b"\r\n".join(rows) + b"\r\n" if rows else b""
