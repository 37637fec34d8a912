#!/usr/bin/env python3
"""Fail when a deterministic work count grew against its committed value.

    python3 tools/check_counts.py NEW.json COMMITTED.json

Both files hold a list of records; the first field of a record names
it.  Prints every (record, count, value) that is worse and exits 1 when
there is one, when a count rose, when a ``bad_*`` count is nonzero or
when the two files do not name the same records.
"""

import json
import sys


def worse(new, old):
    """(record, count, value) triples of ``new`` worse than ``old``."""
    def name(r):
        return next(iter(r.values()))

    old = {name(r): r for r in old}
    out = []
    for r in new:
        ref = old.get(name(r))
        for key, value in list(r.items())[1:]:
            if (ref is None or value > ref[key]
                    or key.startswith("bad_") and value):
                out.append((name(r), key, value))
    return out


def main(argv):
    new, old = (json.load(open(path)) for path in argv)
    bad = worse(new, old)
    print(*bad, sep="\n")
    return 1 if bad or len(new) != len(old) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
