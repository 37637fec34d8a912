#!/usr/bin/env python3
"""Fail when a deterministic work count grew against its committed value.

    python3 tools/check_counts.py NEW.json COMMITTED.json

Both files hold a list of records; the first field of a record names
it.  Prints every (record, count, value) that is worse and exits 1 when
there is one: a count rose, a ``bad_*`` count is nonzero, or a record or
a count is new.  It also exits 1 when a committed record is missing.
"""

import json
import sys


def name(record):
    return next(iter(record.values()))


def worse(new, old):
    """(record, count, value) triples of ``new`` worse than ``old``."""
    old = {name(r): r for r in old}
    out = []
    for r in new:
        ref = old.get(name(r))
        for key, value in list(r.items())[1:]:
            if (ref is None or key not in ref or value > ref[key]
                    or key.startswith("bad_") and value):
                out.append((name(r), key, value))
    return out


def main(argv):
    new, old = (json.load(open(path)) for path in argv)
    bad = worse(new, old)
    missing = sorted({name(r) for r in old} - {name(r) for r in new})
    print(*bad, *(f"missing record: {m}" for m in missing), sep="\n")
    return 1 if bad or missing or len(new) != len(old) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
