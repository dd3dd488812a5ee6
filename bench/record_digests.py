"""Record the SHA-256 of the reduce workload's output for every pool block.

    python3 bench/record_digests.py --size full

Every reduce pass compares the output of each block it reduces with the
digest recorded here in ``digests.json``; the seed only chooses the blocks,
so every seed is checked.  The blocks are reduced in one process, in pool
order; the output does not depend on the package's cache state.  Re-record
only for a change that is meant to alter reduce output.
"""

from __future__ import annotations

import argparse
import json
import sys
from types import SimpleNamespace

from worker import DIGESTS, SIZES, block_digest, check_reduced, load_package, reduce_block, reduce_text, term_words


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=tuple(SIZES), required=True)
    args = parser.parse_args(argv)

    _, calls = load_package()
    api = SimpleNamespace(**{name: fn for name, (_, fn) in calls.items()})
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    previous = recorded.get(args.size, [])
    digests = []
    for index in range(SIZES[args.size]["reduce"][0]):
        block = reduce_block(args.size, index)
        lines = [reduce_text(api, text) for _, text, _ in block]
        if not all(check_reduced(kind, text, degree, line, term_words(line)) for (kind, text, degree), line in zip(block, lines)):
            print(f"block {index}: an output failed its check; nothing recorded", file=sys.stderr)
            return 1
        digests.append(block_digest(lines))
        changed = index < len(previous) and previous[index] != digests[-1]
        print(f"block {index}: {digests[-1]}" + (" (changed)" if changed else ""))
    recorded[args.size] = digests
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
