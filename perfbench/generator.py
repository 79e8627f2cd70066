"""Seeded model generator for the eval-stream calls of the eval workload.

Usage: python3 generator.py SEED W0,W1,...,W{d-1}

Speaks the count-request line protocol of ``properloss eval --model-cmd``:
it reads a decimal count per line and answers with that many tokens, one
per line, drawn i.i.d. from the weights over the labels t00, t01, ...;
a count of 0 (or end of input) makes it exit with code 0.  It uses only
the standard library so that starting it costs no numpy import.
"""

import random
import sys


def main() -> int:
    rng = random.Random(int(sys.argv[1]))
    weights = [float(w) for w in sys.argv[2].split(",")]
    labels = [f"t{i:02d}" for i in range(len(weights))]
    cum = []
    acc = 0.0
    for w in weights:
        acc += w
        cum.append(acc)
    out = sys.stdout
    for line in sys.stdin:
        n = int(line)
        if n == 0:
            break
        out.write("\n".join(rng.choices(labels, cum_weights=cum, k=n)) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
