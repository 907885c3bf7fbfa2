"""One set-up sample: interpreter start, imports and pool generation.

``run.py`` starts this script several times and times each start-to-exit.
"""

from __future__ import annotations

import argparse

from checkout import use_checkout_sources


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    use_checkout_sources()
    import workloads

    workloads.build(args.workload, args.seed)


if __name__ == "__main__":
    main()
