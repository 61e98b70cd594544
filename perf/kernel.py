"""The calibration kernel: fixed work in a fresh interpreter.

Run by the harness as ``python perf/kernel.py`` and timed from spawn to
exit, like the commands it is held against: interpreter start,
the numpy import, then the two kinds of work the program does — building
and probing sets and dicts of tuples in pure Python, and one numpy sort.
It imports nothing of the program, so only machine speed moves its time.
"""


def main() -> None:
    import numpy as np

    rows = [(i * 7919 % 100003, i * 104729 % 100019)
            for i in range(600_000)]
    members = frozenset(rows)
    index: dict[int, list[int]] = {}
    for a, b in rows:
        index.setdefault(b % 4096, []).append(a)
    sum(1 for row in rows if row in members)
    table: dict[tuple[int, int], int] = {}
    for i in range(1_200_000):
        key = (i % 1009, i % 31)
        table[key] = table.get(key, 0) + i
    np.random.default_rng(0).random(4_000_000).sort()


if __name__ == "__main__":
    main()
