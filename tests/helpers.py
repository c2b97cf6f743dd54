"""Brute-force helpers shared across the test suite.

Deliberately independent re-derivations (plain enumeration and prefix-sum
arithmetic on raw tuples) used as oracles against the library proper.
"""

from __future__ import annotations

import contextlib
import io
import random
from math import factorial

from jansum.lattice import Weight


def brute_partitions(n: int, max_part: int | None = None):
    """All partitions of n as tuples, largest part first, reverse-lex order."""
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in brute_partitions(n - first, first):
            yield (first,) + rest


def prefix_leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Dominance by raw prefix sums (equal totals assumed)."""
    sa = sb = 0
    for t in range(max(len(a), len(b))):
        sa += a[t] if t < len(a) else 0
        sb += b[t] if t < len(b) else 0
        if sa > sb:
            return False
    return True


def hook_length_count(shape: tuple[int, ...]) -> int:
    """Standard Young tableaux of the shape, by the hook length formula."""
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            below = sum(1 for r in shape[i + 1:] if r > j)
            hooks *= row - j + below
    return factorial(sum(shape)) // hooks


def inversions(vals) -> int:
    """Pairs i < j with vals[i] < vals[j], counted one pair at a time."""
    return sum(
        1 for i in range(len(vals)) for j in range(i + 1, len(vals)) if vals[i] < vals[j]
    )


def random_weight(rng: random.Random, d: int, lo: int = -6, hi: int = 6) -> Weight:
    return Weight([rng.randint(lo, hi) for _ in range(d)])


def random_dominant(rng: random.Random, d: int, hi: int = 5) -> Weight:
    return Weight([rng.randint(0, hi) for _ in range(d)])


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from jansum.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
    return code, out.getvalue(), err.getvalue()
