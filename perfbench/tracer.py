"""Run one jansum command with its layers traced from outside the program.

    python3 perfbench/tracer.py SPANS_JSON COMMAND_ID -- ARGV...

In a fresh interpreter this imports jansum, replaces every public function of
each module with a wrapper that records a span, and calls
`jansum.cli.main(ARGV)`.  A function is replaced at every module binding that
refers to it (`cli` imports most functions by name), so calls through any of
them are seen; nothing under src/ changes.  The layers are the modules;
`oracle` is wrapped too, so that the selftest's oracle time is not counted
as cli time, but it is not reported.

A span records name, start, end, parent span and command id, plus the
duration minus the time its wrapped children took (self time) and counts
taken from the return value.  The first INDIVIDUAL_SPANS calls of each
function are kept one by one; later calls are merged into one span per
(function, parent), whose `calls` says how many it holds.  That bounds memory
for the hottest leaves (about 225k `kostka` calls in one sweep).  Spans stay
in memory and are written when the command exits.  Timestamps are
`time.perf_counter`, the system-wide monotonic clock on Linux, so they
compare with the launch time the benchmark takes in its own process.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

LAYERS = ("lattice", "charring", "identities", "weyl", "jantzen", "serialize", "cli")
UNREPORTED = ("oracle",)
INDIVIDUAL_SPANS = 64

clock = time.perf_counter


def _regular(report) -> int:
    return sum(1 for term in report.terms if not term.outcome.is_singular)


# counts read from a function's return value, summed into its span
COUNTERS = {
    "lattice.partitions_below": lambda out: {"out": len(out)},
    "charring.schur_to_monomial": lambda out: {"terms": len(out.terms)},
    "identities.verify_first_identity": lambda out: {"rhs_terms": len(out.rhs.terms)},
    "identities.verify_second_identity": lambda out: {"rhs_terms": len(out.rhs.terms)},
    "weyl.dot_normalize": lambda out: {"singular": int(out.is_singular)},
    "jantzen.jantzen_sum": lambda out: {"terms": len(out.terms), "regular": _regular(out)},
    "serialize.canonical_dumps": lambda out: {"bytes": len(out.encode())},
}

# span fields, in the order each record list holds them
FIELDS = ("name", "start", "end", "parent", "calls", "dur", "self", "counts")


class Recorder:
    """Span store and the wrappers that fill it, for one command."""

    def __init__(self):
        self.records: list[list] = []
        self.stack: list[list] = []  # [record index, time spent in wrapped children]
        self.individual: dict[str, int] = {}
        self.merged: dict[tuple[str, int | None], int] = {}

    def _open(self, name: str, start: float) -> int:
        parent = self.stack[-1][0] if self.stack else None
        n = self.individual.get(name, 0)
        if n < INDIVIDUAL_SPANS:
            self.individual[name] = n + 1
        else:
            idx = self.merged.get((name, parent))
            if idx is not None:
                return idx
            self.merged[(name, parent)] = len(self.records)
        self.records.append([name, start, start, parent, 0, 0.0, 0.0, {}])
        return len(self.records) - 1

    def wrap(self, fn, name: str):
        count = COUNTERS.get(name)
        stack = self.stack
        records = self.records

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            frame = [self._open(name, start), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                record = records[frame[0]]
                record[2] = end
                record[4] += 1
                record[5] += dur
                record[6] += dur - frame[1]
            if count is not None:
                counts = record[7]
                for key, value in count(result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Wrap each public function of every layer at all of its bindings."""
        modules = [m for n, m in sys.modules.items() if n == "jansum" or n.startswith("jansum.")]
        for layer in LAYERS + UNREPORTED:
            module = importlib.import_module(f"jansum.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(obj, f"{layer}.{attr}")
                for m in modules:
                    for binding, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, binding, wrapper)

    def spans(self, command_id: str) -> list[dict]:
        return [dict(zip(FIELDS, rec), id=i, cmd=command_id) for i, rec in enumerate(self.records)]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON COMMAND_ID -- ARGV...", file=sys.stderr)
        return 2
    out_path, command_id, command = argv[0], argv[1], argv[3:]
    import jansum.cli

    installing = clock()
    recorder = Recorder()
    recorder.install()
    install_s = clock() - installing
    code = 1
    try:
        code = jansum.cli.main(command)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"cmd": command_id, "install_s": install_s,
                       "spans": recorder.spans(command_id)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
