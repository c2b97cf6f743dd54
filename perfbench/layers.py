"""Per-layer metrics from the spans of one traced pass.

Each metric names the end-to-end metric it should move; README.md gives the
whole map.  A layer's self time is the sum over its spans of duration minus
the time of wrapped child spans, plus the self time of importing its module,
which every command pays.  A ratio whose base is zero (the layer did
no work on this workload) is reported as 0.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS

# name -> (unit, better)
PER_LAYER = {
    "lattice.self_s": ("s", "lower"),
    "lattice.calls": ("count", "lower"),
    "lattice.partitions_out": ("count", "lower"),
    "charring.self_s": ("s", "lower"),
    "charring.kostka_calls": ("count", "lower"),
    "charring.terms_out": ("count", "lower"),
    "identities.self_s": ("s", "lower"),
    "identities.cancel_ratio": ("ratio", "higher"),
    "weyl.self_s": ("s", "lower"),
    "weyl.normalize_calls": ("count", "lower"),
    "weyl.singular_ratio": ("ratio", "lower"),
    "jantzen.self_s": ("s", "lower"),
    "jantzen.terms": ("count", "lower"),
    "jantzen.regular_ratio": ("ratio", "higher"),
    "serialize.self_s": ("s", "lower"),
    "serialize.bytes_out": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.cache_bytes": ("bytes", "lower"),
    "cli.startup_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

_VERIFY = ("identities.verify_first_identity", "identities.verify_second_identity")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(commands, traced_wall_s: float, untraced_wall_s: float,
                  cache_bytes: int) -> dict[str, float]:
    """`commands`: one (launch time, span file contents) per traced command."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    accumulated = 0  # Schur terms summed over the shapes of identity checks
    startup = []
    for launch, trace in commands:
        for module, seconds in trace["imports"].items():
            layer = module.split(".")[1]
            if layer in self_s:
                self_s[layer] += seconds
        spans = trace["spans"]
        for span in spans:
            name = span["name"]
            layer = name.split(".")[0]
            if layer in self_s:
                self_s[layer] += span["self"]
            calls[name] = calls.get(name, 0) + span["calls"]
            for key, value in span["counts"].items():
                counts[f"{name}:{key}"] = counts.get(f"{name}:{key}", 0) + value
            parent = span["parent"]
            if (name == "charring.schur_to_monomial" and parent is not None
                    and spans[parent]["name"] in _VERIFY):
                accumulated += span["counts"].get("terms", 0)
        main = next(s for s in spans if s["name"] == "cli.main")
        startup.append(main["start"] - launch - trace["install_s"])

    def n(name: str) -> int:
        return calls.get(name, 0)

    def c(key: str) -> int:
        return counts.get(key, 0)

    rhs_kept = sum(c(f"{name}:rhs_terms") for name in _VERIFY)
    return {
        "lattice.self_s": self_s["lattice"],
        "lattice.calls": n("lattice.partitions_below"),
        "lattice.partitions_out": c("lattice.partitions_below:out"),
        "charring.self_s": self_s["charring"],
        "charring.kostka_calls": n("charring.kostka"),
        "charring.terms_out": c("charring.schur_to_monomial:terms"),
        "identities.self_s": self_s["identities"],
        "identities.cancel_ratio": _ratio(rhs_kept, accumulated),
        "weyl.self_s": self_s["weyl"],
        "weyl.normalize_calls": n("weyl.dot_normalize"),
        "weyl.singular_ratio": _ratio(c("weyl.dot_normalize:singular"), n("weyl.dot_normalize")),
        "jantzen.self_s": self_s["jantzen"],
        "jantzen.terms": c("jantzen.jantzen_sum:terms"),
        "jantzen.regular_ratio": _ratio(c("jantzen.jantzen_sum:regular"),
                                        c("jantzen.jantzen_sum:terms")),
        "serialize.self_s": self_s["serialize"],
        "serialize.bytes_out": c("serialize.canonical_dumps:bytes"),
        "cli.self_s": self_s["cli"],
        "cli.cache_bytes": cache_bytes,
        "cli.startup_s": statistics.median(startup),
        "trace.overhead_ratio": traced_wall_s / untraced_wall_s,
    }
