#!/usr/bin/env python3
"""Checks the evidence CI keeps: loadgen's `gb-bench/v2` bench reports and
the `gb-serve` / `gb-router` stats snapshots of the smoke steps.

    python3 ci/check_reports.py report FILE...     # bench reports
    python3 ci/check_reports.py shard-stats FILE   # sharded chaos snapshot
    python3 ci/check_reports.py router-stats FILE  # router failover snapshot

A report passes when its schema is `gb-bench/v2`, `pass` is true, every
gate passed (and re-evaluates to a pass here), and the gates its scenario
must carry are present with their committed operators and bounds — so a
gate cannot be dropped or loosened without this script changing too.
"""

import json
import operator
import sys

OPS = {
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
    "==": operator.eq,
}

# name -> (op, bound); a bound of None is computed from the run itself
# and cross-checked in SCENARIO_CHECKS below.
ALWAYS = {
    "serving": {
        "threaded.p99_us": (">", 0),
        "json.p99_us": (">", 0),
    },
    "codec": {
        "json.throughput_rps": (">", 0),
        "binary.throughput_rps": (">", 0),
    },
    "store": {
        "warm_restart.warm_hit_rate": (">=", 0.9),
        "cold_restart.warm_hit_rate": ("<", 0.9),
    },
    "sharding": {
        "isolated.p99_us": (">", 0),
        "unsharded_control.p99_us": (">", 0),
        # Both "sharded.p99_us > 0" and "sharded.p99_us <= 2 x
        # max(isolated p99, noise floor)" share this name.
        "sharded.p99_us": (None, None),
    },
    "skew": {
        "rebalanced_vs_static.imbalance": ("<", None),
        "rebalanced.ticks": (">", 0),
        "rebalanced.max_tick_moves": ("<=", 8),
    },
    "router": {
        "cold.proxied_over_direct": (">=", 0.5),
        "failover.failovers": (">=", 1),
        "failover.client_errors": ("<=", 6),
        "tail.p99_speedup": (">", 1),
    },
    "soak": {
        "io_cpu_vs_sweep": ("<=", 0.2),
        "p99_vs_sweep": ("<=", 1.2),
        "window_ms": (">=", None),
        "active.engine": ("==", "epoll"),
    },
}
FULL_ONLY = {
    "serving": {"json_over_threaded": (">=", 2.0)},
    "codec": {"binary_over_pre_codec": (">=", 2.0)},
    "skew": {
        "rebalanced.imbalance": ("<=", 1.15),
        "static_control.imbalance": (">=", 1.3),
    },
}
SMOKE_ONLY = {
    "codec": {"binary_over_json": (">=", 0.8)},
}
# Committed figures of deleted engines a gate may be measured against.
BASELINES = {
    "json_over_threaded": {(39544.985, "a6a9d05")},
    "binary_over_pre_codec": {(104374.9, "a6a9d05")},
    "io_cpu_vs_sweep": {(0.611, "bf5d28b"), (0.154, "2343fed")},
    "p99_vs_sweep": {(89766, "bf5d28b"), (13214, "2343fed")},
}


def check_serving(report, gates):
    phases = report["phases"]
    assert phases["threaded"]["source"] == "committed", phases["threaded"]
    probes = [name for name in phases if name.startswith("hitrate_")]
    assert len(probes) == 4, probes


def check_sharding(report, gates):
    phases, config = report["phases"], report["config"]
    floor = config["noise_floor_us"]
    bound = 2 * max(phases["isolated"]["p99_us"], floor)
    sharded = [g for g in gates if g["name"] == "sharded.p99_us"]
    assert sorted(g["op"] for g in sharded) == ["<=", ">"], sharded
    for gate in sharded:
        want = bound if gate["op"] == "<=" else 0
        assert gate["bound"] == want, (gate, want)


def check_skew(report, gates):
    control = report["phases"]["static_control"]["imbalance"]
    gate = next(g for g in gates if g["name"] == "rebalanced_vs_static.imbalance")
    assert gate["bound"] == control, (gate, control)


def check_soak(report, gates):
    gate = next(g for g in gates if g["name"] == "window_ms")
    assert gate["bound"] == report["config"]["window_ms"], gate


SCENARIO_CHECKS = {
    "serving": check_serving,
    "sharding": check_sharding,
    "skew": check_skew,
    "soak": check_soak,
}


def check_report(path):
    with open(path) as f:
        report = json.load(f)
    assert report["schema"] == "gb-bench/v2", report.get("schema")
    scenario, smoke = report["scenario"], report["smoke"]
    gates = report["gates"]
    for gate in gates:
        assert gate["pass"] is True, gate
        assert OPS[gate["op"]](gate["value"], gate["bound"]), gate
        baseline = gate.get("baseline")
        if baseline is not None or gate["name"] in BASELINES:
            assert baseline is not None and baseline["source"] == "committed", gate
            key = (baseline["value"], baseline["commit"])
            assert key in BASELINES.get(gate["name"], ()), f"unknown baseline: {gate}"
    assert report["pass"] is True, path
    required = dict(ALWAYS[scenario])
    required.update((SMOKE_ONLY if smoke else FULL_ONLY).get(scenario, {}))
    names = {g["name"] for g in gates}
    for name, (op, bound) in required.items():
        assert name in names, f"{path}: gate {name} missing"
        for gate in (g for g in gates if g["name"] == name):
            if op is not None:
                assert gate["op"] == op, (gate, op)
            if bound is not None:
                assert gate["bound"] == bound, (gate, bound)
    SCENARIO_CHECKS.get(scenario, lambda r, g: None)(report, gates)
    print(f"{path}: {scenario}{' smoke' if smoke else ''} ok, "
          + ", ".join(f"{g['name']} {g['value']}" for g in gates))


def check_shard_stats(path):
    with open(path) as f:
        stats = json.load(f)
    backends = stats["backends"]
    assert backends["count"] == 2, backends
    for b in backends["per_backend"]:
        assert b["queue_depth"] == 0 and b["inflight"] == 0, b
    print(f"{path}: sharded chaos ok, imbalance ratio "
          f"{backends['imbalance']['ratio']:.2f}")


def check_router_stats(path):
    with open(path) as f:
        stats = json.load(f)
    router = stats["router"]
    assert router["alive"] == 1, router
    assert router["failovers"] >= 1, router
    assert len(stats["upstreams"]) == 2, stats
    print(f"{path}: router failover ok, {router['proxied']} proxied, "
          f"{router['failovers']} failovers")


def main(argv):
    checks = {
        "report": check_report,
        "shard-stats": check_shard_stats,
        "router-stats": check_router_stats,
    }
    if len(argv) < 3 or argv[1] not in checks:
        sys.exit(__doc__)
    for path in argv[2:]:
        checks[argv[1]](path)


if __name__ == "__main__":
    main(sys.argv)
