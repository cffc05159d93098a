#!/usr/bin/env python3
"""CI perf-regression gate for the vectorized hot paths.

Compares a google-benchmark JSON result file (bench/micro_operators run with
--benchmark_format=json) against the thresholds recorded in
BENCH_hotpath.json and exits non-zero when either check fails:

  1. Absolute throughput: each gated benchmark's items_per_second must stay
     above baseline * (1 - max_drop_fraction). Baselines are recorded numbers
     from a reference machine, so the default slack is generous (25%); the
     gate exists to catch order-of-magnitude regressions (a batched path
     silently falling back to scalar), not single-digit noise.
  2. Speedup ratios: machine-independent ratios between benchmarks measured
     in the SAME run (batched vs scalar join probe, fused+batched vs scalar
     stateless chain). These are the real acceptance criteria and are immune
     to runner speed differences.

Usage:
  check_perf.py --results results.json [--baseline BENCH_hotpath.json]
  check_perf.py --results results.json --write-baseline BENCH_hotpath.json

PRs labeled `perf-override` skip this gate in CI (see
.github/workflows/ci.yml); use the label for changes that intentionally
trade hot-path throughput and say why in the PR description, then refresh
the baseline with --write-baseline on the reference machine.
"""

import argparse
import json
import sys


def load_results(path):
    """Returns ({benchmark name: items_per_second}, context dict) from
    google-benchmark JSON. Benchmarks that self-skipped (SkipWithError — they
    carry error_message and no items_per_second) are absent from the map,
    so check() reports them as missing."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        ips = bench.get("items_per_second")
        if ips is not None:
            # Repetitions repeat the name; keep the best (least-noisy) run.
            out[name] = max(out.get(name, 0.0), float(ips))
    return out, data.get("context", {})


def check(baseline, results):
    failures = []
    max_drop = float(baseline.get("max_drop_fraction", 0.25))

    for name, entry in baseline.get("benchmarks", {}).items():
        if "items_per_second" not in entry:
            failures.append(
                f"{name}: baseline entry is missing key 'items_per_second' "
                f"(malformed BENCH_hotpath.json — regenerate with "
                f"--write-baseline)"
            )
            continue
        recorded = float(entry["items_per_second"])
        floor = recorded * (1.0 - max_drop)
        measured = results.get(name)
        if measured is None:
            failures.append(f"{name}: missing from results (renamed or not run?)")
            continue
        status = "OK" if measured >= floor else "FAIL"
        print(
            f"[{status}] {name}: {measured:,.0f} items/s "
            f"(baseline {recorded:,.0f}, floor {floor:,.0f})"
        )
        if measured < floor:
            failures.append(
                f"{name}: {measured:,.0f} items/s is more than "
                f"{max_drop:.0%} below the recorded {recorded:,.0f}"
            )

    for key, spec in baseline.get("ratios", {}).items():
        missing_keys = [k for k in ("num", "den", "min") if k not in spec]
        if missing_keys:
            failures.append(
                f"ratio {key}: baseline spec is missing "
                f"key(s) {', '.join(repr(k) for k in missing_keys)} "
                f"(malformed BENCH_hotpath.json)"
            )
            continue
        missing_ops = [b for b in (spec["num"], spec["den"]) if b not in results]
        if missing_ops:
            failures.append(
                f"ratio {key}: operand benchmark(s) missing from results: "
                + ", ".join(missing_ops)
            )
            continue
        num = results[spec["num"]]
        den = results[spec["den"]]
        if den == 0:
            failures.append(
                f"ratio {key}: denominator {spec['den']} measured 0 items/s"
            )
            continue
        ratio = num / den
        minimum = float(spec["min"])
        status = "OK" if ratio >= minimum else "FAIL"
        print(
            f"[{status}] {key}: {ratio:.2f}x "
            f"({spec['num']} / {spec['den']}, minimum {minimum:.2f}x)"
        )
        if ratio < minimum:
            failures.append(f"ratio {key}: {ratio:.2f}x < required {minimum:.2f}x")

    return failures


def write_baseline(path, results, context, old):
    """Refreshes recorded throughputs, keeping gate config (ratio specs,
    max_drop_fraction) from `old` and stamping the runner's
    toolchain context so the record is attributable to a machine/compiler."""
    gated = old.get("benchmarks", {}) if old else {}
    names = list(gated) or sorted(results)
    benchmarks = {}
    for name in names:
        if name not in results:
            continue
        benchmarks[name] = {"items_per_second": results[name]}
    toolchain = {
        key[len("toolchain_"):]: value
        for key, value in sorted(context.items())
        if key.startswith("toolchain_")
    }
    doc = {
        "_comment": (
            "Perf-gate baselines for bench/micro_operators (items/second). "
            "Regenerate on the reference machine with "
            "tools/check_perf.py --results r.json --write-baseline "
            "BENCH_hotpath.json. CI fails when a gated benchmark drops more "
            "than max_drop_fraction below its record, or a speedup ratio "
            "falls under its minimum."
        ),
        "max_drop_fraction": old.get("max_drop_fraction", 0.25) if old else 0.25,
        "toolchain": toolchain,
        "benchmarks": benchmarks,
        "ratios": old.get("ratios", {}) if old else {},
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"wrote {path} with {len(doc['benchmarks'])} baselines")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results", required=True,
                        help="google-benchmark JSON output")
    parser.add_argument("--baseline", default="BENCH_hotpath.json")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="refresh recorded throughputs instead of checking")
    args = parser.parse_args()

    results, context = load_results(args.results)
    if not results:
        print("no benchmark results found", file=sys.stderr)
        return 2

    old = None
    try:
        with open(args.baseline) as f:
            old = json.load(f)
    except FileNotFoundError:
        if not args.write_baseline:
            print(f"baseline {args.baseline} not found", file=sys.stderr)
            return 2

    if args.write_baseline:
        write_baseline(args.write_baseline, results, context, old)
        return 0

    failures = check(old, results)
    if failures:
        print("\nPerf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        print(
            "\nIf the regression is intentional, label the PR "
            "`perf-override` and refresh BENCH_hotpath.json.",
            file=sys.stderr,
        )
        return 1
    print("\nPerf gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
