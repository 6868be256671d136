#!/bin/bash
# Runs every bench binary in sequence (fast ones first), mirroring
# `for b in build/bench/*; do $b; done` but ordered for early signal.
#
#   --quick   smoke profile: the fast benches only, with reduced op counts —
#             seconds instead of minutes, for CI and pre-commit sanity.
set -u
cd /root/repo

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "unknown flag: $arg (supported: --quick)" >&2; exit 2 ;;
  esac
done

if [ "$QUICK" -eq 1 ]; then
  BENCHES=(bench_table2_params bench_fig2_rns bench_serving \
           bench_micro_primitives)
  # Snapshot the previous run's numbers before they are overwritten: the
  # drift reports below compare against them.
  BASELINE_JSON=""
  if [ -f BENCH_micro.json ]; then
    BASELINE_JSON=$(mktemp /tmp/ppcnn-bench-baseline.XXXXXX.json)
    cp BENCH_micro.json "$BASELINE_JSON"
  fi
  SERVING_BASELINE_JSON=""
  if [ -f BENCH_serving.json ]; then
    SERVING_BASELINE_JSON=$(mktemp /tmp/ppcnn-serving-baseline.XXXXXX.json)
    cp BENCH_serving.json "$SERVING_BASELINE_JSON"
  fi
else
  BENCHES=(bench_table2_params bench_sec3c_errors bench_fig2_rns \
           bench_fig34_arch bench_fig1_pipeline bench_serving \
           bench_table3_cnn1 bench_table4_cnn1_moduli \
           bench_fig5_parallel bench_table5_cnn2 bench_table6_cnn2_moduli \
           bench_table1_sota bench_micro_primitives)
fi

quick_args() {
  # Per-bench reduced workloads for --quick.
  case "$1" in
    bench_fig2_rns) echo "--ops=20000 --reps=5" ;;
    bench_serving)
      # Small load; --json drops BENCH_serving.json at the repo root for the
      # amortization gate and the drift report below, --net adds the loopback
      # TCP sweep and BENCH_net.json for the socket-overhead/metrics gate.
      echo "--images=16 --json --net" ;;
    bench_micro_primitives)
      # RNS op rows plus the word-level NTT/dyadic kernel rows; --json drops
      # BENCH_micro.json at the repo root (we cd there above) for CI diffing.
      echo "--benchmark_min_time=0.05 --benchmark_filter=rns|Ntt|Dyadic|Shoup|Bsgs --json" ;;
    *) echo "" ;;
  esac
}

for b in "${BENCHES[@]}"; do
  echo "==================================================================="
  echo "=== $b"
  echo "==================================================================="
  if [ "$QUICK" -eq 1 ]; then
    # shellcheck disable=SC2046
    ./build/bench/$b $(quick_args "$b") 2>&1
  else
    ./build/bench/$b 2>&1
  fi
  echo
done

if [ "$QUICK" -eq 1 ]; then
  # Guard-overhead gate: with fault injection compiled in but disarmed, the
  # guarded eval path (input validation + noise-budget projection) must add
  # <2% over the unguarded path. The assertion is an in-process interleaved
  # A/B (tests/core/guard_overhead_test.cpp, min over repetitions) because
  # cross-run wall-clock diffs on a shared 4-vCPU VM swing by ~20% from
  # hypervisor steal alone (perfbench/README.md, "Host noise"); tune with
  # OVERHEAD_TOLERANCE_PCT (default 2 here).
  echo "==================================================================="
  echo "=== guard overhead gate (faults compiled in, disarmed)"
  echo "==================================================================="
  OVERHEAD_TOLERANCE_PCT="${OVERHEAD_TOLERANCE_PCT:-2}" \
    ./build/tests/test_robustness --gtest_filter='GuardOverhead.*' \
    --gtest_brief=1 2>&1 || { echo "guard overhead gate FAILED" >&2; exit 1; }
  echo "guard overhead gate OK"
  echo

  # Serving amortization gate: a batch-8 slot-packed evaluation classifies 8
  # images for roughly the cost of one, so server throughput at batch 8 must
  # be at least 3x batch 1 — far below the ~8x ideal, so host noise cannot
  # trip it, but far above anything a broken batching path could produce.
  echo "==================================================================="
  echo "=== serving amortization gate (BENCH_serving.json)"
  echo "==================================================================="
  python3 - BENCH_serving.json <<'EOF' || { echo "serving gate FAILED" >&2; exit 1; }
import json, sys
d = json.load(open(sys.argv[1]))
speedup = d["speedup_batch8_vs_batch1"]
by_batch = {b["name"]: b["images_per_second"] for b in d["benchmarks"]}
print(f"batch=8 throughput is {speedup:.2f}x batch=1 "
      f"({by_batch.get('serving/batch:8', 0):.2f} vs "
      f"{by_batch.get('serving/batch:1', 0):.2f} img/s)")
assert speedup >= 3.0, f"slot-packing amortization collapsed: {speedup:.2f}x < 3x"
EOF
  echo "serving gate OK"
  echo

  # Network serving gate: the framed TCP loopback path must cost <15% in
  # batch-8 throughput against the identical in-process point measured
  # back-to-back in the same bench run (frame codecs + checksums + loopback
  # copies are noise next to the HE evaluation — anything above that bound
  # means a serialization or batching-alignment regression in the net
  # stack). The same JSON carries the /metrics payload scraped over real
  # HTTP; validate the Prometheus exposition line-by-line.
  echo "==================================================================="
  echo "=== network serving gate (BENCH_net.json)"
  echo "==================================================================="
  python3 - BENCH_net.json <<'EOF' || { echo "network serving gate FAILED" >&2; exit 1; }
import json, math, re, sys
d = json.load(open(sys.argv[1]))
overhead = d["socket_overhead_pct"]
rows = {b["name"]: b["images_per_second"] for b in d["benchmarks"]}
print(f"socket overhead at batch 8: {overhead:+.1f}% "
      f"({rows.get('net/batch:8', 0):.2f} img/s over TCP vs "
      f"{rows.get('inproc/batch:8', 0):.2f} in-process)")
assert overhead < 15.0, f"socket overhead {overhead:.1f}% >= 15%"

text = d["metrics_payload"]
assert text, "scraped /metrics payload is empty"
sample_re = re.compile(
    r'^(pphe_[a-z0-9_]+)(\{[a-z0-9_]+="[^"]*"(,[a-z0-9_]+="[^"]*")*\})? '
    r'(-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|nan|[+-]?inf)$')
typed, samples = {}, {}
for line in text.splitlines():
    if not line.strip():
        continue
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split(" ", 3)
        assert kind in ("counter", "gauge", "summary"), f"bad TYPE: {line}"
        typed[name] = kind
        continue
    if line.startswith("#"):
        continue
    m = sample_re.match(line)
    assert m, f"malformed sample line: {line!r}"
    value = float(m.group(4))
    assert math.isfinite(value) and value >= 0.0, f"bad value: {line!r}"
    samples.setdefault(m.group(1), 0)
    samples[m.group(1)] += 1
for name in typed:
    assert any(s == name or s.startswith(name + "_") for s in samples), \
        f"TYPE-declared family {name} has no samples"
required = ["pphe_requests_submitted_total", "pphe_requests_completed_total",
            "pphe_latency_seconds", "pphe_net_handshakes_total",
            "pphe_net_connections_total", "pphe_net_bytes_total",
            "pphe_key_bytes_pinned", "pphe_key_quota_bytes",
            "pphe_queue_capacity", "pphe_backend_ops_total"]
missing = [n for n in required if n not in samples]
assert not missing, f"required series missing from /metrics: {missing}"
print(f"/metrics exposition OK: {sum(samples.values())} samples across "
      f"{len(samples)} series, {len(typed)} TYPE-declared families")
EOF
  echo "network serving gate OK"
  echo

  # Serving drift report (informational, same noise caveat as the kernel
  # rows): per-image real_time vs the previous quick run.
  if [ -n "$SERVING_BASELINE_JSON" ]; then
    python3 - "$SERVING_BASELINE_JSON" BENCH_serving.json <<'EOF'
import json, math, sys
base = {b["name"]: b["real_time"]
        for b in json.load(open(sys.argv[1]))["benchmarks"]
        if b.get("run_type") == "iteration"}
cur = {b["name"]: b["real_time"]
       for b in json.load(open(sys.argv[2]))["benchmarks"]
       if b.get("run_type") == "iteration"}
common = sorted(set(base) & set(cur))
if common:
    ratios = {n: cur[n] / base[n] for n in common}
    geomean = math.exp(sum(math.log(r) for r in ratios.values()) / len(ratios))
    worst = max(common, key=lambda n: ratios[n])
    print(f"serving drift vs previous run: geomean {100 * (geomean - 1):+.2f}% "
          f"over {len(common)} rows "
          f"(worst row {worst}: {100 * (ratios[worst] - 1):+.2f}%)")
EOF
    rm -f "$SERVING_BASELINE_JSON"
  fi
  echo

  # Kernel-row drift report (informational): the microbench kernels contain
  # no guard hooks, so any cross-run delta here is host noise or a real
  # kernel regression worth eyeballing — but it is not gated, for the same
  # noise reason as above. Tolerant of older/newer BENCH_micro.json schemas
  # (missing keys, absent rows), and when the two runs dispatched different
  # ISAs it compares only the ISA-pinned rows so the report stays
  # like-for-like.
  if [ -n "$BASELINE_JSON" ]; then
    python3 - "$BASELINE_JSON" BENCH_micro.json <<'EOF'
import json, math, sys

def load(path):
    # Previous runs may predate (or postdate) this schema: missing context,
    # missing run_type, renamed fields. Skip what we cannot read instead of
    # erroring out of the whole report.
    try:
        with open(path) as f:
            d = json.load(f)
    except (OSError, ValueError):
        return {}, "unknown"
    isa = d.get("context", {}).get("isa_dispatched", "unknown")
    rows = {}
    for b in d.get("benchmarks", []):
        name, rt = b.get("name"), b.get("real_time")
        if name is None or rt is None:
            continue
        if b.get("run_type", "iteration") != "iteration":
            continue
        rows[name] = rt
    return rows, isa

base, base_isa = load(sys.argv[1])
cur, cur_isa = load(sys.argv[2])
common = sorted(set(base) & set(cur))
if base_isa != cur_isa:
    pinned = tuple(f"_{i}/" for i in ("scalar", "avx2", "avx512"))
    common = [n for n in common if any(t in n for t in pinned)]
    print(f"note: dispatched ISA changed ({base_isa} -> {cur_isa}); "
          f"comparing only the ISA-pinned kernel rows")
if common:
    ratios = {n: cur[n] / base[n] for n in common}
    geomean = math.exp(sum(math.log(r) for r in ratios.values()) / len(ratios))
    worst = max(common, key=lambda n: ratios[n])
    print(f"kernel drift vs previous run: geomean {100 * (geomean - 1):+.2f}% "
          f"over {len(common)} rows "
          f"(worst row {worst}: {100 * (ratios[worst] - 1):+.2f}%)")
else:
    print("kernel drift: no comparable rows (first run or schema change)")
EOF
    rm -f "$BASELINE_JSON"
  fi
  echo

  # SIMD NTT speedup gate: on hosts where the dispatcher picked a SIMD ISA,
  # the dispatched forward+inverse N=2^14 row must be at least 1.5x faster
  # than the scalar-pinned row from the SAME run (same fixture, same host
  # load). Hosts without SIMD kernels skip — a missing CPU feature is not a
  # regression.
  echo "==================================================================="
  echo "=== SIMD NTT speedup gate (BENCH_micro.json)"
  echo "==================================================================="
  python3 - BENCH_micro.json <<'EOF' || { echo "SIMD NTT gate FAILED" >&2; exit 1; }
import json, sys
try:
    with open(sys.argv[1]) as f:
        d = json.load(f)
except (OSError, ValueError) as e:
    print(f"SIMD NTT gate skipped: cannot read BENCH_micro.json ({e})")
    raise SystemExit(0)
isa = d.get("context", {}).get("isa_dispatched", "unknown")
# cpu_time, not real_time: on a shared 4-vCPU VM the hypervisor steals vCPU
# time under load (perfbench/README.md, "Host noise") and real_time charges
# that to whichever row was running.
rows = {b.get("name"): (b.get("cpu_time") or b.get("real_time"))
        for b in d.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"}
if isa in ("scalar", "unknown"):
    print(f"SIMD NTT gate skipped: dispatched ISA is '{isa}' "
          f"(no SIMD kernels on this host)")
    raise SystemExit(0)
scalar = rows.get("BM_NttForwardInverse_scalar/16384")
# The dispatched row and the ISA-pinned row time the SAME kernel; host
# noise only ever inflates one, so the faster measurement is the truer one.
simd_rows = [rows.get("BM_NttForwardInverse/16384"),
             rows.get(f"BM_NttForwardInverse_{isa}/16384")]
simd_rows = [t for t in simd_rows if t]
if not scalar or not simd_rows:
    print("SIMD NTT gate skipped: N=16384 rows missing from BENCH_micro.json")
    raise SystemExit(0)
speedup = scalar / min(simd_rows)
print(f"{isa} NTT forward+inverse at N=16384: {speedup:.2f}x scalar")
assert speedup >= 1.5, f"SIMD NTT speedup {speedup:.2f}x < 1.5x scalar"
EOF
  echo "SIMD NTT gate OK"
  echo

  # Hoisted BSGS gate: the double-hoisted dense-layer path (one digit
  # decomposition per unique operand, one mod-down per giant group) must be
  # at least 1.5x faster than the no-hoist baseline, the same model on
  # UnhoistedRnsBackend (legacy sqrt split, one key switch per giant
  # rotation), measured in the SAME run (same host load). Skips when the
  # rows are absent (older binary, filtered run) — schema-tolerant like the
  # drift report above.
  echo "==================================================================="
  echo "=== hoisted BSGS speedup gate (BENCH_micro.json)"
  echo "==================================================================="
  python3 - BENCH_micro.json <<'EOF' || { echo "hoisted BSGS gate FAILED" >&2; exit 1; }
import json, sys
try:
    with open(sys.argv[1]) as f:
        d = json.load(f)
except (OSError, ValueError) as e:
    print(f"hoisted BSGS gate skipped: cannot read BENCH_micro.json ({e})")
    raise SystemExit(0)
# cpu_time, not real_time: same hypervisor-steal caveat as the NTT gate.
# The rows are repeated (".../repeats:5"); host noise only ever inflates a
# sample, so each side is its fastest repetition.
def fastest(prefix):
    times = [b.get("cpu_time") or b.get("real_time")
             for b in d.get("benchmarks", [])
             if b.get("run_type", "iteration") == "iteration"
             and b.get("name", "").split("/repeats:")[0] == prefix]
    times = [t for t in times if t]
    return min(times) if times else None
fused = fastest("BM_DenseBsgsLayer/fused")
unfused = fastest("BM_DenseBsgsLayer/unfused")
if not fused or not unfused:
    print("hoisted BSGS gate skipped: dense-layer rows missing from "
          "BENCH_micro.json")
    raise SystemExit(0)
speedup = unfused / fused
print(f"dense BSGS layer: hoisted path is {speedup:.2f}x the no-hoist baseline")
assert speedup >= 1.5, f"hoisted BSGS speedup {speedup:.2f}x < 1.5x no-hoist baseline"
EOF
  echo "hoisted BSGS gate OK"
  echo

  # Trace smoke: one CNN1-HE-RNS inference with --trace-out, then verify the
  # emitted Chrome trace JSON parses and carries per-layer level/scale spans.
  echo "==================================================================="
  echo "=== trace smoke (quickstart --trace-out)"
  echo "==================================================================="
  TRACE_JSON=$(mktemp /tmp/ppcnn-trace.XXXXXX.json)
  trap 'rm -f "$TRACE_JSON"' EXIT
  ./build/examples/quickstart --train-size=300 --epochs=1 \
      --trace-out="$TRACE_JSON" 2>&1 || { echo "trace smoke: quickstart failed" >&2; exit 1; }
  python3 - "$TRACE_JSON" <<'EOF' || exit 1
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
events = d["traceEvents"]
assert events, "trace has no events"
layers = [e for e in events if e.get("cat") == "layer"]
assert layers, "trace has no per-layer spans"
for e in layers:
    args = e.get("args", {})
    assert "level" in args and "scale_log2" in args, f"layer span missing level/scale: {e}"
he = [e for e in events if e.get("cat") == "he"]
assert he, "trace has no homomorphic-op spans"
print(f"trace smoke OK: {len(events)} events, {len(layers)} layer spans, "
      f"{len(he)} he-op spans, dropped={d['otherData']['dropped']}")
EOF
  echo
fi
