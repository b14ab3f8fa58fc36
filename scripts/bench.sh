#!/usr/bin/env bash
# bench.sh — gate and benchmark the transport hot path.
#
# Runs go vet and the transport race tests, then the transport
# microbenchmarks, and rewrites BENCH_transport.json with the current
# numbers next to the frozen seed baseline (the gob-framed transport at
# commit b60f3ab, measured with the same bench_test.go), so every PR can see
# the perf trajectory at a glance. Also rewrites BENCH_async.json comparing
# sequential-sync, pipelined-async, batched-async and one-way echo
# throughput (the PR-2 asynchronous invocation pipeline figure), and
# BENCH_routing.json comparing routing strategies (p2c vs round-robin tail
# latency under a skewed pool; hot-key affinity vs spray throughput — the
# PR-3 epoch-routing figure, from internal/core/routing_bench_test.go), and
# BENCH_overload.json comparing goodput at ~10x capacity with the admission
# controller against the old unguarded goroutine-per-request server (the
# PR-4 deadline/admission-control figure).
#
# Usage: scripts/bench.sh            (or: make bench)
#        BENCHTIME=5s scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

go vet ./...
go test -race -timeout 300s ./internal/transport/...

# BenchmarkOverload* are fixed-duration saturation experiments, run
# separately below with -benchtime 1x; keep them out of the timed sweep.
OUT=$(go test -run '^$' -bench '^Benchmark(Call|OneWay|RoundTrip)' -benchmem -benchtime "${BENCHTIME:-2s}" ./internal/transport/)
printf '%s\n' "$OUT"

# The seed baseline is frozen: it is the reference every later run is
# compared against, not something a rerun should overwrite.
IFS= read -r -d '' SEED_BASELINE <<'EOF' || true
    "description": "seed transport (per-frame gob codec, unbuffered writes) at commit b60f3ab, same bench_test.go, same machine class",
    "BenchmarkCall": {"ns_per_op": 59063, "mb_per_s": 1.08, "bytes_per_op": 25696, "allocs_per_op": 524},
    "BenchmarkCall4KB": {"ns_per_op": 67681, "mb_per_s": 60.52, "bytes_per_op": 70864, "allocs_per_op": 526},
    "BenchmarkCall256KB": {"ns_per_op": 605175, "mb_per_s": 433.17, "bytes_per_op": 2710784, "allocs_per_op": 528},
    "BenchmarkCallConcurrent8": {"ns_per_op": 56244, "mb_per_s": 1.14, "bytes_per_op": 25688, "allocs_per_op": 524},
    "BenchmarkCallConcurrent64": {"ns_per_op": 62723, "mb_per_s": 1.02, "bytes_per_op": 25688, "allocs_per_op": 524}
EOF

{
  echo '{'
  echo "  \"generated\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
  echo '  "package": "elasticrmi/internal/transport",'
  echo '  "baseline_seed": {'
  printf '%s\n' "$SEED_BASELINE"
  echo '  },'
  echo '  "current": {'
  printf '%s\n' "$OUT" | awk '
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      ns = "null"; mbs = "null"; bop = "null"; aop = "null"
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns  = $(i-1)
        if ($i == "MB/s")      mbs = $(i-1)
        if ($i == "B/op")      bop = $(i-1)
        if ($i == "allocs/op") aop = $(i-1)
      }
      lines[n++] = sprintf("    \"%s\": {\"ns_per_op\": %s, \"mb_per_s\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, ns, mbs, bop, aop)
    }
    END { for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n-1 ? "," : "") }
  '
  echo '  }'
  echo '}'
} > BENCH_transport.json
echo "wrote BENCH_transport.json"

# BENCH_codec.json: the generated-payload-codec figure. Round-trip
# Encode+Decode of the same []byte-carrying struct through the generated
# binary codec vs the gob fallback at 64B/4KB/256KB (the speedup the
# //ermi:codec annotation buys), plus the 256KB echo with and without the
# scatter-gather write path (what writev-style vectored writes buy on large
# frames — both rows come from the transport sweep above).
CODEC=$(go test -run '^$' -bench '^Benchmark(Codec|Gob)' -benchmem -benchtime "${BENCHTIME:-2s}" ./internal/gen/gentest/)
printf '%s\n' "$CODEC"

{ printf '%s\n' "$CODEC"; printf '%s\n' "$OUT"; } | awk -v gen="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op")     ns[name]  = $(i-1)
      if ($i == "MB/s")      mbs[name] = $(i-1)
      if ($i == "B/op")      bop[name] = $(i-1)
      if ($i == "allocs/op") aop[name] = $(i-1)
    }
  }
  END {
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", gen
    printf "  \"workload\": \"Encode+Decode round trip of a []byte-carrying struct (internal/gen/gentest/codec_bench_test.go); echo rows from internal/transport/bench_test.go\",\n"
    printf "  \"note\": \"codec = generated //ermi:codec binary marshaller into arena slabs; gob = the fallback encoding; no_sg = scatter-gather write path disabled on the 256KB echo\",\n"
    n = split("64B 4KB 256KB", sizes, " ")
    printf "  \"roundtrip\": {\n"
    for (i = 1; i <= n; i++) {
      s = sizes[i]; c = "BenchmarkCodec" s; g = "BenchmarkGob" s
      printf "    \"%s\": {\"codec\": {\"ns_per_op\": %s, \"mb_per_s\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}, \"gob\": {\"ns_per_op\": %s, \"mb_per_s\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}, \"speedup_x\": %.2f}%s\n", \
        s, ns[c], mbs[c], bop[c], aop[c], ns[g], mbs[g], bop[g], aop[g], ns[g] / ns[c], (i < n ? "," : "")
    }
    printf "  },\n"
    sg = "BenchmarkCall256KB"; nosg = "BenchmarkCall256KBNoSG"
    printf "  \"scatter_gather_256kb_echo\": {\n"
    printf "    \"sg_on\": {\"ns_per_op\": %s, \"mb_per_s\": %s},\n", ns[sg], mbs[sg]
    printf "    \"sg_off\": {\"ns_per_op\": %s, \"mb_per_s\": %s},\n", ns[nosg], mbs[nosg]
    printf "    \"throughput_x\": %.2f\n", mbs[sg] / mbs[nosg]
    printf "  }\n"
    printf "}\n"
  }
' > BENCH_codec.json
echo "wrote BENCH_codec.json"
cat BENCH_codec.json

# BENCH_async.json: the asynchronous invocation pipeline figure — the same
# 64B echo workload driven sequentially-sync, as a pipelined window of
# futures, through the adaptive batcher, and fire-and-forget. speedup_x is
# relative to the sequential-sync baseline of this same run.
printf '%s\n' "$OUT" | awk -v gen="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) if ($i == "ns/op") ns[name] = $(i-1)
  }
  END {
    base = ns["BenchmarkCall"]
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", gen
    printf "  \"workload\": \"64B echo over one connection (internal/transport/bench_test.go)\",\n"
    printf "  \"note\": \"pipelined = window of 64 Client.Go futures; batched = same window under the adaptive batcher (BatchOptions); oneway = fire-and-forget submission\",\n"
    n = split("BenchmarkCall BenchmarkCallPipelined64 BenchmarkCallBatched64 BenchmarkCallBatched256 BenchmarkOneWay", keys, " ")
    split("sync_sequential async_pipelined_64 async_batched_64 async_batched_256 oneway", labels, " ")
    first = 1
    for (i = 1; i <= n; i++) {
      k = keys[i]
      if (!(k in ns)) continue
      if (!first) printf ",\n"
      first = 0
      printf "  \"%s\": {\"ns_per_op\": %s, \"speedup_x\": %.2f}", labels[i], ns[k], base / ns[k]
    }
    printf "\n}\n"
  }
' > BENCH_async.json
echo "wrote BENCH_async.json"
cat BENCH_async.json

# BENCH_routing.json: the epoch-routing strategy figure. A fixed iteration
# count (not a duration) keeps the percentile sample size stable across
# machines; the workloads sleep rather than spin, so wall-clock per run is
# a few seconds even single-core.
ROUT=$(go test -run '^$' -bench 'BenchmarkRouting' -benchtime "${ROUTING_BENCHTIME:-600x}" ./internal/core/)
printf '%s\n' "$ROUT"

printf '%s\n' "$ROUT" | awk -v gen="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op")  ns[name]  = $(i-1)
      if ($i == "p50-ns") p50[name] = $(i-1)
      if ($i == "p99-ns") p99[name] = $(i-1)
      if ($i == "hit-%")  hit[name] = $(i-1)
    }
  }
  END {
    rr = "BenchmarkRoutingSkewedRR"; pc = "BenchmarkRoutingSkewedP2C"
    sp = "BenchmarkRoutingHotKeySpray"; af = "BenchmarkRoutingHotKeyAffinity"
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", gen
    printf "  \"skewed_pool\": {\n"
    printf "    \"workload\": \"4 single-threaded members, one with 10x service time, 8 concurrent callers (internal/core/routing_bench_test.go)\",\n"
    printf "    \"round_robin\": {\"ns_per_op\": %s, \"p50_ns\": %s, \"p99_ns\": %s},\n", ns[rr], p50[rr], p99[rr]
    printf "    \"p2c\": {\"ns_per_op\": %s, \"p50_ns\": %s, \"p99_ns\": %s},\n", ns[pc], p50[pc], p99[pc]
    printf "    \"p99_speedup_x\": %.2f\n", p99[rr] / p99[pc]
    printf "  },\n"
    printf "  \"hot_key\": {\n"
    printf "    \"workload\": \"32-key working set over 4 members with 16-entry member-local caches, miss costs 10x a hit\",\n"
    printf "    \"spray\": {\"ns_per_op\": %s, \"cache_hit_pct\": %s},\n", ns[sp], hit[sp]
    printf "    \"affinity\": {\"ns_per_op\": %s, \"cache_hit_pct\": %s},\n", ns[af], hit[af]
    printf "    \"throughput_x\": %.2f\n", ns[sp] / ns[af]
    printf "  }\n"
    printf "}\n"
  }
' > BENCH_routing.json
echo "wrote BENCH_routing.json"
cat BENCH_routing.json

# BENCH_overload.json: the admission-control saturation figure. Each
# benchmark is one fixed-duration experiment (hence -benchtime 1x): a
# CPU-bound echo offered at ~30x per-core overcommit under a tight caller
# budget. goodput counts replies inside the budget; shed counts admission
# refusals (cheap, never executed); late counts replies the caller had
# already abandoned — the congestion-collapse failure mode the unguarded
# server exhibits.
OVER=$(go test -run '^$' -bench '^BenchmarkOverload' -benchtime 1x ./internal/transport/)
printf '%s\n' "$OVER"

printf '%s\n' "$OVER" | awk -v gen="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) {
      if ($i == "goodput-ops/s") good[name] = $(i-1)
      if ($i == "shed-ops/s")    shed[name] = $(i-1)
      if ($i == "late-ops/s")    late[name] = $(i-1)
    }
  }
  END {
    g = "BenchmarkOverloadGuarded"; u = "BenchmarkOverloadUnguarded"
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", gen
    printf "  \"workload\": \"1ms CPU-bound echo, ~30x per-core closed-loop overcommit, 8ms caller budget (internal/transport/overload_bench_test.go)\",\n"
    printf "  \"note\": \"goodput = replies within budget; shed = admission refusals (handler never ran); late = replies after the caller gave up\",\n"
    printf "  \"guarded\": {\"goodput_ops_s\": %s, \"shed_ops_s\": %s, \"late_ops_s\": %s},\n", good[g], shed[g], late[g]
    printf "  \"unguarded\": {\"goodput_ops_s\": %s, \"shed_ops_s\": %s, \"late_ops_s\": %s},\n", good[u], shed[u], late[u]
    if (good[u] + 0 > 0) printf "  \"goodput_ratio_guarded_over_unguarded\": %.2f\n", good[g] / good[u]
    else                 printf "  \"goodput_ratio_guarded_over_unguarded\": \"inf (unguarded goodput collapsed to 0)\"\n"
    printf "}\n"
  }
' > BENCH_overload.json
echo "wrote BENCH_overload.json"
cat BENCH_overload.json

# BENCH_kvstore.json: the replicated shared-state figure. R=1 vs R=2
# put/get/lock cost on the same 3-node cluster (the R=2 spread is the
# synchronous backup forward on every write — the price of surviving a
# node loss), plus the failover experiment: one node killed under a
# streaming writer, reporting the longest gap between two consecutive
# acknowledged writes (the availability blip) and the number of failed
# operations (target 0 — the router retries through the failover).
# The durability rows compare the same parallel put stream against the
# in-memory store, a WAL fsyncing every write, and a group-committed WAL;
# fsync_cost_recovered_pct is how much of the naive-WAL overhead group
# commit wins back. The sessions rows are the client-cache figure: the same
# 16-client read stream through lease-backed session caches vs plain
# per-call clients, and the invalidation storm — 16 caching subscribers of
# one hot key while a writer updates it, reporting the writer's ack latency
# (every Put must push 16 invalidations and collect the acks before its own
# ack; fixed iteration count for a stable percentile sample).
KV=$(go test -run '^$' -bench '^BenchmarkClusterR[12](Put|Get|Lock)$' -benchtime "${KV_BENCHTIME:-1s}" ./internal/kvstore/)
printf '%s\n' "$KV"
DUR=$(go test -run '^$' -bench '^BenchmarkStorePut(NoWAL|WALSync|WALGroup)$' -benchtime "${KV_BENCHTIME:-1s}" ./internal/kvstore/)
printf '%s\n' "$DUR"
SESS=$(go test -run '^$' -bench '^BenchmarkSessionGet(Cached|Uncached)$' -benchtime "${KV_BENCHTIME:-1s}" ./internal/kvstore/)
printf '%s\n' "$SESS"
STORM=$(go test -run '^$' -bench '^BenchmarkSessionInvalidationStorm$' -benchtime "${STORM_BENCHTIME:-200x}" ./internal/kvstore/)
printf '%s\n' "$STORM"
BLIP=$(go test -run '^$' -bench '^BenchmarkClusterFailoverBlip$' -benchtime 1x ./internal/kvstore/)
printf '%s\n' "$BLIP"
# The durable R=2 session put (group-committed WALs, a lease held on the
# key) is the write path a pool's shared state pays; six runs, median kept.
R2DUR=$(go test -run '^$' -bench '^BenchmarkClusterR2PutDurable$' -benchtime "${R2DUR_BENCHTIME:-2000x}" -count 6 ./internal/kvstore/)
printf '%s\n' "$R2DUR"

{ printf '%s\n' "$KV"; printf '%s\n' "$DUR"; printf '%s\n' "$SESS"; printf '%s\n' "$STORM"; printf '%s\n' "$BLIP"; printf '%s\n' "$R2DUR"; } | awk -v gen="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
  function median(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
    return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
  }
  /^BenchmarkClusterR2PutDurable/ {
    nd++
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op")  dns[nd] = $(i-1)
      if ($i == "p50-us") dp50[nd] = $(i-1)
    }
    next
  }
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op")      ns[name] = $(i-1)
      if ($i == "p50-us")     p50[name] = $(i-1)
      if ($i == "p99-us")     p99[name] = $(i-1)
      if ($i == "blip-ms")    blip     = $(i-1)
      if ($i == "failed-ops") failedop = $(i-1)
      if ($i == "acked-ops")  ackedop  = $(i-1)
    }
  }
  END {
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", gen
    printf "  \"workload\": \"3-node store cluster over loopback TCP, 1024-key Put/Get stream and 64-name lock churn (internal/kvstore/bench_test.go)\",\n"
    printf "  \"note\": \"R=2 synchronously forwards every write to one backup before the ack; blip = longest gap between consecutive acked writes while one node is killed mid-stream\",\n"
    printf "  \"r1\": {\"put_ns\": %s, \"get_ns\": %s, \"lock_ns\": %s},\n", \
      ns["BenchmarkClusterR1Put"], ns["BenchmarkClusterR1Get"], ns["BenchmarkClusterR1Lock"]
    printf "  \"r2\": {\"put_ns\": %s, \"get_ns\": %s, \"lock_ns\": %s},\n", \
      ns["BenchmarkClusterR2Put"], ns["BenchmarkClusterR2Get"], ns["BenchmarkClusterR2Lock"]
    printf "  \"replication_cost_x\": {\"put\": %.2f, \"get\": %.2f, \"lock\": %.2f},\n", \
      ns["BenchmarkClusterR2Put"] / ns["BenchmarkClusterR1Put"], \
      ns["BenchmarkClusterR2Get"] / ns["BenchmarkClusterR1Get"], \
      ns["BenchmarkClusterR2Lock"] / ns["BenchmarkClusterR1Lock"]
    nw = ns["BenchmarkStorePutNoWAL"]; ws = ns["BenchmarkStorePutWALSync"]; wg = ns["BenchmarkStorePutWALGroup"]
    printf "  \"durability\": {\n"
    printf "    \"workload\": \"parallel 1024-key put stream on one store engine (BenchmarkStorePut{NoWAL,WALSync,WALGroup})\",\n"
    printf "    \"no_wal_put_ns\": %s,\n", nw
    printf "    \"wal_fsync_per_write_put_ns\": %s,\n", ws
    printf "    \"wal_group_commit_put_ns\": %s,\n", wg
    printf "    \"fsync_cost_recovered_pct\": %.1f\n", (ws - wg) * 100.0 / (ws - nw)
    printf "  },\n"
    ca = ns["BenchmarkSessionGetCached"]; un = ns["BenchmarkSessionGetUncached"]; st = "BenchmarkSessionInvalidationStorm"
    printf "  \"sessions\": {\n"
    printf "    \"workload\": \"16 clients reading a 64-key-per-client working set through lease-backed session caches vs plain per-call clients; storm = 16 caching subscribers of one hot key, writer latency includes the invalidate-before-ack round\",\n"
    printf "    \"cached_get\": {\"ns_per_op\": %s, \"ops_per_s\": %.0f},\n", ca, 1e9 / ca
    printf "    \"uncached_get\": {\"ns_per_op\": %s, \"ops_per_s\": %.0f},\n", un, 1e9 / un
    printf "    \"cached_speedup_x\": %.1f,\n", un / ca
    printf "    \"invalidation_storm_put\": {\"ns_per_op\": %s, \"p50_us\": %s, \"p99_us\": %s}\n", ns[st], p50[st], p99[st]
    printf "  },\n"
    printf "  \"failover\": {\"blip_ms\": %s, \"failed_ops\": %s, \"acked_ops\": %s},\n", blip, failedop, ackedop
    printf "  \"r2_put_durable\": {\"workload\": \"sequential put through a ClusterSession holding the key lease, 3-node R=2 cluster on group-committed WALs (BenchmarkClusterR2PutDurable)\", \"runs\": %d, \"median_ns_per_op\": %.0f, \"median_p50_us\": %.0f}\n", nd, median(dns, nd), median(dp50, nd)
    printf "}\n"
  }
' > BENCH_kvstore.json
echo "wrote BENCH_kvstore.json"
cat BENCH_kvstore.json
