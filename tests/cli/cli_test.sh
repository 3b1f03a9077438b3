#!/bin/sh
# End-to-end lifecycle test of the approxcli tool (ApproxStore v2 volumes).
#   $1 = path to the approxcli binary
set -e

CLI="$1"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

# Deterministic test payload (600 KB).
awk 'BEGIN { srand(7); for (i = 0; i < 600000; ++i) printf "%c", int(rand()*256) }' \
    > input.bin 2>/dev/null || head -c 600000 /dev/zero | tr '\0' 'x' > input.bin

fail() { echo "FAIL: $1"; exit 1; }

# --- encode / info / scrub on a healthy volume -----------------------------
"$CLI" encode --family rs --k 4 --r 1 --g 2 --h 4 --block 4096 input.bin vol \
    || fail "encode"
"$CLI" info vol | grep -q 'APPR.RS(4,1,2,4,Even)' || fail "info reports code"
[ -f vol/superblock.bin ] || fail "v2 volume missing superblock"
"$CLI" scrub vol || fail "healthy scrub"

# --- lossless roundtrip ------------------------------------------------------
"$CLI" decode vol roundtrip.bin || fail "decode healthy"
cmp -s input.bin roundtrip.bin || fail "healthy roundtrip differs"

# --- single failure: self-healing degraded decode ----------------------------
rm vol/node_002.acb
"$CLI" decode vol degraded.bin || fail "degraded decode should succeed"
cmp -s input.bin degraded.bin || fail "degraded roundtrip differs"
# The degraded read healed the volume in the background: the lost chunk
# file is back and the volume scrubs clean without an explicit repair.
[ -f vol/node_002.acb ] || fail "degraded decode did not rebuild the node"
"$CLI" scrub vol || fail "scrub after self-heal"

# --- single failure: full recovery via explicit repair ------------------------
rm vol/node_002.acb
"$CLI" repair vol || fail "single-failure repair"
"$CLI" scrub vol || fail "scrub after single repair"
"$CLI" decode vol single.bin || fail "decode after single repair"
cmp -s input.bin single.bin || fail "single-failure roundtrip differs"

# --- double failure: important prefix survives -------------------------------
rm vol/node_000.acb vol/node_001.acb
rc=0; "$CLI" repair vol || rc=$?
[ "$rc" -eq 0 ] || fail "double-failure repair lost important data"
"$CLI" scrub vol || fail "scrub after double repair"
rc=0; "$CLI" decode vol double.bin || rc=$?
[ "$rc" -eq 4 ] || fail "decode after data loss should exit 4, got $rc"
# Important prefix (= size/h = 150000 bytes) must be intact.
head -c 150000 input.bin > want.head
head -c 150000 double.bin > got.head
cmp -s want.head got.head || fail "important prefix damaged"

# --- corruption detection + repair -------------------------------------------
"$CLI" encode --family crs --k 6 input.bin vol2 >/dev/null || fail "crs encode"
dd if=/dev/zero of=vol2/node_004.acb bs=1 count=3 seek=100 conv=notrunc 2>/dev/null
if "$CLI" scrub vol2; then fail "scrub missed corruption"; fi
"$CLI" repair vol2 || fail "corruption repair"
"$CLI" scrub vol2 || fail "scrub after corruption repair"
"$CLI" decode vol2 fixed.bin || fail "decode after corruption repair"
cmp -s input.bin fixed.bin || fail "corruption roundtrip differs"

# --- corrupt manifest is a typed error, not a crash --------------------------
"$CLI" encode input.bin vol3 >/dev/null || fail "default encode"
sed 's/^k=.*/k=banana/' vol3/manifest.txt > vol3/manifest.txt.new
mv vol3/manifest.txt.new vol3/manifest.txt
rc=0; msg=$("$CLI" info vol3 2>&1) || rc=$?
[ "$rc" -eq 1 ] || fail "corrupt manifest should exit 1 (corruption), got $rc"
echo "$msg" | grep -q 'corrupt manifest' || fail "corrupt manifest not reported"

# --- a manifest whose chunk count disagrees with its sizes is corrupt ---------
for chunks in 0 99; do
  rm -rf vol4
  "$CLI" encode input.bin vol4 >/dev/null || fail "encode for chunks=$chunks"
  sed "s/^chunks=.*/chunks=$chunks/" vol4/manifest.txt > vol4/manifest.txt.new
  mv vol4/manifest.txt.new vol4/manifest.txt
  rc=0; msg=$("$CLI" decode vol4 chunks.bin 2>&1) || rc=$?
  [ "$rc" -eq 1 ] || fail "manifest with chunks=$chunks should exit 1, got $rc"
  echo "$msg" | grep -q 'corrupt manifest' \
      || fail "chunks=$chunks not reported as a corrupt manifest"
done

# --- h = 1: no unimportant tier, everything protected by r + g ---------------
"$CLI" encode --family rs --k 4 --r 2 --g 1 --h 1 input.bin volh1 >/dev/null \
    || fail "h=1 encode"
rm volh1/node_001.acb volh1/node_004.acb volh1/node_006.acb
"$CLI" decode volh1 h1_degraded.bin || fail "h=1 decode with r+g nodes lost"
cmp -s input.bin h1_degraded.bin || fail "h=1 degraded roundtrip differs"
[ -f volh1/node_006.acb ] || fail "h=1 decode did not self-heal"
"$CLI" scrub volh1 || fail "h=1 scrub after self-heal"
rm volh1/node_000.acb volh1/node_005.acb volh1/node_006.acb
"$CLI" repair volh1 || fail "h=1 repair"
"$CLI" scrub volh1 || fail "h=1 scrub after repair"
"$CLI" decode volh1 h1_repaired.bin || fail "h=1 decode after repair"
cmp -s input.bin h1_repaired.bin || fail "h=1 repaired roundtrip differs"
# Three losses in the one local stripe exceed r and need the global parity;
# with no unimportant tier that is still a full restore.
rm volh1/node_000.acb volh1/node_001.acb volh1/node_004.acb
out=$("$CLI" repair volh1) || fail "h=1 repair beyond local tolerance"
echo "$out" | grep -q 'volume fully restored' \
    || fail "h=1 repair beyond local tolerance not reported as a full restore"
"$CLI" scrub volh1 || fail "h=1 scrub after global repair"
"$CLI" decode volh1 h1_global.bin || fail "h=1 decode after global repair"
cmp -s input.bin h1_global.bin || fail "h=1 global-repair roundtrip differs"
# Unimportant bytes have no capacity under h = 1: a split below the file
# size is refused up front instead of silently dropping the rest.
rc=0; "$CLI" encode --family rs --k 4 --r 2 --g 1 --h 1 --split 1000 \
    input.bin volh1s 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || fail "h=1 with --split below the file size should exit 2, got $rc"
[ ! -e volh1s/manifest.txt ] || fail "refused h=1 split still committed a volume"

# --- bad code parameters are usage errors ------------------------------------
# The message names the reason only: no source location, no C++ expression.
for bad in "--g 0" "--k 0" "--r 2 --g 2" "--structure even --h 3 --block 4096"; do
  rc=0; "$CLI" encode $bad input.bin volbad 2>usage.err || rc=$?
  [ "$rc" -eq 2 ] || fail "encode $bad should exit 2 (usage), got $rc"
  grep -q '^error: ' usage.err || fail "encode $bad printed no reason"
  if grep -q -e 'requirement (' -e '\.h:' -e '\.cpp:' usage.err; then
    fail "encode $bad usage error leaks source details: $(head -n 1 usage.err)"
  fi
done

# --- exit codes distinguish the failure classes ------------------------------
rc=0; "$CLI" info no-such-volume 2>/dev/null || rc=$?
[ "$rc" -eq 3 ] || fail "missing volume should exit 3 (I/O error), got $rc"
rc=0; "$CLI" frobnicate 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || fail "unknown command should exit 2 (usage), got $rc"

# --- request tracing: --trace-out writes a Chrome trace-event file -----------
"$CLI" --trace-out trace.json decode vol2 traced.bin || fail "decode with --trace-out"
cmp -s input.bin traced.bin || fail "traced decode roundtrip differs"
[ -s trace.json ] || fail "--trace-out produced no file"
grep -q '"traceEvents"' trace.json || fail "trace file missing traceEvents"
# Under APPROX_OBS_OFF (set by ctest for that build) spans compile to
# no-ops: the export must still be one valid document, with no spans.
# Otherwise the CLI root span ties the request into a single trace tree
# (one span with parent 0 per trace id).
if [ -z "$APPROX_OBS_OFF" ]; then
  grep -q 'cli.decode' trace.json || fail "trace file missing cli root span"
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - trace.json <<'EOF' || fail "trace file is not a single well-formed tree"
import json, os, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
if os.environ.get("APPROX_OBS_OFF"):
    assert events == [], "spans recorded with spans compiled out"
    sys.exit(0)
assert events, "no spans recorded"
traces = {}
for e in events:
    a = e["args"]
    traces.setdefault(a["trace"], []).append(a)
for trace, spans in traces.items():
    ids = {s["span"] for s in spans}
    roots = [s for s in spans if s["parent"] == 0]
    assert len(roots) == 1, f"trace {trace}: {len(roots)} roots"
    for s in spans:
        assert s["parent"] == 0 or s["parent"] in ids, f"trace {trace}: orphan span"
EOF
fi
rc=0; "$CLI" --trace-out 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || fail "--trace-out without a file should exit 2 (usage), got $rc"

# --- stats surface the robustness instruments --------------------------------
stats=$("$CLI" stats --json vol) || fail "stats"
for key in store.degraded_reads store.quarantined_chunks \
           store.crash_recoveries store.repair.queue_depth; do
  echo "$stats" | grep -q "$key" || fail "stats --json missing $key"
done

# --- hot-tier read cache: flag and env knobs ---------------------------------
# vol2 is healthy (repaired and scrubbed clean above); vol has permanent
# approximate-mode data loss, so cached roundtrips run against vol2.
"$CLI" --cache-mb 8 decode vol2 cached.bin || fail "decode with --cache-mb"
cmp -s input.bin cached.bin || fail "cached decode roundtrip differs"
APPROX_CACHE_MB=8 "$CLI" decode vol2 env_cached.bin \
    || fail "decode with APPROX_CACHE_MB"
cmp -s input.bin env_cached.bin || fail "env-cached decode roundtrip differs"
rc=0; "$CLI" --cache-mb banana info vol2 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || fail "--cache-mb banana should exit 2 (usage), got $rc"
# With the cache enabled, stats exports its counters; the pool scheduler
# gauges are published unconditionally.
stats=$("$CLI" --cache-mb 8 stats --json vol2) || fail "stats with cache"
for key in store.cache.hits store.cache.misses store.cache.evictions \
           store.cache.bytes pool.queue.interactive pool.queue.bulk \
           pool.aged_bulk_pops; do
  echo "$stats" | grep -q "$key" || fail "stats --json missing $key"
done

# --- kernel backend env knob: explicit names + graceful fallback -------------
# A healthy decode reads data chunks without ever entering the kernels, so
# each probe deletes a node file first: the degraded decode must reconstruct
# through the named backend (and the self-heal restores the file for the
# next iteration).  Naming a SIMD backend must work whether or not the host
# supports it: if unavailable the dispatcher warns on stderr and falls
# back, and the roundtrip stays byte-identical either way.
for backend in scalar ssse3 avx2 avx512 gfni; do
  rm vol2/node_004.acb
  APPROX_KERNEL=$backend "$CLI" decode vol2 "kern_$backend.bin" \
      || fail "degraded decode under APPROX_KERNEL=$backend"
  cmp -s input.bin "kern_$backend.bin" \
      || fail "APPROX_KERNEL=$backend roundtrip differs"
  [ -f vol2/node_004.acb ] || fail "APPROX_KERNEL=$backend did not self-heal"
done
# An unknown name is a warning (listing the compiled-in vocabulary), never
# an error: the decode proceeds on the fallback backend.
rm vol2/node_004.acb
rc=0; msg=$(APPROX_KERNEL=banana "$CLI" decode vol2 kern_bad.bin 2>&1) || rc=$?
[ "$rc" -eq 0 ] || fail "APPROX_KERNEL=banana should fall back, got exit $rc"
cmp -s input.bin kern_bad.bin || fail "fallback-backend roundtrip differs"
echo "$msg" | grep -q 'APPROX_KERNEL=banana is not a known backend' \
    || fail "unknown backend not warned about"
echo "$msg" | grep -q 'avx512' || fail "warning does not list the vocabulary"

"$CLI" scrub vol2 || fail "scrub after kernel probes"

# --- network failure class: unreachable coordinator exits 5 -------------------
rc=0; "$CLI" get --coordinator 127.0.0.1:1 rvol nope.bin 2>/dev/null || rc=$?
[ "$rc" -eq 5 ] || fail "unreachable coordinator should exit 5 (network), got $rc"

# --- a real localhost TCP cluster: put / kill node / degraded get / repair ----
CLUSTER_PIDS=""
trap 'kill $CLUSTER_PIDS 2>/dev/null || true; rm -rf "$WORK"' EXIT

# The coordinator and daemons bind port 0 and print "listening <endpoint>".
wait_listening() {  # $1 = output file, $2 = what
  i=0
  while [ $i -lt 100 ]; do
    ep=$(sed -n 's/^listening //p' "$1" 2>/dev/null | head -n 1)
    [ -n "$ep" ] && return 0
    sleep 0.1; i=$((i + 1))
  done
  fail "$2 never reported its endpoint"
}

"$CLI" coordinator --listen 127.0.0.1:0 --meta meta > coord.out 2>&1 &
CLUSTER_PIDS="$CLUSTER_PIDS $!"
wait_listening coord.out coordinator
COORD="$ep"

n=0
while [ $n -lt 4 ]; do
  "$CLI" serve --listen 127.0.0.1:0 --data "d$n" --coordinator "$COORD" \
      --name "n$n" --rack "$n" > "serve$n.out" 2>&1 &
  CLUSTER_PIDS="$CLUSTER_PIDS $!"
  eval "SERVE${n}_PID=\$!"
  n=$((n + 1))
done
n=0
while [ $n -lt 4 ]; do
  wait_listening "serve$n.out" "daemon n$n"
  n=$((n + 1))
done

"$CLI" put --coordinator "$COORD" --k 2 --r 1 --g 1 --h 2 input.bin rvol \
    || fail "remote put"
"$CLI" get --coordinator "$COORD" rvol remote.bin || fail "remote get"
cmp -s input.bin remote.bin || fail "remote roundtrip differs"

# Kill one daemon mid-cluster: the get reconstructs its chunks (degraded),
# still byte-identical.
kill -9 "$SERVE0_PID" 2>/dev/null || true
"$CLI" get --coordinator "$COORD" rvol degraded_remote.bin \
    || fail "remote degraded get after node kill"
cmp -s input.bin degraded_remote.bin || fail "remote degraded roundtrip differs"

# Replace the daemon on a wiped disk; repair rebuilds its chunks in place.
rm -rf d0
"$CLI" serve --listen 127.0.0.1:0 --data d0 --coordinator "$COORD" \
    --name n0 --rack 0 > serve0b.out 2>&1 &
CLUSTER_PIDS="$CLUSTER_PIDS $!"
wait_listening serve0b.out "replacement daemon n0"
rc=0; "$CLI" scrub --coordinator "$COORD" rvol 2>/dev/null || rc=$?
[ "$rc" -eq 1 ] || fail "remote scrub should flag the wiped node (exit 1), got $rc"
"$CLI" repair --coordinator "$COORD" rvol || fail "remote repair"
"$CLI" scrub --coordinator "$COORD" rvol || fail "remote scrub after repair"
"$CLI" get --coordinator "$COORD" rvol repaired_remote.bin \
    || fail "remote get after repair"
cmp -s input.bin repaired_remote.bin || fail "repaired remote roundtrip differs"

# Remote stats expose the rpc instruments.
stats=$("$CLI" stats --json --coordinator "$COORD" rvol) || fail "remote stats"
for key in net.rpc.sent net.rpc.retries net.rpc.hedged net.rpc.timeouts; do
  echo "$stats" | grep -q "$key" || fail "remote stats --json missing $key"
done

echo "PASS"
