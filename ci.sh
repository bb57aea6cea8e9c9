#!/bin/sh
# ci.sh [stage] — the checks a change must pass before merging. With no
# argument every stage runs sequentially (the local pre-push flow);
# .github/workflows/ci.yml fans the stages out as three parallel jobs:
#
# lint — fast static gate:
#   1. formatting: gofmt must be a no-op across the tree
#   2. go vet across the tree
#   3. ringlint: the five project-specific analyzers (internal/lint)
#      over the whole tree — sim determinism, sleepy tests,
#      durable-path errors, lock discipline, goroutine lifetimes.
#      (Ack ordering is not among them: acknowledging ahead of the
#      quorum or the sync does not compile, see stage 5. Nor is
#      allocation: stage 5's AllocsPerRun pins count it.)
#      Any finding fails the build; exemptions are //ring: directives
#      in the source, where review can see them. doc_refs then fails
#      on a backticked test name, internal/... or cmd/... path, or
#      package-qualified Go name (`store.Waiter`) in DESIGN.md,
#      README.md, EXPERIMENTS.md or benchmark/README.md that the tree
#      does not have. scripts/loc.sh then
#      prints the size report (non-test lines per internal/* package
#      and under cmd/, scripts/ lines, wire message types, //ring:
#      directives, top-level files, the packages ringd links from
#      outside the module and the size of its text and read-only data)
#      so lines, types and exemptions removed are reported results, not
#      estimates. Then the import gate: `go
#      list -deps ./cmd/ringd` must name none of net, runtime/cgo,
#      net/http, crypto/tls, crypto/x509, math/big, os/exec, log. An
#      idle Go process keeps its whole text resident, and one net/http
#      import is 90 packages and 3.2 MB of it in each of a cluster's
#      processes
#      (DESIGN.md section 11). net is the resolver, and through it cgo:
#      a ringd that links it maps libc and ld.so, and dropped for the
#      transport's own syscall sockets it took ringd from 94 to 89
#      packages, 3633 to 3199 kB of text and read-only data, an idle
#      node's file-backed RSS from 4.9 to 3.1 MB and rep3_1k_mixed's
#      rss_loaded_mb from 47.9 to 38.1 MB; a failure prints the ring/...
#      packages that import one of the eight. Then the symbol gate:
#      `go tool nm` of the built ringd must name no text symbol
#      encoding/json.(*encodeState)... or encoding/json.Marshal...
#      The package stays linked for FetchRingvars' decoder, so only the
#      symbols show whether the encoder came back. Its encoder (the
#      JSON routes render through internal/status's own writer),
#      os/exec (the launcher starts its children with os.StartProcess),
#      log and gf's 64 KiB product table left ringd together: 89 to 86
#      packages, 3221 to 2995 kB of text and read-only data, 224 to
#      158 kB of bss. Last, the other platforms
#      build (GOOS=darwin, GOOS=windows and GOARCH=arm64, ./internal/...
#      and ./cmd/...), so the transport's net-backed sock_other.go and
#      gf's portable-only gf_other.go, which no linux/amd64 test
#      compiles, keep compiling. (go vet checks gf_amd64.s against its
#      Go declarations.)
#   4. external static analysis, version-pinned: staticcheck and
#      govulncheck. Both run via `go run tool@version`, so they need
#      module-proxy access; offline runs skip them with a warning
#      while CI (which always has network) enforces them.
#
# test — the tier-1 gate:
#   5. everything builds, every test passes — among them
#      TestAckBeforeBarrierDoesNotCompile (internal/core), which applies
#      the seven ack-before-barrier mutations with `go build -overlay`
#      and wants each rejected by the compiler; eight builds, ~1.5 s,
#      skipped under -short; and the recovery machine's three:
#      TestRecoverySurvivesLostFetches (the network eats the first one
#      or four of each kind of recovery message; every want is met, no
#      want or gather is left on any node), TestDoubleFailureRecovery
#      (every coordinator + redundant-node pair, ending in the parity
#      invariant) and TestLostRoleForgetsItsWants; the monitoring port's
#      four (internal/status): TestMonitorDropsSilentClient (a client
#      that sends nothing, or half a request head, is gone at the head
#      deadline), TestServerCloseEndsConnections (no connection or
#      goroutine outlives Close), TestServeConformance (Go's http.Client,
#      a raw HTTP/1.0 GET, and what nobody should send: other methods,
#      paths off the table, escaped and dotted paths, 64 KiB heads) and
#      TestProfilesOneRequestAway (`go tool pprof` against the heap and a
#      one-second CPU profile; skipped under -short); the client's
#      outbox (internal/client): TestSyncOpsRunOnTheCaller (seen from
#      inside Send, a synchronous put, get or delete adds no goroutine),
#      TestBurstLeavesInOnePacket (33 callers of Put, Get and Delete,
#      2 packets, each caller its own reply), TestFailedPacketFailsItsRequests
#      (a packet that does not leave is eight retries at once, not eight
#      Timeouts) and TestCloseFailsQueuedRequests; the transport's
#      TestRestartedPeerIsDialledAgain (a peer reached only over its own
#      connection is dialled once that connection is dead); the shard
#      index (internal/store, internal/core): TestMetaBytesPerEntry
#      (16 384 entries in three tables of one index cost at most 66.8 B
#      of collected heap each, key and hash slot included, and add under
#      64 KiB to the heap the collector scans), TestEntrySize (a 48-byte
#      entry with no pointer-shaped field), TestBytesPerValueSize
#      (the store's exact bytes, index and arena, per user byte of
#      Rep(3,3) and SRS(3,2,3) at 16 B, 64 B, 256 B and 1 KiB, each row
#      in a process of its own), TestDurableIndexHasNoPointers and
#      TestDurableIndexBytesPerRecord (internal/replog: the live-record
#      index is a hash of key and version and a 16-byte record with no
#      pointer, at most 64 B of collected heap per live record),
#      TestHashCollisionIsAnError (an append whose hash another live
#      entry holds fails; a marker leaves that entry alone),
#      TestDurableIndexMatchesTables (internal/core: every node's index
#      holds its tables' entries by shard, key and version),
#      TestMetaSlotsCrossTables (the slots one table frees are another's
#      next entries: no slab is cut), TestDeleteMemgestUncoversOlderVersion
#      (a deleted memgest takes its entries out of every node's index,
#      and the version under them is the key's newest again) and
#      TestStaleEntryPointerIsCaught (an entry read after the purge that
#      freed it reads 0xDB), and TestEvacuatedChunksAreReleased (a
#      chunk an arena evacuates reads zero once its pages are given
#      back, 0xDB under poison); cmd/ringd's
#      TestLauncherSupervisesChildren (`ringd -launch 2` prints its
#      -nodes list, stops its cluster and exits 1 when a child dies,
#      exits 0 on SIGTERM, and leaves no child behind; skipped under
#      -short); internal/store's chunk source and its page release are
#      the build-tagged pairs in the tree, so the halves this host does
#      not run are compiled too: the plain-heap fallback and the release
#      that does nothing (GOOS=windows go build, with cmd/ringd on top
#      of it) and the mmap one (GOOS=darwin go vet)
#   6. the concurrency-heavy packages under the race detector
#      (the simulator-driven experiments are legitimately slow there,
#      hence the generous timeout); the durable path — replog engine,
#      core crash-recovery e2e, sim disk fault plane — rides in
#      ./internal/... and so runs under -race here too, and so do the
#      arena tests (internal/store's model and poison tests, core's
#      same-drain purge test and memory pin): the chunk pool is the one
#      piece of the store that runners share; and ringchaos's
#      TestSweepSameForAnyWorkers, whose seeds run on four goroutines
#      at once as every sweep's do
#
# chaos — fuzz, bench, and the chaos/benchmark canaries:
#   7. fuzz smoke: each fuzz target runs for 10s — long enough to
#      catch a round-trip regression, short enough for every push.
#      FuzzWALReplay and FuzzDurableModel are the durability ones:
#      arbitrary bytes as a WAL segment must replay without panicking
#      and re-replay identically, and random appends, commits, purges,
#      resets, installs, syncs, merges and power cuts over 2 KiB
#      segments, seqs and versions handed out again among them, must
#      keep the store equal to a map and every live record under its
#      own entry's hash and check word (a power cut recovers the map
#      after some write since the last fsync; its minimisation is
#      capped, since each input replays a whole store).
#      FuzzBlockHeapModel, FuzzValueArenaModel and FuzzMetaIndexModel
#      are the memory ones: the demand-backed block heap against a
#      flat, fully allocated reference, the tables' value slots against
#      a map of byte slices (no overlap, freed slots reused first, exact
#      accounting, values intact and stale views poisoned across
#      evacuations, every chunk back on drop), and three metadata tables
#      on one shard index against three maps and a sort (every table its
#      own entries, every key its versions newest first across tables,
#      rehashes at any fill, freed slab slots reused first and poisoned
#      in between, bytes accounted exactly). FuzzRequestHead is the monitoring port's:
#      arbitrary bytes as a request head never panic the parser, never
#      make it read past its 8 KiB cap, and reach a handler only by a
#      path that is on the route table as sent. FuzzJSONWriter is its
#      other one: strings of any bytes (control bytes, < > &, U+2028,
#      invalid UTF-8) and floats of any value in the served documents
#      render exactly as encoding/json's encoder renders them, and a NaN
#      or an infinity fails with the encoder's message. FuzzFrameStream is the
#      transport's: two connections' bytes, cut at arbitrary read
#      boundaries into one shared buffer and delivered a few frames a
#      batch, yield exactly the frames a one-shot parse yields, no
#      payload reaching past its declared length, and the same bad
#      headers rejected. FuzzPack is the send side's (internal/core):
#      arbitrary outputs (acks, commits, purges, appends, parity updates,
#      recovery blocks and metadata tables), destinations and message
#      sizes up to twice transport.MaxPacket leave core.Host.Pack with
#      every ack and commit seq and every purge exactly once, folded
#      into runs that no message moves past, in order per peer, and no
#      packet of more than one message is over MaxPacket, the payload
#      whose frame fills a receiver's read buffer.
#   8. bench smoke: every Go benchmark compiles and runs one
#      iteration; a benchmark that panics or no longer builds fails
#      the stage, and the numbers scroll by in the job log
#   9. chaos gate: `ringchaos -expect chaos.expect` runs the three bands
#      the file declares (plain, -durable and -elasticity, seeds 1:2000
#      each) through the full seed -> schedule -> workload ->
#      linearizability-check pipeline, seeds on every core, and fails
#      unless the seeds whose verdict is not ok (violation, incomplete:
#      clients still unfinished at the horizon, inconclusive) are
#      exactly the file's entries at offset 0, seed by seed: a seed that
#      turns red or wedges fails it, and so does a listed seed that goes
#      green, each printed as new:/gone: with its repro and the file's
#      shrunk one. The file lists every entry's verdict at six timing
#      offsets (every packet charged 0, +1, -5, -20, +16 or -30 bytes
#      more, sim.CostModel.Skew) and, under it, the schedule its seed
#      shrinks to as a repro line (slow or wedged for an incomplete
#      one), which TestKnownRedSchedules replays and the gate does not
#      run; a change that moves timing regenerates it with `ringchaos
#      -expect chaos.expect -update`, which shrinks every entry again
#      and prints each lane's six counts before and after, and `git
#      diff chaos.expect` is the per-seed review.
#      Every client in these runs is a client.Session, the request logic
#      ringd's clients run (internal/client/session.go, driven by
#      internal/sim/session.go), so a change to how a client retries,
#      re-resolves or gives up trips here per push; and every simulated
#      node runs core.Host, ringd's packet path (decode, batch, Flush,
#      one packet per peer, release), so a runner-level change does too.
#      The other five offsets run nightly
#      (.github/workflows/nightly-chaos.yml).
#  10. benchmark canaries: the real harness, twice. `go run ./benchmark`
#      builds ringd and boots five processes: with -fsync always it
#      drives rep3_1k_fsync for 5 s and checks every reply against the
#      writes the cluster acknowledged; on tier_1k_read90_move the
#      set-up moves half of 16384 keys from Rep to SRS and the load
#      keeps moving keys between the schemes under 90 % reads, the one
#      run that checks every reply byte for byte while the value arenas
#      relocate stored values to give chunks back. It is also the run
#      whose generator is nearest its limit: until PR 25 the client sent
#      one packet per request and spent 0.59-0.61 of a core in the open
#      phase of this workload on a 2-vCPU host, against the harness's
#      0.60, so the canary failed there two runs in three with every
#      reply correct; with the requests of a burst in one packet it is
#      0.54-0.56.
#      Pass/fail on the exit code only: the numbers a CI host prints
#      are never compared. Whether a change is faster is decided by the
#      same command on one quiet machine, parent against change, per
#      BENCHMARK.json's bounds.
set -ex

# Version pins for the external analyzers. CI caches on these; bump
# deliberately.
STATICCHECK_VERSION=2024.1.1
GOVULNCHECK_VERSION=v1.1.3

# doc_refs fails on a dead reference in the documents a reader starts
# from: a backticked Test*/Fuzz* name that no _test.go file defines (a
# trailing * or a -run= in front makes it a prefix), a backticked
# internal/... or cmd/... path that does not exist, a backticked
# composite literal Name{...} (a wire message, say) whose type no .go
# file declares, or a backticked name ending in Reply or Ack (a pkg.
# in front and a .Field after allowed) that no .go file declares as a
# type, constant, struct field, function or method: a deleted wire type
# or its tag. A backticked name qualified by one of the packages below
# (`store.Waiter`, `core.commitEntry`, `proto.New`) fails when no
# non-test file of that package declares it as a type, function (generic
# or not), method, constant, variable or struct field; a name with no
# capital in it (`core.turn`, `store.meta_bytes`) is a trace span or a
# metric key, not Go, and is not looked up. Last, a citation of the
# ROADMAP by item (`ROADMAP item 4(b)`, `ROADMAP items 2, 4(b) and
# 4(c)`, in a .go file or in DESIGN.md, README.md or EXPERIMENTS.md)
# fails when ROADMAP.md's open items define no such item or sub-item.
doc_refs() {
    tab=$(printf '\t') # sh has no $'\t'
    spans=$(grep -ohE '`[^`]+`' DESIGN.md README.md EXPERIMENTS.md benchmark/README.md)
    dead=$(
        echo "$spans" | grep -oE '(-run=)?\b(Test|Fuzz)[A-Z][A-Za-z0-9_]*\*?' | sort -u |
            while read -r name; do
                base=${name#-run=}
                base=${base%\*}
                end='\('
                [ "$base" = "$name" ] || end=
                grep -rqE --include='*_test.go' "^func $base$end" . || echo "$name"
            done
        echo "$spans" | grep -oE '([ `]|\./)(internal|cmd)/[A-Za-z0-9_./-]*' |
            sed -E 's#^([ `]|\./)##; s#\.\.\.$##' | sort -u |
            while read -r path; do
                [ -e "$path" ] || echo "$path"
            done
        echo "$spans" | grep -oE '\b[A-Z][A-Za-z0-9_]*\{' | tr -d '{' | sort -u |
            while read -r name; do
                grep -rqE --include='*.go' "^type $name\b" . || echo "$name{}"
            done
        echo "$spans" | grep -oE '^`([a-z]+\.)?[A-Za-z_][A-Za-z0-9_]*(Reply|Ack)(\.[A-Za-z0-9_]+)?`$' |
            sed -E 's/^`([a-z]+\.)?//; s/[.`].*//' | sort -u |
            while read -r name; do
                grep -rqE --include='*.go' "^(type|const|func) $name\b|^func \([^)]*\) $name\(|^$tab$name(\s+[^:].*)?\$" . ||
                    echo "$name"
            done
        echo "$spans" |
            grep -oE '(^|[^/A-Za-z0-9_.])(core|store|proto|sim|client|replog|wal|transport|status|metrics)\.[A-Za-z_][A-Za-z0-9_]*' |
            sed -E 's/^[^a-z]//' | grep -E '\.[^.]*[A-Z]' | sort -u |
            while IFS=. read -r pkg name; do
                grep -rqE --include='*.go' --exclude='*_test.go' \
                    "^(type|func|const|var) $name\b|^func \([^)]*\) $name[[(]|^$tab+([A-Za-z_][A-Za-z0-9_]*, )*$name(,|\s|\$)" \
                    "internal/$pkg" || echo "$pkg.$name"
            done
        items=$(awk '/^## Open items/ { on = 1; next } /^## / { on = 0 }
            on && match($0, /^[0-9]+\. /) { item = substr($0, 1, RLENGTH - 2); print item }
            on && item != "" && match($0, /^ *\([a-z]\) |^[0-9]+\. \*\*\([a-z]\) /) {
                s = substr($0, RSTART, RLENGTH); sub(/^[^(]*/, "", s); print item substr(s, 1, 3)
            }' ROADMAP.md)
        ref='[0-9]+(\([a-z]\)|[a-z])?'
        find . -name '*.go' -not -path './.git/*' -exec cat {} + | cat - DESIGN.md README.md EXPERIMENTS.md |
            tr '\n' ' ' | sed 's#//# #g' | grep -oE "ROADMAP items? $ref((,? +and +|, *)$ref)*" |
            sed -E 's/^ROADMAP items? //' | grep -oE "$ref" | sed -E 's/^([0-9]+)([a-z])$/\1(\2)/' | sort -u |
            while read -r item; do
                echo "$items" | grep -qxF "$item" || echo "ROADMAP-item-$item"
            done
    )
    if [ -n "$dead" ]; then
        echo "dead references in the documents:" $dead >&2
        return 1
    fi
}

stage_lint() {
    test -z "$(gofmt -l .)"
    go vet ./...

    go build -o bin/ringlint ./cmd/ringlint
    ./bin/ringlint ./...
    doc_refs
    scripts/loc.sh
    banned='net|runtime/cgo|net/http|crypto/tls|crypto/x509|math/big|os/exec|log'
    if go list -deps ./cmd/ringd | grep -Ex "$banned"; then
        go list -deps -f '{{.ImportPath}} <- {{join .Imports " "}}' ./cmd/ringd |
            grep '^ring' | grep -E " ($banned)( |\$)" || true
        echo "cmd/ringd links the packages above; see DESIGN.md section 11" >&2
        exit 1
    fi
    go build -o bin/ringd ./cmd/ringd
    if go tool nm bin/ringd | awk '$2 == "T" { print $3 }' | grep -E '^encoding/json\.(\(\*encodeState\)|Marshal)'; then
        echo "cmd/ringd links encoding/json's encoder (symbols above); see DESIGN.md section 11" >&2
        exit 1
    fi
    GOOS=darwin go build ./internal/... ./cmd/...
    GOOS=windows go build ./internal/... ./cmd/...
    GOARCH=arm64 go build ./internal/... ./cmd/...

    # External analyzers: enforced whenever the module proxy is
    # reachable (always true in CI), skipped with a loud warning when
    # offline.
    if go run "honnef.co/go/tools/cmd/staticcheck@${STATICCHECK_VERSION}" -version >/dev/null 2>&1; then
        go run "honnef.co/go/tools/cmd/staticcheck@${STATICCHECK_VERSION}" ./...
        go run "golang.org/x/vuln/cmd/govulncheck@${GOVULNCHECK_VERSION}" ./...
    else
        echo "WARNING: module proxy unreachable; skipping staticcheck + govulncheck (CI enforces them)" >&2
    fi
}

stage_test() {
    go build ./...
    GOOS=windows go build ./internal/store/ ./cmd/ringd/
    GOOS=darwin go vet ./internal/store/
    GOOS=darwin go vet ./internal/transport/
    GOOS=windows go vet ./internal/transport/
    go test ./...
    go test -race -timeout 900s ./internal/...
    go test -race -run TestSweepSameForAnyWorkers ./cmd/ringchaos/
}

stage_chaos() {
    go test -run=NONE -fuzz=FuzzWireRoundTrip -fuzztime=10s ./internal/proto/
    go test -run=NONE -fuzz=FuzzSRSRoundTrip -fuzztime=10s ./internal/srs/
    go test -run=NONE -fuzz=FuzzGFKernels -fuzztime=10s ./internal/gf/
    go test -run=NONE -fuzz=FuzzWALReplay -fuzztime=10s ./internal/wal/
    go test -run=NONE -fuzz=FuzzDurableModel -fuzztime=10s -fuzzminimizetime=5s ./internal/replog/
    go test -run=NONE -fuzz=FuzzBlockHeapModel -fuzztime=10s ./internal/store/
    go test -run=NONE -fuzz=FuzzValueArenaModel -fuzztime=10s ./internal/store/
    go test -run=NONE -fuzz=FuzzMetaIndexModel -fuzztime=10s ./internal/store/
    go test -run=NONE -fuzz=FuzzRequestHead -fuzztime=10s ./internal/status/
    go test -run=NONE -fuzz=FuzzJSONWriter -fuzztime=10s ./internal/status/
    go test -run=NONE -fuzz=FuzzFrameStream -fuzztime=10s ./internal/transport/
    go test -run=NONE -fuzz=FuzzPack -fuzztime=10s ./internal/core/

    go test -run=NONE -bench=. -benchtime=1x ./...

    go build -o bin/ringchaos ./cmd/ringchaos
    timeout 300 ./bin/ringchaos -expect chaos.expect

    timeout 120 go run ./benchmark -workload rep3_1k_fsync -seconds 5
    timeout 120 go run ./benchmark -workload tier_1k_read90_move -seconds 5
}

case "${1:-all}" in
lint) stage_lint ;;
test) stage_test ;;
chaos) stage_chaos ;;
all)
    stage_lint
    stage_test
    stage_chaos
    ;;
*)
    echo "usage: ci.sh [lint|test|chaos]" >&2
    exit 2
    ;;
esac
