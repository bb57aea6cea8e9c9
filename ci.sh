#!/bin/sh
# ci.sh [stage] — the checks a change must pass before merging. With no
# argument every stage runs sequentially (the local pre-push flow);
# .github/workflows/ci.yml fans the stages out as three parallel jobs:
#
# lint — fast static gate:
#   1. formatting: gofmt must be a no-op across the tree
#   2. go vet across the tree
#   3. ringlint: the six project-specific analyzers (internal/lint)
#      over the whole tree — hot-path allocation, sim determinism,
#      sleepy tests, durable-path errors, lock discipline, goroutine
#      lifetimes. (Ack ordering is not among them: acknowledging ahead
#      of the quorum or the sync does not compile, see stage 5.)
#      Any finding fails the build; exemptions are //ring: directives
#      in the source, where review can see them. scripts/loc.sh then
#      prints the size report (non-test lines per internal/* package
#      and under cmd/, scripts/ lines, wire message types, top-level
#      files, the packages ringd links from outside the module and the
#      size of its text and read-only data) so lines and types removed
#      are reported results, not estimates. Then the import gate: `go
#      list -deps ./cmd/ringd` must name none of net/http, crypto/tls,
#      crypto/x509, math/big. An idle Go process keeps its whole text
#      resident, and one net/http import is 90 packages and 3.2 MB of
#      it in each of a cluster's processes (DESIGN.md section 11); a
#      failure prints the ring/... packages that import one of the four.
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
#      TestBurstLeavesInOnePacket (33 requests through every API, 2
#      packets, each caller its own reply), TestFailedPacketFailsItsRequests
#      (a packet that does not leave is eight retries at once, not eight
#      Timeouts) and TestCloseFailsQueuedRequests; the transport's
#      TestRestartedPeerIsDialledAgain (a peer reached only over its own
#      connection is dialled once that connection is dead); the shard
#      index (internal/store, internal/core): TestMetaBytesPerEntry
#      (16 384 entries in three tables of one index cost at most 112 B
#      of collected heap each, key and hash slot included),
#      TestMetaSlotsCrossTables (the slots one table frees are another's
#      next entries: no slab is cut), TestDeleteMemgestUncoversOlderVersion
#      (a deleted memgest takes its entries out of every node's index,
#      and the version under them is the key's newest again) and
#      TestStaleEntryPointerIsCaught (an entry read after the purge that
#      freed it reads 0xDB); internal/store's chunk
#      source is the one build-tagged pair in the tree, so the half this
#      host does not run is compiled too: the plain-heap fallback
#      (GOOS=windows go build, with cmd/ringd on top of it) and the
#      mmap one (GOOS=darwin go vet)
#   6. the concurrency-heavy packages under the race detector
#      (the simulator-driven experiments are legitimately slow there,
#      hence the generous timeout); the durable path — replog engine,
#      core crash-recovery e2e, sim disk fault plane — rides in
#      ./internal/... and so runs under -race here too, and so do the
#      arena tests (internal/store's model and poison tests, core's
#      same-drain purge test and memory pin): the chunk pool is the one
#      piece of the store that runners share
#
# chaos — fuzz, bench, and the chaos/benchmark canaries:
#   7. fuzz smoke: each fuzz target runs for 10s — long enough to
#      catch a round-trip regression, short enough for every push.
#      FuzzWALReplay is the durability one: arbitrary bytes as a WAL
#      segment must replay without panicking and re-replay identically.
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
#      path that is on the route table as sent.
#   8. bench smoke: every Go benchmark compiles and runs one
#      iteration; a benchmark that panics or no longer builds fails
#      the stage, and the numbers scroll by in the job log
#   9. chaos smoke: the longest all-green prefix of every ringchaos lane
#      through the full seed -> schedule -> workload ->
#      linearizability-check pipeline: seeds 1:120 of the plain lane
#      (crash, partition, loss, delay, duplication; 125 is its first
#      red seed), 1:150 of the -durable lane over the disk fault plane
#      (kill -9 + recover-from-disk, WAL corruption, fsync faults; 160
#      is red) and 1:10 of the -elasticity lane mixing live scheme
#      moves and join/leave resizes into the fault schedule (11 is red
#      under message loss alone) — about 2 s each, hard-bounded at 30s.
#      Every client in these runs goes through the one simulated request
#      path (internal/sim/caller.go), so a change to how a client
#      retries, re-resolves or gives up trips here per push. Then the
#      three full bands (plain 1:2000, -durable 1:2000, -elasticity
#      1:500, unshrunk: 24 + 23 + 6 s on 2 vCPUs): a change that touches
#      recovery or message counts moves which seeds draw which faults,
#      so no band can be held seed by seed; what is held is that none
#      gets redder. A band fails when its `N/M seeds FAILED` count is
#      above the ceiling written below. ROADMAP item 1(b)'s
#      `chaos.expect` (lane, seed, class) replaces the three numbers.
#      The deep seed sweeps run nightly
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

stage_lint() {
    test -z "$(gofmt -l .)"
    go vet ./...

    go build -o bin/ringlint ./cmd/ringlint
    ./bin/ringlint ./...
    scripts/loc.sh
    banned='net/http|crypto/tls|crypto/x509|math/big'
    if go list -deps ./cmd/ringd | grep -Ex "$banned"; then
        go list -deps -f '{{.ImportPath}} <- {{join .Imports " "}}' ./cmd/ringd |
            grep '^ring' | grep -E " ($banned)( |\$)" || true
        echo "cmd/ringd links the packages above; see DESIGN.md section 11" >&2
        exit 1
    fi

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
    go test ./...
    go test -race -timeout 900s ./internal/...
}

# chaos_band CEILING ARGS... runs one full ringchaos band unshrunk and
# fails unless it ran to its summary line with at most CEILING seeds red
# (ringchaos itself exits 1 on any red seed, which a full band has).
chaos_band() {
    ceiling=$1
    shift
    out=$(timeout 60 ./bin/ringchaos -shrink=false "$@" | tail -n 1)
    echo "$out"
    case "$out" in
    *"seeds ok"*) ;;
    *"seeds FAILED"*)
        red=${out#ringchaos: }
        test "${red%%/*}" -le "$ceiling"
        ;;
    *) false ;;
    esac
}

stage_chaos() {
    go test -run=NONE -fuzz=FuzzWireRoundTrip -fuzztime=10s ./internal/proto/
    go test -run=NONE -fuzz=FuzzSRSRoundTrip -fuzztime=10s ./internal/srs/
    go test -run=NONE -fuzz=FuzzGFKernels -fuzztime=10s ./internal/gf/
    go test -run=NONE -fuzz=FuzzWALReplay -fuzztime=10s ./internal/wal/
    go test -run=NONE -fuzz=FuzzBlockHeapModel -fuzztime=10s ./internal/store/
    go test -run=NONE -fuzz=FuzzValueArenaModel -fuzztime=10s ./internal/store/
    go test -run=NONE -fuzz=FuzzMetaIndexModel -fuzztime=10s ./internal/store/
    go test -run=NONE -fuzz=FuzzCFGBuild -fuzztime=10s ./internal/lint/flow/
    go test -run=NONE -fuzz=FuzzRequestHead -fuzztime=10s ./internal/status/

    go test -run=NONE -bench=. -benchtime=1x ./...

    go build -o bin/ringchaos ./cmd/ringchaos
    timeout 30 ./bin/ringchaos -seeds 1:120 -v
    timeout 30 ./bin/ringchaos -durable -seeds 1:150 -v
    timeout 30 ./bin/ringchaos -elasticity -seeds 1:10 -v
    chaos_band 40 -seeds 1:2000
    chaos_band 32 -durable -seeds 1:2000
    chaos_band 8 -elasticity -seeds 1:500

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
