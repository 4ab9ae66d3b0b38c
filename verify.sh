#!/usr/bin/env sh
# Repository verification: build, go vet, the repo's own invariant suite
# (cmd/dodo-vet, one run), the full test suite under the race detector,
# the benchmark module's tests and count gates, the two ns/op gates, the
# full suite again with the lockcheck rank runtime, a fuzz smoke and the
# targeted concurrency and fault sweeps. CI runs this script, then one
# more lockcheck sweep; run it locally before pushing.
set -eux

go build ./...
go vet ./...

# The invariant suite: every dodo-vet rule over the whole module. Lock
# ranks are not among them; the lockcheck run below checks those.
go run ./cmd/dodo-vet ./...

go test -race ./...

# The real-stack benchmark is a module of its own (benchmark/go.mod
# replaces module dodo with this tree), so nothing above compiles it.
# Vet and test the harness, then run one traced second of the workload
# that builds the whole stack, so a root API change cannot break the
# separately-built benchmark unseen. That second is a count gate too:
# every read of fit8k-unet is a local hit (nothing evicted), and a hit
# allocates nothing — no marker, no channel for its pin — so the
# process allocates next to nothing per op (it reads 0.0001; one
# allocation per hit reads 1).
(cd benchmark && go vet ./... && go test ./...)
bash benchmark/run.sh -workload fit8k-unet -seed 1 -seconds 1 -trace 1 | tail -n 1 | \
    go run ./cmd/dodo-bench -counts 'process.allocs_per_op<0.01,region.local_hit_frac==1,region.evictions_per_op==0'

# Count gate: a fixed-op traced pass counts frames and calls, and those
# are the same on every machine, unlike the ns/op gates below. A page
# that fits one frame is pushed in one frame (no offer, no bulk data,
# under one client frame per op on rw32k-udp), a read never announces
# itself with an offer (its request does), and the
# multi-frame read path of rand8k-unet sends 5.2378 data frames a read
# (6 a miss; the sampled victims miss 12 reads in 240,000 more than
# exact ones did). A
# miss allocates nothing the size of what it moves (PR 23): an 8 KB
# miss stays under 8 KB of heap per op, all bookkeeping, and a 128 KB
# one, 91 data frames, under 16 KB (it was 277 KB). A 32 KB inline read
# or write over UDP crosses in pooled frames that every receive loop
# gives back, so rw32k-udp stays under 8 KB per op too (it was
# 58 KB: a heap snapshot at the imd and an exact-size copy per receive;
# one frame not given back per op is +64 KB). Bytes allocated are not
# quite a count (a timer or a map growing lands in them), so those
# three are bounds with room: they read 1.4 KB, 2.7 KB and 4.0 KB. A
# read the imd answers in time arms no timer and starts no goroutine on the client,
# and an eviction allocates no policy-list entry: rand8k-unet makes 32.0
# allocations per op, bounded here 10 % above (it made 58.3 with a timer
# per wait and a goroutine per read, 37.3 with a list element and a
# boxed fd per fill, and 35.6 with a deadline and a locked
# destination per remote read).
bash benchmark/run.sh -workload rw32k-udp -seed 7 -seconds 0 -trace 1 | tail -n 1 | \
    go run ./cmd/dodo-bench -counts 'bulk.offer_accept_frames_per_kop==0,bulk.data_frames_per_op==0,transport.client_tx_frames_per_op<1.0,process.alloc_bytes_per_op<8192'
bash benchmark/run.sh -workload rand8k-unet -seed 8 -seconds 0 -trace 1 | tail -n 1 | \
    go run ./cmd/dodo-bench -counts 'bulk.offer_accept_frames_per_kop==0,bulk.data_frames_per_op==5.2378,process.alloc_bytes_per_op<8192,process.allocs_per_op<35.2'
bash benchmark/run.sh -workload seq128k-unet -seed 7 -seconds 0 -trace 1 | tail -n 1 | \
    go run ./cmd/dodo-bench -counts 'bulk.offer_accept_frames_per_kop==0,process.alloc_bytes_per_op<16384,bulk.data_frames_per_op==91.0000,core.checksum_failures==0'

# Smoke: every benchmark still runs, one iteration each. Not a
# measurement — the gates below and benchmark/ are.
go test -run '^$' -bench . -benchtime 1x ./...

# Region perf gate: the region-cache benchmarks at a statistically
# meaningful benchtime against a frozen baseline — written once, then
# compared against on every run. A >10% ns/op regression on any shared
# region benchmark fails verification, and so does an allocs/op rise of
# more than 1 and more than 2%.
[ -f BENCH_region_base.json ] || \
    go run ./cmd/dodo-bench -gobench BENCH_region_base.json -pkgs ./internal/region -benchtime 1s
go run ./cmd/dodo-bench -gobench /tmp/bench_region_now.json -pkgs ./internal/region -benchtime 1s
go run ./cmd/dodo-bench -compare BENCH_region_base.json /tmp/bench_region_now.json
rm -f /tmp/bench_region_now.json

# Data-plane perf gate, the same way: the per-frame and per-transfer
# benchmarks of usocket, transport and bulk (one frame through a socket
# and through the transport adapter, one datagram through loopback
# UDP, 64 KB and 128 KB transfers over the segment) against a baseline
# frozen at -benchtime 1s. The per-frame budget of DESIGN.md §14.2 —
# no address parsing, no timer, no allocation — regresses here first.
DATAPLANE_PKGS=./internal/usocket,./internal/transport,./internal/bulk
[ -f BENCH_dataplane_base.json ] || \
    go run ./cmd/dodo-bench -gobench BENCH_dataplane_base.json -pkgs "$DATAPLANE_PKGS" -benchtime 1s
go run ./cmd/dodo-bench -gobench /tmp/bench_dataplane_now.json -pkgs "$DATAPLANE_PKGS" -benchtime 1s
go run ./cmd/dodo-bench -compare BENCH_dataplane_base.json /tmp/bench_dataplane_now.json
rm -f /tmp/bench_dataplane_now.json

# The same suite with the lockcheck runtime compiled in: every
# locks.Mutex acquisition is checked against the declared rank hierarchy
# and panics on inversion. This is the repository's one check of lock
# order; dodo-vet has no static one.
go test -race -tags lockcheck ./...

# Wire-codec fuzz smoke: ten seconds of coverage-guided frames through
# Decode/Encode round-trip invariants (the seed corpus alone runs as a
# plain test in the suites above).
go test -fuzz=FuzzWireRoundTrip -fuzztime=10s -run '^$' ./internal/wire/

# Concurrent region-cache sweep: the parallel Cread/Cwrite/Cclose/
# Prefetch suite under both the race detector and the lockcheck
# runtime, -count=2 so the coalescing and pipeline tests see more than
# one schedule. It includes the hit tests (a local hit takes no lock: it
# pins its region's published slot, checks it is still published and
# copies; a Cwrite or a fill into the evicted slot waits for the pin; an
# eviction, a Cwrite or a Cclose racing hits never hands one another
# region's or half a write's bytes), the stamps' exact victims with at
# most 32 resident, and the resident-slice walk (under parallel traffic
# and policy switches the slice holds exactly the regions with a local
# copy). Separate
# invocation so a cache-concurrency regression is attributable here,
# not lost in the whole-tree runs above.
REGION_TESTS='TestConcurrent|TestInterleavedSequentialStreams|TestNoPrefetchAfterFailedRead|TestPrefetchWorkerPool|TestHitCopy|TestPinHoldsSlotWritersNotClose|TestLocalHitAllocatesNothing|TestResidentSlice|TestLocalHitTakesNoCacheLock|TestStaleSlotIsNotRead|TestEvictionRacesHit|TestCwriteRacesHit|TestCcloseRacesHit|TestStampsKeepVictims'
go test -race -run "$REGION_TESTS" -count=2 -timeout 300s ./internal/region/
go test -race -tags lockcheck -run "$REGION_TESTS" -count=2 -timeout 300s ./internal/region/

# Buffers two goroutines share on the read path, under the race detector
# with -count=3: the imd blasts, answers inline reads and hands off pages
# from pinned pool bytes while writes and frees of the region wait for
# the pin (over UDP too, where the frames are pooled), and a remote
# read assembles into the caller's buffer while writes, a dead host or
# Close race it. The CheckAlloc tests run the recovery loop's revalidate
# step on demand while the loop itself may be pushing the same region,
# and one of them holds a CheckAlloc that drops a descriptor it cannot
# re-open to kicking the loop.
go test -race -run 'Pinned|TestHandoffPageFromPinnedBytes|TestFreshRegionReadsZeros' -count=3 ./internal/imd/
go test -race -run 'TestHedgedReadsStayFresh|TestCloseDuringHedgedReads|TestReadOfDeadHostIsNoMem|CheckAlloc' -count=3 ./internal/core/

# The deadline queue every wait of an endpoint sits on: firing order and time, cancel racing a fire, stale expiries,
# and timers armed per delay, not per wait — under the race detector
# and the lockcheck runtime, five schedules each.
DEADLINE_TESTS='TestDeadlines|TestCallsAndEagerTransfersArmO1Timers|TestStaleWindowExpiryReblastsNothing|TestStalledWindowNacksOneDelayAfterLastPacket|TestSteadyArrivalArmsTimersPerIntervalNotPerPacket|TestTombstone|TestUnclaimedTransferReclaimedAtTTL'
go test -race -run "$DEADLINE_TESTS" -count=5 ./internal/sim/ ./internal/bulk/
go test -race -tags lockcheck -run "$DEADLINE_TESTS" -count=5 ./internal/sim/ ./internal/bulk/

# Seeded fault-injection sweep: deterministic schedules plus the full
# churn acceptance run, including the graceful-reclaim handoff
# acceptance tests (pages hand off to peers on owner return, same seed
# => identical handoff schedule, reclaim mid-bulk-read stays correct)
# and the manager crash-recovery tests (directory rebuilt from imd
# inventory re-reports under a new incarnation, dead-incarnation frames
# fenced, same seed => identical crash/restart schedule). Every sweep
# runs on the U-Net segment the benchmarks measure, with bounded
# receive rings: TestSeededFaultSweep fails unless its blasts overflow
# a ring at least once. The segment's own faults ride along: a
# duplicated data frame is a second pooled buffer, never the same one
# deposited twice, and recycled frames stay whole through loss and
# duplication.
# Separate invocation so a hang or flake here is attributable to the
# failure paths, not the unit suites above.
go test -race -run 'TestFaultScheduleDeterministic|TestSeededFaultSweep|TestGracefulReclaimHandoff|TestHandoffScheduleDeterministic|TestReclaimDuringBulkRead|TestManagerCrashRecovery|TestManagerCrashScheduleDeterministic|TestIncarnationFencing' -count=2 -timeout 600s ./internal/cluster/
go test -race -run 'TestDuplicatedDataFrameIsASecondBuffer|TestRecycledFramesThroughLoss' -count=2 ./internal/usocket/ ./internal/bulk/
go test -race -tags lockcheck -run 'TestDuplicatedDataFrameIsASecondBuffer|TestSeededFaultSweep' -count=1 -timeout 600s ./internal/usocket/ ./internal/cluster/
