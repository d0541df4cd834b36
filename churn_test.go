package gls

import (
	"runtime"
	"sync"
	"testing"

	"gls/internal/xrand"
	"gls/locks"
	"gls/telemetry"
)

// TestInitLockValidation pins the Table-1 init entry points: InitLockWith
// validates its algorithm exactly like LockWith/TryLockWith/UnlockWith —
// the zero Algorithm (GLS's internal GLK tag) and garbage values panic —
// while the GLK default is reached only through InitLock.
func TestInitLockValidation(t *testing.T) {
	s := newTestService(t, Options{})
	for _, a := range []locks.Algorithm{0, 255} {
		a := a
		mustPanic(t, "InitLockWith(invalid)", func() { s.InitLockWith(a, 1) })
	}
	if n := s.Locks(); n != 0 {
		t.Fatalf("rejected InitLockWith created %d entries", n)
	}
	s.InitLock(1) // the GLK default, via the unexported path
	s.InitLockWith(locks.MCS, 2)
	if n := s.Locks(); n != 2 {
		t.Fatalf("Locks() = %d after two inits, want 2", n)
	}
	s.Lock(1)
	s.Unlock(1)
	s.LockWith(locks.MCS, 2)
	s.Unlock(2)
}

// TestHighCardinalityChurn is the -race stress for the free/re-create
// protocol under the lazy-stripe layout: many keys, every worker locking
// through its own handle (so the freeStart/freeDone epoch validation is
// under fire from every Free), stable keys carrying plain counters whose
// mutual exclusion the race detector and a final tally both check, and a
// per-worker churn range that is freed and re-created continuously, each
// Free retiring the key's telemetry stats.
func TestHighCardinalityChurn(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 16})
	s := newTestService(t, Options{Telemetry: reg})

	const stableKeys = 16
	const perWorker = 64
	const churnBase = uint64(1) << 20
	iters := 4000
	if testing.Short() {
		iters = 1200
	}
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	if workers > 8 {
		workers = 8
	}

	counters := make([]int64, stableKeys) // guarded by their GLS locks
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			rng := xrand.NewSplitMix64(uint64(w)*7919 + 1)
			myBase := churnBase + uint64(w*perWorker)
			for i := 0; i < iters; i++ {
				// Stable key through the handle cache: contended, so these
				// locks inflate their presence stripes mid-test.
				sk := rng.Uintn(stableKeys) + 1
				h.Lock(sk)
				counters[sk-1]++
				h.Unlock(sk)
				// Own churn key: lock, release, sometimes free. Only the
				// owner frees its range, so no goroutine can be inside a
				// lock when its key dies (freeing a key in use is the
				// caller lifecycle bug the paper documents, not this
				// test's subject) — but every Free invalidates every
				// handle's cache service-wide.
				ck := myBase + rng.Uintn(perWorker)
				h.Lock(ck)
				h.Unlock(ck)
				if rng.Uintn(4) == 0 {
					s.Free(ck)
				}
			}
		}(w)
	}
	wg.Wait()

	var total int64
	for _, c := range counters {
		total += c
	}
	if want := int64(workers * iters); total != want {
		t.Fatalf("stable-key counter total = %d, want %d (mutual exclusion broken)", total, want)
	}
	snap := reg.Snapshot()
	if snap.Retired.Locks == 0 {
		t.Fatal("churn retired no telemetry registrations")
	}
	if live, locks := reg.Len(), s.Locks(); live != locks {
		t.Fatalf("registry holds %d stats for %d live locks at quiescence", live, locks)
	}
	// The service itself must still work end to end.
	s.Lock(1)
	s.Unlock(1)
}
