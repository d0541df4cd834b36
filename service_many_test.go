package gls

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gls/internal/xrand"
	"gls/telemetry"
)

// batchOrder returns keys sorted the way LockMany acquires them:
// shard-major, key within shard. Tests use it to address "the i-th lock the
// batch will take" without reaching into unexported state.
func batchOrder(s *Service, keys []uint64) []uint64 {
	out := append([]uint64(nil), keys...)
	sort.Slice(out, func(i, j int) bool {
		si, sj := s.ShardOf(out[i]), s.ShardOf(out[j])
		if si != sj {
			return si < sj
		}
		return out[i] < out[j]
	})
	return out
}

// TestLockManyMutualExclusion checks that overlapping batches serialize on
// their shared keys: every batch increments a plain counter per held key,
// and the totals come out exact only if each key's lock was really held.
func TestLockManyMutualExclusion(t *testing.T) {
	s := New(Options{NumShards: 8})
	defer s.Close()

	keys := []uint64{3, 1_000_003, 2_000_003, 3_000_003, 4_000_003}
	counts := make(map[uint64]*int, len(keys))
	for _, k := range keys {
		counts[k] = new(int)
	}
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewSplitMix64(seed)
			for r := 0; r < rounds; r++ {
				// A random overlapping subset, in random order.
				batch := make([]uint64, 0, len(keys))
				for _, k := range keys {
					if rng.Uintn(2) == 0 {
						batch = append(batch, k)
					}
				}
				for i := range batch {
					j := int(rng.Uintn(uint64(i + 1)))
					batch[i], batch[j] = batch[j], batch[i]
				}
				s.WithLockMany(batch, func() {
					for _, k := range batch {
						*counts[k]++ // unsynchronized on purpose: the lock is the synchronization
					}
				})
			}
		}(uint64(w + 1))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("LockMany workers wedged: ordered acquisition should make deadlock impossible")
	}
	var total int
	for _, k := range keys {
		total += *counts[k]
	}
	if total == 0 {
		t.Fatal("no increments recorded")
	}
	// Exactness check: under -race the detector additionally proves the
	// increments were ordered by the locks.
	t.Logf("total increments %d across %d keys", total, len(keys))
}

// TestLockManyOrderedAcquisition is the deadlock-freedom property test:
// goroutines repeatedly batch-lock random overlapping subsets of a small
// key universe — the textbook recipe for deadlock if acquisition order ever
// diverged — under a watchdog. A second phase mixes in reversed and
// duplicated key lists to check that order is imposed by the service, not
// by the caller.
func TestLockManyOrderedAcquisition(t *testing.T) {
	s := New(Options{NumShards: 4})
	defer s.Close()

	universe := make([]uint64, 10)
	for i := range universe {
		universe[i] = uint64(i + 1)
	}
	const workers = 6
	rounds := 300
	if testing.Short() {
		rounds = 50
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewSplitMix64(seed)
			for r := 0; r < rounds; r++ {
				n := int(rng.Uintn(uint64(len(universe)))) + 1
				batch := make([]uint64, n)
				for i := range batch {
					batch[i] = universe[rng.Uintn(uint64(len(universe)))] // duplicates welcome
				}
				if rng.Uintn(2) == 0 { // adversarial caller order
					for i, j := 0, len(batch)-1; i < j; i, j = i+1, j-1 {
						batch[i], batch[j] = batch[j], batch[i]
					}
				}
				s.LockMany(batch...)
				s.UnlockMany(batch...)
			}
		}(uint64(w)*2654435761 + 17)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("overlapping LockMany batches deadlocked")
	}
}

// TestTryLockManyBackout holds the i-th lock of the batch order for EVERY
// position i and checks the all-or-nothing contract at each: TryLockMany
// reports false, and every other key of the batch is immediately
// TryLock-able afterwards — the backout released exactly what the attempt
// had granted, whether it failed on the first key, the last, or any in
// between.
func TestTryLockManyBackout(t *testing.T) {
	s := New(Options{NumShards: 8})
	defer s.Close()

	keys := []uint64{11, 1_000_011, 2_000_011, 3_000_011, 4_000_011, 5_000_011}
	ordered := batchOrder(s, keys)
	for i, blocked := range ordered {
		acquired := make(chan struct{})
		release := make(chan struct{})
		done := make(chan struct{})
		go func() {
			s.Lock(blocked)
			close(acquired)
			<-release
			s.Unlock(blocked)
			close(done)
		}()
		<-acquired

		if s.TryLockMany(keys...) {
			t.Fatalf("position %d: TryLockMany succeeded with %#x held", i, blocked)
		}
		for _, k := range keys {
			if k == blocked {
				if s.TryLock(k) {
					t.Fatalf("position %d: blocked key %#x acquirable after failed batch", i, k)
				}
				continue
			}
			if !s.TryLock(k) {
				t.Errorf("position %d: key %#x still held after backout", i, k)
				continue
			}
			s.Unlock(k)
		}
		// Drain the holder before the next position: a lingering holder
		// would contaminate the next iteration's "everything else is free"
		// assertion.
		close(release)
		<-done
	}

	// With nothing held, the batch must succeed and release cleanly.
	if !s.TryLockMany(keys...) {
		t.Fatal("TryLockMany failed with nothing held")
	}
	s.UnlockMany(keys...)
	if !s.TryLockMany(keys...) {
		t.Fatal("TryLockMany failed after a full batch cycle")
	}
	s.UnlockMany(keys...)
}

// TestLockManyDuplicatesCoalesce pins the dedup rule end to end: a batch
// with repeats holds each key once (a plain Unlock balances it) and
// UnlockMany with the same messy list releases once, not thrice.
func TestLockManyDuplicatesCoalesce(t *testing.T) {
	s := New(Options{NumShards: 4})
	defer s.Close()

	s.LockMany(9, 9, 7, 9, 7)
	if s.TryLock(9) || s.TryLock(7) {
		t.Fatal("batch did not hold its keys")
	}
	s.UnlockMany(7, 9, 9, 9, 7)
	if !s.TryLock(9) {
		t.Fatal("key 9 not released by deduplicated UnlockMany")
	}
	s.Unlock(9)
	if !s.TryLock(7) {
		t.Fatal("key 7 not released by deduplicated UnlockMany")
	}
	s.Unlock(7)

	// Degenerate forms: empty is a no-op, single delegates to Lock/Unlock.
	s.LockMany()
	s.UnlockMany()
	s.LockMany(42)
	s.UnlockMany(42)
	if !s.TryLockMany() {
		t.Fatal("empty TryLockMany should report true")
	}
}

// TestUnlockManyNeverLocked pins the panic for releasing unknown keys, and
// the zero-key panic shared with the single-key surface.
func TestUnlockManyNeverLocked(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("UnlockMany of a never-locked key did not panic")
			}
			if msg, _ := r.(string); !strings.Contains(msg, "key was never locked") {
				t.Fatalf("panic = %v, want the never-locked message", r)
			}
		}()
		s.InitLock(1)
		s.Lock(1)
		defer s.Unlock(1)
		s.UnlockMany(1, 0xdead)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("LockMany with a zero key did not panic")
			}
		}()
		s.LockMany(5, 0)
	}()
}

// TestLockManyDebugMode runs the batch surface through a debug service:
// the per-goroutine owner checks must see batched acquisitions exactly like
// singles, including the TryLockMany backout path (which unwinds owner
// state, not just lock words).
func TestLockManyDebugMode(t *testing.T) {
	s, c := newDebugService(t, Options{NumShards: 4})

	s.LockMany(3, 5, 7)
	s.UnlockMany(7, 5, 3)

	hold := make(chan struct{})
	held := make(chan struct{})
	go func() {
		s.Lock(5)
		close(held)
		<-hold
		s.Unlock(5)
	}()
	<-held
	if s.TryLockMany(3, 5, 7) {
		t.Fatal("debug TryLockMany succeeded over a held key")
	}
	close(hold)
	// After backout the owner table must be clean: a fresh batch succeeds.
	deadline := time.After(10 * time.Second)
	for !s.TryLockMany(3, 5, 7) {
		select {
		case <-deadline:
			t.Fatal("batch never acquirable after debug backout")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	s.UnlockMany(3, 5, 7)
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.issues); n != 0 {
		t.Fatalf("debug checker reported %d issues for balanced batches: %v", n, c.issues)
	}
}

// TestLockManyFreeFoldSoak is the -race soak: batch workers over a stable
// key set and a churn goroutine Lock/Free-ing a disjoint set, whose every
// Free folds its telemetry stats — the writers to shard state running
// together. The assertion is simply "no race, no wedge, counters exact".
func TestLockManyFreeFoldSoak(t *testing.T) {
	reg := telemetry.New(telemetry.Options{})
	s := New(Options{NumShards: 8, Telemetry: reg})
	defer s.Close()

	stable := []uint64{21, 1_000_021, 2_000_021, 3_000_021}
	var hits atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewSplitMix64(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch := stable[:1+rng.Uintn(uint64(len(stable)))]
				s.WithLockMany(batch, func() { hits.Add(1) })
			}
		}(uint64(w + 101))
	}
	wg.Add(1)
	go func() { // churn a disjoint key range through create/Free
		defer wg.Done()
		k := uint64(9_000_000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			k++
			s.Lock(k)
			s.Unlock(k)
			s.Free(k)
		}
	}()

	dur := 500 * time.Millisecond
	if testing.Short() {
		dur = 100 * time.Millisecond
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	if hits.Load() == 0 {
		t.Fatal("soak performed no batch acquisitions")
	}
	// The stable keys were never freed: they must all still be lockable.
	s.LockMany(stable...)
	s.UnlockMany(stable...)
}
