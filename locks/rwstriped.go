package locks

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"gls/internal/backoff"
	"gls/internal/pad"
	"gls/internal/stripe"
)

// rwInflateReaders is the deflated reader count at which an arriving reader
// inflates the stripe spill: 2 means "another reader is here right now" —
// the same observed-concurrency trigger GLK uses for its presence counter.
const rwInflateReaders = 2

// RWStriped is a striped-reader reader-writer spinlock in the style of
// BRAVO (Dice & Kogan, "BRAVO — Biased Locking for Reader-Writer Locks")
// and the kernel's brlock: readers announce themselves in per-stripe
// counter cells chosen by a per-goroutine hash, and a writer, after taking
// the writer mutex and raising the writer flag, sweeps the stripes until
// the reader count drains to zero.
//
// The shape inverts RWTTAS's cost model. RWTTAS makes every RLock a
// compare-and-swap on one shared word — readers invalidate each other's
// cache lines even though they conflict with nobody — while here a reader
// in the steady state writes only its own stripe line and *reads* the
// shared line (writer flag), which stays valid in every reader's cache
// until a writer actually arrives. Writers pay for that: acquisition is a
// mutex, a flag store, and a sweep of NumStripes+1 lines. That is the right
// trade exactly where reader-writer locks matter — read-mostly workloads
// (kyoto, litesql, appsync model theirs at 90%+ reads).
//
// Space follows the lazy-striping discipline of DESIGN.md §8: an idle lock
// is one cache line (writer flag, writer mutex, inline reader cell); the
// stripe spill is allocated only when a reader observes another reader
// (rwInflateReaders), so a million-key table of uncontended RW locks never
// pays the 8-line spill. locks/layout_test.go pins both sizes.
//
// Writers are FIFO among themselves (ticket mutex). Readers that arrive
// while a writer holds or drains back their count out and wait, so writers
// are not starved by a reader flood; between writers, readers flow freely.
//
// The reverse is not free: a continuous writer stream keeps the flag up
// almost continuously, and a plain RWStriped reader can be bypassed by an
// unbounded number of writer phases (lockstress -bug readerstarvation
// demonstrates it). The MaxBypass knob closes that hole without touching
// the steady-state read path or the 1-line idle footprint: a reader that
// has been bypassed by MaxBypass writer phases — counted off the writer
// ticket's owner word (TicketCore.Handoffs), which the reader polls on the
// line it already watches — stops waiting for a gap and instead takes a
// ticket in the writer queue (wmu), which is FIFO: it is admitted behind
// at most the writers already queued, holds the ticket just long enough to
// register its read share, and releases it. Every wmu release advances the
// count, so another reader's escalation counts as a phase too; that only
// escalates earlier. A writer that holds without handing off bypasses
// nobody; a backstop of MaxBypass short waiting rounds escalates against
// such a writer as well (glk.RWLock's starvation signal has the same
// pair). MaxBypass zero
// (the default, and the pre-glsfair behavior) leaves the bypass unbounded;
// write-heavy workloads wanting a phase bound by construction should use
// RWPhaseFairAlgo instead (DESIGN.md §10 has the decision table).
type RWStriped struct {
	readers   stripe.Counter // lazily-striped count of present readers
	writer    atomic.Uint32  // 1 while a writer holds or is draining
	maxBypass uint32         // reader escalation bound; 0 = unbounded (see SetMaxBypass)
	bypasses  atomic.Uint64  // escalations taken, for tests and reports
	wmu       TicketCore     // writer↔writer exclusion, FIFO
	_         [pad.CacheLineSize - unsafe.Sizeof(stripe.Counter{}) - 4 - 4 - 8 - unsafe.Sizeof(TicketCore{})]byte
}

var _ RWLock = (*RWStriped)(nil)

// NewRWStriped returns an unlocked striped reader-writer lock with an
// unbounded writer bypass (see NewRWStripedBounded for the fair variant).
func NewRWStriped() *RWStriped { return new(RWStriped) }

// NewRWStripedBounded returns an unlocked striped reader-writer lock whose
// readers escalate into the writer ticket queue after maxBypass writer
// phases have bypassed them — the bounded-bypass variant. DefaultMaxBypass
// is the recommended bound.
func NewRWStripedBounded(maxBypass uint32) *RWStriped {
	l := new(RWStriped)
	l.maxBypass = maxBypass
	return l
}

// DefaultMaxBypass is the recommended bounded-bypass setting: small enough
// that a reader under a writer stream waits tens, not thousands, of phases,
// large enough that a couple of back-to-back writers never force the
// escalation path (which serializes the escalating reader behind the writer
// ticket).
const DefaultMaxBypass = 16

// SetMaxBypass sets the bounded-bypass knob: after maxBypass writer phases
// have bypassed it, a waiting reader queues behind the next writer's
// ticket instead of waiting for a flag gap. Zero restores
// the unbounded default. Call it before the lock is shared (the field is
// read without synchronization on the reader slow path).
func (l *RWStriped) SetMaxBypass(maxBypass uint32) { l.maxBypass = maxBypass }

// Bypasses returns how many readers have taken the bounded-bypass
// escalation so far (always zero while MaxBypass is zero).
func (l *RWStriped) Bypasses() uint64 { return l.bypasses.Load() }

// RLock acquires a read share. In the steady state (no writer) this is one
// atomic update on the caller's stripe line plus one read of the shared
// line; while the counter is deflated the update lands in the inline cell
// and doubles as the concurrency probe that triggers inflation.
func (l *RWStriped) RLock() {
	tok := stripe.Self()
	var s backoff.Spinner
	var since uint32 // writer-ticket handoffs at our first backout
	polls := -1      // bounded-bypass wait polls; -1 until the first backout
	for {
		n := l.readers.AddGet(tok, 1)
		if l.writer.Load() == 0 {
			// The deflated AddGet value is the global reader count: a second
			// simultaneous reader proves reader concurrency, which is what
			// the stripes exist for. (Inflated, n is stripe-local and the
			// Inflate below is a no-op load.)
			if n >= rwInflateReaders {
				l.readers.Inflate()
			}
			return
		}
		// A writer holds or is draining: back our count out so the drain can
		// finish, then wait for the flag to drop off the shared line.
		l.readers.Add(tok, -1)
		if l.maxBypass == 0 {
			for l.writer.Load() != 0 {
				s.Spin()
			}
			continue
		}
		if polls < 0 {
			since, polls = l.wmu.Handoffs(), 0
		}
		if l.waitBounded(since, &polls) {
			l.rlockQueued(tok)
			return
		}
	}
}

// Bounded-bypass wait pacing: a waiting reader polls the shared line
// between one-unit pauses and yields every rwBypassYieldEvery polls, so it
// re-reads the phase count at least once per scheduling turn — a long
// backoff pause would let a fast writer stream run far past the bound
// between two reads. rwBypassPolls polls make one waiting round of the
// backstop.
const (
	rwBypassYieldEvery = 8
	rwBypassPolls      = 64
)

// waitBounded waits for the writer flag to drop and reports whether the
// reader must escalate instead: MaxBypass writer phases have completed
// since it first backed out (the wmu owner word, wraparound-exact), or —
// the backstop for one writer that holds without handing off, which
// bypasses nobody — it has waited MaxBypass rounds.
func (l *RWStriped) waitBounded(since uint32, polls *int) bool {
	bound := l.maxBypass
	for l.writer.Load() != 0 {
		if l.wmu.Handoffs()-since >= bound || *polls >= int(bound)*rwBypassPolls {
			return true
		}
		*polls++
		if *polls%rwBypassYieldEvery == 0 {
			runtime.Gosched()
		} else {
			backoff.Pause(1)
		}
	}
	return false
}

// rlockQueued is the bounded-bypass escalation: take a writer ticket (FIFO
// — at most the writers already queued go first), register the read share
// while holding it, and hand the ticket straight back. Holding wmu
// guarantees the writer flag is down (only the wmu holder raises it, and
// both Unlock paths clear it before releasing wmu), so the share
// registration cannot race a drain; writers that queued behind us will
// drain it like any other reader's.
func (l *RWStriped) rlockQueued(tok uint64) {
	l.wmu.Lock()
	if l.readers.AddGet(tok, 1) >= rwInflateReaders {
		l.readers.Inflate()
	}
	l.wmu.Unlock()
	l.bypasses.Add(1)
}

// TryRLock attempts to acquire a read share without waiting.
func (l *RWStriped) TryRLock() bool {
	if l.writer.Load() != 0 {
		return false
	}
	tok := stripe.Self()
	n := l.readers.AddGet(tok, 1)
	if l.writer.Load() == 0 {
		if n >= rwInflateReaders {
			l.readers.Inflate()
		}
		return true
	}
	l.readers.Add(tok, -1)
	return false
}

// RUnlock releases a read share. The token may differ from the one RLock
// used (stack depths differ between call sites); the counter's total stays
// exact across any token sequence.
func (l *RWStriped) RUnlock() {
	l.readers.Add(stripe.Self(), -1)
}

// Lock acquires the write lock: writer↔writer exclusion through the FIFO
// ticket mutex, then the flag store that turns new readers away, then the
// sweep that waits out readers already inside. Publication order matters —
// flag first, then sweep — and Go atomics are sequentially consistent, so a
// reader whose increment the sweep missed must observe the flag and back
// out (the store-load pairing of a Dekker handshake).
func (l *RWStriped) Lock() {
	l.wmu.Lock()
	l.writer.Store(1)
	var s backoff.Spinner
	for l.readers.Sum() != 0 {
		s.Spin()
	}
}

// TryLock attempts to acquire the write lock without waiting: it fails if
// another writer holds the mutex or any reader is present (including
// readers that are mid-backout; try semantics are conservative).
func (l *RWStriped) TryLock() bool {
	if !l.wmu.TryLock() {
		return false
	}
	l.writer.Store(1)
	if l.readers.Sum() != 0 {
		l.writer.Store(0)
		l.wmu.Unlock()
		return false
	}
	return true
}

// Unlock releases the write lock.
func (l *RWStriped) Unlock() {
	l.writer.Store(0)
	l.wmu.Unlock()
}

// Readers returns the current reader count (racy snapshot; diagnostics
// only). Transient negatives from in-flight backouts read as zero.
func (l *RWStriped) Readers() int {
	if n := l.readers.Sum(); n > 0 {
		return int(n)
	}
	return 0
}

// WriteLocked reports whether a writer holds (or is acquiring) the lock
// (racy snapshot).
func (l *RWStriped) WriteLocked() bool { return l.writer.Load() != 0 }

// ReadersInflated reports whether the reader counter has spilled to its
// striped form — i.e. whether the lock ever observed reader concurrency.
// Introspection for footprint accounting and tests.
func (l *RWStriped) ReadersInflated() bool { return l.readers.Inflated() }
