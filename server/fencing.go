package server

import (
	"sync"

	"gls"
)

// Fencing tokens and key lifecycle accounting.
//
// Every grant of a key — first or hundredth, any session — mints the key's
// next fencing token: a per-key monotonic counter that storage-side
// consumers compare to reject stale holders (a client whose lease expired
// while it was paused cannot clobber the new holder's writes, because the
// new holder's token is larger; see client.FencedStore and DESIGN.md §14).
//
// The same table carries each key's server-side reference count: one ref
// per in-flight acquisition attempt plus one per registered grant. The
// count is what makes it safe for the server to call Service.Free at all —
// gls.Free of a key with queued waiters silently orphans them onto the old
// lock object, outside mutual exclusion with the key's next incarnation
// (see the Free contract in service.go). Every path that is about to touch
// the service for a key takes a ref under the key's stripe mutex first, so
// a Free can never interleave with a resolution.
//
// Lifecycle. A key's record exists exactly while its count is non-zero.
// The unref that brings the count to zero is the single point where the
// key's state dies: under the stripe mutex it folds the key's last token
// into the stripe's floor, frees the lock object (which also retires the
// key's telemetry stats) and deletes the record. The table therefore holds
// only live keys, and server memory is bounded by them, not by every key
// ever touched.
//
// Monotonicity survives the delete through the floor: each stripe keeps
// the highest token any of its dead keys ever carried, and a missing
// record is born with token = floor. A reincarnated key therefore mints
// above anything its stripe ever issued — in particular above its own
// previous incarnation. The floor is shared by the stripe's keys, so a
// revisited key's sequence may jump, but it never repeats or goes back.

// keyStripes is the stripe count of the key table. Power of two; sized so
// stripe mutexes are uncontended at benchmark connection counts.
const keyStripes = 64

// keyInfo is one live key's server-side lifecycle record.
type keyInfo struct {
	token uint64 // last minted fencing token (the stripe floor at birth)
	refs  int32  // in-flight acquisitions + registered grants
}

// keyStripe is one lock-striped partition of the key table.
type keyStripe struct {
	mu    sync.Mutex
	m     map[uint64]keyInfo
	floor uint64 // highest token of any key deleted from this stripe
}

// keyTable is the striped key→(token, refs) map of live keys.
type keyTable struct {
	svc     *gls.Service
	stripes [keyStripes]keyStripe
}

func newKeyTable(svc *gls.Service) *keyTable {
	t := &keyTable{svc: svc}
	for i := range t.stripes {
		t.stripes[i].m = make(map[uint64]keyInfo)
	}
	return t
}

func (t *keyTable) stripe(key uint64) *keyStripe {
	// The low bits of the key are adversarial (sequential client keys);
	// fold the high half in so stripes spread. Cheaper than a full mix and
	// good enough for a mutex-stripe choice.
	return &t.stripes[(key^key>>32)%keyStripes]
}

// lookup returns key's record, or a fresh one born at the stripe floor.
// Caller holds s.mu.
func (s *keyStripe) lookup(key uint64) keyInfo {
	if ki, ok := s.m[key]; ok {
		return ki
	}
	return keyInfo{token: s.floor}
}

// ref records an acquisition attempt (or grant hand-over) for key.
func (t *keyTable) ref(key uint64) {
	s := t.stripe(key)
	s.mu.Lock()
	ki := s.lookup(key)
	ki.refs++
	s.m[key] = ki
	s.mu.Unlock()
}

// unref drops one reference. When the count reaches zero it retires the
// key — floor update, Service.Free, record delete — still holding the
// stripe mutex, so no new acquisition of key can begin until it completes.
func (t *keyTable) unref(key uint64) {
	s := t.stripe(key)
	s.mu.Lock()
	ki, ok := s.m[key]
	if !ok || ki.refs <= 0 {
		s.mu.Unlock()
		panic("glsd: key refcount underflow")
	}
	ki.refs--
	if ki.refs == 0 {
		s.floor = max(s.floor, ki.token)
		t.svc.Free(key)
		delete(s.m, key)
	} else {
		s.m[key] = ki
	}
	s.mu.Unlock()
}

// mint returns key's next fencing token. Called only while the caller
// physically holds key's lock, so tokens are handed out in grant order:
// strictly increasing per key across sessions, expiries and Frees.
func (t *keyTable) mint(key uint64) uint64 {
	s := t.stripe(key)
	s.mu.Lock()
	ki := s.lookup(key) // live: a grant implies an earlier ref
	ki.token++
	s.m[key] = ki
	s.mu.Unlock()
	return ki.token
}

// current reports a bound on key's tokens: no later grant of key carries a
// token ≤ the returned value. For a live key it is exactly the last minted
// token; for an absent key it is the stripe floor (0 = the stripe never
// retired a granted key).
func (t *keyTable) current(key uint64) uint64 {
	s := t.stripe(key)
	s.mu.Lock()
	tok := s.lookup(key).token
	s.mu.Unlock()
	return tok
}
