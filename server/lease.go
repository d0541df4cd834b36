package server

import (
	"container/heap"
	"sync"
	"time"
)

// Leases. Every grant carries a TTL; the expiry sweeper — one goroutine
// per server, ticking on the same cadence discipline as the telemetry
// Sampler (a bounded-minimum interval ticker, see Options.SweepInterval) —
// releases leases whose holders went quiet. The heap holds the grants
// themselves, each at most once: a grant enters it when registered, is
// re-keyed in place by renew and by teardown's clamp, and leaves it on
// every single-remover path (unlock, renew's lapsed branch, expiry), so
// the heap holds exactly the live leases. The session's held map stays
// authoritative: the sweeper revalidates a popped grant (still registered,
// actually past its expiry) under the session mutex before releasing it,
// which settles a race with a concurrent unlock or renew. Session death
// clamps every held lease to "now" and kicks the sweeper, so
// disconnect-release and TTL-release are one code path.

// leaseHeap is a min-heap of grants by heap key (grant.at), each grant
// tracking its own index so it can be re-keyed or removed in place.
type leaseHeap []*grant

func (h leaseHeap) Len() int           { return len(h) }
func (h leaseHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h leaseHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *leaseHeap) Push(x any) {
	g := x.(*grant)
	g.idx = len(*h)
	*h = append(*h, g)
}
func (h *leaseHeap) Pop() any {
	old := *h
	n := len(old)
	g := old[n-1]
	old[n-1] = nil
	g.idx = -1
	*h = old[:n-1]
	return g
}

// leaseQueue is the sweeper's shared state: the heap plus a kick channel
// for immediate sweeps (session death, tests). A grant's at and idx are
// written only under mu.
//
// Lock order: leaseQueue.mu is a leaf below session.mu (grants are queued,
// re-keyed and removed while holding session.mu), and the sweeper never
// holds leaseQueue.mu while taking a session mutex — due grants are
// drained into a local slice first (see Server.sweepDue).
type leaseQueue struct {
	mu   sync.Mutex
	h    leaseHeap
	kick chan struct{}
}

func newLeaseQueue() *leaseQueue {
	return &leaseQueue{kick: make(chan struct{}, 1)}
}

// schedule sets g's expiry check to at: a queued grant is re-keyed in
// place, any other (new, or popped by a sweep that has not yet
// revalidated it) is queued.
func (q *leaseQueue) schedule(g *grant, at time.Time) {
	q.mu.Lock()
	g.at = at
	if g.idx >= 0 {
		heap.Fix(&q.h, g.idx)
	} else {
		heap.Push(&q.h, g)
	}
	q.mu.Unlock()
}

// remove drops g from the heap, if it is queued.
func (q *leaseQueue) remove(g *grant) {
	q.mu.Lock()
	if g.idx >= 0 {
		heap.Remove(&q.h, g.idx)
	}
	q.mu.Unlock()
}

// wake nudges the sweeper to run now (idempotent while a nudge is pending).
func (q *leaseQueue) wake() {
	select {
	case q.kick <- struct{}{}:
	default:
	}
}

// due pops every grant with at <= now into a fresh slice, leaving later
// ones queued. Runs under q.mu only — the caller validates against
// session state afterwards, without this mutex held.
func (q *leaseQueue) due(now time.Time) []*grant {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*grant
	for len(q.h) > 0 && !q.h[0].at.After(now) {
		out = append(out, heap.Pop(&q.h).(*grant))
	}
	return out
}

// size reports queued grants: the live leases, less any a sweep has
// popped and not yet released.
func (q *leaseQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.h)
}
