package telemetry

import (
	"strings"
	"testing"

	"gls/internal/stripe"
)

// touch drives one uncontended acquisition through st.
func touch(st *LockStats) {
	tok := stripe.Self()
	a := st.Arrive(tok)
	a.Acquired(false)
	st.Release(tok)
}

// TestRegisterShardedRollup checks the registry-side shard plumbing in
// isolation from the service: shard stamps on lock snapshots, the rolled-up
// shards block, monotonic totals across Unregister, and the diff.
func TestRegisterShardedRollup(t *testing.T) {
	r := New(Options{SamplePeriod: 1})
	a := r.RegisterSharded(1, "glk", 0)
	b := r.RegisterSharded(2, "glk", 0)
	c := r.RegisterSharded(3, "glk", 5)
	touch(a)
	touch(a)
	touch(b)
	touch(c)

	snap := r.Snapshot()
	if got := snap.Lock(3); got == nil || got.Shard != 5 {
		t.Fatalf("lock 3 shard = %+v, want stamp 5", got)
	}
	if len(snap.Shards) != 2 {
		t.Fatalf("shards block %+v, want entries for shards 0 and 5", snap.Shards)
	}
	if sh := snap.Shards[0]; sh.Shard != 0 || sh.Locks != 2 || sh.Acquisitions != 3 {
		t.Errorf("shard 0 = %+v, want 2 locks, 3 acquisitions", sh)
	}
	if sh := snap.Shards[1]; sh.Shard != 5 || sh.Locks != 1 || sh.Acquisitions != 1 {
		t.Errorf("shard 5 = %+v, want 1 lock, 1 acquisition", sh)
	}

	// Unregister folds lock 1's counts into shard 0's retired side; the
	// shard's acquisition total must not move backwards.
	r.Unregister(1)
	snap2 := r.Snapshot()
	if sh := snap2.Shards[0]; sh.Locks != 1 || sh.Retired != 1 || sh.Acquisitions != 3 {
		t.Errorf("after Unregister, shard 0 = %+v, want 1 live, 1 retired, 3 acquisitions", sh)
	}

	// Diff: activity between the snapshots is all that remains.
	touch(b)
	snap3 := r.Snapshot()
	diff := snap3.Diff(snap2)
	var d0 *ShardSnapshot
	for i := range diff.Shards {
		if diff.Shards[i].Shard == 0 {
			d0 = &diff.Shards[i]
		}
	}
	if d0 == nil || d0.Acquisitions != 1 || d0.Retired != 0 {
		t.Errorf("shard 0 diff = %+v, want 1 acquisition, 0 retired", d0)
	}
}

// TestShardRollupAbsentWhenUnsharded pins the compatibility contract: a
// registry fed only through plain Register never emits a shards block, in
// the snapshot or in any rendered form.
func TestShardRollupAbsentWhenUnsharded(t *testing.T) {
	r := New(Options{SamplePeriod: 1})
	touch(r.Register(1, "glk"))
	snap := r.Snapshot()
	if len(snap.Shards) != 0 {
		t.Fatalf("unsharded registry produced shards: %+v", snap.Shards)
	}
	var text, prom strings.Builder
	if err := snap.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text.String(), "shard") {
		t.Errorf("unsharded text output mentions shards:\n%s", text.String())
	}
	if err := snap.WritePromText(&prom); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prom.String(), "gls_shard_") {
		t.Errorf("unsharded prom output has shard families:\n%s", prom.String())
	}
}

// TestShardPromFamilies checks the per-shard exposition: one series per
// shard per family, labeled only by shard number.
func TestShardPromFamilies(t *testing.T) {
	r := New(Options{SamplePeriod: 1})
	touch(r.RegisterSharded(1, "glk", 2))
	touch(r.RegisterSharded(2, "glk", 7))
	r.Unregister(2)

	var buf strings.Builder
	if err := r.Snapshot().WritePromText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`gls_shard_locks{shard="2"} 1`,
		`gls_shard_locks{shard="7"} 0`,
		`gls_shard_acquisitions_total{shard="2"} 1`,
		`gls_shard_acquisitions_total{shard="7"} 1`,
		`gls_shard_retired_locks_total{shard="7"} 1`,
		"# TYPE gls_shard_locks gauge",
		"# TYPE gls_shard_acquisitions_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
}

// TestDerivePointCarriesShard checks that interval rates keep the shard
// stamp, which is what glsstat -top keys its SHARD column on.
func TestDerivePointCarriesShard(t *testing.T) {
	r := New(Options{SamplePeriod: 1})
	s := NewSampler(r, SamplerOptions{TopK: 4})
	touch(r.RegisterSharded(9, "glk", 3))
	p := s.Sample()
	if len(p.Top) != 1 || p.Top[0].Shard != 3 {
		t.Fatalf("sampled rates = %+v, want shard 3 on key 9", p.Top)
	}
	if p.Interval == nil || len(p.Interval.Shards) == 0 {
		t.Fatal("interval diff lost the shards block")
	}
}
