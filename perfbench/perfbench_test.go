package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gls"
)

// noLock is a lock without exclusion: every acquisition succeeds at once.
type noLock struct{}

func (noLock) Lock(uint64)         {}
func (noLock) Unlock(uint64)       {}
func (noLock) RLock(uint64)        {}
func (noLock) RUnlock(uint64)      {}
func (noLock) TryLock(uint64) bool { return true }

const checkWindow = 200 * time.Millisecond

func TestZipfCheckCatchesBrokenLock(t *testing.T) {
	keys, streams := zipfInputs(1, 64, 1<<12, generators)
	res := newResults(generators, 1, false)
	zipfDrive(noLock{}, keys, streams, 0, checkWindow, res)
	r := newReport()
	checkZipf(r, noLock{}, keys, res.merge(-1))
	if r.correct() {
		t.Fatal("lib-zipf checks passed a lock without exclusion")
	}

	svc := gls.New(gls.Options{})
	defer svc.Close()
	keys, streams = zipfInputs(1, 64, 1<<12, generators)
	res = newResults(generators, 1, false)
	zipfDrive(svc, keys, streams, 0, checkWindow, res)
	r = newReport()
	checkZipf(r, svc, keys, res.merge(-1))
	if !r.correct() {
		t.Fatalf("lib-zipf checks failed the gls service: %v", r.failures)
	}
}

func TestRWCheckCatchesBrokenLock(t *testing.T) {
	keys, streams := rwInputs(1, 1<<12, generators)
	res := newResults(generators, 1, false)
	rwDrive(noLock{}, keys, streams, 0, checkWindow, res)
	r := newReport()
	m := res.merge(-1)
	checkRW(r, noLock{}, keys, m, uint64(m.writes))
	if r.correct() {
		t.Fatal("lib-rw-hot checks passed a lock without exclusion")
	}

	keys, streams = rwInputs(1, 1<<12, generators)
	svc := rwSetup(keys)
	defer svc.Close()
	w0 := rwWrites(svc, keys)
	res = newResults(generators, 1, true)
	rwDrive(svc, keys, streams, 0, checkWindow, res)
	r = newReport()
	checkRW(r, svc, keys, res.merge(-1), rwWrites(svc, keys)-w0)
	if !r.correct() {
		t.Fatalf("lib-rw-hot checks failed the gls service: %v", r.failures)
	}
}

// fakeSession grants every acquisition with the token next returns.
type fakeSession struct{ next func() uint64 }

func (f fakeSession) TryLock(uint64, time.Duration) (uint64, error) { return f.next(), nil }
func (f fakeSession) Lock(context.Context, uint64, time.Duration, time.Duration) (uint64, error) {
	return f.next(), nil
}
func (f fakeSession) Unlock(uint64) error { return nil }

func runFakeWire(next func() uint64) *report {
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = keyOf(1, uint64(i))
	}
	// Each session gets its own half of the keys: the fakes exclude
	// nothing, so a shared key could see grants race.
	streams := [][]uint64{make([]uint64, 1<<10), make([]uint64, 1<<10)}
	half := len(keys) / 2
	for g, s := range streams {
		for i := range s {
			s[i] = keys[g*half+i*7%half]
		}
	}
	sessions := []wireSession{fakeSession{next}, fakeSession{next}}
	res := newWireResults(len(sessions), 1, false)
	wireDrive(sessions, nil, streams, false, newFence(keys), 0, checkWindow/4, nil, res)
	r := newReport()
	checkGrants(r, "fake", res.merge(-1))
	return r
}

func TestWireCheckCatchesRepeatedTokens(t *testing.T) {
	if r := runFakeWire(func() uint64 { return 7 }); r.correct() {
		t.Fatal("wire checks passed a token sequence that repeats")
	}
	var tok atomic.Uint64
	if r := runFakeWire(func() uint64 { return tok.Add(1) }); !r.correct() {
		t.Fatalf("wire checks failed strictly increasing tokens: %v", r.failures)
	}
}

// benchmarkFile is BENCHMARK.json as the benchmark contract defines it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) (benchmarkFile, map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !sameSet(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
	}
	return b, units
}

func sameSet(a, b []string) bool {
	x := map[string]int{}
	for _, s := range a {
		x[s]++
	}
	for _, s := range b {
		x[s]--
	}
	for _, n := range x {
		if n != 0 {
			return false
		}
	}
	return len(a) == len(b)
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	b, _ := loadBenchmark(t)
	if !reflect.DeepEqual(b.Paths, []string{"perfbench"}) || !reflect.DeepEqual(b.Command, []string{"bash", "perfbench/run.sh"}) {
		t.Errorf("paths %v, command %v", b.Paths, b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !reflect.DeepEqual(names, code) {
		t.Errorf("workloads %v, code runs %v", names, code)
	}
	names = nil
	maxBound, setupBound := 0.0, 0.0
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be present and the largest (%v)", setupBound, maxBound)
	}
	if !reflect.DeepEqual(names, endToEnd) {
		t.Errorf("end_to_end %v, code reports %v", names, endToEnd)
	}
	names = nil
	for _, m := range b.PerLayer {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, perLayer) {
		t.Errorf("per_layer %v, code reports %v", names, perLayer)
	}
}

// validateResult checks one result line against the contract: exactly the
// keys correct, attempted, failed and metrics; whole-number counts with
// attempted ≥ 1; and exactly the named metrics, each a value with the
// unit BENCHMARK.json gives it.
func validateResult(line []byte, names []string, units map[string]string) error {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		return err
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	if !sameSet(keys, []string{"correct", "attempted", "failed", "metrics"}) {
		return fmt.Errorf("result keys %v", keys)
	}
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int64
		Failed    int64
		Metrics   map[string]map[string]any
	}
	if err := json.Unmarshal(line, &res); err != nil {
		return err
	}
	if res.Attempted < 1 || res.Failed < 0 {
		return fmt.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
	var got []string
	for n, m := range res.Metrics {
		got = append(got, n)
		if len(m) != 2 {
			return fmt.Errorf("metric %s has keys %v", n, m)
		}
		if _, ok := m["value"].(float64); !ok {
			return fmt.Errorf("metric %s value %v is not a number", n, m["value"])
		}
		if m["unit"] != units[n] {
			return fmt.Errorf("metric %s unit %v, BENCHMARK.json says %s", n, m["unit"], units[n])
		}
	}
	if !sameSet(got, names) {
		return fmt.Errorf("metrics %v, want %v", got, names)
	}
	return nil
}

func TestOutputSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	_, units := loadBenchmark(t)
	cases := []struct {
		workload string
		trace    bool
		names    []string
	}{
		{"lib-rw-hot", false, endToEnd},
		{"wire-wait", false, endToEnd},
		{"lib-rw-hot", true, perLayer},
	}
	for _, c := range cases {
		w, _ := findWorkload(c.workload)
		cfg := config{seed: 3, window: 300 * time.Millisecond, trace: c.trace}
		r := runOne(w, cfg)
		var out bytes.Buffer
		if err := emit(&out, r, cfg, w.name, runMeta("test")); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		if len(lines) != 2 {
			t.Fatalf("%s: %d output lines, want report and result", c.workload, len(lines))
		}
		if err := validateResult(lines[1], c.names, units); err != nil {
			t.Errorf("%s trace=%v: %v", c.workload, c.trace, err)
		}
		if !r.correct() {
			t.Errorf("%s trace=%v: failed checks %v", c.workload, c.trace, r.failures)
		}
	}
}

// TestRunFailsOutsideRepository: given only BENCHMARK.json and the
// benchmark's own files, run.sh must exit non-zero without a result.
func TestRunFailsOutsideRepository(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"../BENCHMARK.json", "run.sh", "go.mod"} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, strings.TrimPrefix(f, "../"))
		if !strings.HasPrefix(f, "../") {
			dst = filepath.Join(dir, "perfbench", f)
		}
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "lib-zipf", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatal("run.sh succeeded without the repository")
	}
	if bytes.Contains(out, []byte(`"correct"`)) {
		t.Fatalf("run.sh printed a result without the repository: %s", out)
	}
}
