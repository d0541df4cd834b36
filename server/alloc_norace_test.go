//go:build !race

package server

import "testing"

// TestParseCommandAllocs pins the codec's hot path at zero allocations:
// the single-key request lines split into ParseCommand's stack array and
// parse without copying. (Built without -race: the race runtime allocates
// on its own.)
func TestParseCommandAllocs(t *testing.T) {
	for _, line := range []string{
		"trylock 0x1f2e3d4c5b6a 1000",
		"unlock 0x1f2e3d4c5b6a",
		"wait 18446744073709551615 0x1f2e3d4c5b6a 1000 2000",
		"renew 0x1f2e3d4c5b6a 500",
	} {
		var cmd Command
		var perr *ProtoError
		if n := testing.AllocsPerRun(1000, func() { cmd, perr = ParseCommand(line, 0) }); n != 0 {
			t.Errorf("ParseCommand(%q): %v allocations, want 0", line, n)
		}
		if perr != nil || cmd.Op == OpInvalid {
			t.Errorf("ParseCommand(%q) = %+v, %v", line, cmd, perr)
		}
	}
}
