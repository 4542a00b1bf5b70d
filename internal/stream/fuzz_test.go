package stream

import (
	"strings"
	"testing"
)

// FuzzParseEvent drives the text event-log parser, a trust boundary: logs
// arrive from files and HTTP bodies. Any input must parse or fail without
// panicking; an accepted record has a non-negative time, re-parses to the
// same Event from its whitespace-normalized fields, and can be applied to
// both an empty accumulator and one whose entities already exist.
func FuzzParseEvent(f *testing.F) {
	for _, s := range []string{
		"av 0 1", "rv 3 1", "ae 2 7 1 2", "re 5 7", "vp 1 1 color 3", "ep 4 7 w -2",
		"av -1 1", "ae 1 2", "zz 1 2", "", "av", "  av\t9223372036854775807  1 ",
		"vp 0 1 a b 2", "ep 0 7 w 1.5", "av 0x1 1", "ae 0 7 1 1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		ev, err := ParseEvent(line)
		if err != nil {
			return
		}
		if ev.T < 0 {
			t.Fatalf("accepted %q with negative time %d", line, ev.T)
		}
		norm := strings.Join(strings.Fields(line), " ")
		again, err := ParseEvent(norm)
		if err != nil {
			t.Fatalf("normalized %q rejected: %v", norm, err)
		}
		if again != ev {
			t.Fatalf("%q parsed to %+v, normalized %q to %+v", line, ev, norm, again)
		}
		_ = NewAccumulator().Apply(ev)
		acc := NewAccumulator()
		for _, pre := range []Event{
			{Op: AddVertex, V: ev.V}, {Op: AddVertex, V: ev.Src}, {Op: AddVertex, V: ev.Dst},
			{Op: AddEdge, E: ev.E, Src: ev.Src, Dst: ev.Dst},
		} {
			_ = acc.Apply(pre)
		}
		_ = acc.Apply(ev)
	})
}
