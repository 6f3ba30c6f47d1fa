package registry

import (
	"reflect"
	"strings"
	"testing"
)

func TestTableLookupAndNames(t *testing.T) {
	type key string
	tab := Table[key, int]{{"zeta", 1}, {"mid", 2}, {"alpha", 3}}
	if got, ok := tab.Lookup("mid"); !ok || got != 2 {
		t.Fatalf("Lookup(mid) = %d, %v; want 2, true", got, ok)
	}
	for _, miss := range []key{"nope", ""} {
		if v, ok := tab.Lookup(miss); ok {
			t.Fatalf("Lookup(%q) = %d, true; want miss", miss, v)
		}
	}
	// Names keeps table order; it does not sort.
	if got, want := tab.Names(), []key{"zeta", "mid", "alpha"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestParamsReadsKnownKeysAndDefaults(t *testing.T) {
	p := ReadParams(map[string]float64{"width": 60})
	if got := p.Float("width", 1); got != 60 {
		t.Errorf("Float(width) = %g, want 60", got)
	}
	if got := p.Float("depth", 7); got != 7 {
		t.Errorf("Float(depth) = %g, want the default 7", got)
	}
	if err := p.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsRejectsUnknownKey(t *testing.T) {
	p := ReadParams(map[string]float64{"jitter": 1, "jiter": 5, "bogus": 2})
	p.Float("jitter", 0)
	err := p.Done()
	if err == nil {
		t.Fatal("unknown keys accepted")
	}
	// The first unknown key in sorted order is named, with the known keys.
	if msg := err.Error(); !strings.Contains(msg, `"bogus"`) || !strings.Contains(msg, "jitter") {
		t.Errorf("error %q does not name the key and the known keys", msg)
	}
	none := ReadParams(map[string]float64{"x": 1})
	if none.Done() == nil {
		t.Error("a model with no params accepted a key")
	}
}

func TestParamsEmptyReadDoesNotAllocate(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		p := ReadParams(nil)
		p.Float("sigma", 4)
		p.Float("pathloss", 3)
		if p.Done() != nil {
			t.Fatal("empty params rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("reading empty params allocated %v times per read", allocs)
	}
}
