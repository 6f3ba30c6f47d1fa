package protocol

import (
	"reflect"
	"testing"
)

func TestStacksTable(t *testing.T) {
	want := []Protocol{DTSSS, STSSS, NTSSS, PSM, SPAN, SYNC, TMAC}
	if got := All(); !reflect.DeepEqual(got, want) {
		t.Fatalf("All() = %v, want %v", got, want)
	}
	for _, p := range want {
		if b, ok := Lookup(p); !ok || b == nil {
			t.Fatalf("protocol %q has no builder", p)
		}
	}
	if _, ok := Lookup("NO-SUCH"); ok {
		t.Error("Lookup accepted an unlisted name")
	}
}

// TestTestDoubleResolvesUnlisted: a test double runs by name but stays
// out of All, so every-protocol sweeps see only the real stacks.
func TestTestDoubleResolvesUnlisted(t *testing.T) {
	const name Protocol = "double-under-test"
	RegisterTestDouble(name, func(*BuildContext) {})
	defer delete(testDoubles, name)
	if _, ok := Lookup(name); !ok {
		t.Fatal("registered test double not found")
	}
	for _, p := range All() {
		if p == name {
			t.Fatalf("All() = %v lists the test double", All())
		}
	}
}
