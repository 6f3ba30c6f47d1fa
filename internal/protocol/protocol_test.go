package protocol

import (
	"reflect"
	"testing"
)

func TestRegistryContents(t *testing.T) {
	want := []Protocol{DTSSS, STSSS, NTSSS, PSM, SPAN, SYNC, TMAC}
	if got := All(); !reflect.DeepEqual(got, want) {
		t.Fatalf("All() = %v, want %v", got, want)
	}
	for _, p := range want {
		b, ok := Lookup(p)
		if !ok {
			t.Fatalf("protocol %q not registered", p)
		}
		if b.Protocol() != p {
			t.Fatalf("builder for %q reports name %q", p, b.Protocol())
		}
	}
	if _, ok := Lookup("NO-SUCH"); ok {
		t.Error("Lookup accepted an unregistered name")
	}
}

type fakeBuilder struct{ name Protocol }

func (f fakeBuilder) Protocol() Protocol  { return f.name }
func (f fakeBuilder) Build(*BuildContext) {}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(99, fakeBuilder{name: DTSSS})
}
