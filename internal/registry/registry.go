// Package registry holds what every model layer shares: the ordered
// name→model table a layer lists its models in (protocols, topology
// generators, propagation models, radio profiles, metric sinks,
// dynamics kinds), and the strict reader for a model's numeric params.
package registry

import (
	"fmt"
	"slices"
)

// Entry is one named model in a layer's table.
type Entry[K ~string, V any] struct {
	Name  K
	Model V
}

// Table is a layer's fixed list of models. Its order is the order the
// layer lists its names in.
type Table[K ~string, V any] []Entry[K, V]

// Lookup returns the model listed under name.
func (t Table[K, V]) Lookup(name K) (V, bool) {
	for _, e := range t {
		if e.Name == name {
			return e.Model, true
		}
	}
	var zero V
	return zero, false
}

// Names lists the table's names in table order.
func (t Table[K, V]) Names() []K {
	out := make([]K, len(t))
	for i, e := range t {
		out[i] = e.Name
	}
	return out
}

// Params reads one model's numeric params strictly: every key of the
// map must be asked for by Float before Done, or Done fails naming the
// key, so a misspelt knob is an error rather than a silent default.
// Reading an empty map allocates nothing.
type Params struct {
	m     map[string]float64
	known []string
}

// ReadParams starts a strict read of m.
func ReadParams(m map[string]float64) Params { return Params{m: m} }

// Float returns the param under key, or def when it is absent.
func (p *Params) Float(key string, def float64) float64 {
	if len(p.m) == 0 {
		return def
	}
	p.known = append(p.known, key)
	if v, ok := p.m[key]; ok {
		return v
	}
	return def
}

// Done reports the first key, in sorted order, that no Float call asked
// for.
func (p *Params) Done() error {
	if len(p.m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(p.m))
	for k := range p.m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if !slices.Contains(p.known, k) {
			return fmt.Errorf("unknown param %q (known: %v)", k, p.known)
		}
	}
	return nil
}
