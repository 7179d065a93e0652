package obs

import "sync"

// FIFO is a bounded key→value map that remembers insertion order: once
// it holds more than its cap, the oldest entries are evicted first.
// Replacing a key's value keeps its place in line. It is the one
// bounded store behind qlecd's span store, audit history and profile
// store.
//
// A held key (see Hold) is never evicted and does not count against
// the cap, so with h keys held the map may hold up to cap+h entries.
type FIFO[K comparable, V any] struct {
	mu    sync.Mutex
	m     map[K]V
	order []K
	held  map[K]int
	max   int
}

// NewFIFO returns an empty FIFO capped at max entries (min 1).
func NewFIFO[K comparable, V any](max int) *FIFO[K, V] {
	if max < 1 {
		max = 1
	}
	return &FIFO[K, V]{m: make(map[K]V), held: make(map[K]int), max: max}
}

// Put inserts v under k, or replaces k's value in place.
func (f *FIFO[K, V]) Put(k K, v V) {
	f.Update(k, func(old *V) { *old = v })
}

// Update calls fn under the lock with k's value — the zero V for an
// absent key, which is then inserted — and stores what fn leaves
// there. fn must not call back into the FIFO.
func (f *FIFO[K, V]) Update(k K, fn func(v *V)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.m[k]
	fn(&v)
	f.m[k] = v
	if ok {
		return
	}
	f.order = append(f.order, k)
	unheld := len(f.m)
	for hk := range f.held {
		if _, ok := f.m[hk]; ok {
			unheld--
		}
	}
	for i := 0; unheld > f.max && i < len(f.order); {
		if f.held[f.order[i]] > 0 {
			i++
			continue
		}
		delete(f.m, f.order[i])
		f.order = append(f.order[:i], f.order[i+1:]...)
		unheld--
	}
}

// Get returns k's value and whether it is held.
func (f *FIFO[K, V]) Get(k K) (V, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.m[k]
	return v, ok
}

// Values returns every value, oldest first.
func (f *FIFO[K, V]) Values() []V {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]V, len(f.order))
	for i, k := range f.order {
		out[i] = f.m[k]
	}
	return out
}

// Len reports the number of entries.
func (f *FIFO[K, V]) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}

// Hold exempts k — present now or inserted later — from eviction until
// release is called. Holds nest. Releasing evicts nothing by itself:
// the map returns under its cap at the next insertion.
func (f *FIFO[K, V]) Hold(k K) (release func()) {
	f.mu.Lock()
	f.held[k]++
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.held[k]--; f.held[k] <= 0 {
			delete(f.held, k)
		}
	}
}
