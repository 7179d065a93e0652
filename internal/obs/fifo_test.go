package obs

import (
	"reflect"
	"testing"
)

func TestFIFOEvictsOldestAtCap(t *testing.T) {
	f := NewFIFO[string, int](2)
	f.Put("a", 1)
	f.Put("b", 2)
	f.Put("c", 3)
	if _, ok := f.Get("a"); ok {
		t.Error("oldest entry survived past the cap")
	}
	if got := f.Values(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("Values = %v, want [2 3] oldest first", got)
	}
	if f.Len() != 2 {
		t.Errorf("Len = %d, want 2", f.Len())
	}
	if NewFIFO[string, int](0).max != 1 {
		t.Error("non-positive cap not clamped to 1")
	}
}

func TestFIFOReplaceKeepsPlace(t *testing.T) {
	f := NewFIFO[string, int](2)
	f.Put("a", 1)
	f.Put("b", 2)
	f.Put("a", 10) // replace: "a" stays the oldest
	f.Update("b", func(v *int) { *v += 5 })
	f.Put("c", 3)
	if _, ok := f.Get("a"); ok {
		t.Error("replaced entry moved to the back of the line")
	}
	if got := f.Values(); !reflect.DeepEqual(got, []int{7, 3}) {
		t.Errorf("Values = %v, want [7 3]", got)
	}
}

func TestFIFOHoldExemptsFromEviction(t *testing.T) {
	f := NewFIFO[string, int](1)
	release := f.Hold("job")
	f.Put("job", 1)
	for _, k := range []string{"x", "y", "z"} {
		f.Put(k, 0)
	}
	if _, ok := f.Get("job"); !ok {
		t.Fatal("held entry evicted")
	}
	// The held entry rides above the cap: one unheld entry besides it.
	if got := f.Values(); !reflect.DeepEqual(got, []int{1, 0}) || f.Len() != 2 {
		t.Errorf("Values = %v, want [1 0] (held + the newest unheld)", got)
	}
	release()
	if _, ok := f.Get("job"); !ok {
		t.Error("release alone evicted the entry; eviction waits for the next insertion")
	}
	f.Put("w", 0)
	if _, ok := f.Get("job"); ok || f.Len() != 1 {
		t.Errorf("released entry survived the next insertion (len %d)", f.Len())
	}
}
