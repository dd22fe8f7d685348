package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 50, End: 60},
		{Name: "c", ID: 4, Parent: 3, Start: 52, End: 58}, // grandchild: b's business
	}
	want := []time.Duration{70, 20, 4, 6}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	// Two parallel workers inside one call: their union covers 10..50.
	spans := []span{
		{ID: 1, Start: 0, End: 60},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 30, End: 35},
	}
	if got := selfTimes(spans)[0]; got != 20 {
		t.Errorf("self = %d, want 20", got)
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 10, End: 20},
		{ID: 2, Parent: 1, Start: 0, End: 15},  // starts before the parent
		{ID: 3, Parent: 1, Start: 18, End: 40}, // ends after it
	}
	if got := selfTimes(spans)[0]; got != 3 {
		t.Errorf("self = %d, want 3", got)
	}
	// Children longer than the parent leave no negative self time.
	over := []span{{ID: 1, End: 5}, {ID: 2, Parent: 1, End: 9}}
	if got := selfTimes(over)[0]; got != 0 {
		t.Errorf("self = %d, want 0", got)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0)
	child := tr.begin("call", root)
	time.Sleep(time.Millisecond)
	if d := tr.end(child); d < time.Millisecond {
		t.Errorf("child span %v, want >= 1ms", d)
	}
	tr.end(root)
	by := tr.selfByName(time.Microsecond)
	if by["op"].n() != 1 || by["call"].n() != 1 {
		t.Fatalf("spans by name: %v", by)
	}
	if by["op"].sum() >= by["call"].sum() {
		t.Errorf("root self %vus should be below child %vus", by["op"].sum(), by["call"].sum())
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0); id != 0 || nilTracer.end(id) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}
