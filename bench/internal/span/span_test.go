package span

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: NoParent, Op: 1, Name: "op", Start: 0, End: 100},
		// Two children overlapping on [30,40): their union covers [10,60).
		{ID: 1, Parent: 0, Op: 1, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Op: 1, Name: "b", Start: 30, End: 60},
		// A gap [60,80), then a child running past its parent's end.
		{ID: 3, Parent: 0, Op: 1, Name: "c", Start: 80, End: 120},
		// A grandchild: covers part of "a" only.
		{ID: 4, Parent: 1, Op: 1, Name: "a.inner", Start: 15, End: 25},
	}
	self := SelfTimes(spans)
	want := map[int]int64{
		0: 100 - (50 + 20), // uncovered: [0,10) + [60,80)
		1: 30 - 10,
		2: 30,
		3: 40,
		4: 10,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("SelfTimes = %v; want %v", self, want)
	}
	agg := Aggregate(spans)
	if agg.Roots != 1 || agg.RootNs != 100 || agg.UnaccountedNs != 30 {
		t.Errorf("Aggregate roots=%d rootNs=%d unaccounted=%d; want 1, 100, 30", agg.Roots, agg.RootNs, agg.UnaccountedNs)
	}
	if agg.SelfNs["a"] != 20 || agg.SelfNs["a.inner"] != 10 || agg.SelfNs["b"] != 30 {
		t.Errorf("Aggregate by name = %v", agg.SelfNs)
	}
}

// TestSelfTimesSumToRoot: with children nested inside their parents, the
// self times of the whole tree add up to the root's duration — the
// identity "decomposed spans plus unaccounted sum to the op's wall time".
func TestSelfTimesSumToRoot(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: NoParent, Name: "op", Start: 5, End: 1005},
		{ID: 1, Parent: 0, Name: "matrix", Start: 10, End: 700},
		{ID: 2, Parent: 0, Name: "solve", Start: 710, End: 990},
		{ID: 3, Parent: 2, Name: "ksp", Start: 720, End: 800},
	}
	var sum int64
	for _, v := range SelfTimes(spans) {
		sum += v
	}
	if sum != 1000 {
		t.Errorf("self times sum to %d; want the root's 1000", sum)
	}
}

func TestRecorderAndFileRoundTrip(t *testing.T) {
	r := NewRecorder()
	root := r.Start(7, NoParent, "op")
	r.Do(7, root, "child", func() {})
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 7 || spans[0].End < spans[1].End {
		t.Fatalf("recorded %+v", spans)
	}
	var nilRec *Recorder
	nilRec.Do(1, nilRec.Start(1, NoParent, "x"), "y", func() {})
	if nilRec.Spans() != nil {
		t.Error("nil recorder recorded spans")
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	in := File{Workload: "place_cold", Seed: 42, Spans: spans}
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("trace file round trip: wrote %+v, read %+v", in, out)
	}
}
