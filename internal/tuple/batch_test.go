package tuple

import (
	"bytes"
	"math"
	"testing"

	"tcq/internal/scratch"
)

func batchSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Column{Name: "id", Type: Int},
		Column{Name: "x", Type: Float},
		Column{Name: "s", Type: String, Size: 8},
	)
}

func TestBatchRoundTrip(t *testing.T) {
	s := batchSchema(t)
	rows := []Tuple{
		{int64(1), 1.5, "a"},
		{int64(-7), 0.0, ""},
		{int64(42), -2.25, "zz\x00z"},
	}
	b := NewBatch(s)
	if b.Len() != 0 {
		t.Fatalf("empty batch Len = %d", b.Len())
	}
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	got := b.Rows()
	if len(got) != len(rows) {
		t.Fatalf("Rows len = %d, want %d", len(got), len(rows))
	}
	for i := range rows {
		if Compare(got[i], rows[i], nil, nil) != 0 {
			t.Errorf("row %d = %v, want %v", i, got[i], rows[i])
		}
		if Compare(b.Row(i), rows[i], nil, nil) != 0 {
			t.Errorf("Row(%d) = %v, want %v", i, b.Row(i), rows[i])
		}
	}
	if err := b.AppendRow(Tuple{int64(1), 1.0, "way-too-long"}); err == nil {
		t.Error("AppendRow accepted oversized string")
	}
	if err := b.AppendRow(Tuple{1.0, 1.0, ""}); err == nil {
		t.Error("AppendRow accepted wrong-typed value")
	}
}

func TestBatchSliceViewsSurviveAppend(t *testing.T) {
	s := batchSchema(t)
	b := NewBatch(s)
	for i := 0; i < 10; i++ {
		if err := b.AppendRow(Tuple{int64(i), float64(i), "v"}); err != nil {
			t.Fatal(err)
		}
	}
	view := b.Slice(2, 5)
	if view.Len() != 3 {
		t.Fatalf("view Len = %d, want 3", view.Len())
	}
	// Appending to the owner must not clobber the view (cap-clamped).
	for i := 10; i < 200; i++ {
		if err := b.AppendRow(Tuple{int64(i), 0.0, ""}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if got := view.Ints(0)[i]; got != int64(i+2) {
			t.Errorf("view row %d id = %d, want %d", i, got, i+2)
		}
	}
	empty := b.Slice(4, 4)
	if empty.Len() != 0 || len(empty.Rows()) != 0 {
		t.Errorf("empty slice view not empty: len=%d", empty.Len())
	}
}

func TestBatchAppendBatchAndMake(t *testing.T) {
	s := batchSchema(t)
	ids := []int64{5, 6}
	xs := []float64{0.5, 0.25}
	ss := []string{"p", "q"}
	m, err := MakeBatch(s, 2, ids, xs, ss)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(s)
	if err := b.AppendBatch(m); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendBatch(m.Slice(1, 2)); err != nil {
		t.Fatal(err)
	}
	want := []int64{5, 6, 6}
	for i, w := range want {
		if got := b.Ints(0)[i]; got != w {
			t.Errorf("ids[%d] = %d, want %d", i, got, w)
		}
	}
	if _, err := MakeBatch(s, 2, ids, xs); err == nil {
		t.Error("MakeBatch accepted missing column")
	}
	if _, err := MakeBatch(s, 2, xs, ids, ss); err == nil {
		t.Error("MakeBatch accepted type mismatch")
	}
	if _, err := MakeBatch(s, 3, ids, xs, ss); err == nil {
		t.Error("MakeBatch accepted length mismatch")
	}
}

// TestBatchNormKeyMatchesTuple pins that the typed-column key encoder
// produces byte-identical keys to the row encoder in key.go.
func TestBatchNormKeyMatchesTuple(t *testing.T) {
	s := MustSchema(
		Column{Name: "id", Type: Int},
		Column{Name: "s", Type: String, Size: 10},
		Column{Name: "f", Type: Float},
	)
	rows := []Tuple{
		{int64(0), "", math.Copysign(0, -1)},
		{int64(-1), "a\x00b", math.NaN()},
		{int64(1 << 40), "plain", -2.5},
	}
	b := NewBatch(s)
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, cols := range [][]int{nil, {0}, {1, 0}, {2, 0}} {
		for _, widen := range [][]bool{nil, {false, true}} {
			if len(cols) != 2 && widen != nil {
				continue
			}
			for i, r := range rows {
				want := AppendNormKey(nil, r, cols, widen)
				got := b.AppendNormKey(nil, i, cols, widen)
				if !bytes.Equal(got, want) {
					t.Errorf("cols %v widen %v row %d: batch key %x != tuple key %x", cols, widen, i, got, want)
				}
			}
		}
	}
}

func TestBatchProjectAndRowsAt(t *testing.T) {
	s := batchSchema(t)
	b := NewBatch(s)
	for i := 0; i < 4; i++ {
		if err := b.AppendRow(Tuple{int64(i), float64(i) / 2, "r"}); err != nil {
			t.Fatal(err)
		}
	}
	ps, idx, err := s.Project([]string{"s", "id"})
	if err != nil {
		t.Fatal(err)
	}
	mem := new(scratch.Arena)
	pv := b.Project(mem, ps, idx)
	if pv.Len() != 4 {
		t.Fatalf("projected Len = %d", pv.Len())
	}
	if got := pv.Row(2); Compare(got, Tuple{"r", int64(2)}, nil, nil) != 0 {
		t.Errorf("projected row = %v", got)
	}
	sel := b.Gather(mem, []int32{3, 0}).Rows()
	if len(sel) != 2 || sel[0][0].(int64) != 3 || sel[1][0].(int64) != 0 || sel[0][1].(float64) != 1.5 {
		t.Errorf("Gather rows = %v", sel)
	}
	if g := b.Gather(mem, nil); g.Len() != 0 || g.Rows() != nil {
		t.Error("Gather(empty) should be an empty batch")
	}
	// AppendJoined: l∘r rows by index pairs, then left-only rows.
	js, err := s.Concat(ps, "l", "r")
	if err != nil {
		t.Fatal(err)
	}
	j := NewBatchCap(mem, js, 2)
	j.AppendJoined(b, []int32{1, 2}, pv, []int32{3, 0})
	if got := j.Row(1); j.Len() != 2 || Compare(got, Tuple{int64(2), 1.0, "r", "r", int64(0)}, nil, nil) != 0 {
		t.Errorf("joined row = %v (len %d)", got, j.Len())
	}
	l := NewBatchCap(mem, s, 1)
	l.AppendJoined(b, []int32{2}, nil, nil)
	l.AppendJoined(b, []int32{0, 3}, nil, nil) // past the reserved capacity
	if got := l.Rows(); len(got) != 3 || got[0][0].(int64) != 2 || got[2][0].(int64) != 3 {
		t.Errorf("left-only rows = %v", got)
	}
}
