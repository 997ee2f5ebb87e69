package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"tcq/internal/tuple"
	"tcq/internal/vclock"
)

func paperSchema(t *testing.T) *tuple.Schema {
	t.Helper()
	s, err := tuple.NewSchema(
		tuple.Column{Name: "id", Type: tuple.Int},
		tuple.Column{Name: "a", Type: tuple.Int},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Pad to the paper's 200-byte tuples: 5 tuples per 1 KB block.
	s, err = s.WithPadding(200)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestStore() (*Store, *vclock.Sim) {
	clk := vclock.NewSim(1, 0)
	return NewStore(clk, SunProfile(), DefaultBlockSize), clk
}

func fill(t *testing.T, r *Relation, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := r.Append(tuple.Tuple{int64(i), int64(i % 10), ""})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCreateRelationAndBlockingFactor(t *testing.T) {
	s, _ := newTestStore()
	r, err := s.CreateRelation("r", paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.BlockingFactor() != 5 {
		t.Errorf("blocking factor = %d, want 5 (paper setup)", r.BlockingFactor())
	}
	if _, err := s.CreateRelation("r", paperSchema(t)); err == nil {
		t.Error("duplicate relation name should fail")
	}
	if _, err := s.CreateRelation("", paperSchema(t)); err == nil {
		t.Error("empty relation name should fail")
	}
	big := tuple.MustSchema(tuple.Column{Name: "s", Type: tuple.String, Size: 2000})
	if _, err := s.CreateRelation("big", big); err == nil {
		t.Error("tuple larger than a block should fail")
	}
}

func TestPaperGeometry(t *testing.T) {
	// 10,000 tuples of 200 bytes => 2,000 blocks of 5 tuples.
	s, _ := newTestStore()
	r, _ := s.CreateRelation("r", paperSchema(t))
	fill(t, r, 10000)
	if r.NumTuples() != 10000 {
		t.Errorf("NumTuples = %d", r.NumTuples())
	}
	if r.NumBlocks() != 2000 {
		t.Errorf("NumBlocks = %d, want 2000", r.NumBlocks())
	}
}

func TestAppendValidation(t *testing.T) {
	s, _ := newTestStore()
	r, _ := s.CreateRelation("r", paperSchema(t))
	if err := r.Append(tuple.Tuple{int64(1)}); err == nil {
		t.Error("appending wrong arity should fail")
	}
	if err := r.AppendAll([]tuple.Tuple{{int64(1), int64(2), ""}, {int64(1)}}); err == nil {
		t.Error("AppendAll should surface invalid tuples")
	}
	if r.NumTuples() != 1 {
		t.Errorf("partial AppendAll left %d tuples, want 1", r.NumTuples())
	}
}

func TestReadBlockChargesClock(t *testing.T) {
	s, clk := newTestStore()
	r, _ := s.CreateRelation("r", paperSchema(t))
	fill(t, r, 12)
	before := clk.Now()
	ts, err := r.ReadBlock(0, vclock.Unarmed())
	if err != nil {
		t.Fatal(err)
	}
	if ts.Len() != 5 {
		t.Errorf("block 0 holds %d tuples, want 5", ts.Len())
	}
	if got := clk.Now() - before; got != s.Costs().BlockRead {
		t.Errorf("charge = %v, want %v", got, s.Costs().BlockRead)
	}
	// Last, partial block.
	ts, err = r.ReadBlock(2, vclock.Unarmed())
	if err != nil {
		t.Fatal(err)
	}
	if ts.Len() != 2 {
		t.Errorf("last block holds %d tuples, want 2", ts.Len())
	}
	c := s.Counters()
	if c.BlocksRead != 2 || c.TuplesRead != 7 {
		t.Errorf("counters = %+v", c)
	}
	if _, err := r.ReadBlock(99, vclock.Unarmed()); err == nil {
		t.Error("out-of-range block should fail")
	}
	if _, err := r.ReadBlock(-1, vclock.Unarmed()); err == nil {
		t.Error("negative block should fail")
	}
}

func TestReadBlockHonoursDeadline(t *testing.T) {
	s, clk := newTestStore()
	r, _ := s.CreateRelation("r", paperSchema(t))
	fill(t, r, 10)
	dl := vclock.NewDeadline(clk, 10*time.Millisecond)
	clk.Advance(11 * time.Millisecond)
	_, err := r.ReadBlock(0, dl)
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("expected ErrDeadline, got %v", err)
	}
	if s.Counters().BlocksRead != 0 {
		t.Error("aborted read must not charge a block read")
	}
}

func TestScan(t *testing.T) {
	s, _ := newTestStore()
	r, _ := s.CreateRelation("r", paperSchema(t))
	fill(t, r, 23)
	var n int
	err := r.Scan(vclock.Unarmed(), func(tp tuple.Tuple) error {
		n++
		return nil
	})
	if err != nil || n != 23 {
		t.Errorf("scan saw %d tuples (err=%v), want 23", n, err)
	}
	if s.Counters().BlocksRead != 5 {
		t.Errorf("scan read %d blocks, want 5", s.Counters().BlocksRead)
	}
	sentinel := errors.New("stop")
	n = 0
	err = r.Scan(vclock.Unarmed(), func(tp tuple.Tuple) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || n != 3 {
		t.Errorf("scan early stop: n=%d err=%v", n, err)
	}
}

func TestAllTuplesDoesNotCharge(t *testing.T) {
	s, clk := newTestStore()
	r, _ := s.CreateRelation("r", paperSchema(t))
	fill(t, r, 10)
	before := clk.Now()
	if got := len(r.AllTuples()); got != 10 {
		t.Errorf("AllTuples len = %d", got)
	}
	if clk.Now() != before {
		t.Error("AllTuples must not charge the clock")
	}
}

func TestCatalogOps(t *testing.T) {
	s, _ := newTestStore()
	s.CreateRelation("a", paperSchema(t))
	s.CreateRelation("b", paperSchema(t))
	if len(s.RelationNames()) != 2 {
		t.Errorf("names = %v", s.RelationNames())
	}
	if _, err := s.Relation("a"); err != nil {
		t.Error(err)
	}
	if _, err := s.Relation("zz"); err == nil {
		t.Error("missing relation lookup should fail")
	}
	if err := s.DropRelation("a"); err != nil {
		t.Error(err)
	}
	if err := s.DropRelation("a"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestTempFileChargesPerPage(t *testing.T) {
	s, clk := newTestStore()
	f := s.NewScratchFile(paperSchema(t))
	before := clk.Now()
	for i := 0; i < 12; i++ {
		f.WriteN(1)
	}
	f.Flush()
	f.Flush() // idempotent: nothing pending
	want := 12*s.Costs().TupleWrite + 3*s.Costs().PageWrite
	if got := clk.Now() - before; got != want {
		t.Errorf("temp file charges = %v, want %v", got, want)
	}
	c := s.Counters()
	if c.TuplesWritten != 12 || c.PagesWritten != 3 {
		t.Errorf("counters = %+v", c)
	}
}

func TestResetCounters(t *testing.T) {
	s, _ := newTestStore()
	r, _ := s.CreateRelation("r", paperSchema(t))
	fill(t, r, 5)
	r.ReadBlock(0, vclock.Unarmed())
	s.ResetCounters()
	if s.Counters() != (Counters{}) {
		t.Errorf("counters after reset = %+v", s.Counters())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s, _ := newTestStore()
	r, _ := s.CreateRelation("r", paperSchema(t))
	fill(t, r, 137)
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, _ := newTestStore()
	r2, err := s2.LoadRelation("copy", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if r2.NumTuples() != 137 || r2.NumBlocks() != r.NumBlocks() {
		t.Errorf("loaded %d tuples in %d blocks", r2.NumTuples(), r2.NumBlocks())
	}
	a, b := r.AllTuples(), r2.AllTuples()
	for i := range a {
		if tuple.Compare(a[i], b[i], nil, nil) != 0 {
			t.Fatalf("tuple %d mismatch: %v vs %v", i, a[i], b[i])
		}
	}
	if !r2.Schema().Equal(r.Schema()) {
		t.Error("loaded schema mismatch")
	}
}

func TestSaveLoadFile(t *testing.T) {
	s, _ := newTestStore()
	r, _ := s.CreateRelation("r", paperSchema(t))
	fill(t, r, 9)
	path := t.TempDir() + "/rel.tcq"
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s2, _ := newTestStore()
	r2, err := s2.LoadRelationFile("r", path)
	if err != nil {
		t.Fatal(err)
	}
	if r2.NumTuples() != 9 {
		t.Errorf("loaded %d tuples, want 9", r2.NumTuples())
	}
	if _, err := s2.LoadRelationFile("x", path+".missing"); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	s, _ := newTestStore()
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE0000000000000000"),
		"truncated": func() []byte {
			s0, _ := newTestStore()
			r, _ := s0.CreateRelation("r", tuple.MustSchema(tuple.Column{Name: "v", Type: tuple.Int}))
			r.Append(tuple.Tuple{int64(1)})
			r.Append(tuple.Tuple{int64(2)})
			var buf bytes.Buffer
			r.Save(&buf)
			return buf.Bytes()[:buf.Len()-4]
		}(),
	}
	i := 0
	for name, data := range cases {
		if _, err := s.LoadRelation(fmt.Sprintf("c%d", i), bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected load failure", name)
		}
		i++
	}
	// A failed load must not leave a half-registered relation behind.
	for _, n := range s.RelationNames() {
		t.Errorf("stale relation %q after failed load", n)
	}
}

func TestOpenRelationFileOnDemand(t *testing.T) {
	// Write a relation, reopen it file-backed, and verify block reads,
	// scans, counts and a full query-path equivalence with the
	// in-memory copy.
	s, _ := newTestStore()
	r, _ := s.CreateRelation("r", paperSchema(t))
	fill(t, r, 137)
	path := t.TempDir() + "/r.tcq"
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	s2, clk := newTestStore()
	fb, err := s2.OpenRelationFile("r", path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if fb.NumTuples() != 137 {
		t.Errorf("NumTuples = %d", fb.NumTuples())
	}
	if fb.NumBlocks() != r.NumBlocks() {
		t.Errorf("NumBlocks = %d, want %d", fb.NumBlocks(), r.NumBlocks())
	}
	// Block reads charge the clock like in-memory ones.
	before := clk.Now()
	blk, err := fb.ReadBlock(0, vclock.Unarmed())
	if err != nil {
		t.Fatal(err)
	}
	if blk.Len() != 5 {
		t.Errorf("block 0 = %d tuples", blk.Len())
	}
	if clk.Now()-before != s2.Costs().BlockRead {
		t.Error("file-backed read must charge a block read")
	}
	// Last, partial block.
	last, err := fb.ReadBlock(fb.NumBlocks()-1, vclock.Unarmed())
	if err != nil {
		t.Fatal(err)
	}
	if last.Len() != 137%5 {
		t.Errorf("last block = %d tuples, want %d", last.Len(), 137%5)
	}
	if _, err := fb.ReadBlock(fb.NumBlocks(), vclock.Unarmed()); err == nil {
		t.Error("out-of-range read should fail")
	}
	// Tuples identical to the source.
	a, b := r.AllTuples(), fb.AllTuples()
	if len(a) != len(b) {
		t.Fatalf("AllTuples %d vs %d", len(a), len(b))
	}
	for i := range a {
		if tuple.Compare(a[i], b[i], nil, nil) != 0 {
			t.Fatalf("tuple %d differs", i)
		}
	}
	// Read-only.
	if err := fb.Append(tuple.Tuple{int64(1), int64(2), ""}); err == nil {
		t.Error("file-backed relation should be read-only")
	}
	// Save round-trips from the file-backed copy too.
	var buf bytes.Buffer
	if err := fb.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s3, _ := newTestStore()
	r3, err := s3.LoadRelation("again", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if r3.NumTuples() != 137 {
		t.Errorf("resaved tuples = %d", r3.NumTuples())
	}
}

func TestOpenRelationFileErrors(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.OpenRelationFile("x", "/does/not/exist"); err == nil {
		t.Error("missing file should fail")
	}
	bad := t.TempDir() + "/bad.tcq"
	os.WriteFile(bad, []byte("NOPE"), 0o644)
	if _, err := s.OpenRelationFile("x", bad); err == nil {
		t.Error("corrupt file should fail")
	}
	if len(s.RelationNames()) != 0 {
		t.Error("failed open must not register a relation")
	}
	// In-memory relations: Close is a no-op.
	r, _ := s.CreateRelation("m", paperSchema(t))
	if err := r.Close(); err != nil {
		t.Errorf("in-memory Close: %v", err)
	}
}
