package storage

import (
	"errors"
	"testing"
	"time"

	"tcq/internal/tuple"
	"tcq/internal/vclock"
)

func batchTestSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Column{Name: "id", Type: tuple.Int},
		tuple.Column{Name: "pad", Type: tuple.String, Size: 120}, // bf = 8
	)
}

func buildPair(t *testing.T, n int) (rowRel, batchRel *Relation, st *Store) {
	t.Helper()
	st = NewStore(vclock.NewSim(1, 0), SunProfile(), DefaultBlockSize)
	s := batchTestSchema()
	var err error
	rowRel, err = st.CreateRelation("rows", s)
	if err != nil {
		t.Fatal(err)
	}
	batchRel, err = st.CreateRelation("batch", s)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, n)
	pads := make([]string, n)
	for i := range ids {
		ids[i] = int64(i * 3)
	}
	for j := 0; j < n; j++ {
		if err := rowRel.Append(tuple.Tuple{int64(j * 3), ""}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := tuple.MakeBatch(s, n, ids, pads)
	if err != nil {
		t.Fatal(err)
	}
	if err := batchRel.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	return rowRel, batchRel, st
}

// TestBatchRelationMirrorsRowRelation pins the two load APIs against
// the one representation: a relation loaded row by row through Append
// exposes exactly the same blocks, tuples and read charges as one bulk
// loaded through AppendBatch with the same data.
func TestBatchRelationMirrorsRowRelation(t *testing.T) {
	const n = 21 // bf=8 → 2 full blocks + 1 partial
	rowRel, batchRel, st := buildPair(t, n)
	if rowRel.NumBlocks() != batchRel.NumBlocks() || rowRel.NumTuples() != batchRel.NumTuples() {
		t.Fatalf("shape mismatch: blocks %d/%d tuples %d/%d",
			rowRel.NumBlocks(), batchRel.NumBlocks(), rowRel.NumTuples(), batchRel.NumTuples())
	}
	clk := st.Clock().(*vclock.Sim)
	dl := vclock.Unarmed()
	for i := 0; i < rowRel.NumBlocks(); i++ {
		before := clk.Now()
		c0 := st.Counters()
		rb, err := rowRel.ReadBlock(i, dl)
		if err != nil {
			t.Fatal(err)
		}
		afterRow := clk.Now() - before
		bb, err := batchRel.ReadBlock(i, dl)
		if err != nil {
			t.Fatal(err)
		}
		afterBatch := clk.Now() - before - afterRow
		if afterRow != afterBatch {
			t.Errorf("block %d: Append-loaded read charged %v, AppendBatch-loaded read charged %v", i, afterRow, afterBatch)
		}
		c1 := st.Counters()
		if c1.BlocksRead-c0.BlocksRead != 2 || c1.TuplesRead-c0.TuplesRead != 2*int64(rb.Len()) {
			t.Errorf("block %d: counter deltas diverge: %+v -> %+v", i, c0, c1)
		}
		if rb.Len() != bb.Len() {
			t.Fatalf("block %d: %d vs %d rows", i, rb.Len(), bb.Len())
		}
		for j := 0; j < rb.Len(); j++ {
			if tuple.Compare(rb.Row(j), bb.Row(j), nil, nil) != 0 {
				t.Fatalf("block %d row %d: %v vs %v", i, j, rb.Row(j), bb.Row(j))
			}
		}
	}
	rowAll, batchAll := rowRel.AllTuples(), batchRel.AllTuples()
	if len(rowAll) != len(batchAll) {
		t.Fatalf("AllTuples length %d vs %d", len(rowAll), len(batchAll))
	}
	for i := range rowAll {
		if tuple.Compare(rowAll[i], batchAll[i], nil, nil) != 0 {
			t.Fatalf("AllTuples[%d]: %v vs %v", i, rowAll[i], batchAll[i])
		}
	}
}

func TestBatchRelationDeadlineAndAppend(t *testing.T) {
	_, batchRel, st := buildPair(t, 5)
	clk := st.Clock().(*vclock.Sim)
	expired := vclock.NewDeadline(clk, -time.Second)
	if _, err := batchRel.ReadBlock(0, expired); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired read err = %v, want ErrDeadline", err)
	}
	if _, err := batchRel.ReadBlock(99, vclock.Unarmed()); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	// Row appends land in the same storage and extend the block range.
	if err := batchRel.Append(tuple.Tuple{int64(1000), "x"}); err != nil {
		t.Fatal(err)
	}
	if got := batchRel.NumTuples(); got != 6 {
		t.Fatalf("NumTuples after mixed append = %d", got)
	}
	all := batchRel.AllTuples()
	if all[5][0].(int64) != 1000 {
		t.Fatalf("appended row not visible: %v", all[5])
	}
	// And the other order: a relation started with Append takes AppendBatch.
	rowRel, err := st.CreateRelation("rows2", batchTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := rowRel.Append(tuple.Tuple{int64(-1), ""}); err != nil {
		t.Fatal(err)
	}
	b, err := tuple.MakeBatch(batchTestSchema(), 2, []int64{7, 8}, []string{"", ""})
	if err != nil {
		t.Fatal(err)
	}
	if err := rowRel.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	if got := rowRel.NumTuples(); got != 3 {
		t.Fatalf("NumTuples = %d", got)
	}
	blk, err := rowRel.ReadBlock(0, vclock.Unarmed())
	if err != nil {
		t.Fatal(err)
	}
	if ids := blk.Ints(0); len(ids) != 3 || ids[0] != -1 || ids[2] != 8 {
		t.Fatalf("mixed-load block 0 ids = %v", ids)
	}
	// A batch of another schema is refused.
	other, err := tuple.MakeBatch(tuple.MustSchema(tuple.Column{Name: "id", Type: tuple.Int}), 1, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rowRel.AppendBatch(other); err == nil {
		t.Fatal("AppendBatch accepted a schema mismatch")
	}
}

// scalarFile is the one-tuple-at-a-time reference for TempFile: the
// write loop the paper describes, kept on the test side since the
// executors only ever write runs. It shares nothing with WriteN.
type scalarFile struct {
	st      *Store
	size    int
	bf      int
	pending int
	pages   int64
}

func newScalarFile(st *Store, schema *tuple.Schema) *scalarFile {
	return &scalarFile{st: st, size: schema.TupleSize(), bf: max(st.BlockSize()/schema.TupleSize(), 1)}
}

func (f *scalarFile) write() {
	f.st.Clock().Charge(f.st.Costs().TupleWrite)
	f.st.counters.TuplesWritten++
	f.st.counters.TempBytes += int64(f.size)
	if f.pending++; f.pending >= f.bf {
		f.flush()
	}
}

func (f *scalarFile) flush() {
	if f.pending == 0 {
		return
	}
	f.st.Clock().Charge(f.st.Costs().PageWrite)
	f.st.counters.PagesWritten++
	f.pages++
	f.pending = 0
}

// TestWriteNMatchesWriteLoop pins WriteN's charge stream against the
// scalar reference, for one WriteN(n) and for the WriteN(1) loop of the
// armed-deadline path: same seed, same durations in the same order, same
// counters and page count, across page boundaries and partial pages.
func TestWriteNMatchesWriteLoop(t *testing.T) {
	s := batchTestSchema()
	for _, n := range []int{1, 7, 8, 9, 40, 100} {
		var clks [3]*vclock.Sim
		var sts [3]*Store
		for i := range sts {
			clks[i] = vclock.NewSim(5, 0.04)
			sts[i] = NewStore(clks[i], SunProfile(), DefaultBlockSize)
		}
		ref := newScalarFile(sts[0], s)
		ref.write() // offset the page phase
		for i := 0; i < n; i++ {
			ref.write()
		}
		ref.flush()
		bf := sts[1].NewScratchFile(s)
		bf.WriteN(1)
		bf.WriteN(n)
		bf.Flush()
		lf := sts[2].NewScratchFile(s)
		for i := 0; i < n+1; i++ {
			lf.WriteN(1)
		}
		lf.Flush()
		want := sts[0].Counters()
		if want.TuplesWritten != int64(n+1) || want.PagesWritten != ref.pages || ref.pages != int64((n+1+7)/8) {
			t.Fatalf("n=%d: reference wrote %+v in %d pages", n, want, ref.pages)
		}
		for i, name := range []string{"WriteN(n)", "WriteN(1) loop"} {
			if got := clks[i+1].Now(); got != clks[0].Now() {
				t.Errorf("n=%d: %s clock %v != scalar clock %v", n, name, got, clks[0].Now())
			}
			if got := sts[i+1].Counters(); got != want {
				t.Errorf("n=%d: %s counters diverge: %+v vs %+v", n, name, got, want)
			}
		}
	}
}
