// Package storage implements the block-based storage engine of the tcq
// mini-DBMS, mirroring the prototype (ERAM) substrate of the paper:
// relations live in fixed-size disk blocks (1 KB by default, 5 tuples of
// 200 bytes each in the paper's experiments), and the cluster sampling
// plan draws whole blocks as sample units.
//
// Every physical operation (block read, output page write) charges its
// cost to the session clock through a CostProfile, so the same code path
// serves both the simulated SUN-3/60-era experiments and in-memory
// real-time use (where the clock is real and charges are no-ops).
//
// Concurrency model: the catalog (relation names → relations) and each
// relation's data are guarded by RW locks, so any number of sessions may
// read while loads/appends are serialised. Charging state — the clock
// and the physical-work counters — is NOT shared between concurrent
// queries: each query runs against a Session view of the store, whose
// clock and counters are confined to that query, and whose counters are
// folded into the parent's totals when the session ends.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tcq/internal/scratch"
	"tcq/internal/tuple"
	"tcq/internal/vclock"
)

// DefaultBlockSize is the paper's disk block size (1 KB).
const DefaultBlockSize = 1024

// ErrDeadline is returned (wrapped) when a hard time constraint
// interrupts an operation mid-stage. It models the paper's timer
// interrupt service routine setting Stopping-Criterion.
var ErrDeadline = errors.New("storage: time quota expired")

// CostProfile holds the true per-unit costs charged to the clock by the
// storage engine and the sample executors. These play the role of the
// physical machine in the simulation; the cost model in internal/cost
// learns its own (initially wrong) coefficients against them.
type CostProfile struct {
	BlockRead    time.Duration // read one disk block into memory
	PageWrite    time.Duration // write one output/temp page to disk
	TupleWrite   time.Duration // copy one tuple into a temp file
	TupleCheck   time.Duration // evaluate a selection predicate on one tuple
	TupleCompare time.Duration // one comparison during sort/merge
	OpInit       time.Duration // fixed per-operator initialisation
}

// SunProfile returns a cost profile calibrated so that the paper's
// workloads (10,000-tuple relations, 10-second quotas) evaluate sample
// sizes in the same ballpark as the SUN 3/60 numbers of Section 5
// (tens of blocks per 10-second selection quota).
func SunProfile() CostProfile {
	return CostProfile{
		BlockRead:    28 * time.Millisecond,
		PageWrite:    22 * time.Millisecond,
		TupleWrite:   3 * time.Millisecond,
		TupleCheck:   9 * time.Millisecond,
		TupleCompare: 450 * time.Microsecond,
		// Per-stage operator setup is substantial on the modelled
		// machine (process wakeup, temp-file creation, buffer setup):
		// it is what makes many small stages unattractive (§3.3's
		// stage-count/overhead tradeoff) and keeps the average stage
		// count near the paper's 1.5–4 range.
		OpInit: 150 * time.Millisecond,
	}
}

// FastProfile returns a cost profile for a memory-resident, modern-era
// machine: microsecond-scale block access and per-tuple costs, suiting
// the millisecond/second quotas of the paper's real-time database
// motivation. The main-memory prototype variant the paper says was
// "being developed now".
func FastProfile() CostProfile {
	return CostProfile{
		BlockRead:    200 * time.Microsecond,
		PageWrite:    150 * time.Microsecond,
		TupleWrite:   2 * time.Microsecond,
		TupleCheck:   1500 * time.Nanosecond,
		TupleCompare: 300 * time.Nanosecond,
		OpInit:       2 * time.Millisecond,
	}
}

// Counters tracks physical work done through one Store view. Increments
// are unsynchronised: a Store (root or session) must be charged from one
// goroutine at a time. Cross-session aggregation happens through
// MergeCounters, which locks the root's totals.
type Counters struct {
	BlocksRead    int64
	PagesWritten  int64
	TuplesRead    int64
	TuplesWritten int64
	// TempBytes is the bytes written to temp/output files (tuple size
	// times tuples written, the paper's on-disk intermediate results).
	TempBytes int64
}

// add folds o into c.
func (c *Counters) add(o Counters) {
	c.BlocksRead += o.BlocksRead
	c.PagesWritten += o.PagesWritten
	c.TuplesRead += o.TuplesRead
	c.TuplesWritten += o.TuplesWritten
	c.TempBytes += o.TempBytes
}

// catalog is the relation namespace shared by a root store and all of
// its sessions, guarded by an RW lock: lookups (the query read path)
// take the read lock; create/drop/load take the write lock.
type catalog struct {
	mu        sync.RWMutex
	relations map[string]*Relation
}

// Store is a simulated disk: a catalog of relations plus cost charging.
// The catalog may be shared by many sessions; the clock and counters of
// one Store value are confined to a single query at a time (see
// Session).
type Store struct {
	clock     vclock.Clock
	costs     CostProfile
	blockSize int
	cat       *catalog
	root      *Store // counters-aggregation target; self for a root store

	cmu      sync.Mutex // guards counters against concurrent merges/reads
	counters Counters

	arena  *scratch.Arena // a session's scratch, nil until Scratch is called
	arenas sync.Pool      // root only: arenas released by ended sessions
}

// NewStore creates a store charging work to clock using the given cost
// profile and block size (DefaultBlockSize if blockSize <= 0).
func NewStore(clock vclock.Clock, costs CostProfile, blockSize int) *Store {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	s := &Store{
		clock:     clock,
		costs:     costs,
		blockSize: blockSize,
		cat:       &catalog{relations: make(map[string]*Relation)},
		arenas:    sync.Pool{New: func() any { return scratch.New() }},
	}
	s.root = s
	return s
}

// Session derives a store view for one query: it shares the catalog and
// cost profile with the receiver but has its own clock and zeroed
// physical-work counters, so concurrent queries never observe each
// other's charges. A nil clock shares the receiver's clock (the right
// choice for a real clock, whose Charge is a no-op). Call MergeCounters
// when the session's query is done: it folds the session's counters
// into the root totals and releases the session's scratch memory.
func (s *Store) Session(clock vclock.Clock) *Store {
	if clock == nil {
		clock = s.clock
	}
	return &Store{
		clock:     clock,
		costs:     s.costs,
		blockSize: s.blockSize,
		cat:       s.cat,
		root:      s.root,
	}
}

// Scratch returns the memory of the query this store view serves: a
// session's one arena, taken from the root's pool on first use and valid
// until MergeCounters; on a root store, which has no end of session, an
// arena per call that is simply garbage afterwards.
func (s *Store) Scratch() *scratch.Arena {
	if s.arena == nil {
		a := s.root.arenas.Get().(*scratch.Arena)
		if s.root == s {
			return a
		}
		s.arena = a
	}
	return s.arena
}

// MergeCounters ends a session: it folds the session's counters into
// the root store's totals (and zeroes the session's) and returns its
// scratch arena to the root's pool — nothing the session's query
// produced may point into scratch afterwards. No-op on a root store.
func (s *Store) MergeCounters() {
	if s.root == s {
		return
	}
	if s.arena != nil {
		s.arena.Reset()
		s.root.arenas.Put(s.arena)
		s.arena = nil
	}
	s.cmu.Lock()
	delta := s.counters
	s.counters = Counters{}
	s.cmu.Unlock()
	s.root.cmu.Lock()
	s.root.counters.add(delta)
	s.root.cmu.Unlock()
}

// Clock returns the store's clock.
func (s *Store) Clock() vclock.Clock { return s.clock }

// Costs returns the store's cost profile.
func (s *Store) Costs() CostProfile { return s.costs }

// BlockSize returns the disk block size in bytes.
func (s *Store) BlockSize() int { return s.blockSize }

// Counters returns a snapshot of the physical work counters of this
// store view (a session sees only its own work; the root sees its own
// direct work plus every merged session).
func (s *Store) Counters() Counters {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.counters
}

// ResetCounters zeroes the physical work counters.
func (s *Store) ResetCounters() {
	s.cmu.Lock()
	s.counters = Counters{}
	s.cmu.Unlock()
}

// AddCounters folds an externally accumulated counter delta into this
// store view's totals (the executor lanes use it when replaying a term's
// recorded work at the end of a parallel stage).
func (s *Store) AddCounters(c Counters) {
	s.cmu.Lock()
	s.counters.add(c)
	s.cmu.Unlock()
}

// ChargeCPU charges an arbitrary CPU cost to the clock (used by the
// executors for predicate checks, comparisons and so on).
func (s *Store) ChargeCPU(d time.Duration) { s.clock.Charge(d) }

// CreateRelation registers an empty relation. It fails if the name is
// taken or the schema does not fit a single tuple per block.
func (s *Store) CreateRelation(name string, schema *tuple.Schema) (*Relation, error) {
	if name == "" {
		return nil, errors.New("storage: empty relation name")
	}
	bf := s.blockSize / schema.TupleSize()
	if bf < 1 {
		return nil, fmt.Errorf("storage: tuple size %d exceeds block size %d", schema.TupleSize(), s.blockSize)
	}
	r := &Relation{name: name, schema: schema, store: s.root, blockingFactor: bf, batch: tuple.NewBatch(schema)}
	s.cat.mu.Lock()
	defer s.cat.mu.Unlock()
	if _, dup := s.cat.relations[name]; dup {
		return nil, fmt.Errorf("storage: relation %q already exists", name)
	}
	s.cat.relations[name] = r
	return r, nil
}

// Relation returns the named relation, or an error if absent.
func (s *Store) Relation(name string) (*Relation, error) {
	s.cat.mu.RLock()
	r, ok := s.cat.relations[name]
	s.cat.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: unknown relation %q", name)
	}
	return r, nil
}

// RelationNames returns the names of all relations (unsorted).
func (s *Store) RelationNames() []string {
	s.cat.mu.RLock()
	defer s.cat.mu.RUnlock()
	out := make([]string, 0, len(s.cat.relations))
	for n := range s.cat.relations {
		out = append(out, n)
	}
	return out
}

// DropRelation removes a relation from the catalog.
func (s *Store) DropRelation(name string) error {
	s.cat.mu.Lock()
	defer s.cat.mu.Unlock()
	if _, ok := s.cat.relations[name]; !ok {
		return fmt.Errorf("storage: unknown relation %q", name)
	}
	delete(s.cat.relations, name)
	return nil
}

// Relation is a heap file: an ordered list of blocks, each holding up to
// blockingFactor tuples. Blocks are the cluster-sampling units. The data
// is one columnar batch — block i holds rows [i*bf, min((i+1)*bf, n)) —
// or, for a file-backed relation, is decoded block by block on demand
// (see OpenRelationFile in persist.go). A relation is shared by every
// session of its store; its data is guarded by an RW lock
// (appends/loads exclude readers), while read charges are routed to the
// session doing the reading (AppendBlockIn).
type Relation struct {
	name           string
	schema         *tuple.Schema
	store          *Store // the creating (root) store; default charge target
	blockingFactor int

	mu        sync.RWMutex
	batch     *tuple.Batch
	numTuples int64
	backing   *filePager // nil for in-memory relations
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation schema.
func (r *Relation) Schema() *tuple.Schema { return r.schema }

// BlockingFactor returns the number of tuples per full block.
func (r *Relation) BlockingFactor() int { return r.blockingFactor }

// NumBlocks returns the number of disk blocks.
func (r *Relation) NumBlocks() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.numBlocksLocked()
}

func (r *Relation) numBlocksLocked() int {
	return int((r.numTuples + int64(r.blockingFactor) - 1) / int64(r.blockingFactor))
}

// blockLocked locates block i: the batch holding it and the block's row
// range within that batch — the relation's own batch, or the freshly
// decoded block of a file-backed relation.
func (r *Relation) blockLocked(i int) (src *tuple.Batch, lo, hi int, err error) {
	if r.backing != nil {
		src, err = r.backing.readBlock(i)
		if err != nil {
			return nil, 0, 0, err
		}
		return src, 0, src.Len(), nil
	}
	lo = i * r.blockingFactor
	return r.batch, lo, min(lo+r.blockingFactor, r.batch.Len()), nil
}

// NumTuples returns the total number of tuples.
func (r *Relation) NumTuples() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.numTuples
}

// Append adds a tuple to the relation, filling the last block first.
// Appending does not charge the clock: loading is setup, not query time.
// File-backed relations are read-only.
func (r *Relation) Append(t tuple.Tuple) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.backing != nil {
		return fmt.Errorf("storage: relation %s is file-backed (read-only)", r.name)
	}
	if err := r.batch.AppendRow(t); err != nil {
		return fmt.Errorf("storage: append to %s: %w", r.name, err)
	}
	r.numTuples++
	return nil
}

// AppendBatch bulk-loads a columnar batch: one typed-column copy, no
// per-row work and no boxed values — the path the workload generators
// use. The block layout is that of row-wise Append: rows fill blocks
// sequentially in batch order. Like Append, loading does not charge the
// clock.
func (r *Relation) AppendBatch(b *tuple.Batch) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.backing != nil {
		return fmt.Errorf("storage: relation %s is file-backed (read-only)", r.name)
	}
	if err := r.batch.AppendBatch(b); err != nil {
		return fmt.Errorf("storage: append batch to %s: %w", r.name, err)
	}
	r.numTuples += int64(b.Len())
	return nil
}

// AppendAll adds every tuple, stopping at the first invalid one.
func (r *Relation) AppendAll(ts []tuple.Tuple) error {
	for _, t := range ts {
		if err := r.Append(t); err != nil {
			return err
		}
	}
	return nil
}

// ReadBlock returns block i as a read-only view, charging one block-read
// to the creating store's clock (see readBlock).
func (r *Relation) ReadBlock(i int, dl vclock.Deadline) (*tuple.Batch, error) {
	var blk *tuple.Batch
	err := r.readBlock(r.store, i, dl, func(src *tuple.Batch, lo, hi int) {
		blk = src.Slice(lo, hi)
	})
	return blk, err
}

// AppendBlockIn reads block i for a query session and appends the
// block's rows [lo, hi) — block-relative, clamped to the block's length
// — straight to dst, so a stage load moves each sampled tuple once and
// no per-block view exists. It returns the block's length; charging and
// failure modes are readBlock's.
func (r *Relation) AppendBlockIn(sess *Store, dst *tuple.Batch, i, lo, hi int, dl vclock.Deadline) (int, error) {
	n := 0
	err := r.readBlock(sess, i, dl, func(src *tuple.Batch, blo, bhi int) {
		n = bhi - blo
		if lo < n {
			dst.AppendRange(src, blo+lo, blo+min(hi, n))
		}
	})
	return n, err
}

// readBlock is the one check-and-charge body of every block read: it
// hands block i's rows to take (under the relation's read lock) and
// charges one block-read to the given store view — the way a query
// session reads shared relations without its physical-work accounting
// bleeding into other sessions. It honours the deadline: if dl has
// expired the read fails with ErrDeadline before any cost is charged
// (the paper's interrupt aborts the stage at the next block boundary).
func (r *Relation) readBlock(sess *Store, i int, dl vclock.Deadline, take func(src *tuple.Batch, lo, hi int)) error {
	if dl.Expired() {
		return fmt.Errorf("storage: read %s block %d: %w", r.name, i, ErrDeadline)
	}
	r.mu.RLock()
	n := r.numBlocksLocked()
	if i < 0 || i >= n {
		r.mu.RUnlock()
		return fmt.Errorf("storage: %s block %d out of range [0,%d)", r.name, i, n)
	}
	src, lo, hi, err := r.blockLocked(i)
	if err != nil {
		r.mu.RUnlock()
		return fmt.Errorf("storage: read %s block %d: %w", r.name, i, err)
	}
	take(src, lo, hi)
	r.mu.RUnlock()
	sess.clock.Charge(sess.costs.BlockRead)
	sess.counters.BlocksRead++
	sess.counters.TuplesRead += int64(hi - lo)
	return nil
}

// Scan invokes fn for every tuple, charging block reads as it goes. It
// stops early (returning the callback's error) if fn fails, and honours
// the deadline at block granularity.
func (r *Relation) Scan(dl vclock.Deadline, fn func(tuple.Tuple) error) error {
	for i := 0; i < r.NumBlocks(); i++ {
		blk, err := r.ReadBlock(i, dl)
		if err != nil {
			return err
		}
		for _, t := range blk.Rows() {
			if err := fn(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// AllTuples returns every tuple as rows without charging the clock;
// intended for tests, exact (non-sampled) evaluation and data export.
func (r *Relation) AllTuples() []tuple.Tuple {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.backing == nil {
		return r.batch.Rows()
	}
	out := make([]tuple.Tuple, 0, r.numTuples)
	for i := 0; i < r.numBlocksLocked(); i++ {
		blk, err := r.backing.readBlock(i)
		if err != nil {
			return out
		}
		out = append(out, blk.Rows()...)
	}
	return out
}

// TempFile is a cost-charged output/temporary file, modelling the
// paper's on-disk intermediate relations: writing charges one
// tuple-write per tuple and one page-write per flushed page. It is
// charge-only — the executors already hold every intermediate result in
// memory — and what was written is read off the sink's Counters. A temp
// file is a value confined to one goroutine; its charges go to the sink
// it was created with (the session store by default, a per-term lane
// under parallel evaluation). Flushed, it is empty again: an operator
// rewrites the same file every stage.
type TempFile struct {
	costs          CostProfile
	clock          vclock.Clock
	counters       *Counters
	schema         *tuple.Schema
	blockingFactor int
	pending        int // tuples buffered since the last page flush
}

// NewScratchFile creates a temp file for tuples of the given schema,
// charging the store's own clock and counters.
func (s *Store) NewScratchFile(schema *tuple.Schema) TempFile {
	return s.NewScratchFileOn(schema, s.clock, &s.counters)
}

// NewScratchFileOn is NewScratchFile with the charges routed to an
// explicit clock and counter set instead of the store's own — the
// executor lanes use it to confine per-term work during parallel
// evaluation.
func (s *Store) NewScratchFileOn(schema *tuple.Schema, clock vclock.Clock, counters *Counters) TempFile {
	return TempFile{
		costs:          s.costs,
		clock:          clock,
		counters:       counters,
		schema:         schema,
		blockingFactor: max(s.blockSize/schema.TupleSize(), 1),
	}
}

// WriteN appends n tuples, charging one tuple-write per tuple and a
// page-write each time a page fills. The charge sequence and the counter
// increments are exactly those of n single writes, but runs of
// tuple-writes collapse into batched clock charges (one lock
// acquisition and, on lane clocks, one run record).
func (f *TempFile) WriteN(n int) {
	if n <= 0 {
		return
	}
	f.counters.TuplesWritten += int64(n)
	f.counters.TempBytes += int64(n) * int64(f.schema.TupleSize())
	for n > 0 {
		k := min(f.blockingFactor-f.pending, n)
		vclock.ChargeRun(f.clock, f.costs.TupleWrite, k)
		f.pending += k
		n -= k
		if f.pending >= f.blockingFactor {
			f.flushPage()
		}
	}
}

// Flush forces the final partial page (if any) to disk.
func (f *TempFile) Flush() {
	if f.pending > 0 {
		f.flushPage()
	}
}

func (f *TempFile) flushPage() {
	f.clock.Charge(f.costs.PageWrite)
	f.counters.PagesWritten++
	f.pending = 0
}
