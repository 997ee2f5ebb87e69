// Package tcq is a time-constrained aggregate query processor: a Go
// reproduction of "Processing Aggregate Relational Queries with Hard
// Time Constraints" (Hou, Ozsoyoglu, Taneja; SIGMOD 1989).
//
// Given COUNT(E) for an arbitrary relational algebra expression E and a
// time quota T, tcq returns a statistical estimate of the count within
// T by iteratively cluster-sampling disk blocks from the operand
// relations, evaluating the estimator stage by stage, and sizing each
// stage with adaptive time-cost formulas and a risk-controlled
// time-control strategy.
//
// Quick start:
//
//	db := tcq.Open(tcq.WithSimulatedClock(42))
//	rel, _ := db.CreateRelation("orders", []tcq.Column{
//		{Name: "id", Type: tcq.Int},
//		{Name: "amount", Type: tcq.Int},
//	}, 200)
//	// ... rel.Insert(...) ...
//	q := tcq.Rel("orders").Where(tcq.Col("amount").Lt(100))
//	est, _ := db.CountEstimate(q, tcq.EstimateOptions{Quota: 100 * time.Millisecond})
//	fmt.Printf("count ≈ %.0f ± %.0f (spent %v)\n", est.Value, est.Interval, est.Elapsed)
//
// The package runs against either a simulated machine (a virtual clock
// with a 1989-calibrated cost profile — deterministic and fast, used by
// the experiment harness) or the real clock (in-memory evaluation with
// millisecond quotas, as in the examples).
package tcq

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"tcq/internal/calib"
	"tcq/internal/catalog"
	"tcq/internal/core"
	"tcq/internal/exec"
	"tcq/internal/histogram"
	"tcq/internal/ra"
	"tcq/internal/storage"
	"tcq/internal/telemetry"
	"tcq/internal/trace"
	"tcq/internal/tuple"
	"tcq/internal/vclock"
)

// ColType enumerates the supported column types.
type ColType int

const (
	// Int is a 64-bit signed integer column.
	Int ColType = iota
	// Float is a 64-bit floating point column.
	Float
	// String is a fixed-width string column (set Column.Size).
	String
)

// Column declares one attribute of a relation.
type Column struct {
	Name string
	Type ColType
	Size int // byte width for String columns
}

// config collects Open options.
type config struct {
	clock       vclock.Clock
	simClock    *vclock.Sim
	simSeed     int64
	jitter      float64
	profile     storage.CostProfile
	blockSize   int
	loadSigma   float64
	telemetry   bool
	historySize int
	queryLog    *slog.Logger
	calibration bool
	flightSize  int
	catalog     bool
	catalogRes  []float64
}

// Option configures Open.
type Option func(*config)

// WithSimulatedClock runs the database against a deterministic virtual
// clock seeded with seed: all I/O and CPU work is charged per the cost
// profile instead of taking real time. This is the default (seed 1).
func WithSimulatedClock(seed int64) Option {
	return func(c *config) {
		sim := vclock.NewSim(seed, 0.03)
		c.simClock = sim
		c.simSeed = seed
		c.jitter = 0.03
		c.clock = sim
	}
}

// WithRealClock runs the database against the wall clock: queries do
// their work in memory and quotas are real durations.
func WithRealClock() Option {
	return func(c *config) {
		c.simClock = nil
		c.clock = vclock.NewReal()
	}
}

// WithCostProfile overrides the simulated machine's cost profile
// (ignored under a real clock).
func WithCostProfile(p storage.CostProfile) Option {
	return func(c *config) { c.profile = p }
}

// WithFastMachine switches the simulated machine to a memory-resident,
// modern-era cost profile (microsecond block access), suiting
// millisecond quotas — the paper's real-time database setting.
func WithFastMachine() Option {
	return func(c *config) { c.profile = storage.FastProfile() }
}

// WithBlockSize overrides the disk block size (default 1 KB).
func WithBlockSize(bytes int) Option {
	return func(c *config) { c.blockSize = bytes }
}

// WithLoadNoise enables per-stage system-load variability on the
// simulated clock (lognormal sigma; the experiment harness uses 0.12).
func WithLoadNoise(sigma float64) Option {
	return func(c *config) { c.loadSigma = sigma }
}

// WithTelemetry enables the live telemetry layer: every estimate run
// registers an in-flight progress record updated at stage boundaries
// (DB.InFlight), and completed runs are retained in a ring of
// historySize summaries (DB.History, 128 when <= 0) with per-shape
// aggregates (DB.QueryStats). Expose it over HTTP with
// DB.ServeTelemetry. Telemetry observes queries through the tracing
// layer's read-only contract, so estimates are bit-identical with it on
// or off; when off, the engine pays a single nil check per query.
func WithTelemetry(historySize int) Option {
	return func(c *config) {
		c.telemetry = true
		c.historySize = historySize
	}
}

// WithCalibration enables the calibration observatory: every estimate
// run is audited for cost-model drift (per-shape and per-operator
// actual/predicted QCOST ratios), runs with a declared ground truth
// (EstimateOptions.GroundTruth) feed empirical CI-coverage statistics,
// and anomalous runs — hard-deadline aborts, overspends past 5% of the
// quota, ground-truth CI misses — have their full traces captured in a
// flight-recorder ring of flightSize records (64 when <= 0). Inspect
// with DB.Calibration and DB.FlightRecords, or over HTTP at
// /calibration and /debug/flightrecorder. The auditor observes queries
// through the tracing layer's read-only contract, so estimates are
// bit-identical with calibration on or off.
func WithCalibration(flightSize int) Option {
	return func(c *config) {
		c.calibration = true
		c.flightSize = flightSize
	}
}

// WithCatalog enables the sample catalog — the warm path for repeated
// query shapes. The catalog holds a materialized seeded block
// permutation per relation (multi-resolution by nested prefixes, see
// DB.BuildCatalog; stratified variants via DB.BuildCatalogStratified)
// plus a shape-reuse cache keyed on canonical query fingerprints. The
// first run of a shape misses — and is byte-identical to a run without
// the catalog — while recording the coverage it stopped at; the next
// run of the same shape reuses the materialized sample and jumps
// straight to that coverage, skipping the cold run's early discovery
// stages. resolutions overrides the resolution ladder (ascending
// sample fractions; the default is catalog.DefaultResolutions).
func WithCatalog(resolutions ...float64) Option {
	return func(c *config) {
		c.catalog = true
		c.catalogRes = resolutions
	}
}

// WithQueryLog attaches a structured event log (query start/stage/
// finish, quota overruns at Warn) emitted through the given slog
// logger. Implies WithTelemetry.
func WithQueryLog(l *slog.Logger) Option {
	return func(c *config) {
		c.telemetry = true
		c.queryLog = l
	}
}

// DB is a tcq database instance: a catalog of relations plus the
// time-constrained query engine.
//
// A DB is safe for concurrent use. The catalog and relation data are
// guarded by RW locks in the storage layer; every estimate call runs on
// its own session — a private view of the store with a per-query clock
// (derived deterministically from the query seed under a simulated
// clock) and confined work counters, folded into the DB totals when the
// query finishes. A query's result therefore depends only on the data
// and its own options, never on what runs next to it: a concurrent call
// returns exactly what the same call returns serially.
type DB struct {
	store   *storage.Store
	clock   vclock.Clock
	engine  *core.Engine
	metrics *trace.Registry
	// progress is the live telemetry registry, nil unless WithTelemetry
	// (or WithQueryLog) was given — the disabled path is one nil check.
	progress *telemetry.Registry
	// calib is the calibration auditor, nil unless WithCalibration was
	// given — the disabled path is one nil check per query.
	calib *calib.Auditor
	// samples is the sample catalog, nil unless WithCatalog was given —
	// with it nil every estimate takes the cold path unchanged.
	samples *catalog.Catalog
	cfg     config
	sims    sync.Pool // per-query clocks between sessions

	mu    sync.Mutex // guards stats
	stats *histogram.Catalog
}

// Open creates a database. With no options it uses a simulated clock
// (seed 1) and the SUN-3/60-calibrated cost profile.
func Open(opts ...Option) *DB {
	cfg := config{profile: storage.SunProfile(), blockSize: storage.DefaultBlockSize}
	WithSimulatedClock(1)(&cfg)
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.simClock != nil && cfg.loadSigma > 0 {
		cfg.simClock.SetLoadSigma(cfg.loadSigma)
	}
	store := storage.NewStore(cfg.clock, cfg.profile, cfg.blockSize)
	db := &DB{
		store:   store,
		clock:   cfg.clock,
		engine:  core.NewEngine(store),
		metrics: trace.NewRegistry(),
		cfg:     cfg,
	}
	if cfg.telemetry {
		db.progress = telemetry.NewRegistry(cfg.historySize)
		db.progress.SetLogger(telemetry.NewLogger(cfg.queryLog))
	}
	if cfg.calibration {
		db.calib = calib.NewAuditor(calib.Config{FlightSize: cfg.flightSize, Metrics: db.metrics})
	}
	if cfg.catalog {
		db.samples = catalog.New(cfg.simSeed, cfg.catalogRes...)
	}
	return db
}

// session derives a per-query store view. Under a simulated clock the
// session gets its own Sim seeded from the DB seed and the query seed
// (a recycled one, re-seeded in place), so identically-seeded queries
// are bit-reproducible no matter how many run concurrently; under a
// real clock the shared wall clock is used (charges are no-ops) and sim
// is nil. Every session must be ended with endSession.
func (db *DB) session(querySeed int64) (sess *storage.Store, sim *vclock.Sim) {
	if db.cfg.simClock == nil {
		return db.store.Session(nil), nil
	}
	seed := db.cfg.simSeed*1_000_003 + querySeed
	if sim, _ = db.sims.Get().(*vclock.Sim); sim != nil {
		sim.Reseed(seed, db.cfg.jitter)
	} else {
		sim = vclock.NewSim(seed, db.cfg.jitter)
	}
	if db.cfg.loadSigma > 0 {
		sim.SetLoadSigma(db.cfg.loadSigma)
	}
	return db.store.Session(sim), sim
}

// endSession folds the session's work counters into the DB totals,
// releases its scratch memory and its clock — nothing kept from the
// query may point into either — and advances the DB's display clock by
// the query's elapsed virtual time (a jitter-free, commutative addition:
// the final reading is independent of completion order).
func (db *DB) endSession(sess *storage.Store, sim *vclock.Sim, elapsed time.Duration) {
	sess.MergeCounters()
	if sim != nil {
		db.cfg.simClock.Advance(elapsed)
		db.sims.Put(sim)
	}
}

// Store exposes the underlying storage engine (for advanced use and the
// workload generators).
func (db *DB) Store() *storage.Store { return db.store }

// CreateRelation registers a new relation. padToBytes, when positive,
// pads each tuple to the given size (e.g. 200 for the paper's 5-tuples-
// per-block geometry); pass 0 for no padding.
func (db *DB) CreateRelation(name string, cols []Column, padToBytes int) (*Relation, error) {
	tcols := make([]tuple.Column, len(cols))
	for i, c := range cols {
		var tt tuple.ColType
		switch c.Type {
		case Int:
			tt = tuple.Int
		case Float:
			tt = tuple.Float
		case String:
			tt = tuple.String
		default:
			return nil, fmt.Errorf("tcq: column %q has unknown type", c.Name)
		}
		tcols[i] = tuple.Column{Name: c.Name, Type: tt, Size: c.Size}
	}
	schema, err := tuple.NewSchema(tcols...)
	if err != nil {
		return nil, err
	}
	padded := false
	if padToBytes > schema.TupleSize() {
		schema, err = schema.WithPadding(padToBytes)
		if err != nil {
			return nil, err
		}
		padded = true
	}
	rel, err := db.store.CreateRelation(name, schema)
	if err != nil {
		return nil, err
	}
	return &Relation{rel: rel, arity: len(cols), padded: padded}, nil
}

// Relation returns a handle to an existing relation.
func (db *DB) Relation(name string) (*Relation, error) {
	rel, err := db.store.Relation(name)
	if err != nil {
		return nil, err
	}
	return &Relation{rel: rel, arity: rel.Schema().NumCols()}, nil
}

// Relations lists the catalog's relation names.
func (db *DB) Relations() []string { return db.store.RelationNames() }

// DropRelation removes a relation from the catalog.
func (db *DB) DropRelation(name string) error { return db.store.DropRelation(name) }

// Relation is a handle to a stored relation.
type Relation struct {
	rel    *storage.Relation
	arity  int // user-visible columns (excludes padding)
	padded bool
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.rel.Name() }

// NumTuples returns the tuple count.
func (r *Relation) NumTuples() int64 { return r.rel.NumTuples() }

// NumBlocks returns the disk block count.
func (r *Relation) NumBlocks() int { return r.rel.NumBlocks() }

// Columns returns the relation's user-visible columns (the internal
// padding column, if any, is omitted).
func (r *Relation) Columns() []Column {
	sch := r.rel.Schema()
	out := make([]Column, 0, r.arity)
	for i := 0; i < r.arity; i++ {
		c := sch.Col(i)
		col := Column{Name: c.Name, Size: c.Size}
		switch c.Type {
		case tuple.Int:
			col.Type = Int
		case tuple.Float:
			col.Type = Float
		case tuple.String:
			col.Type = String
		}
		out = append(out, col)
	}
	return out
}

// Insert appends one tuple. Values must match the declared columns
// (int/int64 for Int, float64 for Float, string for String); the
// padding column, if any, is filled automatically.
func (r *Relation) Insert(values ...interface{}) error {
	if len(values) != r.arity {
		return fmt.Errorf("tcq: %s wants %d values, got %d", r.Name(), r.arity, len(values))
	}
	t := make(tuple.Tuple, 0, r.arity+1)
	for _, v := range values {
		switch x := v.(type) {
		case int:
			t = append(t, int64(x))
		case int64:
			t = append(t, x)
		case float64:
			t = append(t, x)
		case string:
			t = append(t, x)
		default:
			return fmt.Errorf("tcq: unsupported value type %T", v)
		}
	}
	if r.padded {
		t = append(t, "")
	}
	return r.rel.Append(t)
}

// Save writes the relation in the tcq binary format.
func (r *Relation) Save(w io.Writer) error { return r.rel.Save(w) }

// SaveFile writes the relation to a host file.
func (r *Relation) SaveFile(path string) error { return r.rel.SaveFile(path) }

// Close releases a file-backed relation's file handle (no-op for
// in-memory relations).
func (r *Relation) Close() error { return r.rel.Close() }

// LoadRelation reads a relation in the tcq binary format into the
// catalog under the given name.
func (db *DB) LoadRelation(name string, rd io.Reader) (*Relation, error) {
	rel, err := db.store.LoadRelation(name, rd)
	if err != nil {
		return nil, err
	}
	return &Relation{rel: rel, arity: rel.Schema().NumCols()}, nil
}

// LoadRelationFile reads a relation from a host file into memory.
func (db *DB) LoadRelationFile(name, path string) (*Relation, error) {
	rel, err := db.store.LoadRelationFile(name, path)
	if err != nil {
		return nil, err
	}
	return &Relation{rel: rel, arity: rel.Schema().NumCols()}, nil
}

// OpenRelationFile registers a relation backed by the named tcq file,
// reading blocks on demand instead of loading them — the way to attach
// a large relation without holding it in memory. The returned relation
// is read-only; call Close when done.
func (db *DB) OpenRelationFile(name, path string) (*Relation, error) {
	rel, err := db.store.OpenRelationFile(name, path)
	if err != nil {
		return nil, err
	}
	return &Relation{rel: rel, arity: rel.Schema().NumCols()}, nil
}

// Count evaluates COUNT(q) exactly (full scan, no time constraint).
func (db *DB) Count(q Query) (int64, error) {
	if q.err != nil {
		return 0, q.err
	}
	return db.engine.ExactCount(q.expr)
}

// BuildStatistics builds equi-depth histograms (bucketCount buckets, 32
// when <= 0) over every numeric column of every relation — the ANALYZE
// step of the §3.1 prestored-statistics approach. Estimates can then
// opt in via EstimateOptions.UseStatistics. Re-run after bulk loads;
// stale statistics mis-size stages exactly as the paper warns.
func (db *DB) BuildStatistics(bucketCount int) error {
	if bucketCount <= 0 {
		bucketCount = 32
	}
	cat, err := core.BuildHistograms(db.store, bucketCount)
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.stats = cat
	db.mu.Unlock()
	return nil
}

// GroupCount evaluates per-group COUNTs of q's output over the named
// column, exactly (full scan, no time constraint). Keys are int64,
// float64 or string values of the column.
func (db *DB) GroupCount(q Query, col string) (map[interface{}]int64, error) {
	if q.err != nil {
		return nil, q.err
	}
	m, err := ra.GroupCountExact(q.expr, col, db.catalog())
	if err != nil {
		return nil, err
	}
	out := make(map[interface{}]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out, nil
}

// Sum evaluates SUM(q.col) exactly (full scan, no time constraint).
func (db *DB) Sum(q Query, col string) (float64, error) {
	if q.err != nil {
		return 0, q.err
	}
	return db.engine.ExactSum(q.expr, col)
}

// Avg evaluates AVG(q.col) exactly (0 for an empty result).
func (db *DB) Avg(q Query, col string) (float64, error) {
	if q.err != nil {
		return 0, q.err
	}
	return db.engine.ExactAvg(q.expr, col)
}

// Now returns the session clock's current reading (virtual time under a
// simulated clock).
func (db *DB) Now() time.Duration { return db.clock.Now() }

// IOStats reports the physical work done so far in this session.
type IOStats struct {
	BlocksRead    int64
	PagesWritten  int64
	TuplesRead    int64
	TuplesWritten int64
	TempBytes     int64
}

// IOStats returns the session's cumulative physical work counters.
func (db *DB) IOStats() IOStats {
	c := db.store.Counters()
	return IOStats{
		BlocksRead:    c.BlocksRead,
		PagesWritten:  c.PagesWritten,
		TuplesRead:    c.TuplesRead,
		TuplesWritten: c.TuplesWritten,
		TempBytes:     c.TempBytes,
	}
}

// StageTrace is one stage's structured trace record (the chosen sample
// fraction, predicted vs actual cost, per-operator selectivities and
// tuple flow, and the post-stage estimate).
type StageTrace = trace.StageRecord

// QueryTrace is a full structured trace of one estimate run.
type QueryTrace = trace.QueryTrace

// MetricsSnapshot is a point-in-time copy of the session's aggregate
// metrics.
type MetricsSnapshot = trace.Snapshot

// Metrics returns a snapshot of the session-wide metrics registry:
// counters (queries, stages, quota_overruns, blocks_read, comparisons,
// deadline_polls, temp_bytes, ...) and histograms (stages_per_query,
// utilization, coverage_fraction, ...) aggregated across every estimate
// run on this DB.
func (db *DB) Metrics() MetricsSnapshot { return db.metrics.Snapshot() }

// ResetMetrics zeroes the session-wide metrics registry.
func (db *DB) ResetMetrics() { db.metrics.Reset() }

// QueryProgress is a live snapshot of one in-flight (or just-finished)
// estimate: stage count, fraction of quota spent, per-relation coverage
// and the running estimate ± CI half-width.
type QueryProgress = telemetry.QueryProgress

// RelationProgress is one relation's cumulative sampled share inside a
// QueryProgress.
type RelationProgress = telemetry.RelationProgress

// QuerySummary is one completed estimate's retained outcome in the
// query history ring.
type QuerySummary = telemetry.QuerySummary

// QueryShapeStat aggregates every completed run of one query shape
// (calls, stages, mean overshoot, mean CI width at stop) — the
// pg_stat_statements-style view.
type QueryShapeStat = telemetry.ShapeStat

// InFlight snapshots the estimates currently evaluating on this DB,
// sorted by query id. Snapshotting is read-only with respect to the
// running queries: no session clock charges, no RNG draws. Empty unless
// the DB was opened WithTelemetry.
func (db *DB) InFlight() []QueryProgress { return db.progress.InFlight() }

// History lists recently completed estimates, most recent first,
// bounded by WithTelemetry's historySize. Empty unless the DB was
// opened WithTelemetry.
func (db *DB) History() []QuerySummary { return db.progress.History() }

// QueryStats lists per-query-shape aggregates across every completed
// estimate (sorted by call count). Empty unless the DB was opened
// WithTelemetry.
func (db *DB) QueryStats() []QueryShapeStat { return db.progress.QueryStats() }

// CalibrationReport is the calibration auditor's deterministic
// snapshot: per-shape empirical CI coverage with Wilson intervals,
// per-shape and per-operator cost-model drift, and flight-recorder
// statistics.
type CalibrationReport = calib.Report

// GroundTruth declares a query's known exact answer for the
// calibration audit (see EstimateOptions.GroundTruth).
type GroundTruth = calib.Truth

// FlightRecord is one captured anomalous query: its full trace plus
// the capture reasons.
type FlightRecord = calib.FlightRecord

// Calibration snapshots the calibration auditor's report. Empty unless
// the DB was opened WithCalibration.
func (db *DB) Calibration() CalibrationReport { return db.calib.Report() }

// FlightRecords lists the captured anomalous-query traces in
// chronological order. Empty unless the DB was opened WithCalibration.
func (db *DB) FlightRecords() []FlightRecord { return db.calib.FlightRecords() }

// CalibrationEnabled reports whether the DB was opened
// WithCalibration, i.e. whether CaptureFlight can retain anything.
func (db *DB) CalibrationEnabled() bool { return db.calib != nil }

// CaptureFlight stores an externally triggered flight record — a trace
// a serving layer deemed anomalous (e.g. a request that missed its
// wire-to-wire SLO) — in the calibration flight ring. reasons name the
// capture triggers (see calib.Reason*); note carries free-form
// attribution shown on /debug/flightrecorder. No-op unless the DB was
// opened WithCalibration.
func (db *DB) CaptureFlight(label, note string, reasons []string, t QueryTrace) {
	db.calib.Capture(label, note, reasons, t)
}

// TelemetryHandler returns the telemetry HTTP handler for this DB:
// /metrics (Prometheus text exposition), /queries (in-flight progress,
// JSON), /history (completed queries + shape stats, JSON),
// /calibration and /debug/flightrecorder (calibration audit, JSON) and
// /debug/pprof. Mount it on any server, or use ServeTelemetry.
func (db *DB) TelemetryHandler() http.Handler { return telemetry.Handler(db) }

// TelemetryServer is a running telemetry (or tcqd) HTTP server:
// Addr/Close/Shutdown plus Err/Wait for observing the drain outcome.
type TelemetryServer = telemetry.RunningServer

// ServeTelemetry starts the telemetry server on addr (e.g. ":8080")
// and returns the running server plus its bound address. Cancelling
// ctx shuts the server down gracefully (in-flight scrapes drain, and a
// drain that exceeds the grace period surfaces via srv.Err);
// alternatively manage the lifecycle manually with srv.Close or
// srv.Shutdown — the internal shutdown watcher exits either way. The
// DB works identically with or without a server attached.
func (db *DB) ServeTelemetry(ctx context.Context, addr string) (*TelemetryServer, string, error) {
	return telemetry.Serve(ctx, db, addr)
}

// catalog adapts the store for query validation.
func (db *DB) catalog() exec.StoreCatalog { return exec.StoreCatalog{Store: db.store} }

// CatalogStats is a point-in-time snapshot of the sample catalog's
// counters (lookups, hits, misses, stale entries, reused volume) and
// contents.
type CatalogStats = catalog.Stats

// CatalogRelation describes one relation's materialized sample set.
type CatalogRelation = catalog.RelationSamples

// CatalogShape is one query shape's reuse-cache entry.
type CatalogShape = catalog.ShapeHint

// errNoCatalog is returned by catalog operations on a DB opened without
// WithCatalog.
var errNoCatalog = errors.New("tcq: catalog disabled (open the DB WithCatalog)")

// BuildCatalog materializes uniform sample sets for the named relations
// (every relation when none are named). When the DB runs WithTelemetry,
// the per-shape history additionally seeds the reuse cache: each shape
// the history ring has seen gets a hint at its historical mean coverage
// — `ShapeStat` (calls, blocks, CI width at stop) decides what gets
// pre-built. Builds read relation geometry without charging the
// session clock: catalog construction is offline maintenance.
func (db *DB) BuildCatalog(names ...string) error {
	if db.samples == nil {
		return errNoCatalog
	}
	if err := db.samples.BuildFromStore(db.store, names...); err != nil {
		return err
	}
	if db.progress == nil {
		return nil
	}
	for _, s := range db.progress.QueryStats() {
		if s.Calls == 0 || s.TotalBlocks == 0 {
			continue
		}
		q, err := Parse(s.Query)
		if err != nil {
			continue // non-RA shape text; nothing to pre-build
		}
		rels := ra.BaseRelations(q.expr)
		total := 0
		ok := true
		for _, name := range rels {
			rel, err := db.store.Relation(name)
			if err != nil {
				ok = false
				break
			}
			total += rel.NumBlocks()
		}
		if !ok || total == 0 {
			continue
		}
		frac := float64(s.TotalBlocks) / float64(s.Calls) / float64(total)
		if frac > 1 {
			frac = 1
		}
		db.samples.SeedShape(catalog.Fingerprint(q.expr), rels, frac, s.MeanCIWidth, s.Calls)
	}
	return nil
}

// BuildCatalogStratified materializes a stratified sample set for one
// relation keyed on a high-selectivity predicate column: blocks are
// bucketed by the column's value quantile and interleaved round-robin,
// so every resolution prefix carries proportional representation of
// each value stratum (proportional-allocation stratified sampling —
// unbiased, with variance at or below uniform block sampling).
func (db *DB) BuildCatalogStratified(relation, column string) error {
	if db.samples == nil {
		return errNoCatalog
	}
	return db.samples.BuildStratifiedFromStore(db.store, relation, column)
}

// InvalidateCatalog drops the named relations' sample sets and every
// shape hint reading them (the whole catalog when none are named).
// In-flight queries that already resolved a hit keep their immutable
// pre-invalidation permutations — invalidation never torn-reads a
// running query.
func (db *DB) InvalidateCatalog(names ...string) error {
	if db.samples == nil {
		return errNoCatalog
	}
	db.samples.Invalidate(names...)
	return nil
}

// CatalogStats snapshots the sample catalog's counters. Zero-valued
// unless the DB was opened WithCatalog.
func (db *DB) CatalogStats() CatalogStats {
	if db.samples == nil {
		return CatalogStats{}
	}
	return db.samples.Stats()
}

// CatalogRelations lists the materialized per-relation sample sets
// (permutations omitted), sorted by relation name.
func (db *DB) CatalogRelations() []CatalogRelation {
	if db.samples == nil {
		return nil
	}
	return db.samples.RelationEntries()
}

// CatalogShapes lists the shape-reuse cache, sorted by fingerprint.
func (db *DB) CatalogShapes() []CatalogShape {
	if db.samples == nil {
		return nil
	}
	return db.samples.ShapeEntries()
}

// SaveCatalog persists the sample catalog (sample sets, shape hints,
// resolution ladder) as deterministic JSON — the catalog lives
// alongside the relations it samples.
func (db *DB) SaveCatalog(w io.Writer) error {
	if db.samples == nil {
		return errNoCatalog
	}
	return db.samples.Save(w)
}

// LoadCatalog replaces the sample catalog with a previously saved one.
// Entries whose relations have since changed shape are detected as
// stale at lookup time and miss safely.
func (db *DB) LoadCatalog(r io.Reader) error {
	if db.samples == nil {
		return errNoCatalog
	}
	c, err := catalog.Load(r)
	if err != nil {
		return err
	}
	db.samples.ReplaceFrom(c)
	return nil
}

// errNoQuota is returned by CountEstimate without a quota or stop rule.
var errNoQuota = errors.New("tcq: CountEstimate needs a positive Quota")
