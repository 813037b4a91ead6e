// The queryable results database of campaign orchestration. A Store is
// where Engine runs land and where resume, report generation and ad-hoc
// analysis read from — the phase-4 cross-layer database of the paper as an
// interface instead of a raw map[string]*Result. The JSONL file that
// campaigns have always streamed to is the first backend (FileStore);
// MemStore serves tests and in-process pipelines.
package campaign

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"serfi/internal/fault"
	"serfi/internal/npb"
)

// Store is a campaign results database keyed by Key (scenario ID,
// domain-qualified for non-register domains). Put is a streaming append:
// Engine calls it once per freshly completed campaign, in completion
// order, so an interrupted run leaves every completed campaign durable.
// Implementations must be safe for concurrent use.
type Store interface {
	// Put appends one campaign record. A key already present is rejected
	// with an error (campaign identities are immutable; resume skips them
	// instead of rewriting them).
	Put(*Result) error
	// Get returns the campaign stored under key.
	Get(key string) (*Result, bool)
	// Keys returns every stored campaign key in sorted order.
	Keys() []string
	// Query returns the campaigns matching q in sorted key order.
	Query(Query) []*Result
}

// TenantStore is a Store that can partition its keyspace into named tenant
// namespaces. Tenant returns a Store view scoped to one namespace: keys,
// rows and duplicate detection are isolated per namespace, while the record
// row format stays exactly the canonical JSONL — tenancy lives in store
// organization, never in row content, so a tenant's rows remain
// byte-identical to a single-tenant run. Tenant("") returns the default
// (unscoped) view. Views of the same namespace alias the same data.
type TenantStore interface {
	Store
	Tenant(ns string) Store
}

// TenantView resolves a tenant-scoped view of st. The empty namespace is
// the store itself (every backend supports it); a named namespace needs a
// TenantStore backend and errors otherwise, so a multi-tenant queue over a
// flat legacy store fails loudly instead of mixing tenants' keys.
func TenantView(st Store, ns string) (Store, error) {
	if ns == "" || st == nil {
		return st, nil
	}
	ts, ok := st.(TenantStore)
	if !ok {
		return nil, fmt.Errorf("campaign store: backend %T cannot scope tenant %q (need a TenantStore, e.g. OpenSegmentedStore)", st, ns)
	}
	return ts.Tenant(ns), nil
}

// Query selects campaigns by conjunctive predicates. Each field constrains
// one axis when non-empty and matches everything when empty, so the zero
// Query selects the whole store.
type Query struct {
	Apps    []string      // benchmark names ("IS", "MG", ...)
	ISAs    []string      // "armv7" / "armv8"
	Modes   []npb.Mode    // programming models
	Cores   []int         // core counts
	Domains []fault.Model // fault domains
	// MinVersion selects campaigns whose database row version
	// (Result.Version) is at least this value; 0 matches everything.
	MinVersion int
	// HasProp selects campaigns carrying a propagation fold (traced
	// campaigns, v3+).
	HasProp bool
	// HasRuns selects campaigns whose per-run records are available —
	// live results, or results reloaded from v4 rows. This is the
	// predicate the sensitivity layer uses to find analyzable rows
	// without a full scan.
	HasRuns bool
	// Match, when set, is an arbitrary extra predicate ANDed with the
	// field constraints.
	Match func(npb.Scenario, fault.Model) bool
}

// Matches reports whether one (scenario, domain) campaign satisfies q's
// identity constraints. The content predicates (MinVersion, HasProp,
// HasRuns) need the full record — MatchesResult checks those too.
func (q Query) Matches(sc npb.Scenario, d fault.Model) bool {
	if len(q.Apps) > 0 && !contains(q.Apps, sc.App) {
		return false
	}
	if len(q.ISAs) > 0 && !contains(q.ISAs, sc.ISA) {
		return false
	}
	if len(q.Modes) > 0 && !contains(q.Modes, sc.Mode) {
		return false
	}
	if len(q.Cores) > 0 && !contains(q.Cores, sc.Cores) {
		return false
	}
	if len(q.Domains) > 0 && !contains(q.Domains, d) {
		return false
	}
	return q.Match == nil || q.Match(sc, d)
}

// MatchesResult reports whether a stored campaign satisfies the whole
// query: the identity constraints of Matches plus the content predicates.
func (q Query) MatchesResult(r *Result) bool {
	if !q.Matches(r.Scenario, r.Domain) {
		return false
	}
	if q.MinVersion > 0 && r.Version() < q.MinVersion {
		return false
	}
	if q.HasProp && r.Prop == nil {
		return false
	}
	if q.HasRuns && len(r.Runs) == 0 {
		return false
	}
	return true
}

func contains[T comparable](xs []T, x T) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// ValidateResume checks that every job already recorded in st was drawn
// with the same fault count and fault-list seed the current run would
// use. Resuming across a changed fault count would silently mix sample
// sizes in one database (rate comparisons over unequal n), and a changed
// base seed would make the matrix irreproducible from any single seed —
// both are refused up front instead.
func ValidateResume(st Store, jobs []ScenarioJob, faults int) error {
	for _, job := range jobs {
		r, ok := st.Get(job.Key())
		if !ok {
			continue
		}
		if r.Faults != faults {
			return fmt.Errorf("%s has %d faults recorded, current run uses %d (match the fault count or start a fresh database)",
				job.Key(), r.Faults, faults)
		}
		if r.Seed != job.Seed {
			return fmt.Errorf("%s was drawn with seed %d, current run uses seed %d (match the base seed or start a fresh database)",
				job.Key(), r.Seed, job.Seed)
		}
	}
	return nil
}

// memIndex is the shared in-memory map behind every Store implementation.
type memIndex struct {
	mu sync.RWMutex
	m  map[string]*Result
}

func (s *memIndex) put(r *Result) error {
	key := r.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*Result)
	}
	if _, dup := s.m[key]; dup {
		return fmt.Errorf("campaign store: duplicate record for %q", key)
	}
	s.m[key] = r
	return nil
}

func (s *memIndex) Get(key string) (*Result, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.m[key]
	return r, ok
}

func (s *memIndex) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (s *memIndex) Query(q Query) []*Result {
	var out []*Result
	for _, k := range s.Keys() {
		r, _ := s.Get(k)
		if r != nil && q.MatchesResult(r) {
			out = append(out, r)
		}
	}
	return out
}

// MemStore is the in-memory Store: tests, examples and in-process
// pipelines that never touch disk. It is also a TenantStore: Tenant(ns)
// returns an isolated per-namespace sub-store, the in-memory analogue of
// the segmented store's per-tenant segment sets.
type MemStore struct {
	memIndex

	tmu     sync.Mutex
	tenants map[string]*MemStore
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Put appends one campaign record, rejecting duplicate keys.
func (s *MemStore) Put(r *Result) error { return s.put(r) }

// Tenant returns the namespace-scoped view: an isolated sub-store sharing
// nothing with other namespaces. The empty namespace is the store itself.
func (s *MemStore) Tenant(ns string) Store {
	if ns == "" {
		return s
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if s.tenants == nil {
		s.tenants = make(map[string]*MemStore)
	}
	t := s.tenants[ns]
	if t == nil {
		t = NewMemStore()
		s.tenants[ns] = t
	}
	return t
}

// FileStore is the JSONL-file Store: existing rows load at open (so an
// Engine run over the same store resumes where the interrupted one
// stopped), and every Put appends one JSONL row immediately — the
// streaming write that makes mid-matrix interruption safe. Keys (like
// every Store) returns sorted order, so status output and record diffs are
// stable across runs and across backends.
type FileStore struct {
	memIndex
	path  string
	fsync bool

	wmu sync.Mutex
	f   *os.File
}

// FileStoreOption configures OpenFileStore.
type FileStoreOption func(*FileStore)

// Fsync makes every Put fsync the file before returning. With it, a
// campaign acknowledged to the caller — and, in the distributed fabric, a
// shard acknowledged to a worker via its assembled campaign — survives a
// coordinator host crash, not merely a process exit; without it the write
// sits in the page cache at the OS's mercy. Costs one disk flush per
// campaign record, which campaign-scale streams never notice.
func Fsync() FileStoreOption { return func(s *FileStore) { s.fsync = true } }

// OpenFileStore opens (or creates) the JSONL database at path. Existing
// rows are loaded and served by Get/Keys/Query; subsequent Puts append.
// A missing file is an empty store, matching LoadDB's resume convention.
func OpenFileStore(path string, opts ...FileStoreOption) (*FileStore, error) {
	loaded, err := LoadDB(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s := &FileStore{memIndex: memIndex{m: loaded}, path: path, f: f}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Path returns the database file path.
func (s *FileStore) Path() string { return s.path }

// Put appends one campaign record to the file and the in-memory index,
// fsyncing when the store was opened with Fsync.
func (s *FileStore) Put(r *Result) error {
	if err := s.put(r); err != nil {
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	err := writeRecord(s.f, r)
	if err == nil && s.fsync {
		err = s.f.Sync()
	}
	if err != nil {
		// Roll the index back so the store stays consistent with the file.
		s.mu.Lock()
		delete(s.m, r.Key())
		s.mu.Unlock()
		return fmt.Errorf("campaign store %s: %w", s.path, err)
	}
	return nil
}

// Sync flushes the backing file to stable storage without closing it —
// the graceful-shutdown barrier: a store synced before the process prints
// its resume hint cannot advertise campaigns a crash would lose.
func (s *FileStore) Sync() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.f.Sync()
}

// Close flushes and closes the backing file. The in-memory index stays
// readable; further Puts fail.
func (s *FileStore) Close() error { return s.f.Close() }
