package durable

import "sync"

// CrashBudget deterministically kills a run of sink writes at an exact
// offset, simulating power loss with torn writes: the machine persists a
// fixed number of "units" — one unit per byte appended to any file, one
// unit per metadata operation (Create, Remove) — and then dies. The write
// that exhausts the budget persists only the prefix that fit; every
// subsequent mutation on every wrapped sink fails with ErrCrashed.
//
// One budget can wrap several sinks (one per shard), because a machine
// crash kills all of them at the same instant. Reads (ReadAll, List) keep
// working after the crash: recovery inspects the disk the dead machine
// left behind.
//
// Units consumed are counted even when the budget is unlimited, so a test
// can measure a full run once and then iterate crash points 0..Units().
//
// A budget is safe for concurrent use: the sinks it wraps belong to
// different shards, and on each of them a Sync may overlap a Write (see
// File), so used and crashed are read and written under mu.
type CrashBudget struct {
	limit int64 // < 0 = unlimited

	mu      sync.Mutex
	used    int64
	crashed bool
}

// NewCrashBudget returns a budget that kills after limit units; a negative
// limit never kills (but still counts).
func NewCrashBudget(limit int64) *CrashBudget {
	return &CrashBudget{limit: limit}
}

// Units returns the units consumed so far.
func (b *CrashBudget) Units() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Crashed reports whether the budget has been exhausted.
func (b *CrashBudget) Crashed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.crashed
}

// take consumes up to n units and returns how many were granted; granting
// fewer than n (including zero) marks the budget crashed.
func (b *CrashBudget) take(n int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.crashed {
		return 0
	}
	if b.limit >= 0 && b.used+int64(n) > b.limit {
		granted := int(b.limit - b.used)
		b.used = b.limit
		b.crashed = true
		return granted
	}
	b.used += int64(n)
	return n
}

// Wrap returns a Sink view of inner governed by this budget.
func (b *CrashBudget) Wrap(inner Sink) Sink {
	return &crashSink{b: b, inner: inner}
}

// crashSink applies a CrashBudget to one wrapped sink.
type crashSink struct {
	b     *CrashBudget
	inner Sink
}

func (s *crashSink) Create(name string) (File, error) {
	if s.b.take(1) < 1 {
		return nil, ErrCrashed
	}
	f, err := s.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &crashFile{b: s.b, inner: f}, nil
}

func (s *crashSink) ReadAll(name string) ([]byte, error) { return s.inner.ReadAll(name) }
func (s *crashSink) List() ([]string, error)             { return s.inner.List() }

func (s *crashSink) Remove(name string) error {
	if s.b.take(1) < 1 {
		return ErrCrashed
	}
	return s.inner.Remove(name)
}

func (s *crashSink) Sync() error {
	if s.b.Crashed() {
		return ErrCrashed
	}
	return s.inner.Sync()
}

// crashFile tears the write that exhausts the budget: the granted prefix
// reaches the inner file, the rest never happened.
type crashFile struct {
	b     *CrashBudget
	inner File
}

func (f *crashFile) Write(p []byte) (int, error) {
	granted := f.b.take(len(p))
	if granted > 0 {
		if n, err := f.inner.Write(p[:granted]); err != nil {
			return n, err
		}
	}
	if granted < len(p) {
		return granted, ErrCrashed
	}
	return granted, nil
}

func (f *crashFile) Sync() error {
	if f.b.Crashed() {
		return ErrCrashed
	}
	return f.inner.Sync()
}

func (f *crashFile) Close() error { return f.inner.Close() }
