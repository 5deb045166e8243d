package durable

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// powerSink models what survives a power cut, over a MemSink that holds
// what was written: a file's bytes survive up to its last File.Sync, and
// its directory entry (creation or removal) survives from the next
// Sink.Sync on. It also checks the Store's side of the File contract: on
// one sink, no two Syncs ever run at once — File.Sync and Sink.Sync alike —
// though a Sync may overlap a Write. Test callbacks may run on any
// goroutine, so failures are collected and reported by the test goroutine.
type powerSink struct {
	mu      sync.Mutex
	live    *MemSink
	synced  map[string]int  // file -> bytes on stable storage
	entries map[string]bool // directory as of the last Sink.Sync

	// onStep, when set, runs before every operation that changes what a
	// power cut would leave behind.
	onStep func()

	syncing   atomic.Int32
	overlap   atomic.Bool
	fileSyncs atomic.Int64
	// syncErr, when set, fails every segment File.Sync from then on — a
	// genuine fsync error, not an injected crash.
	syncErr atomic.Pointer[error]
}

func newPowerSink() *powerSink {
	return &powerSink{live: NewMemSink(), synced: map[string]int{}, entries: map[string]bool{}}
}

func (p *powerSink) enterSync() {
	if p.syncing.Add(1) != 1 {
		p.overlap.Store(true)
	}
	p.step()
}

func (p *powerSink) step() {
	if p.onStep != nil {
		p.onStep()
	}
}

func (p *powerSink) Create(name string) (File, error) {
	p.step()
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.live.Create(name); err != nil {
		return nil, err
	}
	p.synced[name] = 0
	return &powerFile{p: p, name: name}, nil
}

func (p *powerSink) ReadAll(name string) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live.ReadAll(name)
}

func (p *powerSink) List() ([]string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live.List()
}

func (p *powerSink) Remove(name string) error {
	p.step()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live.Remove(name)
}

func (p *powerSink) Sync() error {
	p.enterSync()
	defer p.syncing.Add(-1)
	p.mu.Lock()
	defer p.mu.Unlock()
	names, _ := p.live.List()
	p.entries = make(map[string]bool, len(names))
	for _, name := range names {
		p.entries[name] = true
	}
	return nil
}

// image is the disk a power cut at this instant would leave behind.
func (p *powerSink) image() *MemSink {
	p.mu.Lock()
	defer p.mu.Unlock()
	img := NewMemSink()
	for name := range p.entries {
		data, err := p.live.ReadAll(name)
		if err != nil {
			data = nil // removed since, but the removal is not durable yet: contents unknown
		}
		f, _ := img.Create(name)
		f.Write(data[:min(len(data), p.synced[name])])
	}
	return img
}

type powerFile struct {
	p    *powerSink
	name string
}

func (f *powerFile) Write(b []byte) (int, error) {
	f.p.mu.Lock()
	defer f.p.mu.Unlock()
	return (&memFile{s: f.p.live, name: f.name}).Write(b)
}

func (f *powerFile) Sync() error {
	f.p.enterSync()
	defer f.p.syncing.Add(-1)
	f.p.fileSyncs.Add(1)
	if err := f.p.syncErr.Load(); err != nil {
		if _, isSeg := parseName(f.name, segPrefix, segSuffix); isSeg {
			return *err
		}
	}
	f.p.mu.Lock()
	defer f.p.mu.Unlock()
	data, err := f.p.live.ReadAll(f.name)
	if err != nil {
		return err
	}
	f.p.synced[f.name] = len(data)
	return nil
}

func (f *powerFile) Close() error { return nil }

// TestSyncedWatermarkSurvivesPowerCut hammers a Store with out-of-lock
// Syncs while its owner appends and checkpoints, cutting the power before
// every single step of every fsync and rotation: whatever Synced() claimed
// just before a cut must be recoverable from the disk image the cut leaves
// — including a Sync that queued behind a checkpoint and returned on its
// watermark without an fsync of its own. Run under -race it also pins that
// Sync needs no owner lock.
func TestSyncedWatermarkSurvivesPowerCut(t *testing.T) {
	t.Parallel()
	sink := newPowerSink()
	s, _, err := Open(sink, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const records, every = 600, 40 // 15 rotations
	powerCut := func() {
		claimed := s.Synced()
		_, rec, err := Open(sink.image(), Options{})
		if err != nil {
			t.Errorf("recovering the image behind watermark %d: %v", claimed, err)
		} else if rec.Seq < claimed {
			t.Errorf("watermark claimed %d durable, the power-cut image recovers only %d", claimed, rec.Seq)
		}
	}
	sink.onStep = powerCut

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := s.Seq()
				if err := s.Sync(); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
				if got := s.Synced(); got < before {
					t.Errorf("Sync returned with watermark %d, %d records were appended before the call", got, before)
					return
				}
			}
		}()
	}
	// The owner: appends and checkpoints are serialized here, as a shard
	// lock would, and take no notice of the Syncs around them.
	for i := 1; i <= records; i++ {
		if _, err := s.Append([]byte(fmt.Sprintf("payload-%04d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if i%every == 0 {
			if err := s.Checkpoint([]byte(fmt.Sprintf("state-%04d", i))); err != nil {
				t.Fatalf("checkpoint at %d: %v", i, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	powerCut()
	if t.Failed() {
		return
	}
	if sink.overlap.Load() {
		t.Error("two Syncs ran at once on one sink")
	}
	if err := s.Err(); err != nil {
		t.Errorf("store poisoned: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.Synced() != records {
		t.Fatalf("final watermark %d, want %d", s.Synced(), records)
	}
}

// TestSyncSkipsCleanSegment: a Sync with nothing appended since the last
// one (or since a checkpoint) issues no fsync at all.
func TestSyncSkipsCleanSegment(t *testing.T) {
	t.Parallel()
	sink := newPowerSink()
	s, _, err := Open(sink, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if n := sink.fileSyncs.Load(); n != 0 {
		t.Fatalf("%d fsyncs of an empty segment", n)
	}
	appendPayload(t, s, "a")
	appendPayload(t, s, "b")
	for i := 0; i < 5; i++ {
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if n := sink.fileSyncs.Load(); n != 1 {
		t.Fatalf("%d fsyncs for one dirty spell, want 1", n)
	}
	appendPayload(t, s, "c")
	if err := s.Checkpoint([]byte("state")); err != nil {
		t.Fatal(err)
	}
	before := sink.fileSyncs.Load() // the checkpoint synced its snapshot
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := sink.fileSyncs.Load(); n != before {
		t.Fatalf("Sync after a checkpoint fsynced the fresh, empty segment")
	}
}

// TestSyncErrorIsSticky: a genuine fsync failure is returned, never marks
// anything durable, and poisons every later Sync and Checkpoint — a later
// fsync that happened to succeed could not vouch for what the failed one
// may have dropped.
func TestSyncErrorIsSticky(t *testing.T) {
	t.Parallel()
	sink := newPowerSink()
	s, _, err := Open(sink, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendPayload(t, s, "a")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("EIO")
	sink.syncErr.Store(&boom)
	appendPayload(t, s, "b")
	if err := s.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync over a failing disk: %v, want %v", err, boom)
	}
	sink.syncErr.Store(nil)
	appendPayload(t, s, "c")
	if err := s.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync after a failed one: %v, want the sticky %v", err, boom)
	}
	if got := s.Synced(); got != 1 {
		t.Fatalf("watermark %d after a failed fsync, want 1", got)
	}
	if err := s.Checkpoint([]byte("state")); !errors.Is(err, boom) {
		t.Fatalf("Checkpoint after a failed fsync: %v, want %v", err, boom)
	}
}
