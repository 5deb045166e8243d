package main

import (
	"syscall"
	"time"

	"ballsintoleaves/internal/namesvc/durable"
)

// steadySink gives every flush of the sink it wraps a fixed service time.
// Each Sync — WAL segment, snapshot, directory — runs the real fsync and then
// keeps its thread blocked, as the fsync did, until `floor` has passed since
// the call began. The files are exactly as durable as without it (the
// recovery checks reopen them); only the time is a modelled disk's instead
// of the box's. Every durable node runs on one, traced or not.
//
// The reason is the box. With nothing else running, its virtio disk's median
// fsync wanders between 170 and 310 µs over tens of seconds, and every
// durable workload's latency is a small multiple of that time, so ten runs
// of unchanged code spread by 0.2–0.6 of their median and no run length the
// driver's budget allows averages it out (README.md, "Run-to-run spread"). A
// flush that takes `floor` whenever the real one is faster — nearly always —
// leaves what the program controls: how many flushes an operation waits for
// and what it overlaps with them. A real flush slower than the floor shows
// in full, and durable.sync_over_floor_frac says how often that happened.
type steadySink struct {
	durable.Sink
	floor time.Duration
	// observe, when set, is handed each flush's real duration, before the
	// wait. A shard's sink is only touched under that shard's lock.
	observe func(real time.Duration)
}

func (s *steadySink) Create(name string) (durable.File, error) {
	f, err := s.Sink.Create(name)
	if err != nil {
		return nil, err
	}
	return steadyFile{File: f, sink: s}, nil
}

func (s *steadySink) Sync() error { return s.atLeastFloor(s.Sink.Sync) }

type steadyFile struct {
	durable.File
	sink *steadySink
}

func (f steadyFile) Sync() error { return f.sink.atLeastFloor(f.File.Sync) }

// atLeastFloor runs sync and returns its error once floor has passed since
// the call began. It waits in nanosleep, not time.Sleep: the Go runtime's
// timers fire up to a millisecond late on an idle processor, nanosleep
// within about 0.1 ms, and like fsync it blocks the thread in a system call.
func (s *steadySink) atLeastFloor(sync func() error) error {
	start := time.Now()
	err := sync()
	if s.observe != nil {
		s.observe(time.Since(start))
	}
	for {
		rest := s.floor - time.Since(start)
		if rest <= 0 {
			return err
		}
		ts := syscall.NsecToTimespec(int64(rest))
		// An early return (EINTR) goes round again with what is left.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
