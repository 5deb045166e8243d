package faultnet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ballsintoleaves/internal/rng"
)

// Action is the kind of a scheduled fault event.
type Action int

const (
	// ActPartition drops the target's traffic (both directions, or only
	// the traffic toward it when OneWay is set — the target is deafened)
	// and, when two-way, resets established flows.
	ActPartition Action = iota
	// ActHeal clears every fault on the target.
	ActHeal
	// ActLatency adds fixed delay in both directions.
	ActLatency
	// ActRate caps throughput in both directions.
	ActRate
	// ActReset kills established connections without changing fault
	// state — a route flap.
	ActReset
)

func (a Action) String() string {
	switch a {
	case ActPartition:
		return "partition"
	case ActHeal:
		return "heal"
	case ActLatency:
		return "latency"
	case ActRate:
		return "rate"
	case ActReset:
		return "reset"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Event is one scheduled fault. Target is a role selector resolved at
// fire time ("leader", "follower", or any name the driver's resolver
// understands); the schedule itself never names concrete nodes, so the
// compiled event sequence is identical across runs even though elections
// land on different nodes.
type Event struct {
	At      time.Duration // offset from schedule start
	Action  Action
	Target  string
	OneWay  bool          // ActPartition: deafen the target (drop only traffic toward it)
	Latency time.Duration // ActLatency
	Rate    int           // ActRate, bytes/sec
}

// String renders the event deterministically — the unit the replay
// assertion compares.
func (e Event) String() string {
	s := fmt.Sprintf("t=+%v %v %s", e.At, e.Action, e.Target)
	switch {
	case e.Action == ActPartition && e.OneWay:
		s += " (one-way)"
	case e.Action == ActLatency:
		s += fmt.Sprintf(" %v", e.Latency)
	case e.Action == ActRate:
		s += fmt.Sprintf(" %dB/s", e.Rate)
	}
	return s
}

// Scenarios lists the named chaos scenarios Compile understands.
func Scenarios() []string {
	return []string{"partition-leader", "asymmetric-split", "flapping-follower"}
}

// Compile expands a named scenario into its concrete event schedule over
// a run of length d. It is a pure function of (name, d, seed): randomized
// scenarios derive every choice from the seed (internal/adversary's
// scripted-strategy contract), so the same inputs always produce the same
// fault event sequence. Every scenario ends healed.
func Compile(name string, d time.Duration, seed uint64) ([]Event, error) {
	if d <= 0 {
		return nil, fmt.Errorf("faultnet: non-positive schedule duration %v", d)
	}
	frac := func(num, den int64) time.Duration {
		return d * time.Duration(num) / time.Duration(den)
	}
	var ev []Event
	switch name {
	case "partition-leader":
		// Cut the leader off from peers and clients mid-run; heal with
		// enough tail for catch-up and convergence.
		ev = []Event{
			{At: frac(1, 4), Action: ActPartition, Target: "leader"},
			{At: frac(3, 5), Action: ActHeal, Target: "leader"},
		}
	case "asymmetric-split":
		// A follower is deafened: it transmits — heartbeat acks, campaign
		// solicitations — but hears nothing, so its election timer fires
		// while every peer still hears the live leader. The election-
		// stability worst case: only timeouts, never connection errors,
		// expose the fault, and a hardened cluster must ride it out with
		// zero disruptive elections.
		ev = []Event{
			{At: frac(1, 4), Action: ActPartition, Target: "follower", OneWay: true},
			{At: frac(3, 5), Action: ActHeal, Target: "follower"},
		}
	case "flapping-follower":
		// A follower's route flaps: seed-derived number of short
		// partition/heal cycles, then a final heal.
		r := rng.New(rng.DeriveSeed(seed, 0xf1a9))
		flaps := 3 + r.Intn(3)
		// Flaps occupy the middle [1/5, 4/5] of the run.
		window := frac(3, 5)
		start := frac(1, 5)
		slot := window / time.Duration(flaps)
		for i := 0; i < flaps; i++ {
			at := start + slot*time.Duration(i)
			// Down for a seed-derived 30-70% of the slot.
			down := slot * time.Duration(30+r.Intn(41)) / 100
			ev = append(ev,
				Event{At: at, Action: ActPartition, Target: "follower"},
				Event{At: at + down, Action: ActHeal, Target: "follower"},
			)
		}
	default:
		return nil, fmt.Errorf("faultnet: unknown scenario %q (have %v)", name, Scenarios())
	}
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].At < ev[j].At })
	return ev, nil
}

// Driver fires a compiled schedule in real time through an apply
// function, which resolves each event's role selector to a node at fire
// time (Mesh.Apply then maps the fault onto that node's links). The
// fired log records each event with its *scheduled* offset, so the
// observable sequence is deterministic regardless of wall-clock jitter.
type Driver struct {
	events []Event
	apply  func(Event)
	logf   func(format string, args ...any)

	mu    sync.Mutex
	fired []Event
}

// NewDriver builds a driver over a compiled schedule. logf may be nil.
func NewDriver(events []Event, apply func(Event), logf func(string, ...any)) *Driver {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Driver{events: events, apply: apply, logf: logf}
}

// Run fires every event at its offset from now, in order; it returns
// after the last event, or early when stop closes. Events are applied
// synchronously — apply must not block for long.
func (dr *Driver) Run(stop <-chan struct{}) {
	start := time.Now()
	for _, e := range dr.events {
		wait := e.At - time.Since(start)
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		dr.logf("chaos: %s", e)
		dr.apply(e)
		dr.mu.Lock()
		dr.fired = append(dr.fired, e)
		dr.mu.Unlock()
	}
}

// Fired returns the events applied so far, each stamped with its
// scheduled offset. After an uninterrupted Run this equals the compiled
// schedule exactly — the deterministic-replay invariant.
func (dr *Driver) Fired() []Event {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	out := make([]Event, len(dr.fired))
	copy(out, dr.fired)
	return out
}
