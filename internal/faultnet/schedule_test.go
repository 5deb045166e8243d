package faultnet

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCompileDeterministic(t *testing.T) {
	for _, sc := range Scenarios() {
		a, err := Compile(sc, 20*time.Second, 42)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		b, err := Compile(sc, 20*time.Second, 42)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed compiled different schedules:\n%v\n%v", sc, a, b)
		}
		if len(a) == 0 {
			t.Fatalf("%s: empty schedule", sc)
		}
	}
}

func TestCompileEndsHealed(t *testing.T) {
	for _, sc := range Scenarios() {
		ev, err := Compile(sc, 20*time.Second, 7)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		last := ev[len(ev)-1]
		if last.Action != ActHeal {
			t.Fatalf("%s: final event %v is not a heal", sc, last)
		}
		for i := 1; i < len(ev); i++ {
			if ev[i].At < ev[i-1].At {
				t.Fatalf("%s: events out of order: %v before %v", sc, ev[i-1], ev[i])
			}
		}
	}
}

func TestCompileUnknownScenario(t *testing.T) {
	if _, err := Compile("split-brain-rave", time.Second, 1); err == nil {
		t.Fatal("unknown scenario compiled")
	}
	if _, err := Compile("partition-leader", 0, 1); err == nil {
		t.Fatal("zero-duration schedule compiled")
	}
}

func TestDriverFiresScheduleInOrder(t *testing.T) {
	ev, err := Compile("flapping-follower", 300*time.Millisecond, 11)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var applied []Event
	dr := NewDriver(ev, func(e Event) {
		mu.Lock()
		applied = append(applied, e)
		mu.Unlock()
	}, t.Logf)
	stop := make(chan struct{})
	dr.Run(stop)
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(applied, ev) {
		t.Fatalf("applied %v, want %v", applied, ev)
	}
	// The fired log is the compiled schedule verbatim: the
	// deterministic-replay invariant.
	if got := dr.Fired(); !reflect.DeepEqual(got, ev) {
		t.Fatalf("fired %v, want %v", got, ev)
	}
}

func TestDriverStops(t *testing.T) {
	ev := []Event{
		{At: 0, Action: ActReset, Target: "leader"},
		{At: time.Hour, Action: ActHeal, Target: "leader"},
	}
	dr := NewDriver(ev, func(Event) {}, nil)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		dr.Run(stop)
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("driver did not stop")
	}
	if got := dr.Fired(); len(got) != 1 {
		t.Fatalf("fired %v, want only the first event", got)
	}
}
