package sim

import (
	"fmt"
	"testing"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/proto"
)

// TestRoundsStep pins the round rule's edges on a four-member run: which
// crash specs Step skips, what a nil Deliver means, how a network crash
// treats the budget, and the order of the crashes Step reports.
func TestRoundsStep(t *testing.T) {
	t.Parallel()
	members := []proto.ID{30, 10, 40, 20} // sorted by NewRounds
	tests := []struct {
		name   string
		budget int
		// before halts and network-crashes members ahead of the step.
		before func(r *Rounds, idx func(proto.ID) int)
		plan   []adversary.CrashSpec
		// wantCrashed is Step's crashedNow.
		wantCrashed []proto.ID
		wantBudget  int
		// wantHeard maps every recipient to the senders it heard.
		wantHeard    map[proto.ID][]proto.ID
		wantMessages int64
	}{
		{
			name:   "halted, non-member and crashed victims spend no budget",
			budget: 3,
			before: func(r *Rounds, idx func(proto.ID) int) {
				r.Halt(idx(20))
				r.Crash(idx(40))
			},
			plan: []adversary.CrashSpec{
				{Victim: 20}, {Victim: 99}, {Victim: 40},
				{Victim: 10, Deliver: adversary.DeliverAll}, {Victim: 10},
			},
			wantCrashed:  []proto.ID{40, 10},
			wantBudget:   1,
			wantHeard:    map[proto.ID][]proto.ID{30: {10, 30}},
			wantMessages: 1,
		},
		{
			name:         "nil Deliver reaches nobody",
			plan:         []adversary.CrashSpec{{Victim: 10}},
			wantCrashed:  []proto.ID{10},
			wantBudget:   2,
			wantHeard:    map[proto.ID][]proto.ID{20: {20, 30, 40}, 30: {20, 30, 40}, 40: {20, 30, 40}},
			wantMessages: 6,
		},
		{
			name:   "network crash with the budget spent still crashes",
			budget: 1,
			before: func(r *Rounds, idx func(proto.ID) int) {
				r.Crash(idx(10))
				r.Crash(idx(20))
			},
			plan:         []adversary.CrashSpec{{Victim: 30}},
			wantCrashed:  []proto.ID{10, 20},
			wantBudget:   0,
			wantHeard:    map[proto.ID][]proto.ID{30: {30, 40}, 40: {30, 40}},
			wantMessages: 2,
		},
		{
			name: "network crashes are reported before planned ones",
			before: func(r *Rounds, idx func(proto.ID) int) {
				r.Crash(idx(40))
				r.Crash(idx(20))
			},
			plan:         []adversary.CrashSpec{{Victim: 30, Deliver: adversary.DeliverToSet(map[proto.ID]bool{10: true})}},
			wantCrashed:  []proto.ID{40, 20, 30},
			wantBudget:   0,
			wantHeard:    map[proto.ID][]proto.ID{10: {10, 30}},
			wantMessages: 1,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			adv := adversary.Func{Label: "table", Fn: func(v adversary.RoundView) []adversary.CrashSpec {
				if v.Round() != 1 {
					return nil
				}
				return tc.plan
			}}
			r, err := NewRounds(members, nil, adv, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			idx := func(id proto.ID) int {
				i, ok := r.Index(id)
				if !ok {
					t.Fatalf("%v is not a member", id)
				}
				return i
			}
			if tc.before != nil {
				tc.before(r, idx)
			}
			payloads := make([][]byte, len(members))
			for i, id := range r.Members() {
				if r.Status(i) == Live {
					payloads[i] = []byte{byte(id)}
				}
			}
			heard := map[proto.ID][]proto.ID{}
			crashedNow := r.Step(1, payloads, func(i int, msgs []proto.Message) {
				to := r.Members()[i]
				if _, dup := heard[to]; dup {
					t.Fatalf("%v delivered twice", to)
				}
				heard[to] = []proto.ID{}
				for _, m := range msgs {
					heard[to] = append(heard[to], m.From)
				}
			})
			if fmt.Sprint(crashedNow) != fmt.Sprint(tc.wantCrashed) {
				t.Errorf("crashedNow = %v, want %v", crashedNow, tc.wantCrashed)
			}
			if r.Budget() != tc.wantBudget {
				t.Errorf("budget = %d, want %d", r.Budget(), tc.wantBudget)
			}
			if fmt.Sprint(heard) != fmt.Sprint(tc.wantHeard) {
				t.Errorf("heard = %v, want %v", heard, tc.wantHeard)
			}
			if msgs, bytes := r.Traffic(); msgs != tc.wantMessages || bytes != tc.wantMessages {
				t.Errorf("traffic = %d messages, %d bytes, want %d of each", msgs, bytes, tc.wantMessages)
			}
			if again := r.Step(2, make([][]byte, len(members)), func(int, []proto.Message) {}); len(again) != 0 {
				t.Errorf("next step reports %v crashed again", again)
			}
		})
	}
}

func TestNewRoundsValidates(t *testing.T) {
	t.Parallel()
	for _, members := range [][]proto.ID{nil, {1, 0}, {3, 2, 3}} {
		if _, err := NewRounds(members, nil, nil, 0); err == nil {
			t.Errorf("members %v accepted", members)
		}
	}
	r, err := NewRounds([]proto.ID{9, 4, 7}, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(r.Members(), r.Budget()); got != "[p4 p7 p9] 2" {
		t.Fatalf("members and budget = %s, want [p4 p7 p9] 2", got)
	}
	if _, ok := r.Info(4); ok {
		t.Fatal("Info reported without an introspector")
	}
}
