package sim

import (
	"fmt"
	"sort"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/proto"
)

// Status is a member's standing in a run.
type Status uint8

const (
	// Live members broadcast every round.
	Live Status = iota
	// Halted members signed off cleanly and take no further part.
	Halted
	// Crashed members were crashed by the adversary or by their network.
	Crashed
)

// Rounds is the model's round rule (§3) over a fixed member set, the one
// copy that the reference Engine, the transport's loopback hub and its TCP
// coordinator all step: every live member broadcasts, the adversary crashes
// members up to its remaining budget, and a crashing sender's last
// broadcast reaches only the recipients the adversary picks. It keeps each
// member's status, the crash order and the network's message and byte
// counts, and it is the adversary's RoundView. It is not safe for
// concurrent use.
type Rounds struct {
	members []proto.ID // ascending
	index   map[proto.ID]int
	status  []Status
	intro   []Introspector // per member; nil entries expose nothing
	adv     adversary.Strategy
	budget  int

	round    int
	payloads [][]byte              // the round being stepped
	deliver  []func(proto.ID) bool // per sender: this round's crash predicate
	alive    []proto.ID            // Alive's buffer, valid while aliveOK
	aliveOK  bool
	msgs     []proto.Message // the delivery buffer every callback shares
	mark     int             // len(crashed) when the last Step returned

	crashed  []proto.ID
	messages int64
	bytes    int64
}

// NewRounds sorts and validates the members (distinct, non-zero IDs; order
// irrelevant). intro is nil or holds one optional Introspector per member,
// in the order of members; adv nil means failure-free; budget <= 0 means
// n-1, the most crashes renaming tolerates.
func NewRounds(members []proto.ID, intro []Introspector, adv adversary.Strategy, budget int) (*Rounds, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("sim: no members")
	}
	order := make([]int, len(members))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return members[order[a]] < members[order[b]] })
	r := &Rounds{
		members: make([]proto.ID, len(members)),
		index:   make(map[proto.ID]int, len(members)),
		status:  make([]Status, len(members)),
		adv:     adv,
		budget:  budget,
		deliver: make([]func(proto.ID) bool, len(members)),
	}
	if intro != nil {
		r.intro = make([]Introspector, len(members))
	}
	for i, from := range order {
		id := members[from]
		if id == 0 {
			return nil, fmt.Errorf("sim: member IDs must be non-zero")
		}
		if _, dup := r.index[id]; dup {
			return nil, fmt.Errorf("sim: duplicate member ID %v", id)
		}
		r.members[i] = id
		r.index[id] = i
		if intro != nil {
			r.intro[i] = intro[from]
		}
	}
	if r.adv == nil {
		r.adv = adversary.None{}
	}
	if r.budget <= 0 {
		r.budget = len(members) - 1
	}
	return r, nil
}

// Members returns the member IDs in ascending order; index i of every
// per-member argument and result refers to Members()[i].
func (r *Rounds) Members() []proto.ID { return r.members }

// Index returns the position of id in Members.
func (r *Rounds) Index(id proto.ID) (int, bool) {
	i, ok := r.index[id]
	return i, ok
}

// Status reports member i's standing.
func (r *Rounds) Status(i int) Status { return r.status[i] }

// Active reports whether any member is still live.
func (r *Rounds) Active() bool {
	for _, st := range r.status {
		if st == Live {
			return true
		}
	}
	return false
}

// Crashed lists the crashed members in crash order.
func (r *Rounds) Crashed() []proto.ID { return r.crashed }

// Traffic returns the messages and bytes delivered so far, excluding each
// member hearing its own broadcast.
func (r *Rounds) Traffic() (messages, bytes int64) { return r.messages, r.bytes }

// Halt records member i's clean sign-off; it is a no-op unless i is live.
func (r *Rounds) Halt(i int) { r.leave(i, Halted) }

// Crash crashes live member i outside the adversary's plan: a network's
// member that fell silent. Real failures cannot be prevented, so they are
// not gated by the budget, which only floors at zero.
func (r *Rounds) Crash(i int) {
	if r.leave(i, Crashed) && r.budget > 0 {
		r.budget--
	}
}

// leave moves live member i to st and reports whether it did.
func (r *Rounds) leave(i int, st Status) bool {
	if r.status[i] != Live {
		return false
	}
	r.status[i] = st
	r.aliveOK = false
	if st == Crashed {
		r.crashed = append(r.crashed, r.members[i])
	}
	return true
}

// Step runs one round over payloads, where payloads[i] is member i's
// broadcast (nil if it sent nothing). The adversary plans with full
// visibility. Each victim that is a live member crashes, in plan order,
// until the budget is spent; other victims are skipped and cost nothing,
// and a nil Deliver means adversary.DeliverNone. Then deliver is called for
// each member still live, in ascending order, with the round's messages in
// ascending sender order, its own included: a victim's last message
// reaches only the recipients its Deliver picks. msgs is reused across
// calls and must not be retained. Step returns the members crashed since
// the previous Step returned, in crash order: those Crash removed first,
// then the adversary's victims.
func (r *Rounds) Step(round int, payloads [][]byte, deliver func(i int, msgs []proto.Message)) (crashedNow []proto.ID) {
	r.round = round
	r.payloads = payloads
	for _, spec := range r.adv.Plan(r) {
		if r.budget == 0 {
			break
		}
		i, ok := r.index[spec.Victim]
		if !ok || !r.leave(i, Crashed) {
			continue
		}
		r.budget--
		r.deliver[i] = spec.Deliver
		if r.deliver[i] == nil {
			r.deliver[i] = adversary.DeliverNone
		}
	}
	for i, to := range r.members {
		if r.status[i] != Live {
			continue
		}
		r.msgs = r.msgs[:0]
		for j, payload := range payloads {
			if payload == nil {
				continue
			}
			if r.status[j] == Crashed && (r.deliver[j] == nil || !r.deliver[j](to)) {
				continue
			}
			r.msgs = append(r.msgs, proto.Message{From: r.members[j], Payload: payload})
			if i != j {
				r.messages++
				r.bytes += int64(len(payload))
			}
		}
		deliver(i, r.msgs)
	}
	clear(r.deliver)
	crashedNow = r.crashed[r.mark:len(r.crashed):len(r.crashed)]
	r.mark = len(r.crashed)
	return crashedNow
}

// Round implements adversary.RoundView: the round last stepped.
func (r *Rounds) Round() int { return r.round }

// N implements adversary.RoundView.
func (r *Rounds) N() int { return len(r.members) }

// Alive implements adversary.RoundView: the live members, ascending.
func (r *Rounds) Alive() []proto.ID {
	if !r.aliveOK {
		r.alive = r.alive[:0]
		for i, id := range r.members {
			if r.status[i] == Live {
				r.alive = append(r.alive, id)
			}
		}
		r.aliveOK = true
	}
	return r.alive
}

// Payload implements adversary.RoundView.
func (r *Rounds) Payload(id proto.ID) []byte {
	if i, ok := r.index[id]; ok && r.payloads != nil {
		return r.payloads[i]
	}
	return nil
}

// Info implements adversary.RoundView through the member's Introspector;
// it reports false for crashed members and members without one.
func (r *Rounds) Info(id proto.ID) (adversary.BallInfo, bool) {
	i, ok := r.index[id]
	if !ok || r.status[i] == Crashed || r.intro == nil || r.intro[i] == nil {
		return adversary.BallInfo{}, false
	}
	return r.intro[i].Info(), true
}

// Budget implements adversary.RoundView: the crashes still allowed.
func (r *Rounds) Budget() int { return r.budget }
