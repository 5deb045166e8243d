package transport

import (
	"sort"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/sim"
)

// Summary is the system-wide outcome a transport's server side (the
// loopback hub or the TCP coordinator) collects. Its fields deliberately
// mirror sim.Result so cross-engine equivalence assertions are direct
// comparisons.
type Summary struct {
	// Rounds is the number of rounds executed until every participant had
	// halted or crashed.
	Rounds int
	// Decisions holds the reported decisions of correct (never crashed)
	// participants, in ascending ID order.
	Decisions []proto.Decision
	// Crashed lists crashed participants in crash order.
	Crashed []proto.ID
	// Messages and Bytes count deliveries, excluding a process hearing its
	// own broadcast — the same accounting as the simulation engines.
	Messages int64
	Bytes    int64
}

// NetConfig parameterizes a transport-level network (loopback or TCP
// coordinator): which adversary injects crashes and under what budget.
type NetConfig struct {
	// Adversary plans mid-broadcast crashes each round; nil means
	// failure-free. Strategies observe rounds through adversary.RoundView
	// exactly as on the simulation engines, except that BallInfo
	// introspection is unavailable across a real network (Info always
	// reports false), so depth-targeting strategies degrade to no-ops.
	Adversary adversary.Strategy
	// Budget caps total crashes (the model's t). Zero means n-1.
	Budget int
}

// network is the server side's state for one run: the round rule shared
// with the simulation engines, plus the decisions members report when they
// halt, which a network cannot observe for itself (a member may decide and
// then crash). It is not safe for concurrent use; callers serialize access.
type network struct {
	*sim.Rounds
	decisions []proto.Decision
}

// newNetwork validates and sorts the member set. Members must be distinct
// and non-zero.
func newNetwork(members []proto.ID, cfg NetConfig) (*network, error) {
	rounds, err := sim.NewRounds(members, nil, cfg.Adversary, cfg.Budget)
	if err != nil {
		return nil, err
	}
	return &network{Rounds: rounds}, nil
}

// halt records member i's clean sign-off and its decision. Crashed members
// cannot halt (their sign-off never arrives); repeated halts are ignored.
func (n *network) halt(i int, h Halt) {
	if n.Status(i) != sim.Live {
		return
	}
	n.Halt(i)
	if h.Decided {
		n.decisions = append(n.decisions, proto.Decision{
			ID:    n.Members()[i],
			Name:  h.Name,
			Round: h.DecidedRound,
		})
	}
}

// summary assembles the run's outcome; Rounds is the last round stepped.
func (n *network) summary() Summary {
	s := Summary{Rounds: n.Round(), Crashed: n.Crashed()}
	s.Messages, s.Bytes = n.Traffic()
	s.Decisions = append(s.Decisions, n.decisions...)
	sort.Slice(s.Decisions, func(i, j int) bool { return s.Decisions[i].ID < s.Decisions[j].ID })
	return s
}
