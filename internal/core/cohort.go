package core

import (
	"fmt"
	"slices"
	"sort"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/bitset"
	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/rng"
	"ballsintoleaves/internal/tree"
	"ballsintoleaves/internal/wire"
)

// Cohort is the fast whole-system simulator for Balls-into-Leaves. It
// executes the identical protocol as a set of Ball processes on the
// reference engine — same per-ball randomness, same decisions, same round
// counts, same message counts — but exploits the paper's synchronization
// structure to avoid materializing n local views:
//
//   - Proposition 1: the positions of correct balls agree across all local
//     views at every phase boundary, so one canonical view suffices between
//     phases.
//   - Views diverge only within a phase, and only about balls that crashed
//     mid-broadcast; survivors are grouped by exactly which final
//     broadcasts they received, and the O(n log n) priority move pass runs
//     once per distinct group rather than once per ball.
//
// Every per-phase buffer is preallocated or reused, so a failure-free phase
// at steady state performs zero heap allocations (asserted by
// TestCohortPhaseZeroAllocs).
//
// The equivalence is enforced by integration tests (TestCohortMatchesSim*).
type Cohort struct {
	base   Config // as given to NewCohort; cfg is derived from it per size
	cfg    Config // base at the current size: N, Seed and defaults applied
	topo   *tree.Topology
	labels []proto.ID // ascending; dense index order
	srcs   []rng.Source

	canon   *View
	work    *View // scratch group view
	inCanon []bool

	active    []bool // alive and not halted
	haltPhase []int  // phase at whose end the ball halted; 0 = not halted
	crashed   []proto.ID

	decided      []bool
	decidedName  []int
	decidedRound []int

	residue []residueEntry

	round   int
	phase   int
	budget  int
	msgs    int64
	bytes   int64
	metrics *Metrics

	// Per-phase scratch.
	paths   []Path
	has     []bool
	newPos  []tree.Node
	members []int32 // activeMembers buffer

	// Deterministic-phase scratch (allocated on first use and regrown when
	// a larger size needs it: only the hybrid and deterministic strategies
	// rank balls at nodes).
	rankArr []int32 // per-ball rank among co-located balls
	nodeCnt []int32 // per-node ball counter, zeroed after each use

	// Crash-path scratch (allocated and regrown the same way: failure-free
	// runs never group).
	gid        []int32 // per-ball group id during partition refinement
	remap      []int32 // (old gid, received bit) -> new gid
	remapMark  []int32 // epoch marks validating remap entries
	remapEpoch int32
	groupEnd   []int32 // end offset of each group in memberBuf
	memberBuf  []int32 // members bucketed by group
	residueCnt []int32 // adjustRootRanks prefix counts
	recvCnt    []int32 // adjustRootRanks per-survivor received counts

	rview cohortRoundView // reusable adversary view, one per Cohort

	// OnPhaseEnd, when set before Run, is invoked after each phase's
	// canonical update with the phase number, its position round, and the
	// canonical view (read-only; do not retain). Used by tracing tools.
	OnPhaseEnd func(phase, round int, canon *View)
}

// residueEntry is a ball that crashed mid-broadcast and is still present in
// the views of the receivers of its final message, parked at the position
// the canonical view records for it.
type residueEntry struct {
	idx  int32
	recv bitset.Set // dense indices of survivors holding the ball
}

// Result summarizes one Cohort run.
type Result struct {
	N      int
	Rounds int
	Phases int
	// Decisions holds correct processes' decisions, ascending by ID.
	Decisions []proto.Decision
	// CrashedDecided counts processes that decided, then crashed.
	CrashedDecided int
	Crashes        int
	// Messages and Bytes count network deliveries excluding self-delivery,
	// matching internal/sim's accounting.
	Messages int64
	Bytes    int64
	// Metrics is populated when Config.Metrics is set.
	Metrics *Metrics
}

// NewCohort builds a fast simulator over the given labels (distinct, any
// order): it allocates the cohort and arms it through Reset, the one path
// that sizes and initializes a cohort.
func NewCohort(cfg Config, labels []proto.ID) (*Cohort, error) {
	if cfg.NoSyncRound {
		return nil, fmt.Errorf("core: the NoSyncRound ablation requires the faithful Ball implementation")
	}
	if len(labels) != cfg.N {
		return nil, fmt.Errorf("core: %d labels for N=%d", len(labels), cfg.N)
	}
	c := &Cohort{base: cfg, canon: &View{}, work: &View{}}
	c.rview.c = c
	if cfg.Metrics {
		c.metrics = &Metrics{}
	}
	if err := c.Reset(cfg.Seed, labels); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset arms the cohort for a fresh run over a new label set of any size
// (distinct labels, any order; the seed replaces Config.Seed), reusing every
// buffer and view — the path long-lived callers (the name service's epoch
// loop) drive once per epoch. A run after Reset is identical to a run of a
// cohort freshly built over the same (seed, labels). Reset allocates only
// when len(labels) exceeds every size the cohort has been armed at, or needs
// a tree shape that tree.Shared has yet to build. On error the cohort state
// is unspecified and must be Reset again before use.
func (c *Cohort) Reset(seed uint64, labels []proto.ID) error {
	if n := len(labels); c.topo == nil || n != c.cfg.N {
		if err := c.resize(n); err != nil {
			return err
		}
	}
	// c.labels is the label table shared with the views; rewrite in place.
	copy(c.labels, labels)
	slices.Sort(c.labels)
	for i := 1; i < len(c.labels); i++ {
		if c.labels[i] == c.labels[i-1] {
			return fmt.Errorf("core: duplicate label %v", c.labels[i])
		}
	}
	c.cfg.Seed = seed
	for i, id := range c.labels {
		c.srcs[i].Reseed(rng.DeriveSeed(seed, uint64(id)))
		c.inCanon[i] = true
		c.active[i] = true
		c.haltPhase[i] = 0
		c.decided[i] = false
		c.decidedName[i] = 0
		c.decidedRound[i] = 0
	}
	c.canon.ResetAllAtRoot()
	c.crashed = c.crashed[:0]
	c.residue = c.residue[:0]
	c.round, c.phase = 0, 0
	c.msgs, c.bytes = 0, 0
	c.budget = c.cfg.Budget
	if c.metrics != nil {
		*c.metrics = Metrics{}
	}
	c.rview.aliveValid = false
	return nil
}

// resize binds the cohort to n balls: it derives the size-n configuration
// from the one the cohort was built with, takes the immutable size-n
// topology from tree.Shared, re-slices the per-ball arrays (growing those
// that are too small) and points both views at the new shape. Contents are
// Reset's to initialize. An n the configuration rejects leaves the cohort
// as it was.
func (c *Cohort) resize(n int) error {
	cfg := c.base
	cfg.N = n
	if err := cfg.validate(); err != nil {
		return err
	}
	c.cfg = cfg.normalized()
	if c.cfg.Adversary == nil {
		c.cfg.Adversary = adversary.None{}
	}
	c.topo = tree.Shared(n, c.cfg.Arity)
	c.labels = resized(c.labels, n)
	c.srcs = resized(c.srcs, n)
	c.inCanon = resized(c.inCanon, n)
	c.active = resized(c.active, n)
	c.haltPhase = resized(c.haltPhase, n)
	c.decided = resized(c.decided, n)
	c.decidedName = resized(c.decidedName, n)
	c.decidedRound = resized(c.decidedRound, n)
	c.paths = resized(c.paths, n)
	c.has = resized(c.has, n)
	c.newPos = resized(c.newPos, n)
	c.members = resized(c.members, n)[:0]
	c.canon.rebind(c.topo, c.labels)
	c.work.rebind(c.topo, c.labels)
	return nil
}

// Run executes the full protocol and returns the result. It errors if the
// system fails to quiesce within MaxRounds.
func (c *Cohort) Run() (Result, error) {
	if err := c.RunToQuiescence(); err != nil {
		return c.result(), err
	}
	return c.result(), nil
}

// RunToQuiescence executes the full protocol without assembling a Result:
// callers read decisions through DecidedNames instead. Unlike Run, a
// completed failure-free run allocates nothing, which the name service's
// epoch path depends on (TestEpochZeroAllocs). It errors if the system
// fails to quiesce within MaxRounds.
func (c *Cohort) RunToQuiescence() error {
	c.initRound()
	for c.anyActive() {
		if c.round+2 > c.cfg.MaxRounds {
			return fmt.Errorf("core: exceeded %d rounds without quiescing", c.cfg.MaxRounds)
		}
		c.runPhase()
	}
	return nil
}

// DecidedNames writes into names[i] the name decided by the ball labelled
// labels[i]; it errors on a label that is not in the cohort or has not
// decided (it crashed, or the run has not finished). Labels given ascending
// — the cohort's own dense order — are read straight off the decision
// table; any other label costs a binary search.
func (c *Cohort) DecidedNames(labels []proto.ID, names []int) error {
	for i, id := range labels {
		idx := i
		if i >= len(c.labels) || c.labels[i] != id {
			var ok bool
			if idx, ok = c.indexOf(id); !ok {
				return fmt.Errorf("core: label %v is not in the cohort", id)
			}
		}
		if !c.decided[idx] {
			return fmt.Errorf("core: label %v did not decide", id)
		}
		names[i] = c.decidedName[idx]
	}
	return nil
}

func (c *Cohort) anyActive() bool {
	for _, a := range c.active {
		if a {
			return true
		}
	}
	return false
}

// initRound executes round 1: every ball broadcasts its label and inserts
// every heard ball at the root. Crashes during the join broadcast create
// membership residue: the victim exists only in the views of the receivers
// of its join.
func (c *Cohort) initRound() {
	c.round = 1
	victims := c.planCrashes(stageJoin)
	c.accountRound(stageJoin, victims)
	for _, v := range victims {
		if v.recv.Empty() {
			c.dropFromCanon(int(v.idx))
		} else {
			c.residue = append(c.residue, v)
		}
	}
}

// runPhase executes one full phase: candidate-path round then position
// round, with adversary interleaving, exactly mirroring Algorithm 1. The
// failure-free fast path (no lingering residue, no victims this round) runs
// entirely on preallocated scratch: no closures, no groups, no allocations.
func (c *Cohort) runPhase() {
	c.phase++
	c.round++ // path round, 2φ

	// Residue parked exactly at the root (the common case after init-round
	// crashes) is invisible to everyone else's behaviour except through
	// rank computations: candidate-path walks never query the root's
	// remaining capacity, and a ball parked at the root does not count
	// towards any child subtree. Views that differ only in root residue
	// therefore agree on every capacity a path choice or move pass reads,
	// so the per-group simulation collapses to a single pass with a
	// per-survivor rank adjustment. This is what makes f = Θ(n) init
	// crashes (experiment E3) simulable at large n.
	rootResidueOnly := len(c.residue) > 0 && c.residueAllAtRoot()

	// Choose candidate paths per residue group: capacities (and rank
	// inputs) differ between views that do and do not hold residue balls,
	// so the coins must be flipped against each ball's own group view.
	det := c.cfg.deterministicPhase(c.phase)
	if len(c.residue) == 0 || rootResidueOnly {
		members := c.activeMembers()
		if len(members) > 0 {
			var ranks []int32
			if det {
				ranks = c.ranksAtNodes(c.canon, members)
				if rootResidueOnly {
					c.adjustRootRanks(ranks, members)
				}
			}
			c.choosePaths(c.canon, members, ranks)
		}
	} else {
		c.forEachGroup(nil, func(gv *View, members []int32) {
			var ranks []int32
			if det {
				ranks = c.ranksAtNodes(gv, members)
			}
			c.choosePaths(gv, members, ranks)
		})
	}

	pathVictims := c.planCrashes(stagePath)
	c.accountRound(stagePath, pathVictims)

	// Priority move pass, once per (residue mask × path-delivery mask)
	// group of survivors — or once globally when there is no divergence at
	// all, or when the only divergence is root residue, whose mid-pass
	// removal cannot influence any other ball's walk.
	if (len(c.residue) == 0 || rootResidueOnly) && len(pathVictims) == 0 {
		members := c.activeMembers()
		if len(members) > 0 {
			c.work.CopyFrom(c.canon)
			c.movePass(c.work, members, nil)
			// A single-group pass computes the exact post-phase canonical
			// state: survivors sit at their announced positions and silent
			// balls (halted, or root residue dropped mid-pass) are gone.
			// Adopt the work view wholesale; finishPhase's per-ball
			// SetNode/Remove replays then degenerate to no-ops instead of
			// walking the tree again for every ball.
			c.canon, c.work = c.work, c.canon
		}
	} else {
		c.forEachGroup(pathVictims, func(gv *View, members []int32) {
			c.movePass(gv, members, pathVictims)
		})
	}

	if !c.anyActive() {
		// Every remaining participant crashed during the path broadcast;
		// the position round never takes place (nobody is left to send
		// it), exactly as the per-process engines end at the path round.
		return
	}

	c.round++ // position round, 2φ+1
	posVictims := c.planCrashes(stagePos)
	c.accountRound(stagePos, posVictims)

	c.finishPhase(pathVictims, posVictims)
}

// choosePaths fills c.paths for the members against their group view. ranks
// must hold the members' per-node label ranks when the phase is
// deterministic, and is ignored otherwise.
func (c *Cohort) choosePaths(gv *View, members []int32, ranks []int32) {
	if c.cfg.deterministicPhase(c.phase) {
		limit := c.cfg.pathLimit()
		for _, m := range members {
			p := deterministicPath(gv, gv.Node(int(m)), int(ranks[m]))
			p.Limit = limit
			c.paths[m] = p
		}
		return
	}
	for _, m := range members {
		c.paths[m] = randomPath(gv, gv.Node(int(m)), &c.srcs[m], c.cfg.UniformCoin)
	}
}

// movePass runs the priority move pass for one group view, recording the
// members' resulting positions in c.newPos.
func (c *Cohort) movePass(gv *View, members []int32, pathVictims []residueEntry) {
	for i := range c.has {
		c.has[i] = false
	}
	for idx, a := range c.active {
		if a {
			c.has[idx] = true // survivors' paths reach everyone
		}
	}
	// Victims' paths reach only their receivers; membership of a group is
	// uniform by construction, so test any member.
	probe := int(members[0])
	for _, v := range pathVictims {
		c.has[v.idx] = v.recv.Has(probe)
	}
	applyPaths(c.cfg, gv, c.has, c.paths)
	if c.cfg.CheckInvariants {
		if err := gv.CheckConsistency(); err != nil {
			panic(fmt.Sprintf("core: cohort phase %d path pass: %v", c.phase, err))
		}
		if !c.cfg.LabelPriority {
			if err := gv.Occupancy().CheckCapacityInvariant(); err != nil {
				panic(fmt.Sprintf("core: cohort phase %d path pass: %v", c.phase, err))
			}
		}
		for _, m := range members {
			if !c.topo.IsAncestor(c.canon.Node(int(m)), gv.Node(int(m))) {
				panic(fmt.Sprintf("core: cohort ball %d moved upwards (Lemma 2 violated)", m))
			}
		}
	}
	for _, m := range members {
		c.newPos[m] = gv.Node(int(m))
	}
}

// activeMembers lists the active dense indices in ascending order into the
// cohort's reusable buffer. The result is valid until the next call.
func (c *Cohort) activeMembers() []int32 {
	c.members = c.members[:0]
	for idx, a := range c.active {
		if a {
			c.members = append(c.members, int32(idx))
		}
	}
	return c.members
}

// residueAllAtRoot reports whether every lingering residue ball is parked
// at the root of the canonical view.
func (c *Cohort) residueAllAtRoot() bool {
	root := c.topo.Root()
	for _, r := range c.residue {
		if !c.inCanon[r.idx] || c.canon.Node(int(r.idx)) != root {
			return false
		}
	}
	return true
}

// adjustRootRanks converts canonical root ranks (which count every residue
// ball) into each survivor's own-view rank: subtract all smaller-labelled
// root residue, then add back the ones the survivor actually received.
// Runs in O(n + f + Σ|recv|) rather than O(f·n).
func (c *Cohort) adjustRootRanks(ranks []int32, members []int32) {
	root := c.topo.Root()
	if len(c.residueCnt) < c.cfg.N+1 {
		c.residueCnt = make([]int32, c.cfg.N+1)
		c.recvCnt = make([]int32, c.cfg.N)
	}
	// residueCnt[i] = number of residue balls with dense index < i.
	smallerResidue := c.residueCnt[:c.cfg.N+1]
	for i := range smallerResidue {
		smallerResidue[i] = 0
	}
	for _, r := range c.residue {
		smallerResidue[r.idx+1]++
	}
	for i := 1; i <= c.cfg.N; i++ {
		smallerResidue[i] += smallerResidue[i-1]
	}
	receivedSmaller := c.recvCnt[:c.cfg.N]
	for i := range receivedSmaller {
		receivedSmaller[i] = 0
	}
	for _, r := range c.residue {
		rIdx := int(r.idx)
		r.recv.ForEach(func(idx int) {
			if rIdx < idx {
				receivedSmaller[idx]++
			}
		})
	}
	for _, m := range members {
		if c.canon.Node(int(m)) != root {
			continue
		}
		ranks[m] += receivedSmaller[m] - smallerResidue[m]
	}
}

// finishPhase folds the phase's outcome back into the canonical view:
// silent balls disappear from every view, survivors adopt their announced
// positions, position-round victims linger as residue, and decisions and
// halts are recorded.
func (c *Cohort) finishPhase(pathVictims, posVictims []residueEntry) {
	// Balls that were silent this phase left every surviving view.
	for _, r := range c.residue {
		c.dropFromCanon(int(r.idx))
	}
	c.residue = c.residue[:0]
	for idx := range c.labels {
		if c.haltPhase[idx] != 0 && c.haltPhase[idx] < c.phase && c.inCanon[idx] {
			c.dropFromCanon(idx)
		}
	}
	for _, v := range pathVictims {
		c.dropFromCanon(int(v.idx))
	}
	// Survivors and position-round victims adopt their self-computed
	// positions (the sender's own view is authoritative). Position-round
	// victims were already marked inactive by planCrashes, so they are
	// relocated explicitly: their receivers keep them at the announced
	// position.
	for idx, a := range c.active {
		if a {
			c.canon.SetNode(idx, c.newPos[idx])
		}
	}
	for _, v := range posVictims {
		if v.recv.Empty() {
			c.dropFromCanon(int(v.idx))
			continue
		}
		c.canon.SetNode(int(v.idx), c.newPos[v.idx])
		c.residue = append(c.residue, v)
	}
	if c.cfg.CheckInvariants {
		if err := c.canon.CheckConsistency(); err != nil {
			panic(fmt.Sprintf("core: cohort phase %d canonical: %v", c.phase, err))
		}
		// Lemma 1 proper: correct balls (still active or halted) never
		// exceed any subtree's leaf count, whatever residue lingers.
		if !c.cfg.LabelPriority {
			correct := make([]bool, c.cfg.N)
			for idx := range correct {
				correct[idx] = c.active[idx] || c.haltPhase[idx] != 0
			}
			if err := c.canon.CheckLemma1(correct); err != nil {
				panic(fmt.Sprintf("core: cohort phase %d: %v", c.phase, err))
			}
		}
	}

	// Decisions: a ball decides at the end of the position round in which
	// it first occupies a leaf.
	for idx, a := range c.active {
		if !a || c.decided[idx] {
			continue
		}
		if node := c.canon.Node(idx); c.topo.IsLeaf(node) {
			c.decided[idx] = true
			c.decidedName[idx] = c.topo.LeafRank(node) + 1
			c.decidedRound[idx] = c.round
		}
	}

	// Halting: a ball halts when every ball in its view is at a leaf. At
	// phase end a survivor's view holds the survivors, the halted balls it
	// has not yet dropped (all at leaves), and the residue it received.
	allCorrectAtLeaves := true
	for idx, in := range c.inCanon {
		if in && c.active[idx] && !c.topo.IsLeaf(c.canon.Node(idx)) {
			allCorrectAtLeaves = false
			break
		}
	}
	if allCorrectAtLeaves {
		var innerResidue []residueEntry
		for _, r := range c.residue {
			if !c.topo.IsLeaf(c.canon.Node(int(r.idx))) {
				innerResidue = append(innerResidue, r)
			}
		}
		for idx, a := range c.active {
			if !a {
				continue
			}
			blocked := false
			for _, r := range innerResidue {
				if r.recv.Has(idx) {
					blocked = true
					break
				}
			}
			if !blocked {
				c.active[idx] = false
				c.haltPhase[idx] = c.phase
			}
		}
	}

	if c.metrics != nil {
		c.metrics.PerPhase = append(c.metrics.PerPhase,
			snapshotView(c.canon, c.phase, c.round, len(c.crashed)))
	}
	if c.OnPhaseEnd != nil {
		c.OnPhaseEnd(c.phase, c.round, c.canon)
	}
}

// dropFromCanon removes a ball from the canonical view, idempotently.
func (c *Cohort) dropFromCanon(idx int) {
	if c.inCanon[idx] {
		c.inCanon[idx] = false
		c.canon.Remove(idx)
	}
}

// sourceRecv returns the receiver mask of the i-th divergence source: the
// lingering residue entries first, then this round's victims.
func (c *Cohort) sourceRecv(roundVictims []residueEntry, i int) bitset.Set {
	if i < len(c.residue) {
		return c.residue[i].recv
	}
	return roundVictims[i-len(c.residue)].recv
}

// forEachGroup partitions the active balls by which mid-broadcast final
// messages they received — the lingering residue set plus, when
// roundVictims is non-nil, this round's victims — builds each group's view
// (canonical minus the residue the group did not receive) in the shared
// scratch view, and invokes fn. With no divergence there is a single group
// over the canonical view itself, copied into scratch so fn may mutate.
//
// The partition is computed by iterated refinement over the divergence
// sources: per source, (group, received-bit) pairs are renumbered into
// dense new group ids via an epoch-marked remap table. Everything runs on
// integer scratch slices — no per-ball hash keys, no map of byte-string
// masks. Group ids are assigned in order of each group's smallest member,
// and members stay ascending within a group; processing order across
// groups cannot affect results, since groups are disjoint and each starts
// from its own copy of the canonical view.
func (c *Cohort) forEachGroup(roundVictims []residueEntry, fn func(gv *View, members []int32)) {
	members := c.activeMembers()
	if len(members) == 0 {
		return
	}
	nSrc := len(c.residue) + len(roundVictims)
	if nSrc == 0 {
		c.work.CopyFrom(c.canon)
		fn(c.work, members)
		return
	}
	if len(c.gid) < c.cfg.N {
		c.gid = make([]int32, c.cfg.N)
		c.remap = make([]int32, 2*c.cfg.N+2)
		c.remapMark = make([]int32, 2*c.cfg.N+2)
		c.groupEnd = make([]int32, c.cfg.N+1)
		c.memberBuf = make([]int32, c.cfg.N)
	}
	gid := c.gid
	for _, m := range members {
		gid[m] = 0
	}
	ngroups := int32(1)
	for si := 0; si < nSrc && int(ngroups) < len(members); si++ {
		recv := c.sourceRecv(roundVictims, si)
		c.remapEpoch++
		if c.remapEpoch == 0 { // epoch counter wrapped: invalidate marks
			for i := range c.remapMark {
				c.remapMark[i] = 0
			}
			c.remapEpoch = 1
		}
		next := int32(0)
		for _, m := range members {
			v := 2 * gid[m]
			if recv.Has(int(m)) {
				v++
			}
			if c.remapMark[v] != c.remapEpoch {
				c.remapMark[v] = c.remapEpoch
				c.remap[v] = next
				next++
			}
			gid[m] = c.remap[v]
		}
		ngroups = next
	}

	// Bucket members by group id via counting sort; ids were assigned in
	// first-encounter order over ascending members, so the fill pass keeps
	// every group's members ascending.
	end := c.groupEnd[:ngroups+1]
	for g := range end {
		end[g] = 0
	}
	for _, m := range members {
		end[gid[m]+1]++
	}
	for g := int32(1); g <= ngroups; g++ {
		end[g] += end[g-1]
	}
	buf := c.memberBuf[:len(members)]
	for _, m := range members {
		buf[end[gid[m]]] = m
		end[gid[m]]++
	}
	// After the fill, end[g-1] is the end offset of group g-1... and also
	// the start of group g, so walk with a running start.
	start := int32(0)
	for g := int32(0); g < ngroups; g++ {
		gm := buf[start:end[g]]
		start = end[g]
		c.work.CopyFrom(c.canon)
		// Remove the residue this group never heard of; receipt is uniform
		// within a group, so probe its first member. Residue from this
		// round's victims is not yet in the canonical view, so only the
		// lingering entries participate.
		probe := int(gm[0])
		for _, src := range c.residue {
			if !src.recv.Has(probe) && c.inCanon[src.idx] {
				c.work.Remove(int(src.idx))
			}
		}
		fn(c.work, gm)
	}
}

// ranksAtNodes computes, for each member (ascending), its label rank among
// the present balls parked at the same node — the deterministic path rule
// input — in a single ascending pass over reusable scratch. The returned
// slice is indexed by dense ball index and valid until the next call.
func (c *Cohort) ranksAtNodes(v *View, members []int32) []int32 {
	if len(c.rankArr) < c.cfg.N || len(c.nodeCnt) < c.topo.NumNodes() {
		c.rankArr = make([]int32, c.cfg.N)
		c.nodeCnt = make([]int32, c.topo.NumNodes())
	}
	counts := c.nodeCnt // all-zero on entry; re-zeroed below
	mi := 0
	for idx := 0; idx < v.Universe(); idx++ {
		if !v.Present(idx) {
			continue
		}
		node := v.Node(idx)
		if mi < len(members) && members[mi] == int32(idx) {
			c.rankArr[idx] = counts[node]
			mi++
		}
		counts[node]++
	}
	for idx := 0; idx < v.Universe(); idx++ {
		if v.Present(idx) {
			counts[v.Node(idx)] = 0
		}
	}
	return c.rankArr
}

// stage identifies which broadcast a round carries, for payload encoding
// and size accounting.
type stage uint8

const (
	stageJoin stage = iota + 1
	stagePath
	stagePos
)

// payloadLen returns the encoded size of the ball's current broadcast.
func (c *Cohort) payloadLen(st stage, idx int) int {
	switch st {
	case stageJoin:
		return joinLen()
	case stagePath:
		return pathLen(c.paths[idx])
	default:
		return posLen(c.newPos[idx])
	}
}

// encodePayload materializes the ball's current broadcast (adversary peek).
func (c *Cohort) encodePayload(st stage, idx int) []byte {
	var w wire.Writer
	switch st {
	case stageJoin:
		appendJoin(&w)
	case stagePath:
		appendPath(&w, c.paths[idx])
	default:
		appendPos(&w, c.newPos[idx])
	}
	return w.Bytes()
}

// planCrashes invokes the adversary for the current round and converts the
// approved crash specs into residue entries (victim + receiver set),
// marking victims inactive.
func (c *Cohort) planCrashes(st stage) []residueEntry {
	c.rview.st = st
	c.rview.aliveValid = false
	specs := c.cfg.Adversary.Plan(&c.rview)
	if len(specs) == 0 {
		return nil
	}
	// First mark every victim crashed, then build receiver sets: a message
	// from one victim is never delivered to another process crashing in
	// the same round (it stopped executing), matching internal/sim.
	type pending struct {
		idx     int32
		deliver func(proto.ID) bool
	}
	var accepted []pending
	for _, spec := range specs {
		idx, ok := c.indexOf(spec.Victim)
		if !ok || !c.active[idx] || c.budget == 0 {
			continue
		}
		c.budget--
		c.active[idx] = false
		c.crashed = append(c.crashed, spec.Victim)
		deliver := spec.Deliver
		if deliver == nil {
			deliver = adversary.DeliverNone
		}
		accepted = append(accepted, pending{idx: int32(idx), deliver: deliver})
	}
	victims := make([]residueEntry, 0, len(accepted))
	for _, p := range accepted {
		recv := bitset.New(c.cfg.N)
		for j, a := range c.active {
			if a && p.deliver(c.labels[j]) {
				recv.Add(j)
			}
		}
		victims = append(victims, residueEntry{idx: p.idx, recv: recv})
	}
	return victims
}

// accountRound adds the round's network deliveries: every sender (survivor
// or victim) delivers its payload to the surviving active receivers —
// victims only to their receiver sets — excluding self-delivery.
func (c *Cohort) accountRound(st stage, victims []residueEntry) {
	receivers := 0
	for _, a := range c.active {
		if a {
			receivers++
		}
	}
	for idx, a := range c.active {
		if a {
			c.msgs += int64(receivers - 1)
			c.bytes += int64(c.payloadLen(st, idx)) * int64(receivers-1)
		}
	}
	for _, v := range victims {
		nRecv := v.recv.Count()
		c.msgs += int64(nRecv)
		c.bytes += int64(c.payloadLen(st, int(v.idx))) * int64(nRecv)
	}
}

// indexOf resolves a label to its dense index.
func (c *Cohort) indexOf(id proto.ID) (int, bool) {
	i := sort.Search(len(c.labels), func(i int) bool { return c.labels[i] >= id })
	if i < len(c.labels) && c.labels[i] == id {
		return i, true
	}
	return 0, false
}

// result assembles the final Result.
func (c *Cohort) result() Result {
	phases := 0
	if c.round > 0 {
		// Completed phases; a phase whose position round never ran (all
		// actives crashed mid-path-broadcast) does not count.
		phases = (c.round - 1) / 2
	}
	res := Result{
		N:        c.cfg.N,
		Rounds:   c.round,
		Phases:   phases,
		Crashes:  len(c.crashed),
		Messages: c.msgs,
		Bytes:    c.bytes,
		Metrics:  c.metrics,
	}
	crashedSet := bitset.New(c.cfg.N)
	for _, id := range c.crashed {
		if idx, ok := c.indexOf(id); ok {
			crashedSet.Add(idx)
		}
	}
	nDecided := 0
	for idx := range c.labels {
		if c.decided[idx] && !crashedSet.Has(idx) {
			nDecided++
		}
	}
	res.Decisions = make([]proto.Decision, 0, nDecided)
	for idx, id := range c.labels {
		if !c.decided[idx] {
			continue
		}
		if crashedSet.Has(idx) {
			res.CrashedDecided++
			continue
		}
		res.Decisions = append(res.Decisions, proto.Decision{
			ID:    id,
			Name:  c.decidedName[idx],
			Round: c.decidedRound[idx],
		})
	}
	return res
}

// cohortRoundView adapts the cohort's round state to adversary.RoundView.
// One instance lives inside the Cohort and is reused round to round; the
// alive slice is a per-round cache rebuilt lazily on first use.
type cohortRoundView struct {
	c          *Cohort
	st         stage
	alive      []proto.ID
	aliveValid bool
}

func (v *cohortRoundView) Round() int { return v.c.round }
func (v *cohortRoundView) N() int     { return v.c.cfg.N }

func (v *cohortRoundView) Alive() []proto.ID {
	if !v.aliveValid {
		v.alive = v.alive[:0]
		for idx, a := range v.c.active {
			if a {
				v.alive = append(v.alive, v.c.labels[idx])
			}
		}
		v.aliveValid = true
	}
	return v.alive
}

func (v *cohortRoundView) Payload(id proto.ID) []byte {
	idx, ok := v.c.indexOf(id)
	if !ok || !v.c.active[idx] {
		return nil
	}
	return v.c.encodePayload(v.st, idx)
}

func (v *cohortRoundView) Info(id proto.ID) (adversary.BallInfo, bool) {
	idx, ok := v.c.indexOf(id)
	if !ok || !v.c.active[idx] {
		return adversary.BallInfo{}, false
	}
	node := v.c.canon.Node(idx)
	if v.st == stagePos {
		node = v.c.newPos[idx]
	}
	return adversary.BallInfo{
		Label:  id,
		Depth:  v.c.topo.Depth(node),
		AtLeaf: v.c.topo.IsLeaf(node),
	}, true
}

func (v *cohortRoundView) Budget() int { return v.c.budget }
