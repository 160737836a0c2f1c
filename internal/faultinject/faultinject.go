// Package faultinject is the deterministic fault-injection layer of the
// mini distributed file system: it wraps the proto RPC transport and the
// datanode block stores with scheduled faults — crash-stop, crash-recover
// after a delay, latency spikes, dropped heartbeats, and corrupted block
// replicas — so Aurora's re-balancing can be demonstrated and tested on
// a cluster under churn.
//
// Faults are driven by a Schedule: an explicit list of timed events,
// either handwritten, parsed from a compact flag syntax (ParseSchedule),
// or generated pseudo-randomly from a seed (RandomSchedule). The
// schedule — and therefore the injector's event log — is a pure function
// of its inputs: the same seed yields byte-identical logs across runs,
// which is what lets chaos tests assert recovery behaviour
// reproducibly.
//
// The injector owns no clock. Its caller drives it with Advance, which
// applies every event due by the offset it is given; fault windows
// (Slow, DropHeartbeats) open and close against that same offset. The
// chaos test advances it from a wall-clock ticker; the Fig 6 testbed
// advances it with the job replay's virtual ticks, so a testbed
// schedule's offsets are replay time and every event lands where the
// schedule puts it, however fast the replay runs. Which individual RPCs
// land inside a fault window still depends on when the caller's
// processes send them, exactly as on a real cluster. Only a Slow
// fault's per-RPC latency is real time: it is the fault's effect, not
// its clock.
//
// The injector interposes at the caller side of every RPC: each process
// (client or datanode) makes calls through the proto.CallFunc returned
// by CallFrom, so a "crashed" node both rejects inbound traffic (every
// caller fails calls addressed to it) and loses outbound traffic (its
// own calls fail). The node's process and store stay intact, which is
// exactly the semantics of a machine dropping off the network: on
// recovery its heartbeats resume and its block report re-confirms
// whatever it still holds. See DESIGN.md §10 for the full failure
// model.
package faultinject

// The injector is a pure function of its schedule and of the offset its
// caller advanced it to: aurora-lint keeps the wall clock out.
//
//lint:deterministic

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"aurora/internal/dfs/proto"
	"aurora/internal/metrics"
)

// External is the caller ID for processes that are not datanodes (DFS
// clients, the experiment driver). External callers never crash, but
// their calls still fail when addressed to a crashed node.
const External = -1

// Kind enumerates the injectable fault types.
type Kind string

// The fault kinds. Crash and Recover bracket an unreachability window
// (a Crash with no later Recover is a crash-stop). Slow adds latency to
// every RPC to or from the node for a duration. DropHeartbeats silently
// discards the node's outbound heartbeats for a duration, leaving data
// traffic intact — the partial failure that exercises the namenode's
// staleness detection. Corrupt flips bytes of one stored replica.
const (
	Crash          Kind = "crash"
	Recover        Kind = "recover"
	Slow           Kind = "slow"
	DropHeartbeats Kind = "drop-heartbeats"
	Corrupt        Kind = "corrupt"
)

// Event is one scheduled fault.
type Event struct {
	// At is the offset on the driver's clock (Injector.Advance) at which
	// the fault applies.
	At time.Duration
	// Kind is the fault type.
	Kind Kind
	// Node is the victim datanode (harness index, not proto.NodeID).
	Node int
	// Latency is the added per-RPC delay (Slow only).
	Latency time.Duration
	// Dur is the fault window length (Slow and DropHeartbeats).
	Dur time.Duration
	// Block is the replica to corrupt (Corrupt only); zero lets the
	// node's corrupter pick one.
	Block proto.BlockID
}

// String renders the event as one event-log line. The format is stable:
// chaos tests compare logs across runs line by line.
func (e Event) String() string {
	s := fmt.Sprintf("t=+%v %s node=%d", e.At, e.Kind, e.Node)
	if e.Latency > 0 {
		s += fmt.Sprintf(" latency=%v", e.Latency)
	}
	if e.Dur > 0 {
		s += fmt.Sprintf(" dur=%v", e.Dur)
	}
	if e.Block != 0 {
		s += fmt.Sprintf(" block=%d", e.Block)
	}
	return s
}

// Schedule is a fault script, ordered by At (Sort normalizes).
type Schedule []Event

// Sort orders events by time, breaking ties by node then kind so equal
// schedules always serialize identically.
func (s Schedule) Sort() {
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].At != s[j].At {
			return s[i].At < s[j].At
		}
		if s[i].Node != s[j].Node {
			return s[i].Node < s[j].Node
		}
		return s[i].Kind < s[j].Kind
	})
}

// Log renders the sorted schedule as event-log lines without running
// anything — the log an Injector produces when it applies the whole
// schedule.
func (s Schedule) Log() []string {
	sorted := make(Schedule, len(s))
	copy(sorted, s)
	sorted.Sort()
	out := make([]string, len(sorted))
	for i, e := range sorted {
		out[i] = e.String()
	}
	return out
}

// CrashedNodes returns the distinct nodes that receive a Crash event,
// sorted — the "killed mid-run" set chaos tests size against.
func (s Schedule) CrashedNodes() []int {
	seen := make(map[int]bool)
	for _, e := range s {
		if e.Kind == Crash {
			seen[e.Node] = true
		}
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Validate checks every event against the cluster size and the kind's
// required fields.
func (s Schedule) Validate(nodes int) error {
	for i, e := range s {
		if e.Node < 0 || e.Node >= nodes {
			return fmt.Errorf("faultinject: event %d: node %d outside [0,%d)", i, e.Node, nodes)
		}
		if e.At < 0 {
			return fmt.Errorf("faultinject: event %d: negative offset %v", i, e.At)
		}
		switch e.Kind {
		case Crash, Recover:
		case Slow:
			if e.Latency <= 0 || e.Dur <= 0 {
				return fmt.Errorf("faultinject: event %d: slow needs latency and dur", i)
			}
		case DropHeartbeats:
			if e.Dur <= 0 {
				return fmt.Errorf("faultinject: event %d: drop-heartbeats needs dur", i)
			}
		case Corrupt:
		default:
			return fmt.Errorf("faultinject: event %d: unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

// InjectedError is the transport error surfaced for calls blocked by an
// active fault. It is retryable by design: the DFS client and datanodes
// treat it like any other transport failure.
type InjectedError struct {
	Kind Kind
	Node int
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: %s node=%d", e.Kind, e.Node)
}

// nodeState is the injector's per-node fault state. Window ends are
// offsets on the driver's clock.
type nodeState struct {
	crashed     bool
	slowUntil   time.Duration
	slowLatency time.Duration
	dropHBUntil time.Duration
}

// Injector applies a Schedule to a running cluster and interposes on
// its RPC traffic. It applies events only when its caller advances it.
type Injector struct {
	schedule Schedule
	base     proto.CallFunc
	baseOpen proto.OpenStreamFunc

	mu         sync.Mutex
	now        time.Duration // the offset the caller advanced to
	next       int           // schedule index of the first unapplied event
	nodes      map[int]*nodeState
	addrToNode map[string]int
	corrupters map[int]func(proto.BlockID) error
	log        []string
}

// New prepares an injector for the given schedule at offset 0. Register
// every datanode with RegisterNode, hand each process its CallFrom
// transport, then drive the clock with Advance.
func New(schedule Schedule) *Injector {
	sorted := make(Schedule, len(schedule))
	copy(sorted, schedule)
	sorted.Sort()
	return &Injector{
		schedule:   sorted,
		base:       proto.Call,
		baseOpen:   proto.OpenStream,
		nodes:      make(map[int]*nodeState),
		addrToNode: make(map[string]int),
		corrupters: make(map[int]func(proto.BlockID) error),
	}
}

// RegisterNode maps a datanode's data address to its harness index so
// faults addressed to the node also cover calls *to* that address.
func (inj *Injector) RegisterNode(node int, addr string) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.addrToNode[addr] = node
	if inj.nodes[node] == nil {
		inj.nodes[node] = &nodeState{}
	}
}

// RegisterCorrupter installs the callback a Corrupt event uses to
// damage one replica on the node (typically DataNode.CorruptBlock, or a
// picker that chooses a stored block when the event does not name one).
func (inj *Injector) RegisterCorrupter(node int, fn func(proto.BlockID) error) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.corrupters[node] = fn
}

// Advance moves the injector's clock to offset to: it applies, in
// schedule order, every not-yet-applied event with At <= to, then
// records to as the offset fault windows are checked against. A to at
// or below the current offset changes nothing, so no event is applied
// twice. Advance reports whether every scheduled event has now been
// applied.
func (inj *Injector) Advance(to time.Duration) bool {
	var corrupt []func() error
	inj.mu.Lock()
	for ; inj.next < len(inj.schedule) && inj.schedule[inj.next].At <= to; inj.next++ {
		ev := inj.schedule[inj.next]
		st := inj.nodes[ev.Node]
		if st == nil {
			st = &nodeState{}
			inj.nodes[ev.Node] = st
		}
		switch ev.Kind {
		case Crash:
			st.crashed = true
		case Recover:
			st.crashed = false
		case Slow:
			st.slowUntil = ev.At + ev.Dur
			st.slowLatency = ev.Latency
		case DropHeartbeats:
			st.dropHBUntil = ev.At + ev.Dur
		case Corrupt:
			if fn := inj.corrupters[ev.Node]; fn != nil {
				corrupt = append(corrupt, func() error { return fn(ev.Block) })
			}
		}
		inj.log = append(inj.log, ev.String())
		metrics.Default.Counter("faultinject." + string(ev.Kind)).Inc()
	}
	inj.now = max(inj.now, to)
	done := inj.next == len(inj.schedule)
	inj.mu.Unlock()
	for _, c := range corrupt {
		if err := c(); err != nil {
			// The replica may already be gone (deleted by convergence);
			// count it rather than fail the run.
			metrics.Default.Counter("faultinject.corrupt_miss").Inc()
		}
	}
	return done
}

// Log returns the applied-event log so far: one line per event, in
// application order. Once Advance has passed the last event it equals
// Schedule.Log() — byte-identical across same-seed runs.
func (inj *Injector) Log() []string {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]string, len(inj.log))
	copy(out, inj.log)
	return out
}

// fault is the one lookup of the fault state a message of type typ from
// caller to addr meets at the current offset: the crash or
// dropped-heartbeat fault that blocks it, or else the larger Slow
// latency of its two endpoints.
func (inj *Injector) fault(caller int, addr string, typ proto.MsgType) (*InjectedError, time.Duration) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var latency time.Duration
	if st := inj.nodes[caller]; st != nil {
		switch {
		case st.crashed:
			return &InjectedError{Kind: Crash, Node: caller}, 0
		// Full and incremental reports are one message type, so a
		// node whose heartbeats are dropped goes stale whichever it
		// sends (DESIGN.md §15.5).
		case typ == proto.MsgHeartbeatDelta && inj.now < st.dropHBUntil:
			return &InjectedError{Kind: DropHeartbeats, Node: caller}, 0
		case inj.now < st.slowUntil:
			latency = st.slowLatency
		}
	}
	if target, ok := inj.addrToNode[addr]; ok {
		if st := inj.nodes[target]; st != nil {
			switch {
			case st.crashed:
				return &InjectedError{Kind: Crash, Node: target}, 0
			case inj.now < st.slowUntil:
				latency = max(latency, st.slowLatency)
			}
		}
	}
	return nil, latency
}

// admit applies the fault state to one call or stream open: it fails
// with the blocking fault, counted under blocked, or sleeps out the Slow
// latency — real time, because the delay is the fault's effect.
func (inj *Injector) admit(caller int, addr string, typ proto.MsgType, blocked string) error {
	injErr, latency := inj.fault(caller, addr, typ)
	if injErr != nil {
		metrics.Default.Counter(blocked).Inc()
		return injErr
	}
	if latency > 0 {
		metrics.Default.Counter("faultinject.delayed_rpc").Inc()
		time.Sleep(latency)
	}
	return nil
}

// CallFrom returns the RPC transport for the process with the given
// harness index (External for clients). Every outbound call consults
// the current fault state of both the caller and the target address.
func (inj *Injector) CallFrom(caller int) proto.CallFunc {
	return func(addr string, req *proto.Message, payload []byte, timeout time.Duration) (*proto.Message, []byte, error) {
		if err := inj.admit(caller, addr, req.Type, "faultinject.blocked_rpc"); err != nil {
			return nil, nil, err
		}
		return inj.base(addr, req, payload, timeout)
	}
}
