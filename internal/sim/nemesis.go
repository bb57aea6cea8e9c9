package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"ring/internal/proto"
)

// A nemesis schedule is a deterministic list of fault-injection steps
// executed at virtual times: crash and restart nodes, cut and heal
// links, and turn flaky message handling (drop/delay/duplicate) on and
// off. Schedules are generated from a seed, serialize to a one-line
// string (for repro commands and artifacts), parse back, and shrink by
// step removal — a removed kill leaves its restart a harmless no-op
// and vice versa, so any subset of a schedule is itself valid.

// NemesisKind enumerates schedule step types.
type NemesisKind uint8

const (
	// NemKill crashes node A (no-op if already dead).
	NemKill NemesisKind = iota + 1
	// NemRestart restarts node A with empty state (no-op if alive).
	NemRestart
	// NemPartition cuts the link between nodes A and B.
	NemPartition
	// NemHeal restores the link between nodes A and B.
	NemHeal
	// NemHealAll removes every partition.
	NemHealAll
	// NemFlaky installs a seeded random fault plane: each message is
	// dropped with DropPct%, duplicated with DupPct%, and delayed
	// uniformly in [0, MaxDelay] (delay variance is what reorders).
	NemFlaky
	// NemCalm removes the flaky fault plane.
	NemCalm
	// NemCorrupt flips one random bit in node A's newest WAL segment
	// (disk fault plane only; no-op otherwise). The CRC framing must
	// catch it at the next recovery.
	NemCorrupt
	// NemFsyncErr makes node A's disk fail every fsync; the node must
	// crash-stop at its next batch boundary (fsyncgate semantics).
	NemFsyncErr
	// NemFsyncOK heals node A's disk (clears errors and slowness).
	NemFsyncOK
	// NemFsyncSlow makes node A's fsyncs 10x slower.
	NemFsyncSlow
	// NemConvert issues a move of workload key "k<A>" to memgest B
	// through the control agent (elastic.go), which retries and
	// re-resolves like an operator would. The schedule token stays
	// "convert" so committed repro strings keep replaying.
	NemConvert
	// NemJoin admits node A into the cluster as a spare (idempotent).
	NemJoin
	// NemLeave gracefully removes node A: fence first, then announce.
	NemLeave
)

// NemesisStep is one scheduled fault action.
type NemesisStep struct {
	At       time.Duration
	Kind     NemesisKind
	A, B     proto.NodeID
	DropPct  int
	DupPct   int
	MaxDelay time.Duration
}

// String renders a step in the compact form ParseSchedule reads.
func (st NemesisStep) String() string {
	switch st.Kind {
	case NemKill:
		return fmt.Sprintf("%s:kill:%d", st.At, st.A)
	case NemRestart:
		return fmt.Sprintf("%s:restart:%d", st.At, st.A)
	case NemPartition:
		return fmt.Sprintf("%s:part:%d:%d", st.At, st.A, st.B)
	case NemHeal:
		return fmt.Sprintf("%s:heal:%d:%d", st.At, st.A, st.B)
	case NemHealAll:
		return fmt.Sprintf("%s:healall", st.At)
	case NemFlaky:
		return fmt.Sprintf("%s:flaky:%d:%d:%s", st.At, st.DropPct, st.DupPct, st.MaxDelay)
	case NemCalm:
		return fmt.Sprintf("%s:calm", st.At)
	case NemCorrupt:
		return fmt.Sprintf("%s:corrupt:%d", st.At, st.A)
	case NemFsyncErr:
		return fmt.Sprintf("%s:fsyncerr:%d", st.At, st.A)
	case NemFsyncOK:
		return fmt.Sprintf("%s:fsyncok:%d", st.At, st.A)
	case NemFsyncSlow:
		return fmt.Sprintf("%s:fsyncslow:%d", st.At, st.A)
	case NemConvert:
		return fmt.Sprintf("%s:convert:%d:%d", st.At, st.A, st.B)
	case NemJoin:
		return fmt.Sprintf("%s:join:%d", st.At, st.A)
	case NemLeave:
		return fmt.Sprintf("%s:leave:%d", st.At, st.A)
	}
	return fmt.Sprintf("%s:unknown", st.At)
}

// Schedule is an ordered list of nemesis steps.
type Schedule struct {
	Steps []NemesisStep
}

// String renders the schedule as a single semicolon-joined line.
func (s Schedule) String() string {
	parts := make([]string, len(s.Steps))
	for i, st := range s.Steps {
		parts[i] = st.String()
	}
	return strings.Join(parts, ";")
}

// Without returns a copy of the schedule with step i removed (the
// shrinking primitive).
func (s Schedule) Without(i int) Schedule {
	out := Schedule{Steps: make([]NemesisStep, 0, len(s.Steps)-1)}
	out.Steps = append(out.Steps, s.Steps[:i]...)
	out.Steps = append(out.Steps, s.Steps[i+1:]...)
	return out
}

// ParseSchedule parses the String form back into a schedule.
func ParseSchedule(text string) (Schedule, error) {
	var s Schedule
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	for _, part := range strings.Split(text, ";") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 {
			return s, fmt.Errorf("nemesis: bad step %q", part)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil {
			return s, fmt.Errorf("nemesis: bad time in %q: %v", part, err)
		}
		st := NemesisStep{At: at}
		node := func(i int) (proto.NodeID, error) {
			if i >= len(fields) {
				return 0, fmt.Errorf("nemesis: step %q is missing a node", part)
			}
			n, err := strconv.ParseUint(fields[i], 10, 32)
			return proto.NodeID(n), err
		}
		switch fields[1] {
		case "kill", "restart":
			st.Kind = NemKill
			if fields[1] == "restart" {
				st.Kind = NemRestart
			}
			if st.A, err = node(2); err != nil {
				return s, err
			}
		case "part", "heal":
			st.Kind = NemPartition
			if fields[1] == "heal" {
				st.Kind = NemHeal
			}
			if st.A, err = node(2); err != nil {
				return s, err
			}
			if st.B, err = node(3); err != nil {
				return s, err
			}
		case "healall":
			st.Kind = NemHealAll
		case "calm":
			st.Kind = NemCalm
		case "corrupt", "fsyncerr", "fsyncok", "fsyncslow", "join", "leave":
			switch fields[1] {
			case "corrupt":
				st.Kind = NemCorrupt
			case "fsyncerr":
				st.Kind = NemFsyncErr
			case "fsyncok":
				st.Kind = NemFsyncOK
			case "fsyncslow":
				st.Kind = NemFsyncSlow
			case "join":
				st.Kind = NemJoin
			case "leave":
				st.Kind = NemLeave
			}
			if st.A, err = node(2); err != nil {
				return s, err
			}
		case "convert":
			st.Kind = NemConvert
			if st.A, err = node(2); err != nil {
				return s, err
			}
			if st.B, err = node(3); err != nil {
				return s, err
			}
		case "flaky":
			st.Kind = NemFlaky
			if len(fields) != 5 {
				return s, fmt.Errorf("nemesis: bad flaky step %q", part)
			}
			if st.DropPct, err = strconv.Atoi(fields[2]); err != nil {
				return s, err
			}
			if st.DupPct, err = strconv.Atoi(fields[3]); err != nil {
				return s, err
			}
			if st.MaxDelay, err = time.ParseDuration(fields[4]); err != nil {
				return s, err
			}
		default:
			return s, fmt.Errorf("nemesis: unknown step kind %q", fields[1])
		}
		s.Steps = append(s.Steps, st)
	}
	return s, nil
}

// GenSchedule derives a nemesis schedule from a seed: alternating
// crash/restart pairs (at most one node down at a time, so quorums
// stay formable), short partitions, and flaky windows, all inside
// [0, active]; everything is healed, calmed, and restarted by the end
// of the active window so the workload tail runs on a healthy cluster
// and pending operations can settle.
func GenSchedule(seed int64, nodes []proto.NodeID, active time.Duration) Schedule {
	rng := rand.New(rand.NewSource(seed))
	ids := append([]proto.NodeID(nil), nodes...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var s Schedule
	add := func(st NemesisStep) { s.Steps = append(s.Steps, st) }

	steps := 3 + rng.Intn(4)
	slot := active / time.Duration(steps+1)
	flaky := false
	for i := 0; i < steps; i++ {
		base := slot*time.Duration(i) + time.Duration(rng.Int63n(int64(slot/2)+1))
		switch rng.Intn(4) {
		case 0: // crash + restart one node
			n := ids[rng.Intn(len(ids))]
			down := time.Duration(rng.Int63n(int64(slot/2) + 1))
			add(NemesisStep{At: base, Kind: NemKill, A: n})
			add(NemesisStep{At: base + down, Kind: NemRestart, A: n})
		case 1: // short partition of a random pair
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			if a == b {
				b = ids[(int(b)+1)%len(ids)]
			}
			cut := time.Duration(rng.Int63n(int64(slot/2) + 1))
			add(NemesisStep{At: base, Kind: NemPartition, A: a, B: b})
			add(NemesisStep{At: base + cut, Kind: NemHeal, A: a, B: b})
		case 2: // flaky window
			add(NemesisStep{
				At: base, Kind: NemFlaky,
				DropPct: 1 + rng.Intn(8),
				DupPct:  rng.Intn(5),
				// Capped below the chaos cluster's FailAfter: delays are
				// jitter, not failures. Exceeding the detection timeout
				// would manufacture spurious-failover split brain, which
				// the crash-stop model rules out.
				MaxDelay: time.Duration(1+rng.Intn(300)) * 5 * time.Microsecond,
			})
			flaky = true
		case 3: // calm down early (no-op if not flaky)
			if flaky {
				add(NemesisStep{At: base, Kind: NemCalm})
				flaky = false
			}
		}
	}
	// Deterministic cleanup: whatever subset of the above survives
	// shrinking, the cluster is whole again after `active`.
	add(NemesisStep{At: active, Kind: NemCalm})
	add(NemesisStep{At: active, Kind: NemHealAll})
	for _, n := range ids {
		add(NemesisStep{At: active, Kind: NemRestart, A: n})
	}
	sort.SliceStable(s.Steps, func(i, j int) bool { return s.Steps[i].At < s.Steps[j].At })
	return s
}

// GenDurableSchedule derives a crash-recovery nemesis schedule from a
// seed, for runs with the disk fault plane active: kill -9 + recover
// from disk, kill + WAL bit-flip corruption + recover (the CRC framing
// must detect it and recovery must fall back to a full resync), fsync
// failure windows (the node crash-stops itself, then the disk heals
// and the node recovers), and slow-fsync windows. Like GenSchedule it
// keeps at most one node down at a time so every committed write stays
// held by a live quorum, and heals everything by the end of the active
// window.
func GenDurableSchedule(seed int64, nodes []proto.NodeID, active time.Duration) Schedule {
	rng := rand.New(rand.NewSource(seed))
	ids := append([]proto.NodeID(nil), nodes...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var s Schedule
	add := func(st NemesisStep) { s.Steps = append(s.Steps, st) }

	steps := 3 + rng.Intn(4)
	slot := active / time.Duration(steps+1)
	for i := 0; i < steps; i++ {
		base := slot*time.Duration(i) + time.Duration(rng.Int63n(int64(slot/2)+1))
		n := ids[rng.Intn(len(ids))]
		down := time.Duration(1 + rng.Int63n(int64(slot/2)+1))
		switch rng.Intn(4) {
		case 0: // kill -9, recover from what fsync made durable
			add(NemesisStep{At: base, Kind: NemKill, A: n})
			add(NemesisStep{At: base + down, Kind: NemRestart, A: n})
		case 1: // kill -9, corrupt the WAL, recover — CRC must catch it
			add(NemesisStep{At: base, Kind: NemKill, A: n})
			add(NemesisStep{At: base + down/2, Kind: NemCorrupt, A: n})
			add(NemesisStep{At: base + down, Kind: NemRestart, A: n})
		case 2: // disk fails fsyncs: node crash-stops; heal, recover
			add(NemesisStep{At: base, Kind: NemFsyncErr, A: n})
			add(NemesisStep{At: base + down, Kind: NemFsyncOK, A: n})
			add(NemesisStep{At: base + down, Kind: NemRestart, A: n})
		case 3: // slow disk window
			add(NemesisStep{At: base, Kind: NemFsyncSlow, A: n})
			add(NemesisStep{At: base + down, Kind: NemFsyncOK, A: n})
		}
	}
	// Deterministic cleanup: whatever subset survives shrinking, every
	// disk is healthy and every node is up after `active`.
	add(NemesisStep{At: active, Kind: NemCalm})
	add(NemesisStep{At: active, Kind: NemHealAll})
	for _, n := range ids {
		add(NemesisStep{At: active, Kind: NemFsyncOK, A: n})
		add(NemesisStep{At: active, Kind: NemRestart, A: n})
	}
	sort.SliceStable(s.Steps, func(i, j int) bool { return s.Steps[i].At < s.Steps[j].At })
	return s
}

// Apply schedules every step on the simulator. faultSeed feeds the
// flaky fault plane's generator; with the same schedule and seed the
// injected faults are identical run to run (the fault hook fires in
// deterministic event order).
func (s Schedule) Apply(sim *Sim, faultSeed int64) {
	rng := rand.New(rand.NewSource(faultSeed))
	for _, st := range s.Steps {
		step := st
		sim.At(step.At, func(now time.Duration) {
			switch step.Kind {
			case NemKill:
				if !sim.Dead(step.A) {
					sim.Kill(step.A)
				}
			case NemRestart:
				if sim.Dead(step.A) {
					sim.Restart(step.A)
				}
			case NemPartition:
				sim.PartitionNodes(step.A, step.B)
			case NemHeal:
				sim.HealNodes(step.A, step.B)
			case NemHealAll:
				sim.HealAll()
			case NemFlaky:
				drop, dup, maxDelay := step.DropPct, step.DupPct, step.MaxDelay
				sim.SetFaultFunc(func(now time.Duration, from, to string, msg proto.Message, size int) FaultAction {
					var a FaultAction
					if rng.Intn(100) < drop {
						a.Drop = true
						return a
					}
					if dup > 0 && rng.Intn(100) < dup && dupSafe(msg) {
						a.Duplicate = true
					}
					if maxDelay > 0 {
						a.Delay = time.Duration(rng.Int63n(int64(maxDelay)))
					}
					return a
				})
			case NemCalm:
				sim.SetFaultFunc(nil)
			case NemCorrupt:
				sim.CorruptDisk(step.A)
			case NemFsyncErr:
				sim.FailDisk(step.A, true)
			case NemFsyncOK:
				sim.FailDisk(step.A, false)
			case NemFsyncSlow:
				sim.SlowDisk(step.A, true)
			case NemConvert, NemJoin, NemLeave:
				sim.elasticAgent().launch(now, step)
			}
		})
	}
}

// dupSafe reports whether re-delivering msg is within the protocol's
// contract. Ring runs over reliable connections (RDMA RC in the paper,
// TCP here), which never duplicate at the transport level, so the
// protocol is entitled to assume exactly-once delivery for messages
// whose handlers are not idempotent: a duplicated client write
// re-executes at the coordinator and allocates a fresh, NEWER version
// carrying the stale value, and a duplicated parity delta XORs into
// the parity region twice. The nemesis therefore duplicates only
// idempotent-tolerant messages — which still exercises every dedup
// path the protocol really has (ack trackers, seq indexes, per-request
// reply maps). Application-level duplication of client writes IS
// tested, via the chaos client's own timeouts and retries.
func dupSafe(msg proto.Message) bool {
	switch msg.(type) {
	case *proto.Put, *proto.Delete, *proto.Move, *proto.ParityUpdate,
		// A duplicated Resize can fence a node that just rejoined: a
		// client write in the same exactly-once contract as Put.
		*proto.Resize:
		return false
	}
	return true
}
