package manet

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// nbrLogger forwards the first copy of every message after a node-RNG
// delay, like forwardOnce, but logs its full neighbor table on EVERY data
// reception and then every pollInterval until the scenario ends — so a
// node's table is read, updated from the tape through its ID index (new
// neighbors included), and read again, which is exactly where a stale
// index row or a leaked materialisation flag would show.
type nbrLogger struct {
	node *Node
	log  *strings.Builder
	seen map[int]bool
}

// pollTag marks nbrLogger's periodic table-read timer.
const (
	pollTag      = -1
	pollInterval = 0.7
)

func (l *nbrLogger) Init(n *Node) { l.node = n }

func (l *nbrLogger) logTable(from int) {
	fmt.Fprintf(l.log, "%d@%x<-%d:", l.node.ID, math.Float64bits(l.node.Network().Sim.Now()), from)
	for _, e := range l.node.Neighbors() {
		fmt.Fprintf(l.log, " %d/%x/%x", e.ID, math.Float64bits(e.RxPowerDBm), math.Float64bits(e.LastHeard))
	}
	l.log.WriteByte('\n')
}

func (l *nbrLogger) Originate(msg *Message) {
	l.seen[msg.ID] = true
	l.node.Network().TransmitData(l.node, msg, l.node.Network().Cfg.DefaultTxPowerDBm)
}
func (l *nbrLogger) OnData(msg *Message, from int, _ float64) {
	l.logTable(from)
	if l.seen[msg.ID] {
		return
	}
	l.seen[msg.ID] = true
	l.node.ScheduleTimer(l.node.Rng.Range(0, 0.3), int32(msg.ID))
	l.node.ScheduleTimer(pollInterval, pollTag)
}
func (l *nbrLogger) OnTimer(tag int32) {
	net := l.node.Network()
	if tag != pollTag {
		net.TransmitData(l.node, &Message{ID: int(tag)}, net.Cfg.DefaultTxPowerDBm-4)
		return
	}
	l.logTable(-1)
	if net.Sim.Now()+pollInterval < net.Cfg.EndTime {
		l.node.ScheduleTimer(pollInterval, pollTag)
	}
}

// TestArenaAlternationNeighborsMatchFreshArena drives one arena through
// tape replays, plain snapshot instantiations and node counts 25 and 75 in
// alternation, and requires every run's Neighbors() log to equal the same
// run on a fresh arena. Tape replay skips the arena-wide index clear and
// materialises tables lazily, so this is the wall against index rows or
// materialisation flags leaking from one instantiation into the next.
func TestArenaAlternationNeighborsMatchFreshArena(t *testing.T) {
	type scenario struct {
		snap *Snapshot
		tape *BeaconTape
	}
	scenarios := map[string]scenario{}
	for _, n := range []int{25, 75} {
		for _, seed := range []uint64{1, 2} {
			cfg := DefaultScenario(n)
			snap, err := BuildSnapshot(cfg, seed, cfg.WarmupTime)
			if err != nil {
				t.Fatal(err)
			}
			tape, err := snap.RecordBeaconTape(cfg.EndTime)
			if err != nil {
				t.Fatal(err)
			}
			scenarios[fmt.Sprintf("%d/%d", n, seed)] = scenario{snap, tape}
		}
	}
	run := func(a *Arena, key string, replay bool, source int) string {
		sc := scenarios[key]
		var log strings.Builder
		mk := func(*Node) Protocol { return &nbrLogger{log: &log, seen: map[int]bool{}} }
		var tape *BeaconTape
		if replay {
			tape = sc.tape
		}
		net, st := sc.snap.InstantiateReplayInto(a, mk, source, sc.snap.cfg.WarmupTime, tape)
		net.Run()
		fmt.Fprintf(&log, "coverage %d forwards %d collisions %d\n", st.Coverage(), st.Forwards, net.Collisions)
		return log.String()
	}
	steps := []struct {
		key    string
		replay bool
		source int
	}{
		{"75/1", true, 0},
		{"75/2", false, 3},
		{"75/2", true, 3},
		{"75/1", true, 7},
		{"25/1", true, 2},
		{"25/2", false, 2},
		{"25/2", true, 9},
		{"75/2", true, 11},
		{"75/1", false, 5},
		{"75/1", true, 5},
		{"25/1", false, 4},
		{"75/2", true, 1},
	}
	arena := NewArena()
	for i, s := range steps {
		want := run(nil, s.key, s.replay, s.source)
		if strings.Count(want, "\n") < 10 {
			t.Fatalf("step %d (%s): broadcast read too few tables to be a useful check:\n%s", i, s.key, want)
		}
		if got := run(arena, s.key, s.replay, s.source); got != want {
			t.Fatalf("step %d (%s, replay=%v): arena run diverges from a fresh arena\n--- fresh\n%s\n--- arena\n%s", i, s.key, s.replay, want, got)
		}
	}
}

func TestSnapshotRefusesTapeReplay(t *testing.T) {
	cfg := DefaultScenario(25)
	snap, err := BuildSnapshot(cfg, 1, cfg.WarmupTime)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := snap.RecordBeaconTape(cfg.EndTime)
	if err != nil {
		t.Fatal(err)
	}
	net, _ := snap.InstantiateReplayInto(nil, nil, 0, cfg.WarmupTime, tape)
	net.RunToQuiescence()
	if _, err := net.Snapshot(); err == nil {
		t.Fatal("snapshot of a tape-replay network (lazy tables, no beacon schedule) succeeded")
	}
}
