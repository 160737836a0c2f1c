package faultinject

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"aurora/internal/dfs/proto"
)

func TestRandomScheduleDeterministic(t *testing.T) {
	cfg := ScheduleConfig{Nodes: 8, Crashes: 2, PermanentCrashes: 1, Slows: 2, HeartbeatDrops: 1, Corrupts: 1}
	a, err := RandomSchedule(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomSchedule(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a.Log(), b.Log())
	}
	c, err := RandomSchedule(43, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	if err := a.Validate(cfg.Nodes); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	if got := len(a.CrashedNodes()); got != 3 {
		t.Fatalf("CrashedNodes = %d, want 3 distinct victims", got)
	}
}

func TestRandomScheduleRejectsOversubscription(t *testing.T) {
	if _, err := RandomSchedule(1, ScheduleConfig{Nodes: 2, Crashes: 2, PermanentCrashes: 1}); err == nil {
		t.Fatal("want error when crash victims exceed nodes")
	}
	if _, err := RandomSchedule(1, ScheduleConfig{}); err == nil {
		t.Fatal("want error for zero nodes")
	}
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("crash:2@500ms; recover:2@1.5s; slow:1@1s+20ms/2s; drophb:0@1s/1.5s; corrupt:3@2s#7")
	if err != nil {
		t.Fatal(err)
	}
	want := Schedule{
		{At: 500 * time.Millisecond, Kind: Crash, Node: 2},
		{At: time.Second, Kind: DropHeartbeats, Node: 0, Dur: 1500 * time.Millisecond},
		{At: time.Second, Kind: Slow, Node: 1, Latency: 20 * time.Millisecond, Dur: 2 * time.Second},
		{At: 1500 * time.Millisecond, Kind: Recover, Node: 2},
		{At: 2 * time.Second, Kind: Corrupt, Node: 3, Block: 7},
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("ParseSchedule =\n%v\nwant\n%v", s.Log(), want.Log())
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"crash",
		"crash:2",
		"explode:1@1s",
		"crash:x@1s",
		"slow:1@1s", // missing latency/dur
		"crash:1@nope",
		"corrupt:1@1s#abc",
	} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q): want error", spec)
		}
	}
}

// echoServer serves proto frames, echoing the request type back.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := proto.Serve(ln, func(req *proto.Message, payload []byte) (*proto.Message, []byte) {
		return &proto.Message{Type: req.Type}, payload
	}, time.Second)
	return srv.Addr(), func() { srv.Close() }
}

func TestInjectorCrashAndRecover(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()

	inj := New(Schedule{
		{At: 0, Kind: Crash, Node: 1},
		{At: 60 * time.Millisecond, Kind: Recover, Node: 1},
	})
	inj.RegisterNode(1, addr)
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	defer inj.Stop()

	call := inj.CallFrom(External)
	// Wait until the crash has been applied, then calls must fail.
	deadline := time.Now().Add(time.Second)
	for len(inj.Log()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("crash event never applied")
		}
		time.Sleep(time.Millisecond)
	}
	var injErr *InjectedError
	if _, _, err := call(addr, &proto.Message{Type: proto.MsgHeartbeatDelta}, nil, time.Second); !errors.As(err, &injErr) {
		t.Fatalf("call to crashed node: err = %v, want *InjectedError", err)
	} else if injErr.Kind != Crash || injErr.Node != 1 {
		t.Fatalf("InjectedError = %+v", injErr)
	}
	// Outbound from the crashed node fails too, even to unknown addrs.
	if _, _, err := inj.CallFrom(1)("127.0.0.1:1", &proto.Message{Type: proto.MsgHeartbeatDelta}, nil, time.Second); !errors.As(err, &injErr) {
		t.Fatalf("call from crashed node: err = %v, want *InjectedError", err)
	}

	<-inj.Done()
	if _, _, err := call(addr, &proto.Message{Type: proto.MsgHeartbeatDelta}, nil, time.Second); err != nil {
		t.Fatalf("call after recover: %v", err)
	}

	wantLog := []string{"t=+0s crash node=1", "t=+60ms recover node=1"}
	if got := inj.Log(); !reflect.DeepEqual(got, wantLog) {
		t.Fatalf("Log = %v, want %v", got, wantLog)
	}
}

func TestInjectorDropHeartbeatsOnlyBlocksHeartbeats(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()

	inj := New(Schedule{{At: 0, Kind: DropHeartbeats, Node: 0, Dur: time.Minute}})
	inj.RegisterNode(0, addr)
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	defer inj.Stop()
	<-inj.Done()

	call := inj.CallFrom(0)
	var injErr *InjectedError
	if _, _, err := call(addr, &proto.Message{Type: proto.MsgHeartbeatDelta}, nil, time.Second); !errors.As(err, &injErr) || injErr.Kind != DropHeartbeats {
		t.Fatalf("heartbeat during drop window: err = %v, want drop-heartbeats InjectedError", err)
	}
	if _, _, err := call(addr, &proto.Message{Type: proto.MsgBlockReceived}, nil, time.Second); err != nil {
		t.Fatalf("non-heartbeat call during drop window should pass: %v", err)
	}
}

func TestInjectorSlowDelaysCalls(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()

	inj := New(Schedule{{At: 0, Kind: Slow, Node: 0, Latency: 50 * time.Millisecond, Dur: time.Minute}})
	inj.RegisterNode(0, addr)
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	defer inj.Stop()
	<-inj.Done()

	start := time.Now()
	if _, _, err := inj.CallFrom(External)(addr, &proto.Message{Type: proto.MsgBlockReceived}, nil, time.Second); err != nil {
		t.Fatalf("slow call failed: %v", err)
	}
	if took := time.Since(start); took < 50*time.Millisecond {
		t.Fatalf("slow call took %v, want >= 50ms", took)
	}
}

func TestInjectorCorruptCallsCorrupter(t *testing.T) {
	var mu sync.Mutex
	var got []proto.BlockID
	inj := New(Schedule{{At: 0, Kind: Corrupt, Node: 2, Block: 9}})
	inj.RegisterCorrupter(2, func(id proto.BlockID) error {
		mu.Lock()
		got = append(got, id)
		mu.Unlock()
		return nil
	})
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	defer inj.Stop()
	<-inj.Done()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("corrupter calls = %v, want [9]", got)
	}
}

func TestInjectorStopCancelsPendingEvents(t *testing.T) {
	inj := New(Schedule{{At: time.Hour, Kind: Crash, Node: 0}})
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { inj.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not cancel pending event")
	}
	if got := inj.Log(); len(got) != 0 {
		t.Fatalf("Log after early stop = %v, want empty", got)
	}
	// Stop is idempotent, including on a never-started injector.
	inj.Stop()
	inj2 := New(nil)
	inj2.Stop()
	select {
	case <-inj2.Done():
	default:
		t.Fatal("Done not closed after Stop on unstarted injector")
	}
}

func TestScheduleLogMatchesInjectorLog(t *testing.T) {
	sch, err := RandomSchedule(7, ScheduleConfig{
		Nodes: 4, Crashes: 1, Slows: 1,
		Start: time.Millisecond, Spacing: time.Millisecond,
		Downtime: 2 * time.Millisecond, SlowLatency: time.Millisecond, SlowDur: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := New(sch)
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	<-inj.Done()
	inj.Stop()
	if got, want := inj.Log(), sch.Log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("injector log\n%s\nwant schedule log\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
