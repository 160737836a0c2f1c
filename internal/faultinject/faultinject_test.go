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
	call := inj.CallFrom(External)
	hb := &proto.Message{Type: proto.MsgHeartbeatDelta}
	if _, _, err := call(addr, hb, nil, time.Second); err != nil {
		t.Fatalf("call before the clock moved: %v", err)
	}

	if inj.Advance(0) {
		t.Fatal("Advance(0) reported the recover applied")
	}
	var injErr *InjectedError
	if _, _, err := call(addr, hb, nil, time.Second); !errors.As(err, &injErr) {
		t.Fatalf("call to crashed node: err = %v, want *InjectedError", err)
	} else if injErr.Kind != Crash || injErr.Node != 1 {
		t.Fatalf("InjectedError = %+v", injErr)
	}
	// Outbound from the crashed node fails too, even to unknown addrs.
	if _, _, err := inj.CallFrom(1)("127.0.0.1:1", hb, nil, time.Second); !errors.As(err, &injErr) {
		t.Fatalf("call from crashed node: err = %v, want *InjectedError", err)
	}

	if !inj.Advance(60 * time.Millisecond) {
		t.Fatal("Advance past the last event did not report it applied")
	}
	if _, _, err := call(addr, hb, nil, time.Second); err != nil {
		t.Fatalf("call after recover: %v", err)
	}

	wantLog := []string{"t=+0s crash node=1", "t=+60ms recover node=1"}
	if got := inj.Log(); !reflect.DeepEqual(got, wantLog) {
		t.Fatalf("Log = %v, want %v", got, wantLog)
	}
}

// A drop-heartbeats window blocks the node's MsgHeartbeatDelta and
// nothing else: not its other calls, not its streams, and not calls or
// streams addressed to it.
func TestInjectorDropHeartbeatsOnlyBlocksHeartbeats(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()

	inj := New(Schedule{{At: 0, Kind: DropHeartbeats, Node: 0, Dur: time.Minute}})
	inj.RegisterNode(0, addr)
	inj.baseOpen = func(string, *proto.Message, time.Duration) (proto.BlockStream, error) { return &fakeStream{}, nil }
	inj.Advance(0)

	call := inj.CallFrom(0)
	var injErr *InjectedError
	if _, _, err := call(addr, &proto.Message{Type: proto.MsgHeartbeatDelta}, nil, time.Second); !errors.As(err, &injErr) || injErr.Kind != DropHeartbeats {
		t.Fatalf("heartbeat during drop window: err = %v, want drop-heartbeats InjectedError", err)
	}
	for _, typ := range []proto.MsgType{proto.MsgBlockReceived, proto.MsgRegister} {
		if _, _, err := call(addr, &proto.Message{Type: typ}, nil, time.Second); err != nil {
			t.Fatalf("%s from the node during drop window should pass: %v", typ, err)
		}
	}
	if _, _, err := inj.CallFrom(External)(addr, &proto.Message{Type: proto.MsgHeartbeatDelta}, nil, time.Second); err != nil {
		t.Fatalf("call to the node during drop window should pass: %v", err)
	}
	st, err := inj.StreamFrom(0)(addr, &proto.Message{Type: proto.MsgReadBlockStream}, time.Second)
	if err != nil {
		t.Fatalf("stream from the node during drop window: %v", err)
	}
	if err := st.Send(&proto.Message{Type: proto.MsgReadBlockStream}, nil); err != nil {
		t.Fatalf("stream frame during drop window: %v", err)
	}
}

func TestInjectorSlowDelaysCalls(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()

	inj := New(Schedule{{At: 0, Kind: Slow, Node: 0, Latency: 50 * time.Millisecond, Dur: time.Minute}})
	inj.RegisterNode(0, addr)
	inj.Advance(0)

	start := time.Now()
	if _, _, err := inj.CallFrom(External)(addr, &proto.Message{Type: proto.MsgBlockReceived}, nil, time.Second); err != nil {
		t.Fatalf("slow call failed: %v", err)
	}
	if took := time.Since(start); took < 50*time.Millisecond {
		t.Fatalf("slow call took %v, want >= 50ms", took)
	}
}

// Slow and drop-heartbeats windows are [At, At+Dur) on the offset the
// caller advanced to, however late the event was applied.
func TestInjectorWindowsEndOnTheDriversClock(t *testing.T) {
	const at, dur = 10 * time.Second, 5 * time.Second
	inj := New(Schedule{
		{At: at, Kind: Slow, Node: 0, Latency: 7 * time.Millisecond, Dur: dur},
		{At: at, Kind: DropHeartbeats, Node: 1, Dur: dur},
	})
	inj.RegisterNode(0, "slow")
	for _, tc := range []struct {
		to     time.Duration
		active bool
	}{
		{at - time.Nanosecond, false},
		{at + dur - time.Nanosecond, true}, // both events applied here
		{at + dur, false},
		{at + dur - time.Nanosecond, false}, // backwards: a no-op
	} {
		inj.Advance(tc.to)
		if _, latency := inj.fault(External, "slow", proto.MsgBlockReceived); (latency > 0) != tc.active {
			t.Errorf("Advance(%v): slow latency %v, want active=%v", tc.to, latency, tc.active)
		}
		blocked, _ := inj.fault(1, "other", proto.MsgHeartbeatDelta)
		if (blocked != nil) != tc.active {
			t.Errorf("Advance(%v): heartbeat blocked by %v, want active=%v", tc.to, blocked, tc.active)
		}
	}
	// A window that ended before the event was applied never opens.
	late := New(Schedule{{At: at, Kind: Slow, Node: 0, Latency: time.Millisecond, Dur: dur}})
	late.RegisterNode(0, "slow")
	late.Advance(at + dur)
	if _, latency := late.fault(External, "slow", proto.MsgBlockReceived); latency != 0 {
		t.Errorf("window applied after its end: latency %v, want 0", latency)
	}
}

func TestInjectorCorruptCallsCorrupter(t *testing.T) {
	var got []proto.BlockID
	inj := New(Schedule{{At: 0, Kind: Corrupt, Node: 2, Block: 9}})
	inj.RegisterCorrupter(2, func(id proto.BlockID) error {
		got = append(got, id)
		return nil
	})
	inj.Advance(0)
	inj.Advance(time.Second)
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("corrupter calls = %v, want [9]", got)
	}
}

// Advance applies an event once, when the offset first reaches it: an
// offset at or below the current one applies nothing, and events past
// it stay pending.
func TestInjectorAdvanceMonotone(t *testing.T) {
	sch := Schedule{
		{At: 3 * time.Second, Kind: Recover, Node: 0},
		{At: time.Second, Kind: Crash, Node: 0},
		{At: time.Second, Kind: Slow, Node: 1, Latency: time.Millisecond, Dur: time.Second},
		{At: time.Hour, Kind: Crash, Node: 2},
	}
	inj := New(sch)
	for _, step := range []struct {
		to   time.Duration
		logs int
	}{
		{0, 0},
		{time.Second, 2},
		{time.Second, 2},
		{500 * time.Millisecond, 2},
		{5 * time.Second, 3},
		{2 * time.Second, 3},
		{time.Hour, 4},
		{2 * time.Hour, 4},
	} {
		done := inj.Advance(step.to)
		if got := len(inj.Log()); got != step.logs {
			t.Fatalf("Advance(%v): %d events applied, want %d", step.to, got, step.logs)
		}
		if done != (step.logs == len(sch)) {
			t.Fatalf("Advance(%v) = %v with %d of %d applied", step.to, done, step.logs, len(sch))
		}
	}
	if got, want := inj.Log(), sch.Log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("injector log\n%s\nwant schedule log\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestScheduleLogMatchesInjectorLog(t *testing.T) {
	sch, err := RandomSchedule(7, ScheduleConfig{
		Nodes: 4, Crashes: 1, PermanentCrashes: 1, Slows: 1, HeartbeatDrops: 1, Corrupts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drivers racing each other still apply every event once, in
	// schedule order, while calls consult the fault state.
	inj := New(sch)
	call := inj.CallFrom(0)
	inj.base = func(string, *proto.Message, []byte, time.Duration) (*proto.Message, []byte, error) {
		return nil, nil, nil
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for to := time.Duration(g); !inj.Advance(to); to += 70 * time.Millisecond {
				// A call blocked by a fault is expected here.
				_, _, _ = call("", &proto.Message{Type: proto.MsgHeartbeatDelta}, nil, time.Second)
			}
		}()
	}
	wg.Wait()
	if got, want := inj.Log(), sch.Log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("injector log\n%s\nwant schedule log\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// fakeStream is a BlockStream that accepts every frame and records
// whether it was closed.
type fakeStream struct {
	frames int
	closed bool
}

func (f *fakeStream) Send(*proto.Message, []byte) error { f.frames++; return nil }
func (f *fakeStream) Recv() (*proto.Message, []byte, error) {
	return f.RecvInto(nil)
}
func (f *fakeStream) RecvInto([]byte) (*proto.Message, []byte, error) {
	f.frames++
	return &proto.Message{Type: proto.MsgReadBlockStream}, nil, nil
}
func (f *fakeStream) Close() error { f.closed = true; return nil }

// A crash applied while a stream is open tears it at its next frame,
// in either direction, and closes the underlying stream.
func TestInjectorCrashTearsOpenStream(t *testing.T) {
	for _, crashed := range []int{0, 1} { // the target, then the caller
		inj := New(Schedule{{At: time.Second, Kind: Crash, Node: crashed}})
		inj.RegisterNode(0, "target")
		under := &fakeStream{}
		inj.baseOpen = func(string, *proto.Message, time.Duration) (proto.BlockStream, error) { return under, nil }
		st, err := inj.StreamFrom(1)("target", &proto.Message{Type: proto.MsgWriteBlockStream}, time.Second)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := st.Send(&proto.Message{Type: proto.MsgWriteBlockStream}, []byte("chunk")); err != nil {
			t.Fatalf("frame before the crash: %v", err)
		}
		if _, _, err := st.Recv(); err != nil {
			t.Fatalf("frame before the crash: %v", err)
		}
		inj.Advance(time.Second)
		var injErr *InjectedError
		if err := st.Send(&proto.Message{Type: proto.MsgWriteBlockStream}, []byte("chunk")); !errors.As(err, &injErr) || injErr.Node != crashed {
			t.Fatalf("node %d crashed: Send err = %v, want its crash", crashed, err)
		}
		if _, _, err := st.RecvInto(nil); !errors.As(err, &injErr) || injErr.Node != crashed {
			t.Fatalf("node %d crashed: RecvInto err = %v, want its crash", crashed, err)
		}
		if under.frames != 2 || !under.closed {
			t.Fatalf("node %d crashed: underlying stream saw %d frames, closed=%v; want 2, closed", crashed, under.frames, under.closed)
		}
	}
}
