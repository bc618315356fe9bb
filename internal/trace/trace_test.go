package trace

import (
	"bytes"
	"reflect"
	"testing"

	"afcnet/internal/cmp"
	"afcnet/internal/flit"
	"afcnet/internal/network"
)

func TestRecordCapturesClosedLoopTraffic(t *testing.T) {
	net := network.New(network.Config{Kind: network.Backpressured, Seed: 3})
	tr := Record(net)
	sys := cmp.NewSystem(net, cmp.Ocean(), net.RandStream)
	if _, ok := sys.Measure(100, 500, 3_000_000); !ok {
		t.Fatal("timeout")
	}
	StopRecording(net)
	before := len(tr.Events)
	if before == 0 {
		t.Fatal("nothing recorded")
	}
	net.Run(500)
	if len(tr.Events) != before {
		t.Error("recording continued after StopRecording")
	}
	// Requests, responses and (usually) writebacks should all appear.
	perVN := map[flit.VN]int{}
	for _, e := range tr.Events {
		perVN[e.VN]++
		if e.Src == e.Dst {
			t.Fatal("self-addressed event recorded")
		}
	}
	if perVN[flit.VNReq] == 0 || perVN[flit.VNData] == 0 {
		t.Errorf("VN mix missing classes: %v", perVN)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tr := &Trace{Events: []Event{
		{At: 5, Src: 0, Dst: 8, VN: flit.VNData, Len: 17, Payload: 42},
		{At: 2, Src: 3, Dst: 1, VN: flit.VNReq, Len: 1, Payload: 7},
	}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 2 || got.Events[0] != tr.Events[0] {
		t.Fatalf("round trip = %+v", got.Events)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"1 2 3\n",       // too few fields
		"1 2 3 9 1 0\n", // bad VN
		"1 2 3 0 0 0\n", // zero length
		"x y z a b c\n", // not numbers
	}
	for _, c := range cases {
		if _, err := Read(bytes.NewBufferString(c), 9); err == nil {
			t.Errorf("accepted garbage %q", c)
		}
	}
}

// TestReadRejectsOutOfRangeNodes pins the replay guard: on a 9-node
// network an event naming node 99 (as destination or source) or a
// negative node must fail in Read, naming its line, rather than index
// past the network's nodes once the replay runs.
func TestReadRejectsOutOfRangeNodes(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"dst", "0 0 99 0 1 0\n", "trace: line 1: node 99 outside [0, 9)"},
		{"src", "0 1 2 0 1 0\n0 99 1 0 1 0\n", "trace: line 2: node 99 outside [0, 9)"},
		{"negative", "0 -1 2 0 1 0\n", "trace: line 1: node -1 outside [0, 9)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewBufferString(tc.text), 9)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Read(%q) error = %v, want %q", tc.text, err, tc.want)
			}
		})
	}
}

// FuzzRead feeds arbitrary bytes to Read on a 9-node network. Read must
// never panic; whatever it accepts must name only nodes, virtual networks
// and lengths a replay can inject, and must survive a Write/Read round
// trip unchanged.
func FuzzRead(f *testing.F) {
	f.Add([]byte("5 0 8 2 17 42\n2 3 1 0 1 7\n"))
	f.Add([]byte("0 0 99 0 1 0\n"))
	f.Add([]byte("0 99 1 0 1 0\n"))
	f.Add([]byte("\n  \n1 2 3 9 1 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const nodes = 9
		tr, err := Read(bytes.NewReader(data), nodes)
		if err != nil {
			return
		}
		for _, e := range tr.Events {
			if e.Src < 0 || int(e.Src) >= nodes || e.Dst < 0 || int(e.Dst) >= nodes {
				t.Fatalf("accepted out-of-range event %+v", e)
			}
			if e.VN >= flit.NumVNs || e.Len < 1 {
				t.Fatalf("accepted malformed event %+v", e)
			}
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf, nodes)
		if err != nil {
			t.Fatalf("re-reading written trace: %v", err)
		}
		if !reflect.DeepEqual(back.Events, tr.Events) {
			t.Fatalf("round trip changed events: %+v -> %+v", tr.Events, back.Events)
		}
	})
}

func TestWindowAndHelpers(t *testing.T) {
	tr := &Trace{Events: []Event{
		{At: 10, Src: 0, Dst: 1, VN: flit.VNReq, Len: 1},
		{At: 20, Src: 1, Dst: 2, VN: flit.VNData, Len: 17},
		{At: 30, Src: 2, Dst: 3, VN: flit.VNReq, Len: 1},
	}}
	w := tr.Window(15, 30)
	if len(w.Events) != 1 || w.Events[0].At != 5 {
		t.Fatalf("window = %+v", w.Events)
	}
	if tr.Flits() != 19 {
		t.Errorf("flits = %d", tr.Flits())
	}
	tr.Sort()
	if tr.Duration() != 21 {
		t.Errorf("duration = %d", tr.Duration())
	}
}

// TestReplayReproducesInjections: replaying a recorded window into an
// identical network creates the same packets (count and flit volume).
func TestReplayReproducesInjections(t *testing.T) {
	src := network.New(network.Config{Kind: network.Backpressured, Seed: 5})
	tr := Record(src)
	sys := cmp.NewSystem(src, cmp.Ocean(), src.RandStream)
	if _, ok := sys.Measure(100, 600, 3_000_000); !ok {
		t.Fatal("timeout")
	}
	StopRecording(src)
	tr.Sort()

	dst := network.New(network.Config{Kind: network.Backpressured, Seed: 6})
	rp := NewReplayer(dst, tr)
	dst.AddTicker(rp)
	limit := tr.Duration() + 200_000
	if !dst.RunUntil(func() bool { return rp.Done() && dst.Drained() }, limit) {
		t.Fatalf("replay did not complete: %d/%d events", rp.next, len(tr.Events))
	}
	if got := dst.CreatedPackets(); got != uint64(len(tr.Events)) {
		t.Fatalf("replayed %d packets, trace has %d", got, len(tr.Events))
	}
	if dst.DeliveredPackets() != dst.CreatedPackets() {
		t.Fatalf("replay lost packets: %d/%d", dst.DeliveredPackets(), dst.CreatedPackets())
	}
}

// TestTraceDrivenMissesFeedback demonstrates the paper's methodology
// argument: a trace recorded on the backpressured network, replayed
// open-loop into a backpressureless network, over-drives it — source
// queues grow far beyond anything the closed loop (whose MSHRs throttle
// issue) would produce.
func TestTraceDrivenMissesFeedback(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Record a high-load window on the fast (backpressured) network.
	src := network.New(network.Config{Kind: network.Backpressured, Seed: 7})
	tr := Record(src)
	sys := cmp.NewSystem(src, cmp.Apache(), src.RandStream)
	if _, ok := sys.Measure(500, 4000, 10_000_000); !ok {
		t.Fatal("timeout")
	}
	StopRecording(src)
	tr.Sort()
	win := tr.Window(tr.Events[0].At, tr.Events[0].At+8000)

	// Replay into a backpressureless network and watch the backlog.
	dst := network.New(network.Config{Kind: network.Bless, Seed: 8})
	rp := NewReplayer(dst, win)
	dst.AddTicker(rp)
	dst.RunUntil(rp.Done, 100_000)
	backlog := dst.CreatedPackets() - dst.DeliveredPackets()

	// The closed loop on the same network never accumulates anything
	// comparable: MSHRs bound outstanding misses.
	closed := network.New(network.Config{Kind: network.Bless, Seed: 8})
	csys := cmp.NewSystem(closed, cmp.Apache(), closed.RandStream)
	if _, ok := csys.Measure(500, 2000, 10_000_000); !ok {
		t.Fatal("timeout")
	}
	closedBacklog := closed.CreatedPackets() - closed.DeliveredPackets()

	if backlog < 2*closedBacklog {
		t.Errorf("trace replay backlog %d not clearly above closed-loop backlog %d — feedback effect not visible",
			backlog, closedBacklog)
	}
	t.Logf("open-loop replay backlog %d vs closed-loop %d", backlog, closedBacklog)
}
