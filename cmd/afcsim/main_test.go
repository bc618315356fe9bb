package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/experiments"
	"afcnet/internal/network"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

// TestReplayKeepsMesh records a trace on a 4x4 mesh and replays it on
// the same mesh with another kind: the replay must build a 4x4 network
// (a 3x3 one rejects the trace's node IDs) and deliver every packet.
func TestReplayKeepsMesh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	p, _ := cmp.ByName("barnes")
	opt := experiments.Options{
		Seeds:      []int64{1},
		WarmupTx:   50,
		MeasureTx:  200,
		CycleLimit: 1_000_000,
		System:     config.DefaultWithMesh(topology.NewMesh(4, 4)),
	}
	var rec bytes.Buffer
	if err := runOne(&rec, p, network.Backpressured, router.PolicyRandom, path, opt); err != nil {
		t.Fatal(err)
	}
	var rep bytes.Buffer
	if err := replayOne(&rep, path, network.Bless, router.PolicyRandom, opt); err != nil {
		t.Fatal(err)
	}
	var kind string
	var created, delivered, backlog int
	var netlat float64
	var drained bool
	if _, err := fmt.Sscanf(rep.String(), "replay %s packets=%d delivered=%d backlog=%d netlat=%f drained=%t",
		&kind, &created, &delivered, &backlog, &netlat, &drained); err != nil {
		t.Fatalf("parse %q: %v", rep.String(), err)
	}
	if created == 0 || delivered != created || !drained {
		t.Fatalf("replay delivered %d of %d packets (drained %v): %s", delivered, created, drained, rep.String())
	}
}
