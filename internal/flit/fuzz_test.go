package flit_test

import (
	"testing"

	"afcnet/internal/flit"
)

// FuzzArenaHandles drives a byte-programmed interleaving of Packetize,
// Recycle, Reclaim and live-handle probes against one arena, asserting
// the generation-stamped handle discipline at every step:
//
//   - a live handle always passes CheckHandle;
//   - a recycled handle immediately fails CheckHandle (returned-bit
//     detection) and panics on double Recycle;
//   - after Reclaim every formerly-live handle fails CheckHandle with a
//     stale generation and panics on Recycle.
//
// The stale assertions run before the next Packetize can reuse the
// block: handles are pointers into the slab, so reissue rewrites their
// generation stamp and legitimately revives the pointer as a new flit.
//
// The same program replays at shard counts 0, 2 and 8. The sharded
// replays packetize and recycle through byte-chosen magazines — usually
// different ones, so a block's flits retire away from the shard that
// issued them and the cross-shard return accounting (atomic at 8
// shards, the inline-dispatch plain path at 2) is under the same
// oracle. Magazine packetize may legitimately fall back to the heap
// when both its free list and the reserve are dry; those flits carry
// nil handles with nothing to assert (CheckHandle passes, Recycle is a
// no-op), so the program detects them by the Live() delta and leaves
// them out of the tracked set. Reconcile runs after every sharded
// packetize, standing in for the once-per-cycle serial phase of the
// real barrier, so the starvation-replacement path is fuzzed too.
func FuzzArenaHandles(f *testing.F) {
	f.Add([]byte{0, 4, 8, 1, 2, 3, 0, 12, 5, 6, 7, 3, 0})
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 2, 2, 3})
	f.Add([]byte{252, 16, 33, 77, 129, 200, 3, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, shards := range []int{0, 2, 8} {
			fuzzArenaProgram(t, data, shards)
		}
	})
}

func fuzzArenaProgram(t *testing.T, data []byte, shards int) {
	a := flit.NewArena()
	var mags []*flit.ArenaShard
	if shards > 0 {
		a.SetShards(shards)
		// 2 shards replays under the inline-dispatch plain recycle
		// path, 8 under the atomic path the spawned workers use.
		a.SetShardsSerial(shards == 2)
		for i := 0; i < shards; i++ {
			mags = append(mags, a.Shard(i))
		}
	}
	var live []*flit.Flit
	nextID := uint64(1)

	checkStale := func(fl *flit.Flit) {
		t.Helper()
		if err := flit.CheckHandle(fl); err == nil {
			t.Fatalf("shards %d: stale handle %v passes CheckHandle", shards, fl)
		}
		defer func() {
			if recover() == nil {
				t.Fatalf("shards %d: Recycle of stale handle %v did not panic", shards, fl)
			}
		}()
		flit.Recycle(fl)
	}

	for _, op := range data {
		arg := int(op / 4)
		switch op % 4 {
		case 0: // packetize a packet of a byte-chosen length class
			p := flit.Packet{
				ID: nextID, Len: arg%17 + 1, Src: 0, Dst: 1,
				VN:        flit.VN(arg % int(flit.NumVNs)),
				CreatedAt: uint64(arg), Payload: uint64(arg) * 2654435761,
			}
			nextID++
			if shards == 0 {
				live = append(live, a.Packetize(p)...)
				continue
			}
			before := a.Live()
			fs := mags[arg%shards].Packetize(p)
			if a.Live()-before == len(fs) {
				live = append(live, fs...) // pooled; heap fallback has nil handles
			}
			a.Reconcile()
		case 1: // recycle one live flit, then assert its handle is dead
			if len(live) == 0 {
				continue
			}
			i := arg % len(live)
			fl := live[i]
			live = append(live[:i], live[i+1:]...)
			if shards == 0 {
				flit.Recycle(fl)
			} else {
				// usually not the magazine that packetized it
				mags[(arg*5+1)%shards].Recycle(fl)
			}
			checkStale(fl)
		case 2: // probe one live handle
			if len(live) == 0 {
				continue
			}
			fl := live[arg%len(live)]
			if err := flit.CheckHandle(fl); err != nil {
				t.Fatalf("shards %d: live handle fails CheckHandle: %v", shards, err)
			}
		case 3: // reclaim: every outstanding handle goes stale at once
			a.Reclaim()
			if a.Live() != 0 {
				t.Fatalf("shards %d: Live() = %d after Reclaim", shards, a.Live())
			}
			for _, fl := range live {
				checkStale(fl)
			}
			live = live[:0]
		}
	}
	if a.Live() != len(live) {
		t.Fatalf("shards %d: Live() = %d, want %d outstanding", shards, a.Live(), len(live))
	}
}
