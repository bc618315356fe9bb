// Package routertest wires a single router for unit tests exactly the way
// internal/network wires one inside a mesh, so router tests build through
// each kind's Slab.New and exercise the same inbox-driven quiescence,
// receive-skip and injection code the kernels run.
package routertest

import (
	"reflect"
	"unsafe"

	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

// NI is a fake network interface: per-VN injection FIFOs the test fills
// directly and a log of the flits the router ejected.
type NI struct {
	Queues    [flit.NumVNs][]*flit.Flit
	Delivered []*flit.Flit
}

// Peek implements router.LocalSource.
func (n *NI) Peek(vn flit.VN) *flit.Flit {
	if len(n.Queues[vn]) == 0 {
		return nil
	}
	return n.Queues[vn][0]
}

// Pop implements router.LocalSource.
func (n *NI) Pop(vn flit.VN) *flit.Flit {
	f := n.Peek(vn)
	if f != nil {
		n.Queues[vn] = n.Queues[vn][1:]
	}
	return f
}

// QueuedFlits implements router.LocalSource.
func (n *NI) QueuedFlits() int {
	total := 0
	for _, q := range n.Queues {
		total += len(q)
	}
	return total
}

// Deliver implements router.LocalSink.
func (n *NI) Deliver(_ uint64, f *flit.Flit) { n.Delivered = append(n.Delivered, f) }

// Enqueue appends flits to their VN's injection FIFO.
func (n *NI) Enqueue(fs ...*flit.Flit) {
	for _, f := range fs {
		n.Queues[f.VN] = append(n.Queues[f.VN], f)
	}
}

// Wire returns the site of node in mesh, wired as the network wires it:
// every neighbor direction gets a data pipe of latency linkLat+1 and
// credit and control pipes of latency linkLat, in both directions, with
// the inbound ones tallied into the site's inbox slot. The test holds the
// far ends through the returned site's Wires. The site's NI is the
// returned fake, its meter is nil and its tables are the mesh's own.
func Wire(mesh topology.Mesh, node topology.NodeID, linkLat, ejectWidth int) (router.Site, *NI) {
	ni := &NI{}
	site := router.Site{
		Node:       node,
		Tables:     mesh.NewTables(),
		Inbox:      new([3]int32),
		NI:         ni,
		EjectWidth: ejectWidth,
	}
	for _, d := range site.Neighbors() {
		pl := router.PortLinks{
			Out:       link.NewData(linkLat + 1),
			In:        link.NewData(linkLat + 1),
			CreditOut: link.NewCredit(linkLat),
			CreditIn:  link.NewCredit(linkLat),
			CtrlOut:   link.NewCtrl(linkLat),
			CtrlIn:    link.NewCtrl(linkLat),
		}
		pl.In.SetTally(&site.Inbox[0])
		pl.CreditIn.SetTally(&site.Inbox[1])
		pl.CtrlIn.SetTally(&site.Inbox[2])
		site.Wires.Ports[d] = pl
	}
	return site, ni
}

// Credits models a downstream neighbor's credit backflow on one port:
// credits owed for flits it buffered, returned upstream in order, at
// most one per cycle, each no earlier than its due cycle.
type Credits struct {
	owed []owed
}

type owed struct {
	due uint64
	c   link.Credit
}

// Owe queues c for return at or after cycle due.
func (q *Credits) Owe(due uint64, c link.Credit) { q.owed = append(q.owed, owed{due, c}) }

// Pending reports whether any credit is still owed.
func (q *Credits) Pending() bool { return len(q.owed) > 0 }

// Next pops the credit to send at now, if the head of the queue is due.
func (q *Credits) Next(now uint64) (link.Credit, bool) {
	if len(q.owed) == 0 || q.owed[0].due > now {
		return link.Credit{}, false
	}
	c := q.owed[0].c
	q.owed = q.owed[1:]
	return c, true
}

// Diff returns the name of the first field in which *a and *b, two
// values of one struct type, differ deeply (unexported fields included),
// or "" when they are equal. Lockstep contract tests use it to name the
// state a skipped router lost.
func Diff[T any](a, b *T) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		x := reflect.NewAt(fa.Type(), unsafe.Pointer(fa.UnsafeAddr())).Elem().Interface()
		y := reflect.NewAt(fb.Type(), unsafe.Pointer(fb.UnsafeAddr())).Elem().Interface()
		if !reflect.DeepEqual(x, y) {
			return va.Type().Field(i).Name
		}
	}
	return ""
}
