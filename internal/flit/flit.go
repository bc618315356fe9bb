// Package flit defines the unit of network transfer (the flit), packets,
// virtual networks, and the flit-width arithmetic the energy model uses.
//
// Following the paper, message classes travel on three virtual networks
// (two control networks and one data network). A packet is a sequence of
// flits; in backpressureless and AFC routers every flit carries enough
// control state (destination, packet id, sequence number) to be routed
// independently, which is why those routers need wider flits (45 and 49
// bits of total width versus 41 for the backpressured baseline).
package flit

import (
	"fmt"

	"afcnet/internal/topology"
)

// VN identifies a virtual network. The paper's configuration uses two
// virtual control networks (requests and responses) and one data network.
type VN uint8

// Virtual networks.
const (
	VNReq  VN = iota // control: coherence requests
	VNResp           // control: coherence responses/acks
	VNData           // data: cache-line transfers

	NumVNs = 3
)

// String implements fmt.Stringer.
func (v VN) String() string {
	switch v {
	case VNReq:
		return "req"
	case VNResp:
		return "resp"
	case VNData:
		return "data"
	}
	return fmt.Sprintf("VN(%d)", uint8(v))
}

// NoVC marks a flit whose virtual channel has not been assigned. Under
// AFC's lazy VC allocation the upstream router dispatches flits with only
// the virtual-network identifier; the downstream router assigns the VC
// (the buffer slot) at buffer-write time.
const NoVC = -1

// Flit is the atomic unit routed by the network. All router
// implementations share this type; fields that a particular flow-control
// mechanism does not use are simply ignored (but still cost width in the
// energy model, which is the paper's point about wider AFC flits).
type Flit struct {
	// PacketID uniquely identifies the packet this flit belongs to.
	PacketID uint64
	// Seq is this flit's index within its packet, in [0, Len).
	Seq int
	// Len is the total number of flits in the packet.
	Len int
	// Src and Dst are the injecting and destination nodes.
	Src, Dst topology.NodeID
	// VN is the virtual network the flit travels on. It never changes
	// in flight.
	VN VN
	// VC is the virtual channel currently assigned to the flit, or NoVC.
	// In the backpressured baseline the VC is allocated per packet at the
	// upstream router; under AFC's lazy allocation it names the buffer
	// slot chosen by the downstream router.
	VC int
	// CreatedAt is the cycle the packet was handed to the network
	// interface (queueing delay included in total latency).
	CreatedAt uint64
	// InjectedAt is the cycle this flit entered the router network.
	InjectedAt uint64
	// Hops counts link traversals (for stats and the energy model's
	// sanity checks).
	Hops int
	// Deflections counts misroutes suffered by this flit.
	Deflections int
	// Retransmits counts how many times the packet was retransmitted
	// (drop-based backpressureless variant only).
	Retransmits int
	// Payload is an opaque tag for the traffic layer (e.g., a CMP
	// transaction id). The network never interprets it.
	Payload uint64

	// blk and gen tie a pooled flit back to its arena block (arena.go).
	// Both stay zero for heap-allocated flits (Packet.Flits), for which
	// Recycle is a no-op. gen must match the block's current generation;
	// a mismatch means the handle outlived a recycle (use-after-free).
	blk *block
	gen uint32
}

// Head reports whether f is the head flit of its packet.
func (f *Flit) Head() bool { return f.Seq == 0 }

// Tail reports whether f is the tail flit of its packet. A single-flit
// packet is both head and tail.
func (f *Flit) Tail() bool { return f.Seq == f.Len-1 }

// String implements fmt.Stringer for debugging output.
func (f *Flit) String() string {
	return fmt.Sprintf("flit{pkt=%d %d/%d %d->%d vn=%s vc=%d}",
		f.PacketID, f.Seq+1, f.Len, f.Src, f.Dst, f.VN, f.VC)
}

// Packet describes a packet before packetization into flits.
type Packet struct {
	ID        uint64
	Src, Dst  topology.NodeID
	VN        VN
	Len       int // number of flits
	CreatedAt uint64
	Payload   uint64
}

// Flits expands the packet into its flits. Each flit gets an independent
// copy of the routing metadata so that backpressureless routers may route
// them independently.
func (p Packet) Flits() []*Flit {
	// One backing allocation for the whole packet: flits travel the
	// network as pointers, and a 17-flit data packet would otherwise cost
	// 18 allocations (the dominant allocation site of a closed-loop run).
	backing := make([]Flit, p.Len)
	fs := make([]*Flit, p.Len)
	for i := range fs {
		backing[i] = Flit{
			PacketID:  p.ID,
			Seq:       i,
			Len:       p.Len,
			Src:       p.Src,
			Dst:       p.Dst,
			VN:        p.VN,
			VC:        NoVC,
			CreatedAt: p.CreatedAt,
			Payload:   p.Payload,
		}
		fs[i] = &backing[i]
	}
	return fs
}

// Flit widths from Section IV of the paper: 32 data bits plus the control
// bits needed to encode VCs, destination node, flit number and global MSHR
// identifier for each flow-control mechanism.
const (
	DataBits = 32

	// WidthBackpressured is the total flit width (data + control) of the
	// baseline backpressured router: 9 control bits.
	WidthBackpressured = DataBits + 9 // 41
	// WidthBackpressureless is the total flit width of the deflection
	// router: 13 control bits (per-flit destination and sequencing).
	WidthBackpressureless = DataBits + 13 // 45
	// WidthAFC is the total flit width of the AFC router: 17 control bits
	// (both mechanisms' control state).
	WidthAFC = DataBits + 17 // 49
)

// PacketLengths gives the flit counts for the two packet classes in the
// simulated system. With 32-bit data flits and 64-byte cache lines
// (Table II), a data packet is a head flit plus 16 data flits; control
// packets are a single flit.
const (
	ControlPacketFlits = 1
	DataPacketFlits    = 17
)

// LenForVN returns the default packet length for a virtual network.
func LenForVN(vn VN) int {
	if vn == VNData {
		return DataPacketFlits
	}
	return ControlPacketFlits
}
