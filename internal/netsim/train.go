package netsim

import (
	"math/bits"

	"ntpddos/internal/packet"
)

// train is the fabric's unit of in-flight work: one header and the payloads
// that share it, copied back to back into one buffer. The header is the
// delivered one (TTL already decremented by the path length).
type train struct {
	hdr  packet.Datagram // addressing and common Rep; Payload is unused
	buf  []byte          // every payload's bytes, back to back
	ends []int           // ends[i] is the end offset of payload i in buf
	// reps holds per-payload Reps when in-transit loss made them differ
	// (impaired trains only); empty means every payload carries hdr.Rep.
	reps []int64
	// host is the destination's host at the send, still the right one if
	// the fabric's hostsGen is still gen on arrival.
	host Host
	gen  uint64
}

// add appends one payload carrying the train's common Rep.
func (t *train) add(p []byte) {
	t.buf = append(t.buf, p...)
	t.ends = append(t.ends, len(t.buf))
}

// addRep appends one payload with its own Rep. A train built this way must
// use addRep for every payload.
func (t *train) addRep(p []byte, rep int64) {
	t.add(p)
	t.reps = append(t.reps, rep)
}

// payload returns payload i capped at its own length, so a handler that
// appends to it reallocates rather than overwriting the next payload.
func (t *train) payload(i int) []byte {
	start := 0
	if i > 0 {
		start = t.ends[i-1]
	}
	end := t.ends[i]
	return t.buf[start:end:end]
}

// rep returns payload i's Rep.
func (t *train) rep(i int) int64 {
	if len(t.reps) > 0 {
		return t.reps[i]
	}
	return t.hdr.Rep
}

// repSum returns the total Rep of payloads i and later.
func (t *train) repSum(i int) int64 {
	if len(t.reps) == 0 {
		return t.hdr.Rep * int64(len(t.ends)-i)
	}
	var sum int64
	for _, r := range t.reps[i:] {
		sum += r
	}
	return sum
}

// Train buffers are pooled in power-of-two size classes from 64 B to 64 KiB,
// so a one-datagram send never takes (and strands) a buffer sized for a
// 100-fragment monlist reply. Each class keeps at most trainPoolBytes of
// idle buffers; a larger train, or one freed past the cap, is left to the
// garbage collector.
const (
	minTrainShift  = 6
	trainClasses   = 11
	trainPoolBytes = 1 << 20
)

// trainClass returns the size class whose buffers hold size bytes.
func trainClass(size int) int {
	if size <= 1<<minTrainShift {
		return 0
	}
	return bits.Len(uint(size-1)) - minTrainShift
}

// newTrain takes a train with room for size payload bytes off its class's
// free list (or allocates one), stamps it with hdr's delivered header
// carrying rep, and binds it to host, the destination's host now.
func (n *Network) newTrain(hdr *packet.Datagram, hops int, rep int64, size int, host Host) *train {
	var t *train
	c := trainClass(size)
	if c >= trainClasses {
		t = &train{buf: make([]byte, 0, size)}
	} else if free := n.trains[c]; len(free) > 0 {
		t = free[len(free)-1]
		n.trains[c] = free[:len(free)-1]
	} else {
		t = &train{buf: make([]byte, 0, 1<<(c+minTrainShift))}
	}
	deliveredHeader(&t.hdr, hdr, hops)
	t.hdr.Rep = rep
	t.host, t.gen = host, n.hostsGen
	return t
}

// freeTrain drops a delivered train's host and returns the train to its
// class's free list, keeping its buffers for reuse, unless the class is at
// its cap.
func (n *Network) freeTrain(t *train) {
	t.host = nil
	c := trainClass(cap(t.buf))
	if c >= trainClasses || len(n.trains[c])<<(c+minTrainShift) >= trainPoolBytes {
		return
	}
	t.buf = t.buf[:0]
	t.ends = t.ends[:0]
	t.reps = t.reps[:0]
	n.trains[c] = append(n.trains[c], t)
}
