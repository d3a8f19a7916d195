package train

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"compso/internal/compress"
	"compso/internal/pool"
)

// This file is the receive side of every all-gather the training step
// issues — the first-order gradient blobs, the K-FAC preconditioned-
// gradient rounds and the compressed factor exchange — together with the
// uvarint framing the K-FAC payloads use and the corrupt → retry →
// lossless-fallback recovery ladder (DESIGN.md §8).
//
// The recovery protocol is SPMD throughout. Corruption verdicts are pure
// hashes of (plan seed, step, sender, attempt), so every rank — including
// the sender receiving its own contribution — observes the same bytes and
// takes the same control-flow path. Retries and fallbacks are therefore
// ordinary collectives (broadcasts from the afflicted sender) that every
// rank enters in lockstep, exactly as a collective-based training system
// would re-issue them; mismatched paths would deadlock, as on a real
// cluster.

// appendFrame appends body as one uvarint-length-prefixed frame.
func appendFrame(dst, body []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// appendRawFrame appends vals as one lossless little-endian FP32 frame.
func appendRawFrame(dst []byte, vals []float32) []byte {
	dst = binary.AppendUvarint(dst, uint64(4*len(vals)))
	return appendF32(dst, vals)
}

// appendF32 appends vals little-endian. Appending to a nil dst yields a
// fresh heap allocation, which is what collective payloads must be: other
// workers' goroutines retain them, so they can never come from the arena.
func appendF32(dst []byte, vals []float32) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 4*len(vals))[:n+4*len(vals)]
	for i, f := range vals {
		binary.LittleEndian.PutUint32(dst[n+4*i:], math.Float32bits(f))
	}
	return dst
}

// bytesToF32Pooled decodes little-endian FP32 into an arena buffer; the
// caller hands it back via pool.PutF32 once the values are consumed.
func bytesToF32Pooled(b []byte) []float32 {
	out := pool.F32(len(b) / 4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// readFrames cuts one sender's payload into the n uvarint-framed blobs it
// must carry, without decoding them. It returns the well-formed prefix
// together with the framing error that ended it — a bad or overlong length
// varint, a missing frame, or bytes trailing the n-th — so the receiver
// can charge and install what arrived intact before it fails. n == 0
// accepts only an empty part: the shape a rank with no owned layers
// (worldSize > nLayers), or one whose groups ran out before the round
// did, legitimately sends. Every error wraps compress.ErrCorrupt.
func readFrames(part []byte, n, sender int) ([][]byte, error) {
	frames := make([][]byte, 0, n)
	pos := 0
	for len(frames) < n {
		size, used := binary.Uvarint(part[pos:])
		// Bound the frame length in uint64 space before the int cast: a
		// corrupted varint can encode values whose int conversion
		// overflows negative and sails past a signed comparison.
		if used <= 0 || size > uint64(len(part)-pos-used) {
			return frames, fmt.Errorf("%w: train: corrupt all-gather payload from rank %d", compress.ErrCorrupt, sender)
		}
		pos += used
		frames = append(frames, part[pos:pos+int(size)])
		pos += int(size)
	}
	if pos != len(part) {
		return frames, fmt.Errorf("%w: train: %d trailing bytes in all-gather payload from rank %d",
			compress.ErrCorrupt, len(part)-pos, sender)
	}
	return frames, nil
}

// gatherRx describes how to receive one all-gather's parts.
type gatherRx struct {
	tel *tele
	// fc is nil without a fault plan, and for exchanges outside the fault
	// model: parts then arrive verbatim and a failed sender fails the step.
	fc       *faultCtx
	category string
	// frames cuts a sender's bytes into blobs (readFrames' contract: the
	// well-formed prefix plus the error that ended it).
	frames func(sender int, part []byte) ([][]byte, error)
	// decode decompresses one blob. It must be pure — the senders'
	// attempt-0 blobs decode concurrently. Nil means lossless FP32 blobs.
	decode func(blob []byte) ([]float32, error)
	// install consumes one decoded blob; vals is only valid during the call.
	install func(sender, frame int, vals []float32) error
	// own and ownRaw are this rank's resend material for the ladder: the
	// payload it contributed, and a builder for its lossless FP32 mirror
	// (same framing), called only when a sender falls back. Both must be
	// heap allocations, like every payload.
	own    []byte
	ownRaw func() []byte
}

// wholeBlob is gatherRx.frames for an unframed exchange: one blob a sender.
func wholeBlob(_ int, part []byte) ([][]byte, error) { return [][]byte{part}, nil }

// sumInto is gatherRx.install for exchanges that add every sender's
// len(dst) values element-wise, in rank order.
func sumInto(dst []float64) func(sender, frame int, vals []float32) error {
	return func(sender, _ int, vals []float32) error {
		if len(vals) != len(dst) {
			return fmt.Errorf("%w: train: gathered %d values from rank %d, want %d",
				compress.ErrCorrupt, len(vals), sender, len(dst))
		}
		for i, v := range vals {
			dst[i] += float64(v)
		}
		return nil
	}
}

// delivery is one delivery attempt of one sender's bytes, cut into frames.
type delivery struct {
	frames []rxFrame
	// tail is the framing error that followed the well-formed frames.
	tail error
	// lossless marks FP32 frames, which decode into arena buffers.
	lossless bool
}

type rxFrame struct {
	blob []byte
	vals []float32
	err  error
}

// decodeAll cuts one delivery of sender's bytes into frames and decodes
// them. It touches nothing outside the delivery it returns, so deliveries decode
// concurrently.
func (rx *gatherRx) decodeAll(sender int, b []byte, lossless bool) delivery {
	blobs, tail := rx.frames(sender, b)
	d := delivery{frames: make([]rxFrame, len(blobs)), tail: tail, lossless: lossless || rx.decode == nil}
	for i, blob := range blobs {
		f := &d.frames[i]
		f.blob = blob
		switch {
		case !d.lossless:
			f.vals, f.err = rx.decode(blob)
		case len(blob)%4 != 0:
			f.err = fmt.Errorf("%w: train: raw frame from rank %d has %d bytes", compress.ErrCorrupt, sender, len(blob))
		default:
			f.vals = bytesToF32Pooled(blob)
		}
	}
	return d
}

func (d *delivery) release() {
	if d.lossless {
		for i := range d.frames {
			pool.PutF32(d.frames[i].vals)
		}
	}
}

// replay charges and installs a decoded delivery frame by frame, stopping
// at the first decode, install or framing failure — so a delivery that
// fails part-way has charged the decompress time of, and installed, exactly
// the frames before the failure.
func (rx *gatherRx) replay(sender int, d *delivery) error {
	for i := range d.frames {
		f := &d.frames[i]
		if f.err != nil {
			return f.err
		}
		if !d.lossless {
			rx.tel.decompress(fused, len(f.vals), len(f.blob), rx.category)
		}
		if err := rx.install(sender, i, f.vals); err != nil {
			return err
		}
	}
	return d.tail
}

// receive installs every sender's part. The senders' attempt-0 deliveries
// decode concurrently over the shared worker pool — corruption draws and
// their tallies stay on this goroutine — and then the simulated-time
// charges and the installs replay serially in (rank, frame) order, so the
// timeline and the float arithmetic do not depend on the fan-out. A sender
// whose replay fails climbs the recovery ladder before the next sender's
// replay starts; its recovery broadcasts are collectives every rank enters
// in lockstep.
func (rx *gatherRx) receive(parts [][]byte) error {
	got := make([]delivery, len(parts))
	defer func() {
		for s := range got {
			got[s].release()
		}
	}()
	delivered := make([][]byte, len(parts))
	for s, part := range parts {
		delivered[s], _, _ = rx.attempt(s, 0, part)
	}
	pool.ParallelFor(len(parts), 0, func(s int) { got[s] = rx.decodeAll(s, delivered[s], false) })
	for s := range got {
		err := rx.replay(s, &got[s])
		for n := 1; err != nil; n++ {
			b, lossless, ok := rx.attempt(s, n, nil)
			if !ok {
				return err
			}
			d := rx.decodeAll(s, b, lossless)
			err = rx.replay(s, &d)
			d.release()
			if err != nil && lossless {
				err = fmt.Errorf("train: lossless fallback from rank %d: %w", s, err)
			}
		}
	}
	return nil
}

// attempt is the recovery ladder: it returns the bytes of sender's n-th
// delivery. Attempt 0 is the gathered part through the in-flight
// corruption model; 1..retries re-broadcast the sender's payload, each
// with a fresh corruption draw; retries+1 broadcasts the sender's lossless
// FP32 mirror, which the model leaves intact — the compressed path
// degrades for this sender-step, the run survives. ok is false once the
// ladder is exhausted, which without a fault plan is right after attempt 0.
func (rx *gatherRx) attempt(sender, n int, part []byte) (b []byte, lossless, ok bool) {
	fc := rx.fc
	if fc == nil {
		return part, false, n == 0
	}
	it := fc.w.Step()
	resend := func(own []byte, suffix string) []byte {
		if fc.w.Rank() != sender {
			own = nil
		}
		return fc.w.Broadcast(own, sender, rx.category+suffix)
	}
	switch {
	case n == 0:
		return fc.deliver(part, it, sender, 0), false, true
	case n <= fc.retries:
		fc.tel.faultInstant("retries", "fault/decode_retries", "decode-retry", "decode-retry", it, sender, 0)
		re := resend(rx.own, "-retry")
		return fc.deliver(re, it, sender, n), false, true
	case n == fc.retries+1:
		// The sender-step's strategy switches from compressed to lossless.
		fc.tel.faultInstant("fallbacks", "fault/decode_fallbacks", "strategy-switch", "lossless-fallback", it, sender, 0)
		return resend(rx.ownRaw(), "-fallback"), true, true
	}
	return nil, false, false
}
