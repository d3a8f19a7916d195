package compress

import (
	"fmt"
	"math"
)

// ErrorFeedback wraps a compressor with the error-feedback (EF) mechanism
// discussed in §6 of the paper: the compression residual (original −
// decompressed) is stored locally and added back to the next iteration's
// gradient, making even biased compressors asymptotically unbiased. COMPSO
// deliberately does not use EF — the residual doubles the gradient memory,
// which conflicts with large-batch data-parallel training — but the wrapper
// exists for the comparison experiments and for users with memory to spare.
//
// The wrapper is stateful per gradient stream: use one instance per
// (worker, tensor) pair, and call Compress with same-length inputs. The
// stream length is pinned on the *first* Compress call — even one that
// later fails inside the inner compressor — so every subsequent
// length change surfaces as ErrLengthMismatch rather than feeding a
// possibly state-pinned inner compressor a foreign shape.
type ErrorFeedback struct {
	// Inner performs the actual compression.
	Inner Compressor
	// residual carries the accumulated compression error.
	residual []float32
	// corrected is Corrected's result, reused from call to call.
	corrected []float32
	// expect pins the stream's gradient length from first use on.
	expect    int
	expectSet bool
}

// NewErrorFeedback wraps inner with EF state.
func NewErrorFeedback(inner Compressor) *ErrorFeedback {
	return &ErrorFeedback{Inner: inner}
}

// Name implements Compressor.
func (e *ErrorFeedback) Name() string { return e.Inner.Name() + "+EF" }

// Corrected returns src plus the stored residual, pinning the stream length
// on first use. It is the first half of Compress, split out for
// aggregation paths (the low-rank ring all-reduce) that compress and
// restore through a collective instead of a local round trip; such callers
// pair it with Observe. The result is the wrapper's own buffer, valid
// until the next Corrected or Compress call: through the Observe that
// pairs with it, not beyond.
func (e *ErrorFeedback) Corrected(src []float32) ([]float32, error) {
	if e.expectSet && e.expect != len(src) {
		return nil, fmt.Errorf("%w: EF stream length %d, input %d", ErrLengthMismatch, e.expect, len(src))
	}
	e.expect, e.expectSet = len(src), true
	e.corrected = resize(e.corrected, len(src))
	corrected := e.corrected
	copy(corrected, src)
	if e.residual != nil {
		for i := range corrected {
			corrected[i] += e.residual[i]
		}
	}
	return corrected, nil
}

// Observe stores the stream's new residual, corrected − restored. It is
// the second half of Compress for collective-aggregation callers.
func (e *ErrorFeedback) Observe(corrected, restored []float32) error {
	if len(restored) != len(corrected) {
		return fmt.Errorf("%w: EF restored length %d, want %d", ErrLengthMismatch, len(restored), len(corrected))
	}
	if e.residual == nil {
		e.residual = make([]float32, len(corrected))
	}
	for i := range corrected {
		e.residual[i] = corrected[i] - restored[i]
	}
	return nil
}

// Compress adds the stored residual to src, compresses the sum, and stores
// the new residual. The input slice is not modified.
func (e *ErrorFeedback) Compress(src []float32) ([]byte, error) {
	corrected, err := e.Corrected(src)
	if err != nil {
		return nil, err
	}
	blob, err := e.Inner.Compress(corrected)
	if err != nil {
		return nil, err
	}
	decoded, err := e.Inner.Decompress(blob)
	if err != nil {
		return nil, fmt.Errorf("compress: EF local decode: %w", err)
	}
	if err := e.Observe(corrected, decoded); err != nil {
		return nil, err
	}
	return blob, nil
}

// Decompress implements Compressor.
func (e *ErrorFeedback) Decompress(data []byte) ([]float32, error) {
	return e.Inner.Decompress(data)
}

// Reset implements Stateful: it clears the residual and the length pin
// (e.g. between epochs or tensor shape changes) and resets a Stateful
// inner compressor, so the whole stack restarts as one stream.
func (e *ErrorFeedback) Reset() {
	e.residual = nil
	e.expect, e.expectSet = 0, false
	if st, ok := e.Inner.(Stateful); ok {
		st.Reset()
	}
}

// ErrorFeedbackState is the State() snapshot.
type ErrorFeedbackState struct {
	// Expect is the pinned stream length (0 before first use).
	Expect int
	// Pinned reports whether the stream length is pinned at all — it
	// disambiguates "never used" from a stream legitimately pinned to
	// length 0.
	Pinned bool
	// Residual is a copy of the in-flight error.
	Residual []float32
	// Inner is the inner compressor's snapshot when it is Stateful.
	Inner any
}

// State implements Stateful.
func (e *ErrorFeedback) State() any {
	st := ErrorFeedbackState{Pinned: e.expectSet}
	if e.expectSet {
		st.Expect = e.expect
	}
	if e.residual != nil {
		st.Residual = append([]float32(nil), e.residual...)
	}
	if inner, ok := e.Inner.(Stateful); ok {
		st.Inner = inner.State()
	}
	return st
}

// Restore implements Restorable: it re-installs a State() snapshot —
// length pin, residual, and (recursively) the inner compressor's stream
// state. The residual is copied out of the snapshot, never aliased. A
// snapshot carrying inner state for a non-restorable inner compressor is
// rejected rather than silently dropped.
func (e *ErrorFeedback) Restore(state any) error {
	st, ok := state.(ErrorFeedbackState)
	if !ok {
		if p, ok2 := state.(*ErrorFeedbackState); ok2 {
			st = *p
		} else {
			return fmt.Errorf("compress: EF restore: snapshot type %T", state)
		}
	}
	if st.Inner != nil {
		inner, ok := e.Inner.(Restorable)
		if !ok {
			return fmt.Errorf("compress: EF restore: inner %T carries state but is not Restorable", e.Inner)
		}
		if err := inner.Restore(st.Inner); err != nil {
			return err
		}
	}
	e.expect, e.expectSet = st.Expect, st.Pinned || st.Expect > 0
	if st.Residual != nil {
		e.residual = append([]float32(nil), st.Residual...)
	} else {
		e.residual = nil
	}
	return nil
}

// ResidualNorm returns the L2 norm of the stored residual, a diagnostic
// for how much error is in flight.
func (e *ErrorFeedback) ResidualNorm() float64 {
	var s float64
	for _, v := range e.residual {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
