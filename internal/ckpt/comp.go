package ckpt

import (
	"fmt"

	"compso/internal/compress"
)

// CompState is the serializable form of a compressor's Stateful snapshot —
// a tagged tree mirroring the cascading wrapper structure (an
// error-feedback node carries its inner compressor's state recursively).
type CompState struct {
	Kind     uint8
	COMPSO   *compress.COMPSOState
	EF       *EFState
	PowerSGD *compress.PowerSGDState
}

// EFState is the serializable error-feedback node.
type EFState struct {
	Expect   int
	Pinned   bool
	Residual []float32
	Inner    *CompState
}

// CompState kinds.
const (
	kindCOMPSO   = 1
	kindEF       = 2
	kindPowerSGD = 3
)

// maxCompDepth bounds the wrapper-cascade nesting a blob may declare.
const maxCompDepth = 8

// CompStateOf converts a Stateful.State() snapshot into its serializable
// form. It understands every Stateful implementation in the compress
// package; an unknown snapshot type is an error (silently dropping state
// would break the resume bit-identity contract).
func CompStateOf(s any) (*CompState, error) {
	switch st := s.(type) {
	case compress.COMPSOState:
		return &CompState{Kind: kindCOMPSO, COMPSO: &st}, nil
	case compress.PowerSGDState:
		return &CompState{Kind: kindPowerSGD, PowerSGD: &st}, nil
	case compress.ErrorFeedbackState:
		ef := &EFState{Expect: st.Expect, Pinned: st.Pinned, Residual: st.Residual}
		if st.Inner != nil {
			inner, err := CompStateOf(st.Inner)
			if err != nil {
				return nil, err
			}
			ef.Inner = inner
		}
		return &CompState{Kind: kindEF, EF: ef}, nil
	}
	return nil, fmt.Errorf("ckpt: unsupported compressor snapshot type %T", s)
}

// Value converts back to the compress-typed snapshot that
// Restorable.Restore accepts.
func (cs *CompState) Value() (any, error) {
	if cs == nil {
		return nil, fmt.Errorf("ckpt: nil compressor state")
	}
	switch cs.Kind {
	case kindCOMPSO:
		if cs.COMPSO == nil {
			return nil, fmt.Errorf("ckpt: COMPSO state node without payload")
		}
		return *cs.COMPSO, nil
	case kindPowerSGD:
		if cs.PowerSGD == nil {
			return nil, fmt.Errorf("ckpt: PowerSGD state node without payload")
		}
		return *cs.PowerSGD, nil
	case kindEF:
		if cs.EF == nil {
			return nil, fmt.Errorf("ckpt: EF state node without payload")
		}
		st := compress.ErrorFeedbackState{
			Expect:   cs.EF.Expect,
			Pinned:   cs.EF.Pinned,
			Residual: cs.EF.Residual,
		}
		if cs.EF.Inner != nil {
			inner, err := cs.EF.Inner.Value()
			if err != nil {
				return nil, err
			}
			st.Inner = inner
		}
		return st, nil
	}
	return nil, fmt.Errorf("ckpt: unknown compressor state kind %d", cs.Kind)
}

// comp writes a CompState tree, or its absence.
func (e *enc) comp(cs *CompState) {
	if cs == nil {
		e.u8(0)
		return
	}
	e.u8(cs.Kind)
	switch cs.Kind {
	case kindCOMPSO:
		e.blob(cs.COMPSO.RNG)
	case kindPowerSGD:
		p := cs.PowerSGD
		e.u64(uint64(p.Step))
		e.u64(uint64(p.Phase))
		e.u64(uint64(p.N))
		e.u64(uint64(p.Rows))
		e.u64(uint64(p.Cols))
		e.u64(uint64(p.Rank))
		e.optF64s(p.P)
		e.optF64s(p.Q)
	case kindEF:
		f := cs.EF
		e.u64(uint64(f.Expect))
		e.bool(f.Pinned)
		e.optF32s(f.Residual)
		e.comp(f.Inner)
	default:
		panic(fmt.Sprintf("ckpt: encoding unknown compressor state kind %d", cs.Kind))
	}
}

// comp reads a CompState tree, or nil where its absence was written. depth
// counts the wrappers around it; a tree nested past maxCompDepth is an
// error.
func (d *dec) comp(depth int) (*CompState, error) {
	if depth > maxCompDepth {
		return nil, fmt.Errorf("ckpt: compressor state nested deeper than %d", maxCompDepth)
	}
	kind := d.u8()
	if d.err != nil {
		return nil, d.err
	}
	switch kind {
	case 0:
		return nil, nil
	case kindCOMPSO:
		rng := d.blob()
		if d.err != nil {
			return nil, d.err
		}
		return &CompState{Kind: kindCOMPSO, COMPSO: &compress.COMPSOState{RNG: rng}}, nil
	case kindPowerSGD:
		p := &compress.PowerSGDState{}
		p.Step = int(d.u64())
		p.Phase = int(d.u64())
		p.N = int(d.u64())
		p.Rows = int(d.u64())
		p.Cols = int(d.u64())
		p.Rank = int(d.u64())
		p.P = d.optF64s()
		p.Q = d.optF64s()
		if d.err != nil {
			return nil, d.err
		}
		return &CompState{Kind: kindPowerSGD, PowerSGD: p}, nil
	case kindEF:
		f := &EFState{}
		f.Expect = int(d.u64())
		f.Pinned = d.bool()
		f.Residual = d.optF32s()
		inner, err := d.comp(depth + 1)
		if err != nil {
			return nil, err
		}
		f.Inner = inner
		if d.err != nil {
			return nil, d.err
		}
		return &CompState{Kind: kindEF, EF: f}, nil
	}
	return nil, fmt.Errorf("ckpt: unknown compressor state kind %d", kind)
}

// CaptureCompressor snapshots a live compressor into serializable form:
// nil for stateless compressors, an error for Stateful ones that are not
// Restorable (their state would be silently lost on resume).
func CaptureCompressor(c compress.Compressor) (*CompState, error) {
	st, ok := c.(compress.Stateful)
	if !ok {
		return nil, nil
	}
	if _, ok := c.(compress.Restorable); !ok {
		return nil, fmt.Errorf("ckpt: compressor %s is Stateful but not Restorable — its stream cannot survive a resume", c.Name())
	}
	return CompStateOf(st.State())
}

// RestoreCompressor installs a captured snapshot into a live compressor. A
// nil snapshot requires a stateless compressor.
func RestoreCompressor(c compress.Compressor, cs *CompState) error {
	if cs == nil {
		if _, ok := c.(compress.Stateful); ok {
			return fmt.Errorf("ckpt: checkpoint has no stream state for stateful compressor %s", c.Name())
		}
		return nil
	}
	r, ok := c.(compress.Restorable)
	if !ok {
		return fmt.Errorf("ckpt: checkpoint carries stream state but compressor %s is not Restorable", c.Name())
	}
	v, err := cs.Value()
	if err != nil {
		return err
	}
	return r.Restore(v)
}
