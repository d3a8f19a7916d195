package cluster

import (
	"fmt"
	"sync"
	"unsafe"

	"compso/internal/collective"
	"compso/internal/fault"
	"compso/internal/pool"
)

// TraceCap bounds each rank's retained event trace: the most recent
// TraceCap events win.
const TraceCap = 4096

// eventBytes sizes one trace event for Footprint accounting.
var eventBytes = int64(unsafe.Sizeof(collective.Event{}))

// Ledger is the simulated-time book of one run of p ranks and the one
// implementation of the charging rules both time engines use: each
// goroutine Worker settles its own rank, the discrete-event des.World
// settles every rank in one pass. State is columnar — a clock per rank and
// one p-long seconds column per category and per "op/algorithm" — so a
// world of thousands of ranks holds a handful of shared columns, not one
// map per rank.
//
// The rules:
//   - Compute advances a rank's clock by its charge, under a category.
//   - Waiting on a collective, a point-to-point exchange or a barrier is
//     charged only when the end lies past the rank's clock (block): the
//     blocked interval goes to the category and, except for a barrier, to
//     the "op/algorithm" column.
//   - A wait on a collective launched earlier also books exposure
//     (OverlapOf): the blocked interval as exposed, the whole
//     launch-to-end latency as total.
//   - Launch books, once per collective, what every rank shares: wire
//     bytes, the collective count and the schedule seconds.
//   - With tracing on, each rank keeps a ring of its last TraceCap events.
//
// A rank's charges touch only index r of each column, so ranks may settle
// concurrently; creating a column is serialised by mu. Launch runs on one
// goroutine while no rank reads the totals: inside the rendezvous combine,
// or on the World's loop.
type Ledger struct {
	p      int
	pooled bool
	clocks []float64

	mu   sync.Mutex // guards the column maps and the overlap columns
	cats map[string][]float64
	algs map[string][]float64
	// exposed and full are created by the first wait that carries launch
	// clocks; a World, whose collectives have none, never holds them.
	exposed, full []float64

	meas, pred  float64
	wire, colls int64

	tracing bool
	rings   [][]collective.Event
	heads   []int
	totals  []int64
}

// NewLedger returns a ledger of p ranks with every clock at zero. A pooled
// ledger takes its columns from internal/pool and returns them at Release;
// an unpooled one leaves them to the garbage collector.
func NewLedger(p int, pooled bool) *Ledger {
	l := &Ledger{p: p, pooled: pooled, cats: map[string][]float64{}, algs: map[string][]float64{}}
	l.clocks = l.newColumn()
	return l
}

func (l *Ledger) newColumn() []float64 {
	if !l.pooled {
		return make([]float64, l.p)
	}
	v := pool.F64(l.p)
	clear(v)
	return v
}

// column returns m's column for key, created zeroed on first use.
func (l *Ledger) column(m map[string][]float64, key string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := m[key]
	if !ok {
		v = l.newColumn()
		m[key] = v
	}
	return v
}

func (l *Ledger) overlap() (exposed, full []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.exposed == nil {
		l.exposed, l.full = l.newColumn(), l.newColumn()
	}
	return l.exposed, l.full
}

// SetTracing turns per-rank event retention on or off. Off by default: at
// mega scale the rings dominate memory, and training never reads them.
// Call before anything is charged.
func (l *Ledger) SetTracing(on bool) {
	l.tracing = on
	if on && l.rings == nil {
		l.rings = make([][]collective.Event, l.p)
		l.heads = make([]int, l.p)
		l.totals = make([]int64, l.p)
	}
}

// block advances rank r's clock to end and returns the interval it was
// blocked: zero when the clock is already at or past end.
func (l *Ledger) block(r int, end float64) float64 {
	if now := l.clocks[r]; end > now {
		l.clocks[r] = end
		return end - now
	}
	return 0
}

// ComputeRanks advances each rank r in [lo, hi) by seconds(r), scaled by
// the injector's straggler factor at step (f nil: unscaled), charged to
// category.
func (l *Ledger) ComputeRanks(lo, hi int, seconds func(r int) float64, f *fault.Injector, step int, category string) {
	cat := l.column(l.cats, category)
	for r := lo; r < hi; r++ {
		s := seconds(r)
		if s < 0 {
			panic(fmt.Sprintf("cluster: negative compute time %g for rank %d", s, r))
		}
		if f != nil {
			s *= f.ComputeFactor(r, step)
		}
		l.clocks[r] += s
		cat[r] += s
	}
}

// Launch books a scheduled collective's once-per-collective totals: wire
// bytes, the collective count, and its executed makespan beside the
// fault-free prediction (ScheduleSeconds).
func (l *Ledger) Launch(out *collective.Outcome) {
	l.colls++
	l.wire += int64(out.Bytes)
	l.meas += out.MaxEnd() - out.Start
	l.pred += out.Predicted
}

// Wait settles ranks [lo, hi) on the collective out at their current
// clocks: rank r blocks until out.Ends[r], charged to category and to
// out's "op/algorithm". launch, when non-nil, holds rank lo+i's clock at
// the launch in launch[i], and the wait books exposure too — the part of
// the launch-to-end latency the clock had already passed was hidden
// behind compute. With tracing on, each rank's ring receives the events it
// took part in, in schedule order.
func (l *Ledger) Wait(lo, hi int, out *collective.Outcome, launch []float64, category string) {
	cat, alg := l.column(l.cats, category), l.column(l.algs, out.Op+"/"+out.Algorithm)
	var exposed, full []float64
	if launch != nil {
		exposed, full = l.overlap()
	}
	for r := lo; r < hi; r++ {
		end := out.Ends[r]
		if launch != nil {
			charged := max(end-l.clocks[r], 0)
			exposed[r] += charged
			full[r] += charged
			if hidden := max(end-launch[r-lo], 0) - charged; hidden > 0 {
				full[r] += hidden
			}
		}
		d := l.block(r, end)
		alg[r] += d
		cat[r] += d
	}
	if l.tracing {
		l.trace(lo, hi, out.Events)
	}
}

// Settle launches out and waits every rank on it at once: a blocking
// collective all ranks issue together.
func (l *Ledger) Settle(out *collective.Outcome, category string) {
	l.Launch(out)
	l.Wait(0, l.p, out, nil, category)
}

// Exchange settles rank's side of the point-to-point transfer ev, which
// ends at ev.End: the blocked interval is charged to category and to
// "sendrecv/p2p", and ev joins the rank's trace.
func (l *Ledger) Exchange(rank int, ev collective.Event, category string) {
	cat, alg := l.column(l.cats, category), l.column(l.algs, collective.OpSendRecv+"/p2p")
	d := l.block(rank, ev.End)
	alg[rank] += d
	cat[rank] += d
	if l.tracing {
		l.record(rank, ev)
	}
}

// BarrierRanks advances ranks [lo, hi) to t, charging each wait to
// "barrier".
func (l *Ledger) BarrierRanks(lo, hi int, t float64) {
	cat := l.column(l.cats, "barrier")
	for r := lo; r < hi; r++ {
		cat[r] += l.block(r, t)
	}
}

// trace files each event under the ranks in [lo, hi) it involves — its
// endpoints, or every rank for an analytic summary (Src = Dst = -1) — the
// selection Outcome.EventsFor makes, in one walk.
func (l *Ledger) trace(lo, hi int, events []collective.Event) {
	for _, ev := range events {
		if ev.Src < 0 {
			for r := lo; r < hi; r++ {
				l.record(r, ev)
			}
			continue
		}
		if lo <= ev.Src && ev.Src < hi {
			l.record(ev.Src, ev)
		}
		if ev.Dst != ev.Src && lo <= ev.Dst && ev.Dst < hi {
			l.record(ev.Dst, ev)
		}
	}
}

func (l *Ledger) record(r int, ev collective.Event) {
	l.totals[r]++
	ring := l.rings[r]
	if len(ring) < TraceCap {
		if ring == nil {
			ring = make([]collective.Event, 0, TraceCap)
		}
		l.rings[r] = append(ring, ev)
		return
	}
	ring[l.heads[r]] = ev
	l.heads[r] = (l.heads[r] + 1) % TraceCap
}

// Size returns the number of ranks.
func (l *Ledger) Size() int { return l.p }

// Clocks returns the live per-rank clock vector, for scheduling the next
// collective from; callers must not write it.
func (l *Ledger) Clocks() []float64 {
	if l.clocks == nil {
		panic("cluster: ledger used after Release")
	}
	return l.clocks
}

// TimeOf returns rank's simulated clock in seconds.
func (l *Ledger) TimeOf(rank int) float64 { return l.clocks[rank] }

// MaxTime returns the latest rank clock — the run's simulated makespan.
func (l *Ledger) MaxTime() float64 {
	m := l.clocks[0]
	for _, t := range l.clocks[1:] {
		m = max(m, t)
	}
	return m
}

// rankView returns rank's nonzero entries of m's columns.
func (l *Ledger) rankView(m map[string][]float64, rank int) map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if v[rank] != 0 {
			out[k] = v[rank]
		}
	}
	return out
}

// StatsOf returns rank's per-category simulated seconds (a fresh map).
func (l *Ledger) StatsOf(rank int) map[string]float64 { return l.rankView(l.cats, rank) }

// AlgSecondsOf returns rank's simulated seconds per collective
// "op/algorithm" pair, e.g. "allgather/hierarchical" (a fresh map).
func (l *Ledger) AlgSecondsOf(rank int) map[string]float64 { return l.rankView(l.algs, rank) }

// Merged returns each category's and each "op/algorithm"'s seconds summed
// over the ranks in rank order, omitting zero sums. Read after the run.
func (l *Ledger) Merged() (stats, algs map[string]float64) {
	sum := func(m map[string][]float64) map[string]float64 {
		out := make(map[string]float64, len(m))
		for k, v := range m {
			s := 0.0
			for _, x := range v {
				s += x
			}
			if s != 0 {
				out[k] = s
			}
		}
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return sum(l.cats), sum(l.algs)
}

// OverlapOf returns the seconds rank spent blocked on launched collectives
// (exposed) beside their whole launch-to-end latency (total). A blocking
// call adds the same to both; a wait the clock had already passed adds
// only to total. 1 − exposed/total is the hidden fraction.
func (l *Ledger) OverlapOf(rank int) (exposed, total float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.exposed == nil {
		return 0, 0
	}
	return l.exposed[rank], l.full[rank]
}

// ScheduleSeconds returns the executed collectives' summed makespans
// beside the fault-free cost-model prediction of the same schedules —
// the same for every rank. Sustained divergence is the straggler guard's
// re-tune trigger.
func (l *Ledger) ScheduleSeconds() (measured, predicted float64) { return l.meas, l.pred }

// WireBytes returns the bytes all launched collectives put on the wire,
// counted once per collective.
func (l *Ledger) WireBytes() int64 { return l.wire }

// Collectives returns how many collectives were launched.
func (l *Ledger) Collectives() int64 { return l.colls }

// EventsOf returns a copy of rank's retained trace in arrival order (nil
// unless tracing is on).
func (l *Ledger) EventsOf(rank int) []collective.Event {
	if l.rings == nil {
		return nil
	}
	ring, head := l.rings[rank], l.heads[rank]
	out := make([]collective.Event, 0, len(ring))
	out = append(out, ring[head:]...)
	return append(out, ring[:head]...)
}

// TotalEventsOf returns how many trace events rank has seen, including
// those evicted from its ring.
func (l *Ledger) TotalEventsOf(rank int) int64 {
	if l.totals == nil {
		return 0
	}
	return l.totals[rank]
}

// columns lists every column the ledger holds. Call with mu held.
func (l *Ledger) columns() [][]float64 {
	cols := [][]float64{l.clocks}
	if l.exposed != nil {
		cols = append(cols, l.exposed, l.full)
	}
	for _, m := range []map[string][]float64{l.cats, l.algs} {
		for _, v := range m {
			cols = append(cols, v)
		}
	}
	return cols
}

// Footprint returns the bytes of per-rank state the ledger holds (clocks,
// columns, trace rings) — the memory that scales with the rank count.
func (l *Ledger) Footprint() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 8 * int64(len(l.heads)+len(l.totals))
	for _, v := range l.columns() {
		n += 8 * int64(cap(v))
	}
	for _, ring := range l.rings {
		n += int64(cap(ring)) * eventBytes
	}
	return n
}

// Release hands a pooled ledger's columns back to the pool and drops the
// rings. The ledger must not be charged afterwards; a second Release is a
// no-op.
func (l *Ledger) Release() {
	if l.clocks == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pooled {
		for _, v := range l.columns() {
			pool.PutF64(v)
		}
	}
	clear(l.cats)
	clear(l.algs)
	l.clocks, l.exposed, l.full = nil, nil, nil
	l.rings, l.heads, l.totals = nil, nil, nil
}
