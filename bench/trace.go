package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// Spans are recorded by the benchmark itself, around each call it makes into
// a layer; nothing inside the program is instrumented. A span's name is
// "<layer>.<call>", so the layer a span belongs to is the text before the
// first dot. The root span of every op is opSpan; its self time is the
// benchmark's own glue between layer calls.
const opSpan = "bench.op"

type span struct {
	name       string
	op         int64 // the op this span belongs to; spans of one op share it
	parent     int32 // index of the enclosing span in the same track, -1 at the root
	start, end time.Duration
}

// tracer keeps every span in memory until the run ends. A nil *tracer, and
// the nil *track it hands out, record nothing, so workloads call begin/end
// unconditionally and the untraced run pays one nil check per call.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	tracks []*track
}

// track is one goroutine's span stack; only that goroutine may use it.
type track struct {
	epoch time.Time
	tid   int
	spans []span
	cur   int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// track opens the span stack for goroutine tid (a client or rank number).
func (tr *tracer) track(tid int) *track {
	if tr == nil {
		return nil
	}
	t := &track{epoch: tr.epoch, tid: tid, cur: -1}
	tr.mu.Lock()
	tr.tracks = append(tr.tracks, t)
	tr.mu.Unlock()
	return t
}

func (t *track) begin(name string, op int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: name, op: op, parent: t.cur, start: time.Since(t.epoch)})
	t.cur = int32(len(t.spans) - 1)
}

func (t *track) end() {
	if t == nil {
		return
	}
	s := &t.spans[t.cur]
	s.end = time.Since(t.epoch)
	t.cur = s.parent
}

// layerOf returns the layer a span name belongs to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes sums, per layer, every span's duration minus the part its child
// spans cover, in ms, and counts the ops (root spans) recorded.
func (tr *tracer) selfTimes() (byLayer map[string]float64, ops int) {
	byLayer = map[string]float64{}
	for _, t := range tr.tracks {
		self := make([]time.Duration, len(t.spans))
		for i, s := range t.spans {
			self[i] += s.end - s.start
			if s.parent >= 0 {
				self[s.parent] -= s.end - s.start
			} else if s.name == opSpan {
				ops++
			}
		}
		for i, s := range t.spans {
			byLayer[layerOf(s.name)] += float64(self[i].Nanoseconds()) / 1e6
		}
	}
	return byLayer, ops
}

// chromeEvent is one complete ("X") event of the Chrome trace format, which
// chrome://tracing and ui.perfetto.dev open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome-trace JSON.
func (tr *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(w)
	first := true
	for _, t := range tr.tracks {
		for i, s := range t.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			ev := chromeEvent{
				Name: s.name, Cat: layerOf(s.name), Ph: "X",
				Ts:  float64(s.start.Nanoseconds()) / 1e3,
				Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
				Pid: 1, Tid: t.tid,
				Args: map[string]any{"op": s.op, "span": i, "parent": s.parent},
			}
			if err := enc.Encode(ev); err != nil {
				f.Close()
				return err
			}
		}
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
