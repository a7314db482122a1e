package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Tracing for the traced pass. Each op has one root span; on a probed op the
// op itself and every layer probe made with its inputs are the children. Spans are
// kept in memory, one slice per client so that recording takes no lock, and
// written out when the pass ends. End-to-end metrics never come from a
// traced pass.

// span is one timed interval. Start and End are nanoseconds since the pass
// began. Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Op and OK are set on root spans only.
	Op int64 `json:"op,omitempty"`
	OK bool  `json:"ok,omitempty"`
}

// rootName is the name of every root span.
const rootName = "op"

type tracer struct {
	workload string
	start    time.Time
	clients  [][]span
}

// newTracer makes a tracer with room for spansPerClient spans per client,
// so that a long pass does not spend its time and memory growing slices.
func newTracer(workload string, clients, spansPerClient int) *tracer {
	tr := &tracer{workload: workload, start: time.Now(), clients: make([][]span, clients)}
	for c := range tr.clients {
		tr.clients[c] = make([]span, 0, spansPerClient)
	}
	return tr
}

// spanID packs the client and the span's position into one identifier.
func spanID(client, idx int) int64 { return int64(client+1)<<40 | int64(idx+1) }

// op records the root span of op i of client c, which ran from t0 to t1.
// When the op is to be probed, the root is left open for the probes and
// gets the op itself as its first child; the root's id is returned.
func (tr *tracer) op(c int, i int64, t0, t1 time.Time, ok, probed bool) (root int, id int64) {
	root = len(tr.clients[c])
	id = spanID(c, root)
	start, end := int64(t0.Sub(tr.start)), int64(t1.Sub(tr.start))
	tr.clients[c] = append(tr.clients[c], span{ID: id, Name: rootName, Start: start, End: end, Op: i, OK: ok})
	if probed {
		tr.clients[c] = append(tr.clients[c],
			span{ID: spanID(c, root+1), Parent: id, Name: tr.workload + spanOp, Start: start, End: end})
	}
	return root, id
}

// end closes the span at idx.
func (tr *tracer) end(c, idx int) {
	tr.clients[c][idx].End = int64(time.Since(tr.start))
}

// probe times fn as a child span of parent.
func (tr *tracer) probe(c int, parent int64, name string, fn func()) {
	idx := len(tr.clients[c])
	tr.clients[c] = append(tr.clients[c], span{
		ID: spanID(c, idx), Parent: parent, Name: name, Start: int64(time.Since(tr.start)),
	})
	fn()
	tr.end(c, idx)
}

// meanByName returns the mean duration in microseconds and the count of the
// spans of each name.
func meanByName(clients [][]span) (mean map[string]float64, count map[string]int) {
	sum := make(map[string]int64)
	count = make(map[string]int)
	for _, spans := range clients {
		for i := range spans {
			sum[spans[i].Name] += spans[i].End - spans[i].Start
			count[spans[i].Name]++
		}
	}
	mean = make(map[string]float64, len(sum))
	for name, s := range sum {
		mean[name] = float64(s) / float64(count[name]) / 1e3
	}
	return mean, count
}

// selfTimes returns each span's duration minus the time its children cover.
func selfTimes(spans []span) map[int64]int64 {
	self := make(map[int64]int64, len(spans))
	for i := range spans {
		self[spans[i].ID] += spans[i].End - spans[i].Start
		if p := spans[i].Parent; p != 0 {
			self[p] -= spans[i].End - spans[i].Start
		}
	}
	return self
}

// checkSpans reports the first way the spans are malformed: a root without
// an op, a child that is outside its parent or has none, a negative
// duration or a negative self time.
func checkSpans(spans []span) error {
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	ops := make(map[[2]int64]bool)
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			if s.Name != rootName {
				return fmt.Errorf("span %d (%s) has no parent and is not a root", s.ID, s.Name)
			}
			key := [2]int64{s.ID >> 40, s.Op}
			if ops[key] {
				return fmt.Errorf("op %d of client %d has two root spans", s.Op, s.ID>>40)
			}
			ops[key] = true
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) names a parent that was not recorded", s.ID, s.Name)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) is not inside its parent %d", s.ID, s.Name, p.ID)
		}
	}
	for id, t := range selfTimes(spans) {
		if t < 0 {
			return fmt.Errorf("span %d has negative self time %d ns", id, t)
		}
	}
	return nil
}

// traceFile is one entry of what -trace-out writes: the spans of one traced
// pass and the counter deltas per op (compactions: in all) taken at its
// boundaries.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Counters counters `json:"counter_deltas_per_op"`
	Spans    [][]span `json:"spans_by_client"`
}

// writeTraces writes one entry per traced pass to path.
func writeTraces(path string, tf []traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}
