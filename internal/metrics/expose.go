package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteText renders every registered family in Prometheus text exposition
// format (version 0.0.4): families sorted by name, children sorted by label
// signature, histograms expanded into cumulative _bucket/_sum/_count series.
// Collectors registered with OnCollect run first, so mirrored state is fresh.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fn := range r.collectors {
		fn()
	}
	fams := append([]*family(nil), r.families...)
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, ch := range f.children {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, ch.sig, ch.counterValue())
			case kindGauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, ch.sig, formatFloat(ch.g.Value()))
			case kindHistogram:
				bounds, cum := ch.h.CumulativeBuckets()
				for i, b := range bounds {
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, withLE(ch.sig, b), cum[i])
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, ch.sig, formatFloat(ch.h.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, ch.sig, ch.h.Count())
			}
		}
	}
	return bw.Flush()
}

// SnapshotMetric is one instrument's state in a JSON snapshot.
type SnapshotMetric struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter count or gauge value. Histograms report Sum,
	// Count and Buckets instead.
	Value   float64          `json:"value,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Count   uint64           `json:"count,omitempty"`
	Buckets []SnapshotBucket `json:"buckets,omitempty"`
}

// SnapshotBucket is one cumulative histogram bucket; UpperBound is
// math.Inf(1) for the last bucket, serialised as "+Inf".
type SnapshotBucket struct {
	UpperBound float64 `json:"le"`
	Cumulative uint64  `json:"cumulative"`
}

// MarshalJSON renders the +Inf bound as the string "+Inf" (JSON numbers
// cannot express infinity).
func (b SnapshotBucket) MarshalJSON() ([]byte, error) {
	le := "\"+Inf\""
	if !math.IsInf(b.UpperBound, 1) {
		le = formatFloat(b.UpperBound)
	}
	return []byte(fmt.Sprintf(`{"le":%s,"cumulative":%d}`, le, b.Cumulative)), nil
}

// Snapshot returns every instrument's current state, in the same stable
// order as WriteText. Collectors run first.
func (r *Registry) Snapshot() []SnapshotMetric {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fn := range r.collectors {
		fn()
	}
	fams := append([]*family(nil), r.families...)
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var out []SnapshotMetric
	for _, f := range fams {
		for _, ch := range f.children {
			m := SnapshotMetric{Name: f.name, Type: string(f.kind)}
			if len(ch.labels) > 0 {
				m.Labels = make(map[string]string, len(ch.labels))
				for _, l := range ch.labels {
					m.Labels[l.Key] = l.Value
				}
			}
			switch f.kind {
			case kindCounter:
				m.Value = float64(ch.counterValue())
			case kindGauge:
				m.Value = ch.g.Value()
			case kindHistogram:
				bounds, cum := ch.h.CumulativeBuckets()
				m.Sum = ch.h.Sum()
				m.Count = ch.h.Count()
				m.Buckets = make([]SnapshotBucket, len(bounds))
				for i := range bounds {
					m.Buckets[i] = SnapshotBucket{UpperBound: bounds[i], Cumulative: cum[i]}
				}
			}
			out = append(out, m)
		}
	}
	return out
}

// counterValue reads whichever counter representation the child holds.
func (ch *child) counterValue() uint64 {
	if ch.sc != nil {
		return ch.sc.Value()
	}
	return ch.c.Value()
}

// withLE splices an `le` label into an existing (possibly empty) signature.
func withLE(sig string, bound float64) string {
	le := `le="` + formatLE(bound) + `"`
	if sig == "" {
		return "{" + le + "}"
	}
	return sig[:len(sig)-1] + "," + le + "}"
}

// formatLE renders a bucket bound the way Prometheus clients do: +Inf for
// the terminal bucket, shortest round-trip float otherwise.
func formatLE(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// formatFloat renders a sample value: NaN and ±Inf use Prometheus spellings.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue escapes backslash, double-quote and newline per the
// exposition format.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
