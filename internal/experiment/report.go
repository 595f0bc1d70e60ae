package experiment

import (
	"fmt"
	"html"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// ScenarioTables renders a scenario outcome as the experiment suite's table
// form: a per-scheme summary, a per-slot breakdown, and — when the run was
// windowed — a long-form per-window tail table with fault annotations. Rows
// are labelled by the scheme's catalogue key (ubik|slack=0.01), so two
// entries of one scheme stay distinguishable.
func ScenarioTables(out *ScenarioOutcome) []Table {
	tables := []Table{scenarioSummaryTable(out), scenarioSlotTable(out)}
	if out.WindowCycles > 0 {
		tables = append(tables, scenarioWindowTable(out))
	}
	return tables
}

// scenarioSummaryTable is the one-row-per-scheme headline: tail latency
// against the isolated pooled tail, degradation and batch throughput for
// single-node runs; query tails, the isolated leaf tail and amplification for
// cluster runs.
func scenarioSummaryTable(out *ScenarioOutcome) Table {
	t := Table{
		ID:    "scenario-summary",
		Title: fmt.Sprintf("scenario %q: per-scheme summary", out.Spec.Name),
	}
	if out.Spec.IsCluster() {
		t.Header = []string{"scheme", "queries", "mean", "p95", "p99", "tail_mean", "isolated_tail", "tail_amp", "hedge_wins"}
		for _, sc := range out.Schemes {
			r := sc.Cluster
			t.Rows = append(t.Rows, []string{
				sc.Scheme.Key(), strconv.FormatUint(r.Queries, 10),
				f0(r.Mean), f0(r.P95), f0(r.P99), f0(r.TailMean), f0(out.Baselines[0].TailLatency),
				f3(sc.TailAmplification), strconv.FormatUint(r.HedgeWins, 10),
			})
		}
		return t
	}
	t.Header = []string{"scheme", "pooled_lc_tail", "isolated_tail", "degradation", "weighted_speedup"}
	for _, sc := range out.Schemes {
		t.Rows = append(t.Rows, []string{
			sc.Scheme.Key(), f0(sc.PooledLCTail), f0(out.IsolatedPooledTail), f3(sc.Degradation), f3(sc.WeightedSpeedup),
		})
	}
	return t
}

// scenarioSlotTable breaks each scheme down by app slot (single-node) or by
// node (cluster).
func scenarioSlotTable(out *ScenarioOutcome) Table {
	t := Table{
		ID:    "scenario-slots",
		Title: fmt.Sprintf("scenario %q: per-slot breakdown", out.Spec.Name),
	}
	if out.Spec.IsCluster() {
		t.Header = []string{"scheme", "node", "leaves", "leaf_mean", "leaf_p95", "leaf_p99", "lc_ipc", "llc_miss", "faults"}
		for _, sc := range out.Schemes {
			for n, nr := range sc.Cluster.Nodes {
				// A node the fault plan starved of every measured leaf skips
				// its simulation: its replica columns read zero.
				var lc sim.AppResult
				if lcs := nr.Sim.LCResults(); len(lcs) > 0 {
					lc = lcs[0]
				}
				t.Rows = append(t.Rows, []string{sc.Scheme.Key(), strconv.Itoa(n),
					strconv.FormatUint(nr.Leaves, 10), f0(nr.LeafMean), f0(nr.LeafP95), f0(nr.LeafP99),
					f3(lc.IPC), f3(lc.MissRate), nodeFaultSummary(out.Spec, n)})
			}
		}
		return t
	}
	t.Header = []string{"scheme", "slot", "app", "kind", "mean_latency", "tail_latency", "ipc", "missrate", "l1hit", "l2hit"}
	for _, sc := range out.Schemes {
		for i, a := range sc.Sim.Apps {
			kind, meanLat, tailLat := "batch", "-", "-"
			if a.LatencyCritical {
				kind = "lc"
				meanLat, tailLat = f0(a.MeanLatency), f0(a.TailLatency)
			}
			t.Rows = append(t.Rows, []string{
				sc.Scheme.Key(), strconv.Itoa(i), a.Name, kind, meanLat, tailLat,
				f3(a.IPC), f3(a.MissRate), f3(a.L1HitFraction), f3(a.L2HitFraction),
			})
		}
	}
	return t
}

// scenarioWindowTable is the long-form per-window tail table: one row per
// (scheme, window), with the fault-plan entries active in the window
// annotated so tail inflation reads directly against its cause.
func scenarioWindowTable(out *ScenarioOutcome) Table {
	t := Table{
		ID:    "scenario-windows",
		Title: fmt.Sprintf("scenario %q: per-window tails (width %d cycles)", out.Spec.Name, out.WindowCycles),
		Header: []string{"scheme", "window", "start_cycle", "end_cycle", "count",
			"mean", "p95", "p99", "tail_mean", "faults"},
	}
	for _, sc := range out.Schemes {
		for _, w := range sc.Windows {
			t.Rows = append(t.Rows, []string{
				sc.Scheme.Key(), strconv.FormatUint(w.Index, 10),
				strconv.FormatUint(w.StartCycle, 10), strconv.FormatUint(w.EndCycle, 10),
				strconv.FormatUint(w.Count, 10),
				f0(w.Mean), f0(w.P95), f0(w.P99), f0(w.TailMean),
				strings.Join(WindowFaults(out.Spec, w.StartCycle, w.EndCycle), " "),
			})
		}
	}
	return t
}

// nodeFaultSummary lists the fault kinds the plan schedules for a node.
func nodeFaultSummary(spec scenario.Spec, n int) string {
	var kinds []string
	for _, f := range spec.Faults {
		if f.Node == n {
			kinds = append(kinds, f.Kind)
		}
	}
	return strings.Join(kinds, " ")
}

// ScenarioCSV renders the per-window table (or, for unwindowed runs, the
// summary table) as CSV — the machine-readable half of the report.
func ScenarioCSV(out *ScenarioOutcome) string {
	if out.WindowCycles > 0 {
		return scenarioWindowTable(out).CSV()
	}
	return scenarioSummaryTable(out).CSV()
}

// ScenarioHTML renders the whole outcome as a standalone HTML report:
// scenario header, per-scheme summary, per-slot breakdown and — when
// windowed — the per-window tail table with fault windows highlighted.
func ScenarioHTML(out *ScenarioOutcome) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>scenario report: %s</title>\n", html.EscapeString(out.Spec.Name))
	b.WriteString(`<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #999; padding: 0.25em 0.6em; text-align: right; }
th { background: #eee; }
td:first-child, th:first-child { text-align: left; }
tr.fault td { background: #fff0f0; }
caption { caption-side: top; font-weight: bold; text-align: left; padding: 0.3em 0; }
</style>
`)
	b.WriteString("</head>\n<body>\n")
	fmt.Fprintf(&b, "<h1>Scenario report: %s</h1>\n", html.EscapeString(out.Spec.Name))
	if out.Spec.Description != "" {
		fmt.Fprintf(&b, "<p>%s</p>\n", html.EscapeString(out.Spec.Description))
	}
	fmt.Fprintf(&b, "<p>seed %d, request factor %.3g", out.Spec.SeedOrDefault(), out.Spec.RequestFactorOrDefault())
	if out.Spec.IsCluster() {
		fmt.Fprintf(&b, ", %d-node cluster", out.Spec.Cluster.Nodes)
	}
	if len(out.Spec.Faults) > 0 {
		fmt.Fprintf(&b, ", %d fault-plan entries (highlighted windows)", len(out.Spec.Faults))
	}
	b.WriteString(".</p>\n")
	for _, t := range ScenarioTables(out) {
		writeHTMLTable(&b, t, out)
	}
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

// writeHTMLTable renders one experiment table as HTML, marking rows of the
// per-window table whose window has active faults.
func writeHTMLTable(b *strings.Builder, t Table, out *ScenarioOutcome) {
	fmt.Fprintf(b, "<table>\n<caption>%s</caption>\n<tr>", html.EscapeString(t.Title))
	faultCol := -1
	if t.ID == "scenario-windows" {
		faultCol = len(t.Header) - 1
	}
	for _, h := range t.Header {
		fmt.Fprintf(b, "<th>%s</th>", html.EscapeString(h))
	}
	b.WriteString("</tr>\n")
	for _, row := range t.Rows {
		cls := ""
		if faultCol >= 0 && faultCol < len(row) && row[faultCol] != "" {
			cls = ` class="fault"`
		}
		fmt.Fprintf(b, "<tr%s>", cls)
		for _, c := range row {
			fmt.Fprintf(b, "<td>%s</td>", html.EscapeString(c))
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table>\n")
}

// WriteScenarioReport writes the HTML and CSV report files for an outcome
// into dir (created if missing), named after the scenario. Returns the two
// paths written.
func WriteScenarioReport(out *ScenarioOutcome, dir string) (htmlPath, csvPath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", fmt.Errorf("report: %w", err)
	}
	slug := scenarioSlug(out.Spec.Name)
	htmlPath = filepath.Join(dir, slug+".html")
	csvPath = filepath.Join(dir, slug+".csv")
	if err := os.WriteFile(htmlPath, []byte(ScenarioHTML(out)), 0o644); err != nil {
		return "", "", fmt.Errorf("report: %w", err)
	}
	if err := os.WriteFile(csvPath, []byte(ScenarioCSV(out)), 0o644); err != nil {
		return "", "", fmt.Errorf("report: %w", err)
	}
	return htmlPath, csvPath, nil
}

// scenarioSlug turns a scenario name into a safe file stem.
func scenarioSlug(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	if b.Len() == 0 {
		return "scenario"
	}
	return b.String()
}
