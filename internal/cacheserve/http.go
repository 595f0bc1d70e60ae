package cacheserve

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"repro/internal/metrics"
	"repro/internal/monitor"
)

// debugEpochsServed caps how much governor history /debug/tenants returns.
const debugEpochsServed = 8

// TenantDebug is one tenant's entry in the /debug/tenants payload.
type TenantDebug struct {
	Name       string  `json:"name"`
	QuotaBytes int64   `json:"quota_bytes"`
	BytesUsed  int64   `json:"bytes_used"`
	Keys       int     `json:"keys"`
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	HitRatio   float64 `json:"hit_ratio"`
	Sets       uint64  `json:"sets"`
	Deletes    uint64  `json:"deletes"`
	// SampledAccesses / FedAccesses are the two sides of the UMON sampling
	// ratio (zero when sampling is off). sampled_accesses is hits + misses +
	// sets, every op offered to the feed; each tenant shard forwards one in
	// stride of its own, so once traffic stops fed_accesses·stride falls
	// short of it by at most stride−1 per shard (equal at SampleRate 1).
	SampledAccesses uint64 `json:"sampled_accesses"`
	FedAccesses     uint64 `json:"fed_accesses"`
	// MissCurve samples the tenant's lifetime rescaled miss curve: MissProb[i]
	// is the estimated miss probability at (i+1)/len·CurveTotalLines lines.
	CurveTotalLines uint64    `json:"curve_total_lines"`
	MissProb        []float64 `json:"miss_prob,omitempty"`
}

// DebugPayload is the JSON body served at /debug/tenants.
type DebugPayload struct {
	CapacityBytes int64         `json:"capacity_bytes"`
	LineBytes     int64         `json:"line_bytes"`
	Tenants       []TenantDebug `json:"tenants"`
	// Epochs is the governor's recent decision history, newest first; empty
	// when no governor is attached.
	Epochs []EpochDebug `json:"epochs,omitempty"`
}

// EpochDebug is the JSON shape of one governor EpochDecision.
type EpochDebug struct {
	Epoch       uint64            `json:"epoch"`
	UnixNanos   int64             `json:"unix_nanos"`
	DurationSec float64           `json:"duration_sec"`
	Tenants     []EpochTenantJSON `json:"tenants"`
}

// EpochTenantJSON is the JSON shape of one EpochTenantDecision.
type EpochTenantJSON struct {
	Name            string    `json:"name"`
	CurveAccesses   float64   `json:"curve_accesses"`
	CurveTotalLines uint64    `json:"curve_total_lines"`
	MissProb        []float64 `json:"miss_prob"`
	PrevQuotaBytes  int64     `json:"prev_quota_bytes"`
	NewQuotaBytes   int64     `json:"new_quota_bytes"`
}

// NewHTTPHandler serves the cache's observability surface:
//
//	/metrics        Prometheus text exposition of the registry
//	/debug/tenants  JSON snapshot: quotas, hit ratios, rescaled miss
//	                curves, and the governor's recent epoch decisions
//	/debug/pprof/   the standard runtime profiles
//
// g and reg may be nil (no governor history / no /metrics). The handler only
// reads; it is safe to serve while the load path and governor run.
func NewHTTPHandler(c *Cache, g *Governor, reg *metrics.Registry) http.Handler {
	mux := http.NewServeMux()
	if reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = reg.WriteText(w)
		})
	}
	mux.HandleFunc("/debug/tenants", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(debugSnapshot(c, g))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func debugSnapshot(c *Cache, g *Governor) DebugPayload {
	p := DebugPayload{
		CapacityBytes: c.cfg.CapacityBytes,
		LineBytes:     lineBytes,
	}
	for t, st := range c.Stats() {
		td := TenantDebug{
			Name:            tenantLabel(c, t).Value,
			QuotaBytes:      st.QuotaBytes,
			BytesUsed:       st.BytesUsed,
			Keys:            st.Keys,
			Hits:            st.Hits,
			Misses:          st.Misses,
			HitRatio:        st.HitRatio(),
			Sets:            st.Sets,
			Deletes:         st.Deletes,
			SampledAccesses: st.SampledAccesses,
		}
		if c.feeds != nil {
			td.FedAccesses = c.feeds[t].Fed()
			curve := c.feeds[t].MissCurve(monitor.SampledSnapshot{})
			if curve.Accesses > 0 {
				td.CurveTotalLines = curve.TotalLines
				td.MissProb = make([]float64, epochCurvePoints)
				for i := range td.MissProb {
					td.MissProb[i] = curve.MissProbAt(curve.TotalLines * uint64(i+1) / epochCurvePoints)
				}
			}
		}
		p.Tenants = append(p.Tenants, td)
	}
	if g != nil {
		for _, d := range g.LastEpochs(debugEpochsServed) {
			ed := EpochDebug{
				Epoch:       d.Epoch,
				UnixNanos:   d.UnixNanos,
				DurationSec: d.Duration.Seconds(),
			}
			for _, tn := range d.Tenants {
				ed.Tenants = append(ed.Tenants, EpochTenantJSON{
					Name:            tn.Name,
					CurveAccesses:   tn.CurveAccesses,
					CurveTotalLines: tn.CurveTotalLines,
					MissProb:        tn.MissProb,
					PrevQuotaBytes:  tn.PrevQuotaBytes,
					NewQuotaBytes:   tn.NewQuotaBytes,
				})
			}
			p.Epochs = append(p.Epochs, ed)
		}
	}
	return p
}
