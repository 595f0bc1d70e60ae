package cache

import "fmt"

// ArrayKind selects the underlying cache array organisation.
type ArrayKind int

const (
	// ArraySetAssoc is a conventional set-associative array.
	ArraySetAssoc ArrayKind = iota
	// ArrayZCache is a skew-associative zcache with a replacement walk.
	ArrayZCache
)

// String implements fmt.Stringer.
func (k ArrayKind) String() string {
	switch k {
	case ArraySetAssoc:
		return "SetAssoc"
	case ArrayZCache:
		return "ZCache"
	default:
		return fmt.Sprintf("ArrayKind(%d)", int(k))
	}
}

// ArrayConfig describes an LLC configuration; it covers every array/scheme
// combination evaluated in the paper (Figure 13): way-partitioning and
// Vantage on 16- and 64-way set-associative arrays, and Vantage on the default
// 4-way 52-candidate zcache, plus unpartitioned LRU baselines.
type ArrayConfig struct {
	// Kind selects the array organisation.
	Kind ArrayKind
	// Lines is the total capacity in cache lines.
	Lines uint64
	// Ways is the associativity (hash ways for a zcache).
	Ways int
	// Candidates is the replacement-walk budget (zcache only; ignored for
	// set-associative arrays).
	Candidates int
	// Mode selects the replacement/partitioning scheme.
	Mode ReplacementMode
	// Partitions is the number of partitions to support.
	Partitions int
}

// Validate reports configuration problems.
func (c ArrayConfig) Validate() error {
	if c.Lines == 0 {
		return fmt.Errorf("cache: config needs a positive line count")
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: config needs positive ways")
	}
	if c.Partitions <= 0 {
		return fmt.Errorf("cache: config needs at least one partition")
	}
	if c.Kind == ArrayZCache {
		if c.Candidates < c.Ways {
			return fmt.Errorf("cache: zcache config needs candidates >= ways")
		}
		return checkZLines(c.Lines)
	}
	return nil
}

// String returns a compact description such as "Vantage Z4/52" or
// "WayPartition SA16", matching the labels used in the paper's Figure 13.
func (c ArrayConfig) String() string {
	switch c.Kind {
	case ArrayZCache:
		return fmt.Sprintf("%s Z%d/%d", c.Mode, c.Ways, c.Candidates)
	default:
		return fmt.Sprintf("%s SA%d", c.Mode, c.Ways)
	}
}

// New builds a cache from the configuration.
func New(cfg ArrayConfig) (Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Kind {
	case ArrayZCache:
		return NewZCache(cfg.Lines, cfg.Ways, cfg.Candidates, cfg.Mode, cfg.Partitions)
	case ArraySetAssoc:
		return NewSetAssoc(cfg.Lines, cfg.Ways, cfg.Mode, cfg.Partitions)
	default:
		return nil, fmt.Errorf("cache: unknown array kind %v", cfg.Kind)
	}
}

// DefaultZ452 returns the paper's default LLC organisation — Vantage on a
// 4-way, 52-candidate zcache — with the given capacity and partition count.
func DefaultZ452(lines uint64, partitions int) ArrayConfig {
	return ArrayConfig{
		Kind: ArrayZCache, Lines: lines, Ways: 4, Candidates: 52,
		Mode: ModeVantage, Partitions: partitions,
	}
}
