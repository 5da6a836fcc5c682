package plan

import (
	"fmt"

	"piersearch/internal/pier"
)

// Strategy selects the match-phase shape of a compiled plan.
type Strategy int

// Strategies.
const (
	// StrategyAuto lets the planner choose: the single-site cache plan
	// when the catalog has a cache table, the distributed join otherwise.
	StrategyAuto Strategy = iota
	// StrategyJoin matches via the distributed symmetric-hash-join chain
	// over the posting table (Figure 2).
	StrategyJoin
	// StrategyCache ships the whole match to one key owner and filters by
	// substring over the cached fulltext (Figure 3, InvertedCache).
	StrategyCache
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyJoin:
		return "distributed-join"
	case StrategyCache:
		return "inverted-cache"
	default:
		return "auto"
	}
}

// Query is a conjunctive-keyword query over a Catalog's relations.
type Query struct {
	// Terms are the conjunctive keywords, already tokenized.
	Terms []string
	// Strategy picks the match plan; StrategyAuto defers to the planner.
	Strategy Strategy
	// Limit caps the result tuples (0 = unlimited). The cap is pushed
	// into the match phase, so at most Limit candidates are shipped,
	// fetched, or returned by the cache owner.
	Limit int
}

// Catalog binds a planner to concrete relations: which table holds
// postings, which holds the cached fulltext variant, and which maps the
// join value back to the published item.
type Catalog struct {
	// PostingTable is the inverted relation keyed by term whose JoinCol
	// the chain joins over (e.g. Inverted).
	PostingTable string
	// CacheTable is the fulltext-cached variant for StrategyCache (e.g.
	// InvertedCache); empty disables the cache plan.
	CacheTable string
	// ItemTable resolves matched join values to item tuples (e.g. Item);
	// empty compiles plans that stop at the matched values.
	ItemTable string
	// JoinCol is the posting relation's join column (e.g. fileID).
	JoinCol string
	// TextCol is the cache relation's fulltext column (e.g. fulltext).
	TextCol string
}

// Planner compiles Queries into operator trees over one engine. The zero
// value is not usable: both fields are required.
type Planner struct {
	Engine  *pier.Engine
	Catalog Catalog
}

// CompiledPlan is an executable operator tree plus pointers into its
// interesting interior nodes. Drive it with Root.Open/Next/Close (or
// Run); read Match.Stats() for the match phase alone.
type CompiledPlan struct {
	// Root is the tree to execute.
	Root Operator
	// Match is the subtree root whose emissions are the matched join
	// values — the quantity the paper's §5/§7 cost comparisons count.
	// Match.Stats().Tuples is the match count; TotalStats(Match).Bytes is
	// the matching phase's traffic.
	Match Operator
}

// Plan compiles q into an operator tree.
//
// StrategyJoin:
//
//	Limit → DHTFetch(ItemTable) → ChainJoin(PostingTable)
//
// StrategyCache:
//
//	Limit → DHTFetch(ItemTable) → Distinct → Project(JoinCol) → CacheSelect(CacheTable)
//
// The match-phase operator also carries the limit, so candidate shipping
// stops at Limit survivors; the root Limit only caps the fetched items.
func (p *Planner) Plan(q Query) (*CompiledPlan, error) {
	if p.Engine == nil {
		return nil, fmt.Errorf("plan: planner has no engine")
	}
	if len(q.Terms) == 0 {
		return nil, fmt.Errorf("plan: query has no terms")
	}
	strategy := q.Strategy
	if strategy == StrategyAuto {
		if p.Catalog.CacheTable != "" {
			strategy = StrategyCache
		} else {
			strategy = StrategyJoin
		}
	}

	var match Operator
	switch strategy {
	case StrategyJoin:
		if p.Catalog.PostingTable == "" {
			return nil, fmt.Errorf("plan: catalog has no posting table")
		}
		keys := make([]pier.Value, len(q.Terms))
		for i, term := range q.Terms {
			keys[i] = pier.String(term)
		}
		match = &ChainJoin{
			Engine:  p.Engine,
			Table:   p.Catalog.PostingTable,
			Keys:    keys,
			JoinCol: p.Catalog.JoinCol,
			Limit:   q.Limit,
		}

	case StrategyCache:
		if p.Catalog.CacheTable == "" {
			return nil, fmt.Errorf("plan: catalog has no cache table")
		}
		sch, ok := p.Engine.Schema(p.Catalog.CacheTable)
		if !ok {
			return nil, fmt.Errorf("%w: %s", pier.ErrNoSuchTable, p.Catalog.CacheTable)
		}
		joinIdx := sch.ColIndex(p.Catalog.JoinCol)
		if joinIdx < 0 {
			return nil, fmt.Errorf("%w: %s.%s", pier.ErrNoSuchColumn, p.Catalog.CacheTable, p.Catalog.JoinCol)
		}
		match = &Distinct{
			Input: &Project{
				Input: &CacheSelect{
					Engine:  p.Engine,
					Table:   p.Catalog.CacheTable,
					Key:     pier.String(q.Terms[0]),
					Filters: q.Terms[1:],
					TextCol: p.Catalog.TextCol,
					Limit:   q.Limit,
				},
				Cols: []int{joinIdx},
			},
		}

	default:
		return nil, fmt.Errorf("plan: unknown strategy %d", strategy)
	}

	root := match
	if p.Catalog.ItemTable != "" {
		root = &DHTFetch{
			Engine: p.Engine,
			Table:  p.Catalog.ItemTable,
			KeyCol: 0,
			Input:  root,
		}
	}
	root = &Limit{Input: root, N: q.Limit}
	return &CompiledPlan{Root: root, Match: match}, nil
}
