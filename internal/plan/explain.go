package plan

import (
	"fmt"
	"strings"
)

// Describer is implemented by operators that can render themselves for
// Explain; operators without it fall back to their Go type name.
type Describer interface {
	// Describe returns a one-line rendering of the operator and its
	// parameters, e.g. `ChainJoin(Inverted, keys=[madonna prayer], limit=50)`.
	Describe() string
}

// Explain renders the operator tree rooted at op as an indented
// pretty-printed plan, one operator per line, each annotated with the
// stats it has accrued so far. Called on a freshly compiled plan it shows
// the shape the planner chose; called after execution it is a per-operator
// cost profile:
//
//	Limit(n=50) [tuples=12]
//	└─ DHTFetch(Item, workers=8) [tuples=12 msgs=40 bytes=18.2KB maxInFlight=8]
//	   └─ ChainJoin(Inverted, keys=[madonna prayer], limit=50) [tuples=12 msgs=31 bytes=2.1KB hops=14 postings=57]
func Explain(op Operator) string {
	var b strings.Builder
	explain(&b, op, "", "")
	return strings.TrimRight(b.String(), "\n")
}

func explain(b *strings.Builder, op Operator, prefix, childPrefix string) {
	b.WriteString(prefix)
	b.WriteString(describe(op))
	b.WriteString(" ")
	b.WriteString(formatStats(op.Stats()))
	b.WriteString("\n")
	var inputs []Operator
	if t, ok := op.(InputsOperator); ok {
		inputs = t.Inputs()
	}
	for i, c := range inputs {
		if c == nil {
			continue
		}
		if i == len(inputs)-1 {
			explain(b, c, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			explain(b, c, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

// describe renders one operator's head line.
func describe(op Operator) string {
	if d, ok := op.(Describer); ok {
		return d.Describe()
	}
	name := fmt.Sprintf("%T", op)
	name = strings.TrimPrefix(name, "*")
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// formatStats renders an operator's accrued stats, eliding zero fields so
// an unexecuted plan reads as pure shape.
func formatStats(s OpStats) string {
	parts := []string{fmt.Sprintf("tuples=%d", s.Tuples)}
	if s.Messages > 0 {
		parts = append(parts, fmt.Sprintf("msgs=%d", s.Messages))
	}
	if s.Bytes > 0 {
		parts = append(parts, "bytes="+formatBytes(s.Bytes))
	}
	if s.Hops > 0 {
		parts = append(parts, fmt.Sprintf("hops=%d", s.Hops))
	}
	if s.PostingShipped > 0 {
		parts = append(parts, fmt.Sprintf("postings=%d", s.PostingShipped))
	}
	if s.MaxInFlight > 0 {
		parts = append(parts, fmt.Sprintf("maxInFlight=%d", s.MaxInFlight))
	}
	if s.CacheHits > 0 {
		parts = append(parts, fmt.Sprintf("cacheHits=%d", s.CacheHits))
	}
	if s.Coalesced > 0 {
		parts = append(parts, fmt.Sprintf("coalesced=%d", s.Coalesced))
	}
	if s.FanoutReads > 0 {
		parts = append(parts, fmt.Sprintf("fanout=%d", s.FanoutReads))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func formatBytes(n int) string {
	if n < 1024 {
		return fmt.Sprintf("%dB", n)
	}
	return fmt.Sprintf("%.1fKB", float64(n)/1024)
}

// Explain renders the compiled plan's tree; see the package-level Explain.
func (p *CompiledPlan) Explain() string { return Explain(p.Root) }

// --- per-operator descriptions ----------------------------------------------

// Describe implements Describer.
func (o *ChainJoin) Describe() string {
	keys := make([]string, len(o.Keys))
	for i, k := range o.Keys {
		keys[i] = k.Text()
	}
	return fmt.Sprintf("ChainJoin(%s, keys=[%s], joinCol=%s, limit=%d)",
		o.Table, strings.Join(keys, " "), o.JoinCol, o.Limit)
}

// Describe implements Describer.
func (o *CacheSelect) Describe() string {
	return fmt.Sprintf("CacheSelect(%s, key=%s, filters=[%s], limit=%d)",
		o.Table, o.Key.Text(), strings.Join(o.Filters, " "), o.Limit)
}

// Describe implements Describer.
func (o *DHTFetch) Describe() string {
	return fmt.Sprintf("DHTFetch(%s, keyCol=%d, workers=%d)", o.Table, o.KeyCol, o.Engine.Workers())
}

// Describe implements Describer.
func (o *Limit) Describe() string { return fmt.Sprintf("Limit(n=%d)", o.N) }

// Describe implements Describer.
func (o *Project) Describe() string {
	cols := make([]string, len(o.Cols))
	for i, c := range o.Cols {
		cols[i] = fmt.Sprint(c)
	}
	return fmt.Sprintf("Project(cols=[%s])", strings.Join(cols, " "))
}

// Describe implements Describer.
func (o *Distinct) Describe() string {
	if len(o.Cols) == 0 {
		return "Distinct"
	}
	cols := make([]string, len(o.Cols))
	for i, c := range o.Cols {
		cols[i] = fmt.Sprint(c)
	}
	return fmt.Sprintf("Distinct(cols=[%s])", strings.Join(cols, " "))
}
