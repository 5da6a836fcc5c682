package plan

import (
	"context"

	"piersearch/internal/pier"
)

// OpStats describes the cost one operator has accrued so far: the engine
// costs of the calls it made itself (see pier.OpStats) and the tuples it
// emitted. Counters are per-operator (a parent does not fold in its
// children); use TotalStats to cost a whole tree.
type OpStats struct {
	pier.OpStats
	// Tuples counts tuples this operator has emitted from Next.
	Tuples int
}

// Add merges o into s. Additive counters sum; MaxInFlight takes the
// maximum (two operators each holding k concurrent ops do not make the
// query 2k-wide unless they actually overlap, which per-op stats cannot
// see — the maximum is the conservative merge).
func (s *OpStats) Add(o OpStats) {
	s.OpStats.Add(o.OpStats)
	s.Tuples += o.Tuples
}

// Operator is one node of a query plan: a pull-based tuple stream in the
// Volcano style, threaded with a context so wide-area work can be canceled
// mid-flight. See doc.go for the full Open/Next/Close contract.
type Operator interface {
	// Open prepares the operator (and, transitively, its inputs) for
	// iteration under ctx. The context governs every DHT operation the
	// operator issues for the lifetime of the iteration, not just the
	// Open call.
	Open(ctx context.Context) error
	// Next returns the next tuple, ErrDone on exhaustion, or an execution
	// error (tagged ErrCanceled when the context caused it).
	Next() (pier.Tuple, error)
	// Close releases resources. Idempotent; legal in any state.
	Close() error
	// Stats reports the cost accrued so far by this operator alone.
	Stats() OpStats
}

// InputsOperator is implemented by operators with child operators; Walk
// and TotalStats use it to traverse a plan tree.
type InputsOperator interface {
	Inputs() []Operator
}

// Walk visits op and every transitive input, parent first.
func Walk(op Operator, fn func(Operator)) {
	if op == nil {
		return
	}
	fn(op)
	if t, ok := op.(InputsOperator); ok {
		for _, c := range t.Inputs() {
			Walk(c, fn)
		}
	}
}

// TotalStats sums the per-operator stats over the whole tree rooted at op:
// the network cost of the query as dispatched from the origin. (Tuples
// sums every operator's emissions — a work measure, not a result count;
// read the root's own Stats for results emitted.)
func TotalStats(op Operator) OpStats {
	var s OpStats
	Walk(op, func(o Operator) { s.Add(o.Stats()) })
	return s
}
