// Package hybrid implements the paper's hybrid search infrastructure (§5,
// §7): rare-item identification schemes that decide which files the DHT
// partial index should hold, and the hybrid ultrapeer that floods Gnutella
// first and re-queries PIERSearch when flooding comes up empty.
//
// The hybrid node publishes and queries through the piersearch pipeline,
// so it inherits that package's concurrency: rare-item publishing fans
// out through pier.(*Engine).PublishBatch and the PIER re-query overlaps
// its probes and fetches. The fan-out bound is the underlying engine's
// pier.Config.Workers (default 8), the only one; build engines with
// Workers: 1 for the paper's sequential behaviour. Note the discrete-event
// Gnutella simulation itself stays single-threaded — concurrency applies
// to the DHT side, which runs outside simulated time.
package hybrid
