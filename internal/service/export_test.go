package service

// Only this package's tests use what follows.

// ActiveQueries returns the number of queries currently admitted — the
// quantity MaxQueries bounds.
func (s *Server) ActiveQueries() int { return len(s.sem) }
