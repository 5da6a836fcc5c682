package wire

// Only this package's tests use what follows.

// Err returns the terminal mux error, or nil while the session is live.
func (m *Mux) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}
