package scale

// Only this package's tests use what follows.

// Down reports whether addr is currently detached.
func (vn *Net) Down(addr string) bool {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	return vn.down[addr]
}
