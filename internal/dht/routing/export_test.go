package routing

// Only this package's tests use what follows.

// Self returns the owner's identifier.
func (t *Table) Self() ID { return t.self }

// Contains reports whether id is in the table.
func (t *Table) Contains(id ID) bool {
	idx := BucketIndex(t.self, id)
	if idx < 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buckets[idx].indexOf(id) >= 0
}
